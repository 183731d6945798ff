"""Command line behavior: exit codes, JSON payloads, determinism."""

import io
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from orefree import cli

SHIFT = """\
field: Q
vars: t
sigma.t: t + 1
sigma_inv.t: t - 1
"""

NEGATION = """\
field: Q
vars: t
sigma.t: -t
sigma_inv.t: -t
"""

DDT = """\
field: Q
vars: t
delta.t: 1
"""

# delta(s) != 0 where sigma moves only t; delta(t) != 0 where sigma fixes t
INCONSISTENT_QTS = [
    "field: Q\nvars: t, s\nsigma.t: t + 1\nsigma_inv.t: t - 1\ndelta.s: 1\n",
    "field: Q\nvars: t, s\nsigma.s: s + 1\nsigma_inv.s: s - 1\ndelta.t: 1\n",
]

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FIXTURES = os.path.join(ROOT, "demos", "problems")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def problem_file(tmp_path, text, name="p.ore"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify_emits_verdict_json(tmp_path, capsys):
    path = problem_file(tmp_path, NEGATION)
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "PI" and doc["central_power"] == 2
    assert doc["meta"]["command"] == "classify"
    assert "PI" in err


def test_stdout_is_pure_json_and_summary_goes_to_stderr(tmp_path, capsys):
    path = problem_file(tmp_path, DDT)
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 0
    json.loads(out)
    assert err.strip().startswith("verdict:")


def test_byte_identical_reruns(tmp_path, capsys):
    path = problem_file(tmp_path, SHIFT)
    _, out1, _ = run_cli(capsys, "classify", path)
    _, out2, _ = run_cli(capsys, "classify", path)
    assert out1 == out2


@pytest.mark.parametrize("name,line", [
    ("shift", "bounded relation at length 3: "
              "+1*W_01 -1*W_10 +1*W_101 -1*W_11 = 0"),
    ("ddt", "bounded relation at length 3: -1*W_000 +1*W_01 -1*W_10 = 0"),
    ("mixed", "bounded relation at length 3: "
              "+1*W_01 -1*W_10 +1*W_101 -1*W_11 = 0"),
])
def test_fixture_bounded_relation_lines(capsys, name, line):
    # the relation each Weyl-route fixture reports at length 3, as it
    # stood before generator-only verification of Dependent certificates
    code, out, _ = run_cli(capsys, "classify",
                           os.path.join(FIXTURES, name + ".ore"))
    assert code == 0
    diagnostics = json.loads(out)["diagnostics"]
    assert [d for d in diagnostics
            if d.startswith("bounded relation")] == [line]


def test_freeness_command(tmp_path, capsys):
    path = problem_file(tmp_path, SHIFT)
    code, out, _ = run_cli(capsys, "freeness", path, "--b", "1/t",
                           "--max-len", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Independent"
    assert doc["word_count"] == 7 and doc["rank"] == 7
    assert doc["witness"] == "1/t"


def test_orbit_command(tmp_path, capsys):
    path = problem_file(tmp_path, NEGATION)
    code, out, _ = run_cli(capsys, "orbit", path, "--elem", "t",
                           "--bound", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "finite" and doc["period"] == 2


def test_tower_command(tmp_path, capsys):
    text = "field: Fp 5\nvars: x0, x1\ndelta.x0: x1\ndelta.x1: 0\n"
    path = problem_file(tmp_path, text)
    code, out, _ = run_cli(capsys, "tower", path, "--elem", "x0",
                           "--depth", "3")
    assert code == 0
    doc = json.loads(out)
    assert [lv["status"] for lv in doc["levels"]] == ["strict", "stalled"]


def test_normalize_command(tmp_path, capsys):
    text = SHIFT + "delta.t: t\n"
    path = problem_file(tmp_path, text)
    code, out, _ = run_cli(capsys, "normalize", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == "t"
    assert "sigma.t: t + 1" in doc["problem"]
    assert "delta" not in doc["problem"]


def test_compute_command(tmp_path, capsys):
    path = problem_file(tmp_path, SHIFT)
    code, out, _ = run_cli(capsys, "compute", path, "--expr",
                           "(1 - X)*inv(1 - X)")
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_parse_error_exits_one_with_position(tmp_path, capsys):
    path = problem_file(tmp_path, "field: Q\nvars: t\nsigma.t: t +\n")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ParseError"
    assert doc["position"] == {"line": 3, "col": 13}


def test_zero_witness_reports_its_own_position(tmp_path, capsys):
    # the option's line and the column of its value, not line 1, col 1
    path = problem_file(tmp_path, SHIFT + "option.witness:   0\n")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ParseError"
    assert "option.witness must be nonzero" in doc["detail"]
    assert doc["position"] == {"line": 5, "col": 19}


def test_missing_file_exits_one(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "classify", str(tmp_path / "none.ore"))
    assert code == 1
    assert json.loads(out)["error"] == "FileNotFoundError"


def test_presentation_error_exits_two(tmp_path, capsys):
    path = problem_file(tmp_path,
                        "field: Q\nvars: t\nsigma.t: t^2\nsigma_inv.t: t\n")
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 2
    assert json.loads(out)["error"] == "NotAnAutomorphism"
    for text in INCONSISTENT_QTS:
        path = problem_file(tmp_path, text)
        code, out, _ = run_cli(capsys, "classify", path)
        assert code == 2
        assert json.loads(out)["error"] == "InconsistentDerivation"


def test_resource_bound_exits_three(tmp_path, capsys):
    path = problem_file(tmp_path, SHIFT)
    code, out, _ = run_cli(capsys, "freeness", path, "--b", "1/t",
                           "--max-len", "12")
    assert code == 3
    assert json.loads(out)["error"] == "ResourceBoundExceeded"


def test_huge_power_refused_at_once(tmp_path):
    # t^100000000 is refused from its degree before any squaring; run in a
    # child process under a timeout, since an accepted power would not end
    path = problem_file(tmp_path, SHIFT)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "orefree.cli", "freeness", path, "--b",
         "t^100000000", "--max-len", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "ResourceBoundExceeded"


def test_internal_error_exits_four(tmp_path, capsys, monkeypatch):
    def boom(spec):
        raise RuntimeError("wedged")

    monkeypatch.setattr(cli, "classify_problem", boom)
    path = problem_file(tmp_path, SHIFT)
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "InternalError" and "wedged" in doc["detail"]


def test_bad_flags_exit_one(capsys):
    # an unknown command and an empty argument list name no command
    for argv in (["no-such-command"], []):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"] == "UsageError"


# each command's required options, with values that parse
REQUIRED = {
    "classify": [], "freeness": ["--b", "1/t"], "normalize": [],
    "orbit": ["--elem", "t"], "tower": ["--elem", "t"],
    "compute": ["--expr", "X"],
}


def full_tree(capsys, *argv):
    """Exit code and stdout of the parser tree with every subcommand."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(list(argv))
    return exc.value.code, capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_command_help_matches_full_tree(capsys, command):
    code, out, _ = run_cli(capsys, command, "-h")
    assert code == 0 and "usage: orefree %s " % command in out
    assert (code, out) == full_tree(capsys, command, "-h")


@pytest.mark.parametrize("command", sorted(REQUIRED))
def test_command_usage_errors_exit_one(capsys, command):
    path = os.path.join(FIXTURES, "negation.ore")
    required = REQUIRED[command]
    cases = [
        [command],                                   # no problem file
        [command, path] + required[:-2],             # a required option
        [command, path] + required + ["--bound", "x"],
        [command, path] + required + ["--no-such-flag"],
    ]
    if not required:
        del cases[1]
    for argv in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1, argv
        assert json.loads(out) == {
            "error": "UsageError", "detail": "invalid arguments",
            "meta": {"tool": "orefree", "version": cli.__version__,
                     "command": None}}, argv


def test_command_run_builds_one_parser(capsys, monkeypatch):
    built = []
    parser_class = cli.argparse.ArgumentParser
    init = parser_class.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(parser_class, "__init__", counting_init)
    code, _, _ = run_cli(capsys, "orbit",
                         os.path.join(FIXTURES, "negation.ore"),
                         "--elem", "t")
    assert code == 0 and built == ["orefree orbit"]
    # help names no command: the full tree, one parser per command and
    # the top one
    del built[:]
    assert run_cli(capsys, "--help")[0] == 0
    assert len(built) == len(REQUIRED) + 1


def test_stdin_dash_reads_problem(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(NEGATION))
    code, out, _ = run_cli(capsys, "orbit", "-", "--elem", "t")
    assert code == 0
    assert json.loads(out)["period"] == 2


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out == cli.__version__ + "\n"
    assert (code, out) == full_tree(capsys, "--version")


def test_console_script_is_wired():
    proc = subprocess.run([sys.executable, "-m", "orefree.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def readme_block(heading, lang):
    """The first fenced ``lang`` block under the README's ``## heading``."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## %s\n" % heading, 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_readme_examples_run(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(readme_block("Library", "python"), {})
    assert capsys.readouterr().out.startswith("Dependent")
    lines = [ln for ln in readme_block("Command line", "sh").splitlines()
             if ln.startswith("orefree ")]
    assert lines
    for line in lines:
        code, out, _ = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, line
        json.loads(out)


def test_ore_powers_bounded_by_degree(tmp_path):
    # X^100000 is refused from its x-degree before any product (exit code
    # 3); t^100000 is the field's own power, and X^512 under d/dt squares.
    # Run in child processes under a timeout, since an unbounded product
    # loop would not end
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    shift, ddt = problem_file(tmp_path, SHIFT), problem_file(tmp_path, DDT,
                                                             "ddt.ore")

    def compute(path, expr):
        proc = subprocess.run(
            [sys.executable, "-m", "orefree.cli", "compute", path, "--expr",
             expr], capture_output=True, text=True, env=env, timeout=60)
        doc = json.loads(proc.stdout)
        return proc.returncode, doc.get("value", doc.get("error"))

    assert compute(shift, "X^100000") == (3, "ResourceBoundExceeded")
    for path in (shift, ddt):
        assert compute(path, "t^100000") == (0, "t^100000")
    assert compute(ddt, "X^512") == (0, "X^512")
    # printed as before the powers squared
    for path in (shift, ddt):
        assert compute(path, "X^2") == (0, "X^2")
        assert compute(path, "inv(1 - X)^3") == (
            0, "inv(X^3 - 3*X^2 + 3*X - 1) * (-1)")

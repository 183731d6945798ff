"""orefree benchmark: time to exact verdicts, checked against known answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify|certify|arith \\
        --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout; nothing is built
or installed.  One run is one process, one caller, no threads: a closed
loop that starts the next case when the previous one has returned.

A run
  1. sets the workload up several times (import ``orefree`` afresh, parse
     fixtures, build fields, contexts and seeded inputs) and keeps the
     median as ``setup_s``;
  2. warms up for WARMUP_S on private objects, so the first timed case
     does not pay for a cold CPU;
  3. times passes over the cases until each case has run ``samples``
     times (see workloads.py); the per-case sample counts, not
     ``--seconds``, set a run's length, and every pass over all cases
     already takes longer than the benchmark's ``run_seconds``.  A case's
     time is the least of its samples, the one a shared host disturbed
     least: over five ``classify`` seeds it cut the quartile spread of
     ``case_p50_s`` from 0.08 (median of samples) to 0.03.  Before every
     execution the case's inputs (fields, contexts, witnesses) are built
     afresh, untimed, and the library's module-level caches are emptied,
     so no memoised state carries from one execution or case into the
     next;
  4. checks every answer against the known-answer table, untimed.

A case that raises, overruns CASE_TIMEOUT_S or gives a wrong answer is
failed, and a case that timed out is not run again.  No case runs past
RUN_DEADLINE_S from the start of the run: cases still waiting then time
out without running.  A run with any failed execution reports
``correct: false`` and no metrics, since its times would leave out the
cases that did not finish.

End-to-end metrics, from ``--trace 0`` only: ``setup_s`` (median set-up),
``wall_s`` (time to all verdicts: the sum of the per-case times),
``case_p50_s`` and ``case_max_s`` (median and slowest per-case time; the
workloads have too few cases for a percentile with ten samples beyond
it) and ``peak_rss_mb`` (peak resident set of the process).  Failures
are the result line's ``failed`` out of ``attempted`` executions.

The timing metrics are in reference seconds.  On a shared host (a 2-vCPU
VM on Intel Xeon) the speed drifts by 1.3-2x within minutes while process
CPU time tracks wall time, so raw seconds of the same code differ more
between runs than any useful bound.  A fixed stdlib computation,
``_reference_s``, is timed before and after every set-up and every case,
and every PROBE_S of CPU time inside a case (from SIGPROF; the probes'
own time is taken out).  A sample counts as ``seconds * REF_NOMINAL_S *
mean(1 / reference)`` over those references: its time at the host speed
at which the reference takes REF_NOMINAL_S.  The reference does not
touch ``orefree``, so a change to the library moves these numbers as it
would move raw time on a steady host.  Raw seconds are kept in every
row and, summarised the same way, in the run row's ``raw_seconds``.

With ``--trace 1`` the run times every case once with the wrappers of
``spans.py`` installed and reports per-layer metrics from those traced
executions only.  Each case with more than one sample is also timed once
untraced just before its traced execution, so both see the same host
speed; ``trace.overhead`` = traced / untraced time - 1 over those cases
(reference seconds).  On ``certify`` that leaves out the three entries of
3 s or more, which keeps a traced run about as long as an untraced one.

Stdout gets one JSON row per case execution (raw and reference seconds,
status, answer), one row for the run (machine, CPU steal, load, per-pass
wall and CPU time, raw-second metrics, sample counts), and last the
result line.  The same record is written to ``perfbench/out/``.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 5
# about the fastest time of _reference_s on the host the benchmark was
# defined on (Intel Xeon, CPython 3.11.7); only a scale, see the docstring
REF_NOMINAL_S = 0.0065
REF_STEPS = 2500
# a case is also probed every PROBE_S of CPU time with a shorter reference
PROBE_S = 0.2
PROBE_STEPS = 500
WARMUP_S = 1.0
CASE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
MODULES = ("field", "skew", "orepoly", "orefrac", "freeness", "linalg",
           "valuation", "classify", "problems", "cli")
END_TO_END = {"setup_s": "s", "wall_s": "s", "case_p50_s": "s",
              "case_max_s": "s", "peak_rss_mb": "MB"}


class CaseTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so the CLI's catch-all
    ``except Exception`` cannot turn it into an exit code."""


class Mods:
    """The freshly imported ``orefree`` package and its submodules."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        if not os.path.isfile(os.path.join(src, "orefree", "__init__.py")):
            raise SystemExit("perfbench: no src/orefree under %s" % ROOT)
        for name in [n for n in sys.modules
                     if n == "orefree" or n.startswith("orefree.")]:
            del sys.modules[name]
        if sys.path[0] != src:
            sys.path.insert(0, src)
        self.package = importlib.import_module("orefree")
        if not os.path.abspath(self.package.__file__).startswith(src):
            raise SystemExit("perfbench: orefree imported from outside src/")
        for name in MODULES:
            setattr(self, name, importlib.import_module("orefree." + name))

    def clear_caches(self):
        for name, mod in list(sys.modules.items()):
            if name.startswith("orefree."):
                for key, val in vars(mod).items():
                    if key.endswith("_CACHE") and isinstance(val, dict):
                        val.clear()


def _steal_ticks():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def _machine():
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"nproc": os.cpu_count(), "affinity": affinity,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def _reference_s(steps=REF_STEPS):
    """Seconds per REF_STEPS steps of a fixed stdlib computation.

    Tuple-keyed dict updates with small Fractions, the same kind of work
    as the library's sparse polynomials over Q; it tracked the library's
    slow spells better than an integer loop did.  The garbage collector
    is paused, or the reference would pay for collecting what the
    previous case left behind.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(steps):
            key = (i % 13, i % 17, i % 19)
            acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 5 + 1)
        return (time.perf_counter() - t0) * REF_STEPS / steps
    finally:
        gc.enable()


def _scaled(seconds, refs):
    """``seconds`` at the reference speed, from the references taken
    before, during and after them."""
    return seconds * REF_NOMINAL_S * statistics.fmean(1 / r for r in refs)


def _setup(workload, seed):
    """Import and build inputs SETUP_REPEATS times; keep the last cases.

    Returns the modules, the cases, and (raw, scaled) seconds per set-up.
    """
    times = []
    ref = _reference_s()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        mods = Mods()
        cases = workloads.SETUPS[workload](mods, random.Random(seed), ROOT)
        for case in cases:
            case.make()
        secs = time.perf_counter() - t0
        nxt = _reference_s()
        times.append((secs, _scaled(secs, (ref, nxt))))
        ref = nxt
    return mods, cases, times


def _warm_up(mods):
    """Repeat a small shift certificate on private objects for WARMUP_S."""
    field, skew = mods.field, mods.skew
    rounds = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARMUP_S:
        ff = field.FunctionField(0, ["w"])
        w = ff.var(0)
        pair = skew.SkewPair.automorphism(skew.SkewEndo(ff, [w + 1], [w - 1]))
        mods.freeness.freeness_certify(pair, w.inverse(), 2)
        rounds += 1
    mods.clear_caches()
    return rounds


class Runner:
    def __init__(self, workload, mods, cases, t_start):
        self.workload = workload
        self.mods = mods
        self.cases = cases
        self.deadline = t_start + RUN_DEADLINE_S
        self.rows = []
        self.timed_out = set()
        self._armed = False
        self._probes = []
        self._probe_cost = 0.0
        signal.signal(signal.SIGALRM, self._alarm)
        signal.signal(signal.SIGPROF, self._probe)

    def _alarm(self, signum, frame):
        if self._armed:
            raise CaseTimeout()

    def _probe(self, signum, frame):
        """Take a short reference inside a long case; its cost is not timed."""
        t0 = time.perf_counter()
        self._probes.append(_reference_s(PROBE_STEPS))
        self._probe_cost += time.perf_counter() - t0

    def _one(self, case):
        """(seconds, status, answer, in-case references) for one execution."""
        limit = min(CASE_TIMEOUT_S, self.deadline - time.monotonic())
        if limit <= 0:
            self.timed_out.add(case.name)
            return 0.0, "timeout", None, []
        try:
            inputs = case.make()
        except Exception as exc:  # a library failure is a failed case
            return 0.0, "error: %s: %s" % (type(exc).__name__, exc), None, []
        self.mods.clear_caches()
        self._probes, self._probe_cost = [], 0.0
        answer = None
        t0 = time.perf_counter()
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, limit)
            signal.setitimer(signal.ITIMER_PROF, PROBE_S, PROBE_S)
            try:
                answer = case.run(*inputs)
                status = "ok"
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0)
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseTimeout:
            self.timed_out.add(case.name)
            status = "timeout"
        except Exception as exc:  # a library failure is a failed case
            status = "error: %s: %s" % (type(exc).__name__, exc)
        secs = time.perf_counter() - t0 - self._probe_cost
        return secs, status, answer, self._probes

    def run_pass(self, index, cases, traced):
        """Time one pass over ``cases``; returns its wall and CPU seconds."""
        results = []
        w0, c0 = time.perf_counter(), time.process_time()
        ref = _reference_s()
        for case in cases:
            secs, status, answer, probes = self._one(case)
            nxt = _reference_s()
            results.append((case, secs, status, answer, [ref, *probes, nxt]))
            ref = nxt
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        for case, secs, status, answer, refs in results:
            self.rows.append({"row": "case", "workload": self.workload,
                              "pass": index, "traced": traced,
                              "case": case.name, "part": case.part,
                              "seconds": secs, "refs": len(refs),
                              "ref_s": statistics.fmean(refs),
                              "scaled_s": _scaled(secs, refs),
                              "status": status, "answer": answer})
        return {"traced": traced, "wall_s": wall, "cpu_s": cpu}

    def check(self):
        """Fill each row's status from the known-answer table, untimed."""
        by_name = {c.name: c for c in self.cases}
        for row in self.rows:
            if row["status"] != "ok":
                continue
            try:
                why = by_name[row["case"]].check(row["answer"])
            except Exception as exc:  # a library failure is a wrong answer
                why = "check raised %s: %s" % (type(exc).__name__, exc)
            if why is not None:
                row["status"] = "wrong: " + why


def _timings(rows, setups, key):
    """Timing metrics from the rows' ``key`` and the set-up samples; every
    row must be ``ok``."""
    per_case = {}
    for r in rows:
        per_case.setdefault(r["case"], []).append(r[key])
    times = [min(v) for v in per_case.values()]
    return {"setup_s": statistics.median(setups), "wall_s": sum(times),
            "case_p50_s": statistics.median(times),
            "case_max_s": max(times)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    steal0, load0 = _steal_ticks(), os.getloadavg()
    mods, cases, setup_times = _setup(args.workload, args.seed)
    warm_rounds = _warm_up(mods)
    runner = Runner(args.workload, mods, cases, t_start)

    passes = []
    if args.trace:
        tracer = spans.Tracer()
        for case in cases:
            if case.samples > 1:
                passes.append(runner.run_pass(len(passes), [case], False))
            tracer.install(mods.package)
            try:
                passes.append(runner.run_pass(len(passes), [case], True))
            finally:
                tracer.uninstall()
    else:
        for k in range(max(c.samples for c in cases)):
            todo = [c for c in cases
                    if c.samples > k and c.name not in runner.timed_out]
            passes.append(runner.run_pass(k, todo, False))
    runner.check()

    untraced = [r for r in runner.rows if not r["traced"]]
    failed = sum(r["status"] != "ok" for r in runner.rows)
    # a run that is missing verdicts reports no figures
    raw, values, units = None, {}, {}
    if not failed and args.trace:
        both = {r["case"] for r in untraced}
        timed = [sum(r["scaled_s"] for r in runner.rows
                     if r["case"] in both and r["traced"] is traced)
                 for traced in (False, True)]
        values = tracer.metrics(timed[1] / timed[0] - 1)
        units = dict(spans.per_layer_names())
    elif not failed:
        values = _timings(untraced, [s for _, s in setup_times], "scaled_s")
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = _timings(untraced, [s for s, _ in setup_times], "seconds")
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    steal1 = _steal_ticks()
    run_row = {
        "row": "run", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": _machine(),
        "steal_ticks": (None if steal0 is None or steal1 is None
                        else steal1 - steal0),
        "loadavg_start": load0, "loadavg_end": os.getloadavg(),
        "setup_raw_s": [s for s, _ in setup_times],
        "setup_scaled_s": [s for _, s in setup_times],
        "warmup_rounds": warm_rounds,
        "passes": passes,
        "raw_seconds": raw, "cases": len(cases),
        "samples": {"setup_s": len(setup_times), "per_case": {
            c.name: sum(r["case"] == c.name for r in untraced)
            for c in cases}},
        "failed": failed,
        "run_s": time.monotonic() - t_start,
    }
    result = {"correct": failed == 0, "attempted": len(runner.rows),
              "failed": failed, "metrics": metrics}

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": runner.rows, "run": run_row, "result": result},
                  fh, indent=1)
    for row in runner.rows:
        print(json.dumps(row))
    print(json.dumps(run_row))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

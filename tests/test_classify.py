"""End-to-end verdicts: PI, Free with evidence, Commutative, honest Unknown."""

import ast
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import orefree
from orefree import config
from orefree.classify import (
    ClassifyOptions, ProblemSpec, Verdict, classify_automorphism,
    classify_derivation, classify_problem, normalize_presentation,
    _rational_roots,
)
from orefree.errors import (
    InconsistentDerivation, RequiresPureAutomorphism, RequiresPureDerivation,
)
from orefree.field import FunctionField, _divisors
from orefree.orefrac import central_power_check
from orefree.orepoly import OrePoly
from orefree.problems import parse_problem
from orefree.skew import SkewDerivation, SkewEndo, SkewPair

QT = FunctionField(0, ["t"])


def spec_of(pair, **kw):
    return ProblemSpec(pair, ClassifyOptions(**kw))


def negation_pair():
    t = QT.var(0)
    return SkewPair.automorphism(SkewEndo(QT, [-t], [-t]))


def shift_pair():
    t = QT.var(0)
    return SkewPair.automorphism(SkewEndo(QT, [t + 1], [t - 1]))


def ddt_pair():
    return SkewPair.derivation(
        SkewDerivation(QT, [QT.one()], SkewEndo.identity(QT)))


def tower_pair():
    ff = FunctionField(5, ["x%d" % i for i in range(5)])
    images = [ff.var(i + 1) for i in range(4)] + [ff.zero()]
    return SkewPair.derivation(
        SkewDerivation(ff, images, SkewEndo.identity(ff)))


def test_negation_is_pi_of_degree_two():
    v = classify_problem(spec_of(negation_pair()))
    assert v.kind == "PI"
    assert v.theorem_tag == "finite-order-central-power"
    assert v.central_power == 2
    assert central_power_check(negation_pair(), 2)


def test_diagonal_f7_is_pi_six():
    """Periods 2 and 3 on separate generators combine to lcm 6."""
    ff = FunctionField(7, ["y1", "y2"])
    y1, y2 = ff.var(0), ff.var(1)
    sig = SkewEndo(ff, [6 * y1, 2 * y2], [6 * y1, 4 * y2])
    v = classify_problem(spec_of(SkewPair.automorphism(sig)))
    assert v.kind == "PI" and v.central_power == 6
    assert any("period 2" in d for d in v.diagnostics)
    assert any("period 3" in d for d in v.diagnostics)


def test_shift_is_free_via_weyl_pair():
    v = classify_problem(spec_of(shift_pair()))
    assert v.kind == "Free"
    assert v.theorem_tag == "weyl-pair-embedding"
    assert str(v.witness) == "1/t"
    # length 3 admits a relation, so the attached certificate stops at 2
    assert v.certificate is not None and v.certificate.independent
    assert v.certificate.max_length == 2 and v.certificate.rank == 7
    assert any(d.startswith("bounded relation at length 3")
               for d in v.diagnostics)


def test_ddt_is_free_via_weyl_pair():
    v = classify_problem(spec_of(ddt_pair()))
    assert v.kind == "Free"
    assert v.theorem_tag == "weyl-pair-embedding"
    assert str(v.witness) == "t"
    assert v.certificate.max_length == 2 and v.certificate.rank == 7
    assert any("Weyl pair verified" in d for d in v.diagnostics)


def test_tower_f5_is_free_with_strict_levels():
    v = classify_problem(spec_of(tower_pair()))
    assert v.kind == "Free"
    assert v.theorem_tag == "derivation-tower-growth"
    assert str(v.witness) == "x0"
    assert v.certificate.max_length == 3
    assert v.certificate.rank == 15 and v.certificate.word_count == 15
    strict_line = next(d for d in v.diagnostics if d.startswith("tower(x0)"))
    assert strict_line.count("strict") == 4


def test_doubling_without_hint_is_unknown():
    """sigma(t) = 2t: 1/t recurs at the only discoverable place."""
    t = QT.var(0)
    pair = SkewPair.automorphism(SkewEndo(QT, [2 * t], [t / 2]))
    v = classify_problem(spec_of(pair))
    assert v.kind == "Unknown"
    assert any("no witness" in d for d in v.diagnostics)


def test_doubling_with_witness_hint_is_free():
    t = QT.var(0)
    pair = SkewPair.automorphism(SkewEndo(QT, [2 * t], [t / 2]))
    w = (t - 1).inverse()
    v = classify_problem(spec_of(pair, witness=w, word_length=2))
    assert v.kind == "Free"
    assert v.theorem_tag == "infinite-orbit-valuation-witness"
    assert v.witness == w
    assert v.certificate.rank == 7


def test_affine_map_finds_witness_in_default_pool():
    """sigma(t) = 2t - 1 fixes 1, so 1/t has support {0} at the place t."""
    t = QT.var(0)
    sig = SkewEndo(QT, [2 * t - 1], [(t + 1) / 2])
    v = classify_problem(spec_of(SkewPair.automorphism(sig), word_length=2))
    assert v.kind == "Free"
    assert v.theorem_tag == "infinite-orbit-valuation-witness"
    assert str(v.witness) == "1/t"
    assert any("finite support at place t" in d for d in v.diagnostics)


def test_valuation_witness_with_a_bounded_relation_is_rejected():
    """t -> t/(t+1) is conjugate to a shift, so its orbits are infinite.

    The valuation route picks 1/(t+1), whose words are independent at
    L = 2 but carry a relation at L = 3.  That witness cannot carry a
    Free verdict, and no other place offers one.
    """
    t = QT.var(0)
    pair = SkewPair.automorphism(SkewEndo(QT, [t / (t + 1)], [t / (1 - t)]))
    v = classify_automorphism(spec_of(pair))
    assert v.diagnostics[0] == "orbit(t): infinite"
    assert v.kind == "Unknown"
    assert v.certificate is None and v.witness is None
    assert any(d.startswith("bounded relation at length 3")
               for d in v.diagnostics)
    assert "witness 1/(t + 1) rejected: its words carry a relation" \
        in v.diagnostics


def test_large_fp_period_skips_the_central_power():
    """Over F_(2^31 - 1) the shift has period p: Unknown, named, at once."""
    p = 2 ** 31 - 1
    ff = FunctionField(p, ["t"])
    t = ff.var(0)
    start = time.perf_counter()
    v = classify_problem(spec_of(SkewPair.automorphism(
        SkewEndo(ff, [t + 1], [t - 1]))))
    assert time.perf_counter() - start < 1.0
    assert v.kind == "Unknown"
    assert v.diagnostics == [
        "orbit(t): finite period %d" % p,
        "period %d is past the central-power ceiling 4096; x^%d is not "
        "checked" % (p, p)]


def test_period_past_the_ceiling_stays_unknown():
    """t -> 2t over F_10007: 2 has order 5003 > 4096."""
    ff = FunctionField(10007, ["t"])
    t = ff.var(0)
    v = classify_problem(spec_of(SkewPair.automorphism(
        SkewEndo(ff, [2 * t], [t / 2]))))
    assert v.kind == "Unknown" and v.central_power is None
    assert "orbit(t): finite period 5003" in v.diagnostics
    assert any("period 5003 is past the central-power ceiling" in d
               for d in v.diagnostics)


def test_doubling_over_a_large_prime_factors_its_order_fast():
    """t -> 2t over F_p, p = 6210177011304899: the order of 2 divides
    p - 1 = 2 * 54094057 * 57401657, whose two 8-digit factors rho splits
    (trial division took over 2 s); the period is p - 1, past the ceiling."""
    p = 6210177011304899
    ff = FunctionField(p, ["t"])
    t = ff.var(0)
    start = time.perf_counter()
    v = classify_problem(spec_of(SkewPair.automorphism(
        SkewEndo(ff, [2 * t], [t / 2]))))
    assert time.perf_counter() - start < 0.5
    assert v.kind == "Unknown"
    assert "orbit(t): finite period %d" % (p - 1) in v.diagnostics


def test_word_bound_keeps_the_last_certificate(monkeypatch):
    # MAX_WORDS = 7 admits L = 2 (7 words) and refuses L = 3 (15): the
    # verdict keeps the L = 2 certificate and says where the check stopped
    monkeypatch.setattr(config, "MAX_WORDS", 7)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "demos", "problems", "double.ore")
    with open(path) as fh:
        v = classify_problem(parse_problem(fh.read()))
    assert v.kind == "Free"
    assert v.certificate.max_length == 2 and v.certificate.rank == 7
    assert ("word check stopped before length 3: 15 words exceed the "
            "configured bound 7") in v.diagnostics


def test_witness_without_a_certificate_is_unknown(monkeypatch):
    # MAX_WORDS = 2 refuses L = 1 (3 words): the valuation witness of
    # double.ore gets no certificate, and a witness without one never
    # yields Free
    monkeypatch.setattr(config, "MAX_WORDS", 2)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "demos", "problems", "double.ore")
    with open(path) as fh:
        v = classify_problem(parse_problem(fh.read()))
    assert v.kind == "Unknown"
    assert v.certificate is None and v.witness is None
    assert ("word check stopped before length 1: 3 words exceed the "
            "configured bound 2") in v.diagnostics
    assert v.diagnostics[-1] == (
        "witness found but no independent bounded certificate")


def test_no_orbit_certified_infinite_in_two_variables():
    # (a, c) -> (a c, c): the orbit of a never returns, but in several
    # variables iteration can only say so within its bound
    ff = FunctionField(0, ["a", "c"])
    a, c = ff.gens()
    pair = SkewPair.automorphism(SkewEndo(ff, [a * c, c], [a / c, c]))
    v = classify_problem(spec_of(pair))
    assert v.kind == "Unknown"
    assert v.diagnostics == ["orbit(a): unknown", "orbit(c): finite period 1",
                             "no orbit certified infinite within bound 64"]


def test_char_p_side_condition_reported():
    """sigma^5 fixes u while sigma moves it, blocking the orbit argument."""
    ff = FunctionField(5, ["u", "v"])
    u, v = ff.var(0), ff.var(1)
    sig = SkewEndo(ff, [u + 1, u * v], [u - 1, v / (u - 1)])
    out = classify_problem(spec_of(SkewPair.automorphism(sig)))
    assert out.kind == "Unknown"
    assert any("side condition" in d for d in out.diagnostics)


def test_declared_constant_inside_tower_blocks_the_claim():
    """A constant built from tower generators voids the growth evidence."""
    ff = FunctionField(5, ["x%d" % i for i in range(5)])
    images = [ff.var(i + 1) for i in range(4)] + [ff.zero()]
    sig = SkewEndo.identity(ff)
    pair = SkewPair(sig, SkewDerivation(ff, images, sig), [ff.var(4)])
    v = classify_derivation(spec_of(pair))
    assert v.kind == "Unknown"
    assert any("declared constant" in d for d in v.diagnostics)


def test_commutative_pair_short_circuits():
    v = classify_problem(spec_of(SkewPair.commutative(QT)))
    assert v.kind == "Commutative"
    assert v.certificate is None and v.witness is None


def test_zero_derivation_is_commutative():
    pair = SkewPair.derivation(SkewDerivation.zero(QT))
    assert classify_derivation(spec_of(pair)).kind == "Commutative"


def test_pipeline_guards_reject_wrong_shape():
    with pytest.raises(RequiresPureAutomorphism):
        classify_automorphism(spec_of(ddt_pair()))
    with pytest.raises(RequiresPureDerivation):
        classify_derivation(spec_of(shift_pair()))


def test_normalize_passes_pure_presentations_through():
    for pair in (shift_pair(), ddt_pair(), SkewPair.commutative(QT)):
        same, shift, report = normalize_presentation(pair)
        assert same is pair and shift is None
        assert "type" in report


def test_normalize_mixed_shift_with_inner_delta():
    """delta(t) = t alongside sigma(t) = t + 1 absorbs into x' = x + t."""
    t = QT.var(0)
    sig = SkewEndo(QT, [t + 1], [t - 1])
    pair = SkewPair(sig, SkewDerivation(QT, [t], sig))
    pure, shift, report = normalize_presentation(pair)
    assert pure.is_pure_automorphism()
    assert shift == t
    xp = OrePoly(pair, [shift, pair.ff.one()])
    a = OrePoly.const(pair, t)
    sa = OrePoly.const(pair, sig.apply(t))
    assert xp * a == sa * xp


def test_mixed_presentation_classifies_after_normalization():
    t = QT.var(0)
    sig = SkewEndo(QT, [t + 1], [t - 1])
    pair = SkewPair(sig, SkewDerivation(QT, [t], sig))
    v = classify_problem(spec_of(pair))
    assert v.kind == "Free"
    assert v.diagnostics[0].startswith("pure automorphism type after")


def test_inconsistent_two_generator_delta_is_rejected():
    ff = FunctionField(0, ["t", "s"])
    t, s = ff.var(0), ff.var(1)
    sig = SkewEndo(ff, [t + 1, s + 1], [t - 1, s - 1])
    with pytest.raises(InconsistentDerivation):
        SkewDerivation(ff, [t, ff.one()], sig)


def test_verdict_json_shapes():
    free = classify_problem(spec_of(ddt_pair()))
    d = free.to_json_dict()
    assert list(d) == ["kind", "theorem_tag", "witness", "certificate",
                       "diagnostics"]
    assert d["certificate"]["verdict"] == "Independent"
    pi = classify_problem(spec_of(negation_pair()))
    d2 = pi.to_json_dict()
    assert list(d2) == ["kind", "theorem_tag", "central_power",
                        "diagnostics"]
    assert json.dumps(d2) == json.dumps(
        classify_problem(spec_of(negation_pair())).to_json_dict())


def test_free_verdicts_always_carry_independent_certificates():
    for pair in (shift_pair(), ddt_pair(), tower_pair()):
        v = classify_problem(spec_of(pair))
        assert v.kind == "Free"
        assert v.certificate is not None
        assert v.certificate.independent
        assert v.witness is not None


def test_rational_root_scan():
    # _rational_roots reads the int list of a polynomial of k(t)
    t = QT.var(0)
    assert sorted(_rational_roots((t ** 2 - 1).num, 0)) == [-1, 1]
    y = FunctionField(5, ["y"]).var(0)
    assert sorted(_rational_roots((y ** 2 + 1).num, 5)) == [2, 3]
    assert _rational_roots((t ** 2 + 1).num, 0) == []
    # the order feeds the witness pool: candidates +-p/q with p, then q,
    # running through the divisors in increasing order
    assert _divisors(-12) == [1, 2, 3, 4, 6, 12]
    assert _divisors(9) == [1, 3, 9] and _divisors(0) == []
    cubic = (t - 2) * (t + 1) * (2 * t - 1)
    assert _rational_roots(cubic.num, 0) == [-1, Fraction(1, 2), 2]
    assert _rational_roots((t * cubic).num, 0) == [0, -1, Fraction(1, 2), 2]


_FAILED_WEYL_CHECK = """
import orefree.orefrac
from orefree.classify import ClassifyOptions, ProblemSpec, classify_problem
from orefree.field import FunctionField
from orefree.skew import SkewDerivation, SkewEndo, SkewPair

orefree.orefrac.weyl_check = lambda y, z: False
QT = FunctionField(0, ["t"])
pair = SkewPair.derivation(
    SkewDerivation(QT, [QT.one()], SkewEndo.identity(QT)))
print("debug", __debug__)
try:
    v = classify_problem(ProblemSpec(pair, ClassifyOptions()))
except AssertionError as exc:
    print("refused:", exc)
else:
    print("verdict:", v.kind, v.diagnostics)
"""


def test_failed_weyl_check_refuses_under_python_O():
    # python -O strips assert statements; a Weyl pair that fails its check
    # must still stop the Free verdict
    src = os.path.dirname(os.path.dirname(orefree.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", _FAILED_WEYL_CHECK],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False",
        "refused: x delta(a)^{-1} failed the Weyl relation"]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so every internal check of the
    # library (lclm post-conditions, elimination, remainders) raises
    # explicitly; this scan fails on any assert that remains
    root = os.path.dirname(orefree.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []

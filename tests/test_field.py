"""Exact field arithmetic: frozen examples plus seeded algebraic laws."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from orefree import config, intpoly
from orefree.errors import (
    BadCharacteristic, CharacteristicMismatch, DivisionByZero,
    ResourceBoundExceeded,
)
from orefree.field import (
    BaseField, FunctionField, MPoly, RatFunc, _common_denominator, poly_gcd,
)
from orefree.intpoly import _MR_EXACT_BELOW, _conv, _is_prime, _uni_gcd_q

from oracles import (
    poly_parts, prs_gcd_ints, random_poly, random_poly_nonzero, random_ratfunc,
    ratfunc, ref_divide_exact, sparse_uni_divmod, sparse_uni_mul,
    sparse_uni_substitute,
)


QT = FunctionField(0, ["t"])
QTU = FunctionField(0, ["t", "u"])
F5T = FunctionField(5, ["t"])


def test_base_field_rejects_composite_modulus():
    with pytest.raises(BadCharacteristic):
        BaseField(6)
    with pytest.raises(BadCharacteristic):
        FunctionField(91, ["t"])


def test_large_prime_field_builds_fast_and_pseudoprimes_rejected():
    t0 = time.perf_counter()
    ff = FunctionField(2 ** 61 - 1, ["u"])
    assert time.perf_counter() - t0 < 1.0
    assert ff.char == 2 ** 61 - 1
    # a Carmichael number, the least strong pseudoprime to base 2, and
    # the least strong pseudoprime to the bases 2, 3, 5 and 7
    for n in (561, 2047, 3215031751):
        assert not _is_prime(n)
        with pytest.raises(BadCharacteristic):
            FunctionField(n, ["u"])


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if _is_prime(n)] == [
        n for n in range(3000) if by_trial(n)]
    # past the proved range of the bases a witness still proves n
    # composite, promptly even when its least factor has 13 digits; a
    # probable prime there (2^89 - 1) is refused, naming the bound
    assert 43 ** 16 > _MR_EXACT_BELOW
    assert not _is_prime(43 ** 16)
    n = 1821000000013 * 1822000000027
    assert n > _MR_EXACT_BELOW
    t0 = time.perf_counter()
    assert not _is_prime(n)
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ResourceBoundExceeded, match=str(_MR_EXACT_BELOW)):
        _is_prime(2 ** 89 - 1)
    with pytest.raises(ResourceBoundExceeded):
        FunctionField(2 ** 89 - 1, ["u"])


def test_prime_factors_match_trial_division():
    """Trial division below 1024, then Brent's rho, against plain trial
    division on n <= 10^12: random n, and semiprimes, a square and a cube
    of primes past the trial bound, which only rho splits."""
    def by_trial(n):
        out, q = {}, 2
        while q * q <= n:
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
            q += 1 if q == 2 else 2
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    rng = random.Random(24)
    ns = list(range(1, 2000)) + [rng.randint(1, 10 ** 12) for _ in range(40)]
    ns += [999983 * 1000003, 1031 * 999983, 1031 * 1033 * 1039,
           999983 ** 2, 9973 ** 3, 2 ** 39, 3 ** 25]
    for n in ns:
        got = intpoly._prime_factors(n)
        assert got == by_trial(n), n
        assert list(got) == sorted(got)


def test_rational_reconstruct_takes_the_largest_quotient():
    # small fractions come back mod 2^61 - 1, and of 10^5 seeded random
    # residues, which name no small fraction, at most a handful pass the
    # quotient margin (about 0.6 expected)
    q = (1 << 61) - 1
    for x in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3),
              Fraction(-7, 5), Fraction(10 ** 6), Fraction(-54, 7)):
        a = x.numerator * pow(x.denominator, -1, q) % q
        assert intpoly._rational_reconstruct(a, q) == x
    # a product |n| d past q / margin is refused even where Wang's bound
    # |n|, d <= sqrt(q / 2) would take it
    assert intpoly._rational_reconstruct(
        10 ** 9 * pow(10 ** 9 - 1, -1, q) % q, q) is None
    rng = random.Random(42)
    accepted = sum(intpoly._rational_reconstruct(rng.randrange(q), q)
                   is not None for _ in range(10 ** 5))
    assert accepted <= 5


def test_scalar_arithmetic_mod_p():
    k = BaseField(7)
    assert k.add(5, 4) == 2
    assert k.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    with pytest.raises(DivisionByZero):
        k.inv(0)


def test_frobenius_example_f5():
    # (t+1)^5 = t^5 + 1 over F_5; oracle: five successive multiplications
    t = F5T.poly_var("t")
    f = t + 1
    ref = F5T.poly_one()
    for _ in range(5):
        ref = ref * f
    assert f ** 5 == ref
    expected = t ** 5 + 1
    assert ref == expected
    assert str(f ** 5) == "t^5 + 1"


def test_frobenius_is_additive_random():
    rng = random.Random(20260815)
    for p in (2, 3, 5, 7):
        ff = FunctionField(p, ["t", "u"])
        for _ in range(10):
            a = random_poly(rng, ff)
            b = random_poly(rng, ff)
            assert (a + b) ** p == a ** p + b ** p


def test_poly_gcd_frozen_example():
    # gcd((t+u)^2 (t-1), (t+u)(t+1)) = t + u, monic
    t = QTU.poly_var("t")
    u = QTU.poly_var("u")
    a = (t + u) ** 2 * (t - 1)
    b = (t + u) * (t + 1)
    g = poly_gcd(a, b)
    assert g == t + u
    # oracle: divides both, and the cofactors do not share the factor again
    qa = a.divide_exact(g)
    qb = b.divide_exact(g)
    assert qa is not None and qb is not None
    assert poly_gcd(qb, g) == QTU.poly_one()  # qb = t+1, coprime to t+u


@pytest.mark.parametrize("char", [0, 7])
def test_poly_gcd_of_planted_factors_in_two_variables(char):
    # gcd(f x, f y) = f for coprime x, y: a gcd with no constant term
    # (t + s -> z + z^B under Kronecker substitution), monomial content, and
    # inputs whose images share z - 1, which the gcd lacks, so that the
    # remainder sequence decides
    ff = FunctionField(char, ["t", "s"])
    t, s = ff.poly_var("t"), ff.poly_var("s")
    for f, x, y in [(t + s, t - 1, s + 3),
                    ((t + s) * (t + 2 * s + 1), t * t + 1, s - 2),
                    (t * s * (t + s), t - 1, s * s + 2),
                    (ff.poly_one(), t - 1, s - 1),
                    (3 * t + s, t - 1, s - 1)]:
        assert poly_gcd(f * x, f * y) == f.monic()


def test_poly_gcd_random_divides_both():
    rng = random.Random(7042)
    for ff in (QT, QTU, F5T, FunctionField(3, ["x", "y"])):
        for _ in range(15):
            a = random_poly(rng, ff, max_deg=2, max_terms=3)
            b = random_poly(rng, ff, max_deg=2, max_terms=3)
            g = poly_gcd(a, b)
            if a.is_zero() and b.is_zero():
                assert g.is_zero()
                continue
            assert not g.is_zero()
            if not a.is_zero():
                assert a.divide_exact(g) is not None
            if not b.is_zero():
                assert b.divide_exact(g) is not None
            # common factors multiply the gcd
            m = random_poly_nonzero(rng, ff, max_deg=1, max_terms=2)
            g2 = poly_gcd(a * m, b * m)
            assert g2.divide_exact((g * m).monic()) is not None


def test_heuristic_gcd_matches_remainder_sequence(monkeypatch):
    """The heuristic gcd over Z[t] gives the remainder sequence's answer."""
    rng = random.Random(15)

    def poly(deg, bits):
        return ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(deg)]
                + [rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)])

    pairs = [
        ([], []), ([], [0, -3, 6]), ([0, 4, -2], []), ([5], [0, 1]),
        ([-7], [3]), ([3, 6], [1, 2]), ([2, -4], [3, -7]),
        ([6, 0, 6], [12, 4]),                      # content only
        (_conv([1, 1], [1, 1]), [-1, 0, 1]),
    ]
    # planted common factors up to degree 100 and coefficients ~2^160
    for dg, d1, d2, bits in [(1, 1, 2, 4), (3, 2, 2, 8), (12, 6, 9, 30),
                             (36, 14, 20, 40), (60, 40, 30, 60),
                             (80, 28, 12, 80), (100, 8, 4, 80)]:
        g = poly(dg, bits)
        pairs.append((_conv(g, poly(d1, bits)), _conv(g, poly(d2, bits))))
    # small planted factors and coprime pairs
    for _ in range(150):
        g = poly(rng.randint(1, 3), 2)
        pairs.append((_conv(g, poly(rng.randint(0, 3), 2)),
                      _conv(g, poly(rng.randint(0, 3), 2))))
        pairs.append((poly(rng.randint(1, 6), 20), poly(rng.randint(1, 6), 20)))
    for a, b in pairs:
        assert _uni_gcd_q(a, b) == prs_gcd_ints(a, b), (a, b)
    assert _uni_gcd_q([0, 3, -13, -21, -16, -6, -1],
                      [0, 24, 10, 4, -2]) == [0, 3, 2, 1]

    # the check divides for real and returns the quotient: t is not a
    # multiple of 2t + 1, and neither is 3t + 2t^2 = t (2t + 3)
    exact_quo = intpoly._exact_quo
    assert exact_quo([1, 2], [1, 3, 2]) == [1, 1]
    assert exact_quo([1, 2], [-3, -4, 4]) == [-3, 2]
    assert exact_quo([1, 2], []) == []
    assert exact_quo([1, 2], [0, 1]) is None
    assert exact_quo([1, 2], [0, 3, 2]) is None
    assert exact_quo([1, 2], [5]) is None
    assert exact_quo([-1, 0, 2], [1, 1, -2, -2]) == [-1, -1]

    # pinned inputs whose first evaluation point gives a candidate that
    # divides only one input: the division check refutes it and xi grows
    refuted = []

    def spy(d, r):
        q = exact_quo(d, r)
        refuted.append(q is None)
        return q
    monkeypatch.setattr(intpoly, "_exact_quo", spy)
    # in the first, b vanishes at the first xi, 4, so the candidate is a/3
    for a, b, want in [([0, 3, 3], [0, -4, 1], [0, 1]),
                       ([4, 1, -3], [-1, -3, -4, -2], [1, 1])]:
        refuted.clear()
        assert _uni_gcd_q(a, b) == want == prs_gcd_ints(a, b)
        assert refuted[0] and not refuted[-1]


def test_cofactor_gcd_matches_remainder_sequence():
    """The gcd of several lists is the remainder sequence's folded over
    them, and every cofactor times it gives its input back."""
    rng = random.Random(17)
    cofactors = intpoly._gcd_cofactors

    def poly(deg, bits):
        return ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(deg)]
                + [rng.choice([-1, 1]) * rng.randint(1, 2 ** bits)])

    def fold(fs):
        g = []
        for f in fs:
            g = prs_gcd_ints(g, f)
        return g

    cases = [
        # t(t+1), t(t+2), (t+1)(t+2): coprime together, not pairwise
        [[0, 1, 1], [0, 2, 1], [2, 3, 1]],
        [[], [0, 4, -2], []],
        [[0, 6, 3], [], [0, -2, -1]],
        [[6, 0, 6], [12, 4], [-18]],               # content only
        [[2, 4], [6, 0, 2], [4, 0, 0, 8]],         # content only
        # g = t - 1 with g(xi) = xi - 1: gamma is in (xi/2, xi) at xi = 4
        [[-1, 0, 1], [-3, 2, 1]],
    ]
    for _ in range(120):
        g = poly(rng.randint(0, 3), rng.choice([1, 2, 8]))
        fs = []
        for _ in range(rng.randint(2, 6)):
            f = _conv(g, poly(rng.randint(0, 4), rng.choice([1, 2, 8])))
            fs.append([] if rng.random() < 0.15 else intpoly._trim(f))
        if any(fs):
            cases.append(fs)
    for fs in cases:
        g, qs = cofactors(fs, 0)
        assert g == fold(fs), fs
        assert [intpoly._mul(g, q, 0) for q in qs] == fs, fs
        # over F_5 the gcd is monic and the cofactors are jointly coprime
        fp = [intpoly._trim([c % 5 for c in f]) for f in fs]
        if any(fp):
            g, qs = cofactors(fp, 5)
            assert g[-1] == 1
            assert [intpoly._mul(g, q, 5) for q in qs] == fp, fp
            assert cofactors(qs, 5)[0] == [1], fp


def test_gcd_of_equal_polys_is_monic_self():
    t = QT.poly_var("t")
    f = 2 * t ** 2 + 4
    assert poly_gcd(f, f) == t ** 2 + 2


def test_divide_exact_rejects_non_factor():
    t = QT.poly_var("t")
    assert (t ** 2 + 1).divide_exact(t + 1) is None
    assert (t ** 2 - 1).divide_exact(t + 1) == t - 1


@pytest.mark.parametrize("char,nvars", [(0, 2), (0, 3), (7, 2), (7, 3)])
def test_divide_exact_in_several_variables_matches_scan(char, nvars):
    # products divide and give their cofactor back; a product plus a
    # perturbation mostly does not, and the quotient or the refusal must be
    # the scanning long division's, term for term
    ff = FunctionField(char, ["y%d" % i for i in range(nvars)])
    rng = random.Random("divide:%d:%d" % (char, nvars))
    refused = 0
    for _ in range(30):
        g = random_poly_nonzero(rng, ff, max_deg=2, max_terms=4)
        q = random_poly(rng, ff, max_deg=3, max_terms=6)
        f = q * g
        assert f.divide_exact(g).terms == ref_divide_exact(f, g) == q.terms
        h = f + random_poly_nonzero(rng, ff, max_deg=3, max_terms=2)
        got, want = h.divide_exact(g), ref_divide_exact(h, g)
        assert (got is None) == (want is None)
        if got is None:
            refused += 1
        else:
            assert got.terms == want
    assert refused >= 10


def test_ratfunc_normalization_den_monic_and_reduced():
    t = QT.poly_var("t")
    f = ratfunc((t + 1) * (t - 1), (t + 1) * (2 * t))
    # reduction strips t+1; over Q(t) the int lists are primitive with
    # lc(den) > 0, and read over den made monic
    assert (f.num, f.den) == ([-1, 1], [0, 2])
    assert poly_parts(f) == (Fraction(1, 2) * (t - 1), t)
    assert str(f) == "(1/2*t - 1/2)/t"


def test_ratfunc_zero_canonical():
    z = QT.zero()
    assert z.is_zero()
    assert (z.num, z.den) == ([], [1])
    f = QT.var("t") - QT.var("t")
    assert f.is_zero() and f.den == [1]


def test_ratfunc_field_laws_char0_and_charp():
    rng = random.Random(991)
    for ff in (QT, QTU, F5T):
        for _ in range(12):
            a = random_ratfunc(rng, ff)
            b = random_ratfunc(rng, ff)
            c = random_ratfunc(rng, ff)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * (b + c) == a * b + a * c
            assert a - a == ff.zero()
            if not b.is_zero():
                assert (a / b) * b == a
                assert b * b.inverse() == ff.one()


def test_mixed_operands_subtract_and_divide_both_ways():
    # - and / come from +, unary -, * and inverse, so they take every
    # operand their own type coerces, on either side; a polynomial has no
    # inverse and so no /, and no element carries an instance dict
    tp, t = QT.poly_var("t"), QT.var("t")
    assert str(tp - 1) == "t - 1" and str(1 - tp) == "-t + 1"
    assert t - tp == QT.zero() and tp - t == QT.zero()
    assert str(Fraction(1, 2) - t) == "-t + 1/2"
    assert str(t / tp) == "1" and str(tp / t) == "1"
    assert str(2 / t) == "2/t" and str(t / 2) == "1/2*t"
    with pytest.raises(TypeError):
        tp / tp
    with pytest.raises(TypeError):
        1 / tp
    for value in (tp, t):
        assert not hasattr(value, "__dict__")


def test_ratfunc_reduced_after_ops():
    # every result is in lowest terms, in one variable and in several
    rng = random.Random(313)
    for ff in (QT, F5T, QTU, FunctionField(3, ["x", "y"])):
        for _ in range(10):
            a = random_ratfunc(rng, ff)
            b = random_ratfunc(rng, ff)
            quotients = () if b.is_zero() else (a / b,)
            for r in (a + b, a * b, a - b) + quotients:
                if r.is_zero():
                    continue
                num, den = poly_parts(r)
                assert poly_gcd(num, den) == ff.poly_one()
                if ff.nvars > 1:
                    assert r.den.lc() == ff.base.one()
                elif ff.char:
                    assert r.den[-1] == 1
                else:
                    assert r.den[-1] > 0 and math.gcd(*r.num, *r.den) == 1


def test_equality_survives_unreduced_representation():
    # an unreduced pair is reduced at construction, so equality compares
    # canonical forms
    t = QT.var("t")
    raw = RatFunc(QT, ((t + 1) * (t - 1)).num, ((t + 1) * t).num)
    assert (raw.num, raw.den) == ((t - 1).num, t.num)
    cooked = (t - 1) / t
    assert raw == cooked
    assert not (raw == (t + 1) / t)


def test_fraction_term_bound(monkeypatch):
    monkeypatch.setattr(config, "MAX_FRACTION_TERMS", 2)
    assert RatFunc(QT, [0, 1], [1]).num == [0, 1]
    with pytest.raises(ResourceBoundExceeded, match="fraction grew"):
        RatFunc(QT, [1, 1], [0, 1])


def test_pow_negative_and_zero():
    f = QT.var("t") + 1
    assert f ** 0 == QT.one()
    assert f ** -2 == (f * f).inverse()
    with pytest.raises(DivisionByZero):
        QT.zero().inverse()


def test_pow_equals_repeated_product():
    # ** squares; the repeated product reduces after every factor
    rng = random.Random(11)
    f7 = FunctionField(7, ["t", "s"])
    t, s = f7.var("t"), f7.var("s")
    for v in (QT.var("t") / 3 + Fraction(1, 2), (QT.var("t") ** 2 - 5)
              / (QT.var("t") / 7 + 2), (t + 2 * s) / (t * s + 3),
              random_ratfunc(rng, f7)):
        acc = v.ff.one()
        for n in range(41):
            assert v ** n == acc
            assert str(v ** n) == str(acc)
            acc = acc * v


def test_pow_refused_before_squaring(monkeypatch):
    # n * deg past the fraction bound is refused from the degrees alone
    t = QT.var("t")
    with pytest.raises(ResourceBoundExceeded, match="power of degree"):
        t ** 100_000_000
    with pytest.raises(ResourceBoundExceeded, match="power of degree"):
        (t + 1).inverse() ** -100_000_000
    monkeypatch.setattr(config, "MAX_FRACTION_TERMS", 20)
    assert (t * t / 2 + 1) ** 10 == (t * t / 2 + 1) ** 5 * (t * t / 2 + 1) ** 5
    with pytest.raises(ResourceBoundExceeded, match="power of degree 22"):
        (t * t / 2 + 1) ** 11
    assert QT.const(3) ** 40 == QT.const(3 ** 40)


_DENSE_POWER = """
from orefree import config
from orefree.errors import ResourceBoundExceeded
from orefree.field import FunctionField
config.MAX_FRACTION_TERMS = 2000
t, s, u, w = FunctionField(0, "tsuw").gens()
try:
    (t + s + u + w + 1) ** 200
except ResourceBoundExceeded as exc:
    print(exc)
"""


def test_dense_power_in_several_variables_refused_by_terms():
    # degree 200 passes the degree test, but the power has C(204, 4) terms:
    # one factor at a time it is refused at the 13th, C(17, 4) + 1 = 2381
    # terms, where squaring would reach a product of millions of terms.  In a
    # child process under a timeout, since an accepted power would not end
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", _DENSE_POWER],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout == "fraction grew to 2381 terms (bound 2000)\n"


def test_cleared_form_is_the_fraction():
    # n / d == f over one scale: Fraction coefficients in num and den with
    # equal scales (3 and 3), unequal scales (4 and 15), and over F_p
    t = QT.var("t")
    f5 = F5T.var("t")
    cases = [(2 * t + 1) / (3 * t + 1), (t * t / 4 + Fraction(3, 2))
             / (t / 5 - Fraction(2, 3)), (t / 7 + 1) / 3, QT.const(5),
             (3 * f5 * f5 + 2) / (2 * f5 + 1), F5T.zero()]
    for f in cases:
        n, d = f.num, f.den
        assert all(isinstance(x, int) for x in n + d)
        assert RatFunc(f.ff, n, d) == f
        num, den = poly_parts(f)
        assert f.ff.one() * num / den == f
    assert (cases[0].num, cases[0].den) == ([1, 2], [1, 3])
    assert (cases[1].num, cases[1].den) == ([90, 0, 15], [-40, 12])
    rng = random.Random(12)
    for ff in (QT, F5T):
        for _ in range(30):
            f = random_ratfunc(rng, ff) / ff.const(rng.randint(1, 4))
            assert RatFunc(ff, f.num, f.den) == f


def test_common_denominator_clears_every_fraction():
    # den * f_i == nums_i, and every denominator divides den: in the
    # field's ring, monic over F_p and in several variables
    rng = random.Random(13)
    t = QT.var("t")
    fixed = [t / 3, (t + 1) / (t / 2 - 1), QT.one() / (t * t - 4),
             Fraction(2, 3) * (t - 2).inverse()]
    for fs in [fixed] + [[random_ratfunc(rng, ff) for _ in range(4)]
                         for ff in (QT, F5T, QTU) for _ in range(10)]:
        ff = fs[0].ff
        ring = ff.ring
        den, nums = _common_denominator(fs)
        if ff.nvars > 1:
            assert den.lc() == ff.base.one()
        elif ff.char:
            assert den[-1] == 1
        for f, n in zip(fs, nums):
            assert RatFunc(ff, den, ring.one) * f == RatFunc(ff, n, ring.one)
            assert ring.divide_exact(den, f.den) is not None
    # over Q(t) den is the least multiple in Z[t]: 3 (t - 2)(t + 2) for
    # the denominator 3 of t / 3, and a denominator it already holds, with
    # its content, does not grow it
    den, _ = _common_denominator(fixed)
    assert den == (3 * (t - 2) * (t + 2)).num
    assert _common_denominator([1 / (3 * t + 3)] * 6) == ([3, 3], [[1]] * 6)


def test_substitution_shift():
    # f(t) = t^2 + 1 under t -> t + 1 gives t^2 + 2t + 2
    t = QT.var("t")
    f = t * t + 1
    g = f.substitute([t + 1])
    assert g == t * t + 2 * t + 2


def test_substitution_common_denominator_path():
    # t -> 1/t on (t^2 + 1)/t gives (1 + t^2)/t again (involution point check)
    t = QT.var("t")
    f = (t * t + 1) / t
    g = f.substitute([t.inverse()])
    assert g == f
    h = t.substitute([(t + 1) / (t - 1)])
    assert h == (t + 1) / (t - 1)


def test_char_mismatch_raises():
    with pytest.raises(CharacteristicMismatch):
        QT.var("t") + F5T.var("t")


def test_scalars_enter_through_poly_const():
    # over F_5 the Fraction 1/2 is 3 = 2^-1 and 3/4 is 2; 1/5 has no value
    # there; a scalar that is neither an int nor a Fraction is refused
    # before it reaches any arithmetic
    h = F5T.const(Fraction(1, 2))
    assert h == F5T.const(3) and str(F5T.var("t") * h) == "3*t"
    assert all(type(c) is int for c in h.num + h.den)
    assert F5T.poly_const(Fraction(3, 4)).terms == {(0,): 2}
    assert FunctionField(5, ["t", "s"]).const(Fraction(-1, 3)) == 3
    with pytest.raises(DivisionByZero):
        F5T.const(Fraction(1, 5))
    for bad in (0.1, "1", 1j):
        with pytest.raises(TypeError):
            QT.const(bad)
    assert str(QT.const(Fraction(1, 2)) * QT.var("t")) == "1/2*t"


@pytest.mark.parametrize("ff", [QT, F5T, FunctionField(7, ["t"]), QTU,
                                FunctionField(5, ["t", "s"])],
                         ids=["Q(t)", "F5(t)", "F7(t)", "Q(t,u)", "F5(t,s)"])
def test_const_matches_the_polynomial_path(ff):
    # FunctionField.const builds the ring's constant directly: equal num
    # and den to the MPoly path through poly_const and ring.of_poly, for
    # ints, Fractions and, over F_p, Fractions mapped to n d^-1 mod p;
    # and the same refusals, DivisionByZero for p | d and TypeError for
    # a scalar that is neither an int nor a Fraction
    p = ff.char
    for c in (0, 1, -1, 6, -35, 2 ** 70, Fraction(1, 2), Fraction(-5, 6),
              Fraction(3, 4), Fraction(2 ** 65, 9), Fraction(7, 5 * 7)):
        if p and Fraction(c).denominator % p == 0:
            for build in (ff.const, ff.poly_const):
                with pytest.raises(DivisionByZero):
                    build(c)
            continue
        old = RatFunc(ff, *ff.ring.of_poly(ff.poly_const(c)), coprime=True)
        new = ff.const(c)
        assert (new.num, new.den) == (old.num, old.den) and new == old
        assert str(new) == str(old)
    for bad in (0.5, "1", 1j, None):
        for build in (ff.const, ff.poly_const):
            with pytest.raises(TypeError):
                build(bad)


def _coefficients(rng, p):
    """A random polynomial of k(t) as its list of coefficients."""
    return [rng.randint(0, p - 1) if p else
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(rng.randint(1, 4))]


def _build(ff, cs):
    """sum_k cs[k] t^k in ff, t its first generator."""
    t = ff.var(0)
    return sum((ff.const(c) * t ** k for k, c in enumerate(cs)), ff.zero())


@pytest.mark.parametrize("p,seed", [(0, 5), (7, 12), (0, 12), (7, 5)])
def test_int_list_and_mpoly_rings_agree(p, seed):
    # the same operands over k(t), on int lists, and lifted into k(t, s),
    # on MPolys: every result of +, -, *, /, **3 and == prints the same
    one, two = FunctionField(p, ["t"]), FunctionField(p, ["t", "s"])
    assert type(one.ring) is not type(two.ring)
    rng = random.Random(seed)
    results = 0
    for _ in range(200):
        parts = [_coefficients(rng, p) for _ in range(4)]
        if not any(parts[1]) or not any(parts[3]):
            continue
        a1, b1 = (_build(one, n) / _build(one, d)
                  for n, d in (parts[:2], parts[2:]))
        a2, b2 = (_build(two, n) / _build(two, d)
                  for n, d in (parts[:2], parts[2:]))
        pairs = [(a1 + b1, a2 + b2), (a1 - b1, a2 - b2),
                 (a1 * b1, a2 * b2), (a1 ** 3, a2 ** 3)]
        if b1:
            pairs.append((a1 / b1, a2 / b2))
        for x, y in pairs:
            assert str(x) == str(y), (parts, x, y)
        assert (a1 == b1) == (a2 == b2)
        assert a1 == pairs[0][0] - b1 and a2 == pairs[0][1] - b2
        results += len(pairs) + 2
    assert results > 1000


def test_printing_round_shapes():
    t = QTU.poly_var("t")
    u = QTU.poly_var("u")
    assert str(t ** 2 - u + 1) == "t^2 - u + 1"
    assert str(QTU.poly_zero()) == "0"
    f = QTU.one() / (QTU.var("t") * QTU.var("u"))
    assert str(f) == "1/(t*u)"
    g = (QTU.var("t") + 1) / QTU.var("u")
    assert str(g) == "(t + 1)/u"


def test_fraction_coefficients_print_parseably():
    f = RatFunc(QT, [0, 1], [2])
    assert str(f) == "1/2*t"


def _uni_terms(rng, p, max_deg=5):
    """A random nonzero univariate term dict; non-integer over Q."""
    out = {}
    while not out:
        for _ in range(rng.randint(1, 4)):
            c = (rng.randint(1, p - 1) if p
                 else Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
            if c:
                out[(rng.randint(0, max_deg),)] = c
    return out


@pytest.mark.parametrize("p", [0, 5, 2 ** 61 - 1])
def test_int_list_product_matches_sparse_reference(p):
    """_conv and _mul against sparse_uni_mul on every path of the kernel:
    one coefficient (1 and -1 among them), the schoolbook loop, and
    Kronecker substitution on both sides of its threshold; interior
    zeros, mixed signs and coefficients up to about 2^200.  A result is a
    new list: changing it leaves both inputs as they were."""
    base = BaseField(p)
    rng = random.Random(24 + p)
    top = intpoly._KRONECKER_FROM
    lengths = [1, 2, top - 1, top, top + 1, 2 * top + 3]

    def terms(xs):
        return {(k,): c for k, c in enumerate(xs) if c}

    def dense(d, n):
        return [int(d.get((k,), 0)) for k in range(n)]

    def draw(n, bits):
        out = [rng.randint(-2 ** bits, 2 ** bits) * (rng.random() < 0.8)
               for _ in range(n)]
        out[-1] = out[-1] or rng.choice([-1, 1])
        return out

    cases = [([1], [3, 0, -2 ** 200]), ([-1], [0, 5, 0, -7]),
             ([1], draw(3 * top, 200)), ([-1], draw(3 * top, 64))]
    # all coefficients at the max-norm and of one sign, for every slot
    # bound s up to 100 bits, word and byte slots: the middle coefficient
    # n (2^j - 1)(2^k - 1) nearly fills the slot
    for n in (top, 15, 31):
        for k in range(1, 48):
            for j in (k, k + 1):
                cases.append(([2 ** j - 1] * n, [1 - 2 ** k] * (n + 3)))
    for la in lengths:
        for lb in lengths:
            for bits in (1, 30, 200):
                cases.append((draw(la, bits), draw(lb, bits)))
    for a, b in cases:
        if p:
            a, b = [c % p for c in a], [c % p for c in b]
        a0, b0 = a[:], b[:]
        want = sparse_uni_mul(base, terms(a), terms(b))
        got = _conv(a, b)
        size = len(a) + len(b) - 1
        assert len(got) == size and _conv(b, a) == got
        assert ([c % p for c in got] if p else got) == dense(want, size)
        prod = intpoly._mul(a, b, p)
        assert prod == intpoly._trim(dense(want, size)), (a, b)
        for out in (got, prod):
            out.append(1)
            out[0] += 1
        assert a == a0 and b == b0, (a, b)
    assert _conv([], [1, 2]) == [0] and _conv([], []) == []


@pytest.mark.parametrize("p", [0, 5, 7])
def test_univariate_kernels_match_sparse_reference(p):
    """The dense integer kernels give the reference's term dicts exactly."""
    ff = FunctionField(p, ["t"])
    base = ff.base
    rng = random.Random(2026 + p)
    c = base.of_int
    fixed = [
        {(0,): c(3) if p else Fraction(-4, 3)},          # constant
        {(2,): c(-3) if p else Fraction(-3, 2),           # negative lc,
         (0,): c(2) if p else Fraction(5, 7)},           # not a unit
        {(3,): c(2), (1,): c(-6)},                        # non-unit lc
        {(1,): c(1), (0,): c(-1)},
    ]
    polys = fixed + [_uni_terms(rng, p) for _ in range(24)]

    def same(got, want):
        assert got.terms == want
        for v in got.terms.values():
            assert (0 < v < p and type(v) is int) if p else type(v) is Fraction

    for a in polys + [{}]:
        A = MPoly(ff, dict(a))
        for b in polys:
            B = MPoly(ff, dict(b))
            prod = sparse_uni_mul(base, a, b)
            same(A * B, prod)
            quo, rem = sparse_uni_divmod(base, a, b)
            got = A.divide_exact(B)
            assert (got is None) == bool(rem)
            if got is not None:
                same(got, quo)
            same(MPoly(ff, prod).divide_exact(B), a)
        # a zero image and constant images are among the images
        for s in [{}] + polys:
            same(A.substitute_poly([MPoly(ff, dict(s))]),
                 sparse_uni_substitute(base, a, s))

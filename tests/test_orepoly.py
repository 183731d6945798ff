"""Skew polynomial arithmetic, divisions, gcrd and lclm."""

import copy
import random

import pytest

from orefree.errors import (
    CharacteristicMismatch, ContextMismatch, DivisionByZero,
)
from orefree.field import FunctionField, RatFunc
from orefree.orefrac import OreFraction
from orefree.orepoly import OrePoly, gcld, gcrd, lclm
from orefree.skew import SkewDerivation, SkewEndo, SkewPair

from oracles import (
    brute_force_lclm, random_ratfunc, random_ratfunc_nonzero,
    ref_ore_add, ref_ore_gcrd_degree, ref_ore_left_quo_rem, ref_ore_mul,
    ref_ore_right_quo_rem, ref_ore_xstep,
)

QT = FunctionField(0, ["t"])


def shift_pair(ff=QT):
    t = ff.var("t")
    return SkewPair.automorphism(SkewEndo(ff, [t + 1], [t - 1]))


def weyl_pair(ff=QT):
    d = SkewDerivation(ff, [ff.one()], SkewEndo.identity(ff))
    return SkewPair.derivation(d)


def scale2_pair():
    t = QT.var("t")
    return SkewPair.automorphism(SkewEndo(QT, [2 * t], [t / 2]))


def tpoly(ctx):
    return OrePoly.const(ctx, ctx.ff.var("t"))


def rand_orepoly(rng, ctx, max_deg=2):
    coeffs = [random_ratfunc(rng, ctx.ff, max_deg=1, max_terms=2)
              for _ in range(rng.randint(1, max_deg + 1))]
    return OrePoly(ctx, coeffs)


def test_commutation_rule_frozen():
    ctx = weyl_pair()
    x = OrePoly.x(ctx)
    t = tpoly(ctx)
    assert x * t == t * x + OrePoly.one(ctx)
    ctx = shift_pair()
    x = OrePoly.x(ctx)
    t = tpoly(ctx)
    tt = OrePoly.const(ctx, ctx.ff.var("t") + 1)
    assert x * t == tt * x


def test_commutation_rule_random():
    rng = random.Random(11)
    t = QT.var("t")
    s = SkewEndo(QT, [t + 1], [t - 1])
    d = SkewDerivation(QT, [t], s)
    ctx = SkewPair(s, d)
    x = OrePoly.x(ctx)
    for _ in range(8):
        a = random_ratfunc(rng, QT)
        pa = OrePoly.const(ctx, a)
        lhs = x * pa
        rhs = (OrePoly.const(ctx, s.apply(a)) * x
               + OrePoly.const(ctx, d.apply(a)))
        assert lhs == rhs


def test_ring_axioms_random():
    rng = random.Random(12)
    for ctx in (shift_pair(), weyl_pair(), scale2_pair()):
        for _ in range(6):
            f = rand_orepoly(rng, ctx)
            g = rand_orepoly(rng, ctx)
            h = rand_orepoly(rng, ctx)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            if not (f.is_zero() or g.is_zero()):
                assert (f * g).degree == f.degree + g.degree


def test_right_division_frozen():
    # x^2 = (x + t + 1)(x - t) + t^2 + t when sigma is the shift
    ctx = shift_pair()
    ff = ctx.ff
    t = ff.var("t")
    x = OrePoly.x(ctx)
    f = x * x
    g = OrePoly.from_coeffs(ctx, [-t, ff.one()])
    q, r = f.right_quo_rem(g)
    assert q == OrePoly.from_coeffs(ctx, [t + 1, ff.one()])
    assert r == OrePoly.const(ctx, t * t + t)
    assert q * g + r == f


def test_left_division_frozen():
    # t*x = x*(t/2) exactly when sigma(t) = 2t
    ctx = scale2_pair()
    ff = ctx.ff
    t = ff.var("t")
    f = OrePoly.from_coeffs(ctx, [ff.zero(), t])
    g = OrePoly.x(ctx)
    q, r = f.left_quo_rem(g)
    assert r.is_zero()
    assert q == OrePoly.const(ctx, t / 2)
    assert g * q == f


def test_division_round_trips_random():
    rng = random.Random(13)
    for ctx in (shift_pair(), weyl_pair(), scale2_pair()):
        for _ in range(6):
            f = rand_orepoly(rng, ctx, max_deg=3)
            g = rand_orepoly(rng, ctx, max_deg=2)
            if g.is_zero():
                continue
            q, r = f.right_quo_rem(g)
            assert q * g + r == f
            assert r.degree < g.degree
            ql, rl = f.left_quo_rem(g)
            assert g * ql + rl == f
            assert rl.degree < g.degree


def test_division_by_zero_raises():
    ctx = shift_pair()
    with pytest.raises(DivisionByZero):
        OrePoly.x(ctx).right_quo_rem(OrePoly.zero(ctx))
    with pytest.raises(DivisionByZero):
        lclm(OrePoly.x(ctx), OrePoly.zero(ctx))


def test_context_mixing_rejected():
    with pytest.raises(ContextMismatch):
        OrePoly.x(shift_pair()) + OrePoly.x(weyl_pair())
    # a coefficient from another field is refused, not read as integers
    for home, foreign in ((QT, FunctionField(7, ["t"])),
                          (FunctionField(5, ["t"]), QT)):
        ctx, a = shift_pair(home), foreign.var("t") / (foreign.var("t") + 2)
        f = OrePoly.x(ctx)
        with pytest.raises(CharacteristicMismatch):
            f * a
        with pytest.raises(CharacteristicMismatch):
            f.scale_left(a)
        with pytest.raises(CharacteristicMismatch):
            OrePoly.from_coeffs(ctx, [home.one(), a])
        with pytest.raises(CharacteristicMismatch):
            OreFraction.from_poly(f) + a
    # in several variables too, already at construction
    ctx, foreign = two_variable_pair(), FunctionField(7, ["t", "u"])
    a = foreign.var("t") / (foreign.var("u") + 2)
    with pytest.raises(CharacteristicMismatch):
        OrePoly(ctx, [a, ctx.ff.one()])
    with pytest.raises(CharacteristicMismatch):
        OrePoly.x(ctx).scale_left(a)


def test_gcrd_frozen():
    ctx = shift_pair()
    ff = ctx.ff
    t = ff.var("t")
    g = OrePoly.from_coeffs(ctx, [-t, ff.one()])          # x - t
    f = OrePoly.from_coeffs(ctx, [-(t + 1), ff.one()]) * g
    assert gcrd(f, g) == g
    assert gcrd(g, OrePoly.zero(ctx)) == g
    assert gcrd(OrePoly.zero(ctx), OrePoly.zero(ctx)).is_zero()


def test_gcrd_detects_planted_right_factor():
    rng = random.Random(14)
    for ctx in (shift_pair(), weyl_pair()):
        for _ in range(5):
            h = rand_orepoly(rng, ctx, max_deg=1)
            if h.degree < 1:
                continue
            a = rand_orepoly(rng, ctx, max_deg=2)
            b = rand_orepoly(rng, ctx, max_deg=2)
            if a.is_zero() or b.is_zero():
                continue
            g = gcrd(a * h, b * h)
            assert g.degree >= h.degree
            assert (a * h).right_quo_rem(g)[1].is_zero()
            assert (b * h).right_quo_rem(g)[1].is_zero()
            assert g.right_quo_rem(h.monic())[1].is_zero()


def test_lclm_frozen():
    # lclm(x, x - t) = x^2 - (t+1)x with cofactors x - (t+1) and x
    ctx = shift_pair()
    ff = ctx.ff
    t = ff.var("t")
    f = OrePoly.x(ctx)
    g = OrePoly.from_coeffs(ctx, [-t, ff.one()])
    m, u, v = lclm(f, g)
    assert m == OrePoly.from_coeffs(ctx, [ff.zero(), -(t + 1), ff.one()])
    assert u == OrePoly.from_coeffs(ctx, [-(t + 1), ff.one()])
    assert v == OrePoly.x(ctx)
    assert m == u * f == v * g


def two_variable_pair():
    """Q(t, u) under t -> t + 1, u -> 2u, a polynomial automorphism."""
    ff = FunctionField(0, ["t", "u"])
    t, u = ff.var("t"), ff.var("u")
    return SkewPair.automorphism(SkewEndo(ff, [t + 1, 2 * u], [t - 1, u / 2]))


def check_lclm(f, g):
    m, u, v = lclm(f, g)
    assert u * f == m == v * g
    assert m.is_monic() and m.lc().is_one()
    assert v == m.right_quo_rem(g)[0]
    assert m.right_quo_rem(f)[1].is_zero()
    assert m.right_quo_rem(g)[1].is_zero()
    assert m.degree == f.degree + g.degree - gcrd(f, g).degree
    return m, u, v


def test_lclm_properties_random():
    rng = random.Random(15)
    for ctx in (shift_pair(), weyl_pair(), scale2_pair(),
                kernel_context(5, "double"), kernel_context(0, "mixed"),
                two_variable_pair()):
        one = OrePoly.one(ctx)
        for _ in range(10):
            f = rand_orepoly(rng, ctx, max_deg=2)
            g = rand_orepoly(rng, ctx, max_deg=2)
            if f.is_zero() or g.is_zero():
                continue
            check_lclm(f, g)
            # g right-divides big: the first division ends Euclid in
            # either order, and for monic arguments lclm returns what a
            # divisibility probe would, (big, 1, q) or (big, q, 1)
            h = rand_orepoly(rng, ctx, max_deg=1)
            if h.is_zero():
                continue
            check_lclm(h * g, g)
            check_lclm(g, h * g)
            big, gm = (h * g).monic(), g.monic()
            q = big.right_quo_rem(gm)[0]
            assert lclm(big, gm) == (big, one, q)
            assert lclm(gm, big) == (big, q, one)


def test_lclm_matches_brute_force_f5():
    rng = random.Random(16)
    ff = FunctionField(5, ["t"])
    t = ff.var("t")
    ctx = SkewPair.automorphism(SkewEndo(ff, [t + 1], [t - 1]))
    for _ in range(6):
        f = rand_orepoly(rng, ctx, max_deg=2)
        g = rand_orepoly(rng, ctx, max_deg=2)
        if f.is_zero() or g.is_zero():
            continue
        m, _, _ = lclm(f, g)
        assert m == brute_force_lclm(f, g)


def test_gcld_cancels_planted_left_factor():
    rng = random.Random(19)
    ctx = shift_pair()
    for _ in range(5):
        h = rand_orepoly(rng, ctx, max_deg=1)
        if h.degree < 1:
            continue
        a = rand_orepoly(rng, ctx, max_deg=2)
        b = rand_orepoly(rng, ctx, max_deg=2)
        if a.is_zero() or b.is_zero():
            continue
        g = gcld(h * a, h * b)
        assert g.degree >= h.degree
        assert (h * a).left_quo_rem(g)[1].is_zero()
        assert (h * b).left_quo_rem(g)[1].is_zero()


def test_printing():
    ctx = shift_pair()
    ff = ctx.ff
    t = ff.var("t")
    f = OrePoly.from_coeffs(ctx, [ff.one(), t, (t + 1) / t])
    assert str(f) == "((t + 1)/t)*X^2 + t*X + 1"
    assert str(OrePoly.zero(ctx)) == "0"
    assert str(OrePoly.x_pow(ctx, 3)) == "X^3"


# -- the fraction-free form against coefficient-wise RatFuncs -----------------

KERNEL_CONTEXTS = ["shift", "double", "mobius3", "ddt", "t2ddt", "mixed"]

# one two-variable context per kernel kind, keyed (char, name)
KERNEL_CONTEXTS_2 = [(0, "comm2"), (7, "diag7"), (0, "shift2"), (0, "twist"),
                     (0, "ac"), (0, "acq"), (0, "qts")]

KERNEL_CASES = [(c, n) for c in (0, 5) for n in KERNEL_CONTEXTS] \
    + KERNEL_CONTEXTS_2


def kernel_context(char, name):
    """Q(t) or F_5(t) with one of the contexts the one-variable kernel
    distinguishes: polynomial and Moebius automorphisms (t -> -1/(t+1)
    has order 3), derivations, the sigma-derivation of mixed.ore, and the
    commutative ring; or a two-variable context of KERNEL_CONTEXTS_2."""
    if (char, name) in KERNEL_CONTEXTS_2:
        return two_variable_context(name)
    ff = QT if char == 0 else FunctionField(char, ["t"])
    t = ff.var("t")
    ident = SkewEndo.identity(ff)
    shift = SkewEndo(ff, [t + 1], [t - 1])
    if name in ("shift", "double", "mobius3"):
        sigma = {"shift": shift,
                 "double": SkewEndo(ff, [2 * t], [t / 2]),
                 "mobius3": SkewEndo(ff, [-1 / (t + 1)], [-(t + 1) / t]),
                 }[name]
        return SkewPair.automorphism(sigma)
    if name == "mixed":
        return SkewPair(shift, SkewDerivation(ff, [t], shift))
    if name == "comm":
        return SkewPair.commutative(ff)
    image = ff.one() if name == "ddt" else t * t
    return SkewPair.derivation(SkewDerivation(ff, [image], ident))


def two_variable_context(name):
    """comm2: Q(t, u) commutative; diag7 and shift2: polynomial
    automorphisms; twist: (t, u) -> (t, t u), whose inverse u -> u / t is
    rational; ac and acq: delta(a) = c and delta(a) = c / (a + 1); qts: the
    sigma-derivation of mixed_qts_pair."""
    if name in ("comm2", "twist"):
        ff = FunctionField(0, ["t", "u"])
        t, u = ff.gens()
        if name == "comm2":
            return SkewPair.commutative(ff)
        return SkewPair.automorphism(SkewEndo(ff, [t, t * u], [t, u / t]))
    if name == "acq":
        ff = FunctionField(0, ["a", "c"])
        a, c = ff.gens()
        return SkewPair.derivation(SkewDerivation(
            ff, [c / (a + 1), ff.zero()], SkewEndo.identity(ff)))
    return {"diag7": diag7_pair, "shift2": two_variable_pair, "ac": ac_pair,
            "qts": mixed_qts_pair}[name]()


def stored_form(p):
    """A deep copy of the stored (den, nums), to compare after use."""
    return copy.deepcopy((p._den, p._nums))


def nonzero_orepoly(rng, ctx, max_deg):
    coeffs = [random_ratfunc(rng, ctx.ff, max_deg=1, max_terms=2)
              for _ in range(rng.randint(0, max_deg))]
    coeffs.append(random_ratfunc_nonzero(rng, ctx.ff, max_deg=1, max_terms=2))
    return OrePoly(ctx, coeffs)


def assert_coeffs(p, ref):
    """p's materialized coefficients are the reference's, term for term:
    num and den in the canonical form of the field's ring."""
    got = [(c.num, c.den) for c in p.coeffs]
    assert got == [(c.num, c.den) for c in ref]


def reference_checked_lclm(ctx, f, g):
    """m of lclm(f, g) = (m, u, v), once m is monic, u f and v g equal m
    by the reference product, and the degree law holds by the reference
    gcrd."""
    m, u, v = lclm(f, g)
    assert m.is_monic()
    assert_coeffs(m, ref_ore_mul(ctx, u.coeffs, f.coeffs))
    assert_coeffs(m, ref_ore_mul(ctx, v.coeffs, g.coeffs))
    assert m.degree == (f.degree + g.degree
                        - ref_ore_gcrd_degree(ctx, f.coeffs, g.coeffs))
    return m


@pytest.mark.parametrize("char,name", KERNEL_CASES)
def test_fraction_free_kernel_matches_reference(char, name):
    ctx = kernel_context(char, name)
    rng = random.Random("kernel:%d:%s" % (char, name))
    # the draws of the lclm and division cases below, apart from rng's
    more = random.Random("kernel-units:%d:%s" % (char, name))
    t = ctx.ff.var(0)
    for i in range(5):
        f = nonzero_orepoly(rng, ctx, 3)
        g = nonzero_orepoly(rng, ctx, 1)
        fc, gc = f.coeffs, g.coeffs
        stored = [stored_form(p) for p in (f, g)]
        assert_coeffs(f * g, ref_ore_mul(ctx, fc, gc))
        assert_coeffs(g * f, ref_ore_mul(ctx, gc, fc))
        q, r = f.right_quo_rem(g)
        ref_q, ref_r = ref_ore_right_quo_rem(ctx, fc, gc)
        assert_coeffs(q, ref_q)
        assert_coeffs(r, ref_r)
        assert q * g + r == f
        q, r = f.left_quo_rem(g)
        ref_q, ref_r = ref_ore_left_quo_rem(ctx, fc, gc)
        assert_coeffs(q, ref_q)
        assert_coeffs(r, ref_r)
        assert g * q + r == f
        reference_checked_lclm(ctx, f, g)
        h = nonzero_orepoly(rng, ctx, 1)
        if h.degree < 1:
            h = h * OrePoly.x(ctx) + OrePoly.one(ctx)
        hf, hg = ref_ore_mul(ctx, h.coeffs, fc), ref_ore_mul(ctx, h.coeffs, gc)
        d = gcld(h * f, h * g)
        assert d.degree >= h.degree
        assert ref_ore_left_quo_rem(ctx, hf, d.coeffs)[1] == []
        assert ref_ore_left_quo_rem(ctx, hg, d.coeffs)[1] == []
        assert ref_ore_left_quo_rem(ctx, d.coeffs, h.coeffs)[1] == []
        assert [stored_form(p) for p in (f, g)] == stored
        # the reference RatFunc arithmetic is slow in several variables
        if ctx.ff.nvars > 1 and i >= 2:
            continue
        # a unit c != 1 on either side (lclm is monic(f), and c's cofactor
        # takes c^{-1}), and f monic and not monic in Euclid
        c = OrePoly.const(ctx, (t + 2) * random_ratfunc_nonzero(
            more, ctx.ff, max_deg=1, max_terms=2))
        for a, b in ((c, f), (f, c)):
            assert reference_checked_lclm(ctx, a, b) == f.monic()
        reference_checked_lclm(ctx, f.monic(), h)
        reference_checked_lclm(ctx, c * f.monic(), h)
        # h3 g3 by g3, lc(h3) a multiple of lc(g3)'s numerator, which has
        # the factor t + 3: the right division's steps have factors to cancel
        g3 = OrePoly.const(ctx, t + 3) * g
        h3 = OrePoly(ctx, list(h.coeffs[:-1]) + [
            h.lc() * RatFunc(ctx.ff, g3.lc().num, ctx.ff.ring.one)])
        q, r = (h3 * g3).right_quo_rem(g3)
        ref_q, ref_r = ref_ore_right_quo_rem(
            ctx, ref_ore_mul(ctx, h3.coeffs, g3.coeffs), g3.coeffs)
        assert_coeffs(q, ref_q)
        assert_coeffs(r, ref_r)
        assert q == h3 and r.is_zero()


@pytest.mark.parametrize("char,name", KERNEL_CASES)
def test_products_by_one_leave_operands_unchanged(char, name):
    # monic operands with polynomial coefficients make the kernel's
    # products by one, which it skips, handing a factor on as it is: no
    # operand's polynomials may change, and every result matches the
    # reference; 1 * g, g * 1, g + 0 and 0 + g are g in its own form
    ctx = kernel_context(char, name)
    t = ctx.ff.var(0)
    rng = random.Random("ones:%d:%s" % (char, name))
    monic = OrePoly(ctx, [ctx.ff.one(), t, ctx.ff.one()])
    one, zero = OrePoly.one(ctx), OrePoly.zero(ctx)
    # in two variables an lclm of degree 5 takes tens of seconds
    deg = 3 if ctx.ff.nvars == 1 else 2
    for _ in range(3):
        g = nonzero_orepoly(rng, ctx, deg)
        snapshot = [stored_form(p) for p in (monic, g)]
        mc, gc = monic.coeffs, g.coeffs
        for h, ref in ((one * g, ref_ore_mul(ctx, one.coeffs, gc)),
                       (g * one, ref_ore_mul(ctx, gc, one.coeffs)),
                       (g + zero, ref_ore_add(gc, [])),
                       (zero + g, ref_ore_add([], gc))):
            assert stored_form(h) == snapshot[1]
            assert_coeffs(h, ref)
        assert_coeffs(monic * g, ref_ore_mul(ctx, mc, gc))
        assert_coeffs(g * monic, ref_ore_mul(ctx, gc, mc))
        q, r = g.right_quo_rem(monic)
        ref_q, ref_r = ref_ore_right_quo_rem(ctx, gc, mc)
        assert_coeffs(q, ref_q)
        assert_coeffs(r, ref_r)
        q, r = g.left_quo_rem(monic)
        ref_q, ref_r = ref_ore_left_quo_rem(ctx, gc, mc)
        assert_coeffs(q, ref_q)
        assert_coeffs(r, ref_r)
        lclm(monic, g)
        assert [(p._den, p._nums) for p in (monic, g)] == snapshot


def derivation_xstep_case(name):
    """A derivation context and elements whose x-steps meet g = gcd(den,
    D(den)) != 1: non-squarefree denominators under d/dt over Q(t) and
    F_5(t); delta(t) = t/(t + 1), where cd != 1; d/dt over F_5(t) on the
    denominator t^5 + 1, where D(den) = 0 and g = den; delta(a) = c/(a + 1)
    in two variables."""
    if name == "acq":
        ctx = two_variable_context("acq")
        a, c = ctx.ff.gens()
        return ctx, [[c / (a + 1) ** 2], [(a + c) / (a * a + 1), 1 / a ** 3]]
    ff = FunctionField(5 if name in ("ddt5", "t5") else 0, ["t"])
    t, one = ff.var("t"), ff.one()
    image = t / (t + 1) if name == "trat" else one
    ctx = SkewPair.derivation(
        SkewDerivation(ff, [image], SkewEndo.identity(ff)))
    if name == "t5":
        den = t ** 5 + 1
        return ctx, [[one / den], [t / den, one / den], [(t + 2) / den ** 2]]
    return ctx, [[(t * t + 1) / t ** 3], [one / (t + 1) ** 2],
                 [(t * t + 1) / t ** 3, one / (t + 1) ** 2, t]]


@pytest.mark.parametrize("name", ["ddt", "ddt5", "trat", "t5", "acq"])
def test_derivation_xstep_matches_reference(name):
    # x * a against the coefficient-wise rule x c = c x + delta(c), three
    # steps deep; every result is canonical, so canon leaves it as it is
    ctx, elements = derivation_xstep_case(name)
    k, x = ctx.ff.ring, OrePoly.x(ctx)
    for cs in elements:
        p, ref = OrePoly(ctx, cs), cs
        for _ in range(3):
            p, ref = x * p, ref_ore_xstep(ctx, ref)
            assert_coeffs(p, ref)
            assert k.canon(*stored_form(p)) == stored_form(p)


def mixed_qts_pair():
    """Q(t, s) with sigma = (t + 1, 2s) and delta = t*s*(sigma - id)."""
    ff = FunctionField(0, ["t", "s"])
    t, s = ff.gens()
    sigma = SkewEndo(ff, [t + 1, 2 * s], [t - 1, s / 2])
    return SkewPair(sigma, SkewDerivation(ff, [t * s, t * s * s], sigma))


@pytest.mark.parametrize("char,name", [
    (c, n) for c in (0, 5) for n in ("comm", "shift", "ddt", "mixed")]
    + [(0, "qts")])
def test_sparse_products_match_reference(char, name):
    # f * a advances x^i a across the zero coefficients of f in one step
    ctx = mixed_qts_pair() if name == "qts" else kernel_context(char, name)
    ff = ctx.ff
    zero, one, t, y = ff.zero(), ff.one(), ff.var(0), ff.var(ff.nvars - 1)
    a = OrePoly(ctx, [(t * t + 1) / (t + 2), y])
    for cs in ([zero, zero, t, zero, zero, one], [zero] * 7 + [one]):
        assert_coeffs(OrePoly(ctx, cs) * a, ref_ore_mul(ctx, cs, a.coeffs))


def diag7_pair():
    """F_7(y1, y2) under y1 -> 6 y1, y2 -> 2 y2, as in demos/problems."""
    ff = FunctionField(7, ["y1", "y2"])
    y1, y2 = ff.gens()
    return SkewPair.automorphism(
        SkewEndo(ff, [6 * y1, 2 * y2], [6 * y1, 4 * y2]))


def ac_pair():
    """Q(a, c) with delta(a) = c and delta(c) = 0."""
    ff = FunctionField(0, ["a", "c"])
    return SkewPair.derivation(SkewDerivation(
        ff, [ff.var(1), ff.zero()], SkewEndo.identity(ff)))


@pytest.mark.parametrize("make_pair", [diag7_pair, ac_pair])
def test_left_division_in_several_variables(make_pair):
    # left_quo_rem on MPoly numerators, through gcld as well; the kernel
    # tests above run the same contexts against the RatFunc reference
    rng = random.Random(27)
    ctx = make_pair()
    checked = 0
    while checked < 3:
        f = rand_orepoly(rng, ctx, max_deg=3)
        g, u, w = (rand_orepoly(rng, ctx, max_deg=1) for _ in range(3))
        if g.degree < 1 or f.degree < g.degree or u.is_zero() or w.is_zero():
            continue
        q, r = f.left_quo_rem(g)
        assert f == g * q + r and r.degree < g.degree
        d = gcld(g * u, g * w)
        assert d.degree >= g.degree
        for h in (g * u, g * w):
            assert h.left_quo_rem(d)[1].is_zero()
        checked += 1

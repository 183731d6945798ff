"""Division ring arithmetic with left fractions, Weyl and centrality probes."""

import random
import time

import pytest

from orefree.errors import (
    DivisionByZero, RequiresPureAutomorphism, ResourceBoundExceeded,
    UsageError,
)
from orefree.field import FunctionField
from orefree import orefrac
from orefree.orefrac import OreFraction, central_power_check, weyl_check
from orefree.orepoly import OrePoly, lclm
from orefree.skew import SkewDerivation, SkewEndo, SkewPair

from oracles import bivariate_extension, ore_to_commutative, random_ratfunc

QT = FunctionField(0, ["t"])


def weyl_ctx(ff=QT):
    return SkewPair.derivation(
        SkewDerivation(ff, [ff.one()], SkewEndo.identity(ff)))


def shift_ctx(ff=None, name="t"):
    ff = ff or FunctionField(0, [name])
    v = ff.var(0)
    return SkewPair.automorphism(SkewEndo(ff, [v + 1], [v - 1]))


def rand_frac(rng, ctx):
    num = OrePoly(ctx, [random_ratfunc(rng, ctx.ff, max_deg=1, max_terms=2)
                        for _ in range(rng.randint(1, 2))])
    while True:
        den = OrePoly(ctx, [random_ratfunc(rng, ctx.ff, max_deg=1,
                                           max_terms=2)
                            for _ in range(rng.randint(1, 2))])
        if not den.is_zero():
            return OreFraction(den, num)


def test_x_inverse_plus_one_frozen():
    # x^{-1} + 1 = x^{-1}(1 + x)
    ctx = shift_ctx()
    x = OrePoly.x(ctx)
    xinv = OreFraction.from_poly(x).inverse()
    s = xinv + OreFraction.one(ctx)
    assert s == OreFraction(x, OrePoly.one(ctx) + x)
    assert s.den == x


def test_fraction_equality_by_subtraction():
    ctx = shift_ctx()
    x = OrePoly.x(ctx)
    t = OrePoly.const(ctx, ctx.ff.var("t"))
    a = OreFraction(x * t, t)        # (x t)^{-1} t
    b = OreFraction(t * x, t)        # different denominator order
    assert (a == b) is ((a - b).is_zero())


def test_mul_and_inverse_round_trip():
    rng = random.Random(21)
    for ctx in (shift_ctx(), weyl_ctx()):
        for _ in range(6):
            a = rand_frac(rng, ctx)
            b = rand_frac(rng, ctx)
            if not b.is_zero():
                assert (a * b) / b == a
                assert b * b.inverse() == OreFraction.one(ctx)
            assert a + b - b == a


def test_distributivity_both_sides():
    rng = random.Random(22)
    ctx = weyl_ctx()
    for _ in range(5):
        a = rand_frac(rng, ctx)
        b = rand_frac(rng, ctx)
        c = rand_frac(rng, ctx)
        assert a * (b + c) == a * b + a * c
        assert (b + c) * a == b * a + c * a


def test_commutative_case_matches_plain_fractions():
    rng = random.Random(23)
    ctx = SkewPair.commutative(QT)
    biv = bivariate_extension(QT)
    pool = [rand_frac(rng, ctx) for _ in range(6)]
    vals = [ore_to_commutative(f, biv) for f in pool]
    for _ in range(30):
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        op = rng.choice(["add", "mul", "inv"])
        if op == "add":
            f, v = pool[i] + pool[j], vals[i] + vals[j]
        elif op == "mul":
            f, v = pool[i] * pool[j], vals[i] * vals[j]
        else:
            if pool[i].is_zero():
                continue
            f, v = pool[i].inverse(), vals[i].inverse()
        assert ore_to_commutative(f, biv) == v
        pool.append(f)
        vals.append(v)


def test_simplify_cancels_left_factor():
    ctx = shift_ctx()
    ff = ctx.ff
    t = ff.var("t")
    h = OrePoly.from_coeffs(ctx, [t, ff.one()])
    d = OrePoly.from_coeffs(ctx, [t + 1, ff.one()])
    n = OrePoly.const(ctx, t)
    raw = OreFraction(h * d, h * n)
    slim = raw.simplify()
    assert slim == raw
    assert slim.den.degree == d.degree
    assert slim.den == d.monic() or slim.den == d  # d is monic already


def test_weyl_relation_derivation_frozen():
    # z y - y z = 1 for y = t, z = x when delta = d/dt
    ctx = weyl_ctx()
    y = OreFraction.from_ratfunc(ctx, ctx.ff.var("t"))
    z = OreFraction.from_poly(OrePoly.x(ctx))
    out = weyl_check(y, z)
    assert out.holds and out.orientation == "zy-yz"
    # and the commutator of y with itself fails
    assert not weyl_check(y, y).holds


def test_weyl_relation_automorphism_frozen():
    # sigma(u) = u + 1: z = u x^{-1} satisfies x z - z x = 1
    ff = FunctionField(0, ["u"])
    ctx = shift_ctx(ff)
    u = ff.var("u")
    xf = OreFraction.from_poly(OrePoly.x(ctx))
    z = OreFraction.from_ratfunc(ctx, u) * xf.inverse()
    out = weyl_check(z, xf)      # probes xf*z - z*xf first
    assert out.holds and out.orientation == "zy-yz"
    assert not weyl_check(xf, xf).holds


def test_central_power_check_frozen():
    ff = QT
    t = ff.var("t")
    ctx = SkewPair.automorphism(SkewEndo(ff, [-t], [-t]))
    assert central_power_check(ctx, 2) is True
    assert central_power_check(ctx, 1) is False
    with pytest.raises(UsageError):
        central_power_check(ctx, 0)
    with pytest.raises(RequiresPureAutomorphism):
        central_power_check(weyl_ctx(), 2)


def test_central_power_check_f4093_shift_is_fast():
    # x^4093 * t is one Moebius map sigma^4093, not 4093 single x-steps
    start = time.perf_counter()
    assert central_power_check(shift_ctx(FunctionField(4093, ["t"])), 4093)
    assert time.perf_counter() - start < 2


def test_zero_division_guards():
    ctx = shift_ctx()
    z = OreFraction.zero(ctx)
    with pytest.raises(DivisionByZero):
        z.inverse()
    with pytest.raises(DivisionByZero):
        OreFraction.one(ctx) / z


def test_printing():
    ctx = shift_ctx()
    x = OrePoly.x(ctx)
    f = OreFraction.from_poly(x).inverse()
    assert str(f) == "inv(X) * (1)"
    assert str(OreFraction.zero(ctx)) == "0"
    assert str(OreFraction.from_poly(x)) == "X"


def test_product_by_the_literal_one_is_the_other_fraction(monkeypatch):
    # 1 * y is y with no lclm; D^{-1} D is 1 too but not the literal one,
    # and its products keep the unreduced form the lclm gives them
    ctx = shift_ctx()
    one, x = OrePoly.one(ctx), OrePoly.x(ctx)
    t = OrePoly.const(ctx, ctx.ff.var("t"))
    calls = []

    def counted_lclm(f, g):
        calls.append((f, g))
        return lclm(f, g)

    monkeypatch.setattr(orefrac, "lclm", counted_lclm)
    for y in (OreFraction(x + t, t), OreFraction(x * x - t, x + one),
              OreFraction.from_poly(t), OreFraction.zero(ctx)):
        out = OreFraction.one(ctx) * y
        assert (out.den, out.num) == (y.den, y.num)
    assert not calls
    d = x - t
    dd = OreFraction(d, one) * d
    assert dd.is_one() and not dd.den.is_one()
    out = dd * OreFraction(x + t, one)
    assert len(calls) == 1
    assert str(out) == "inv(X^2 - t^2 - t) * (X - t - 1)"


def _repeated_product(a, n):
    out = type(a).one(a.ctx)
    for _ in range(n):
        out = out * a
    return out


@pytest.mark.parametrize("make_ctx", [shift_ctx, weyl_ctx])
def test_ore_power_equals_repeated_product(make_ctx):
    # a numerator power squares, a fraction with a denominator keeps the
    # product loop, and a coefficient takes the field's own power: each
    # is the element, and the printed form, of the product one factor at
    # a time
    ctx = make_ctx()
    t = ctx.ff.var(0)
    x = OrePoly.x(ctx)
    polys = [x, x + OrePoly.const(ctx, t), OrePoly.const(ctx, t / (t + 1)),
             OrePoly.zero(ctx)]
    fracs = [OreFraction.from_poly(p) for p in polys] + [
        OreFraction(OrePoly.one(ctx) - x, OrePoly.one(ctx)),
        OreFraction(x - OrePoly.const(ctx, t), OrePoly.const(ctx, t))]
    for a in polys + fracs:
        for n in range(13):
            want = _repeated_product(a, n)
            assert a ** n == want and str(a ** n) == str(want)
    assert OrePoly.x(weyl_ctx()) ** 100 == _repeated_product(
        OrePoly.x(weyl_ctx()), 100)


def test_ore_power_refused_before_the_first_product(monkeypatch):
    # n times the x-degree past MAX_DEN_DEGREE (512) is refused from the
    # degrees alone; a power of x-degree 0 is the coefficient's, which its
    # own degree bounds
    ctx = weyl_ctx()
    x = OrePoly.x(ctx)
    xf = OreFraction.from_poly(x)
    g = OreFraction(OrePoly.one(ctx) - x, OrePoly.one(ctx))
    t = OreFraction.from_ratfunc(ctx, ctx.ff.var(0))

    def no_product(*args):
        raise AssertionError("a product was formed")

    with monkeypatch.context() as m:
        m.setattr(OrePoly, "__mul__", no_product)
        for a, n in ((x, 513), (xf, 100000), (g, 513), (g, -513)):
            with pytest.raises(ResourceBoundExceeded, match="x-degree"):
                a ** n
        with pytest.raises(ResourceBoundExceeded, match="fraction bound"):
            t ** 100000000
    assert x ** 512 == OrePoly.x_pow(ctx, 512)
    assert str(t ** 100000) == "t^100000"

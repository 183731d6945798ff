"""Places, valuations, and pole-pattern lengths along sigma-orbits."""

import itertools
import random

import pytest

from orefree import freeness, valuation
from orefree.errors import CharacteristicMismatch, UsageError, ZeroArgument
from orefree.field import FunctionField, _rational_roots
from orefree.skew import SkewEndo
from orefree.valuation import Place, _rabin_irreducible, length_profile

from oracles import (
    random_ratfunc_nonzero, reducible_monic_modp, ref_rabin_irreducible,
)

QT = FunctionField(0, ["t"])


def nu_t(ff=QT):
    return Place.finite(ff.poly_var("t"))


def test_finite_valuation_frozen():
    t = QT.var("t")
    v = nu_t()
    assert v.valuation(t * t / (t + 1)) == 2
    assert v.valuation((t + 1) / t ** 3) == -3
    assert v.valuation(QT.const(5)) == 0


def test_finite_valuation_over_f7():
    # roots of t^3 - t come out in residue order; t^2 + 1 has none mod 7
    ff7 = FunctionField(7, ["t"])
    t, tf = ff7.poly_var("t"), ff7.var("t")
    assert _rational_roots(((tf ** 3 - tf) * (tf * tf + 1)).num, 7) == [
        0, 1, 6]
    f = (tf + 1) ** 2 / (tf ** 3 - tf)
    assert Place.finite(t + 1).valuation(f) == 1
    assert Place.finite(t).valuation(f) == -1
    assert Place.finite(t * t + 1).valuation(f * (tf * tf + 1) ** 3) == 3


def test_infinite_valuation_frozen():
    t = QT.var("t")
    v = Place.infinity(QT)
    assert v.valuation((t * t + 1) / t ** 3) == 1
    assert v.valuation(t * t + 1) == -2


def test_valuation_of_zero_rejected():
    with pytest.raises(ZeroArgument):
        nu_t().valuation(QT.zero())


def test_place_requires_irreducible():
    t = QT.poly_var("t")
    with pytest.raises(UsageError):
        Place.finite(t * t - 1)
    Place.finite(t * t + 1)  # no rational root, degree 2: certified
    ff5 = FunctionField(5, ["t"])
    t5 = ff5.poly_var("t")
    with pytest.raises(UsageError):
        Place.finite(t5 * t5 + 1)  # 2^2 + 1 = 0 mod 5
    Place.finite(t5 * t5 + 2)
    with pytest.raises(UsageError):
        Place.finite(ff5.poly_const(3))


def test_place_rejects_repeated_factors():
    # a repeated factor has no rational root; (t^2+1)^2 would report
    # v(1/(t^2+1)) = 0
    t = QT.poly_var("t")
    for poly in ((t * t + 1) ** 2, (t * t + t + 1) ** 2 * (t * t + 2)):
        with pytest.raises(UsageError, match="squarefree"):
            Place.finite(poly)
    ff5 = FunctionField(5, ["t"])
    t5 = ff5.poly_var("t")
    with pytest.raises(UsageError):
        Place.finite((t5 * t5 + 2) ** 2)
    assert Place.finite(t ** 4 + 2).valuation(QT.var("t") ** 4 + 2) == 1


def test_place_irreducibility_is_proved_or_refused():
    # from degree 4 on, Q needs an irreducible reduction mod a small
    # prime: products without a rational root are refused, and so are
    # t^4 + 1 and t^4 - 10t^2 + 1, irreducible but split mod every prime
    t = QT.poly_var("t")
    for poly in ((t * t + 1) * (t * t + 2), (t * t + 1) * (t ** 3 + 2),
                 t ** 4 + 1, t ** 4 - 10 * t * t + 1):
        with pytest.raises(UsageError, match="cannot certify"):
            Place.finite(poly)
    for poly in (t ** 4 + 2, t ** 4 - 2, t ** 5 - t - 1):
        assert Place.finite(poly).poly == poly
    # t^4 + 2 is irreducible mod 5, which proves it over Q
    ff5 = FunctionField(5, ["t"])
    Place.finite(ff5.poly_var("t") ** 4 + 2)
    # t^10 - 2 is irreducible mod 11, which proves it over Q
    assert Place.finite(t ** 10 - 2).poly == t ** 10 - 2
    # t^12 - 3 factors modulo every prime up to 47
    with pytest.raises(UsageError, match="cannot certify"):
        Place.finite(t ** 12 - 3)
    # over F_7: t^14 + 3t + 1 is irreducible, t^9 + t + 3 is not
    ff7 = FunctionField(7, ["t"])
    t7 = ff7.poly_var("t")
    Place.finite(t7 ** 14 + 3 * t7 + 1)
    with pytest.raises(UsageError, match="reducible"):
        Place.finite(t7 ** 9 + t7 + 3)
    # mod 2 the leading coefficient of this product vanishes and what is
    # left, t^2 + t + 1, is irreducible: no proof, as 2 divides lc
    with pytest.raises(UsageError, match="cannot certify"):
        Place.finite((2 * t * t + 1) * (t * t + t + 1))


def test_rabin_matches_product_sieve():
    for p, top in ((2, 6), (3, 4), (5, 3)):
        for n in range(2, top + 1):
            reducible = reducible_monic_modp(p, n)
            for c in itertools.product(range(p), repeat=n):
                f = c + (1,)
                assert _rabin_irreducible(list(f), p) == (f not in reducible)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_rabin_matches_reference_on_modulus_candidates(p):
    # the batched test on packed ints gives the per-k Euclid reference's
    # verdict on the first 200 candidates of the modulus search over F_p
    candidates = list(itertools.islice(freeness._modulus_candidates(p), 200))
    verdicts = [_rabin_irreducible(f, p) for f in candidates]
    assert verdicts == [ref_rabin_irreducible(f, p) for f in candidates]
    assert any(verdicts) and not all(verdicts)


def test_rabin_matches_reference_on_tested_places(monkeypatch):
    # every call Rabin's test gets while the places of degree >= 2 of the
    # tests above are built, over F_p and for the reductions of Q mod
    # small primes, gives the reference's verdict
    t, t5, t7 = (FunctionField(p, ["t"]).poly_var("t") for p in (0, 5, 7))
    polys = [t * t + 1, (t * t + 1) * (t * t + 2), (t * t + 1) * (t ** 3 + 2),
             t ** 4 + 1, t ** 4 - 10 * t * t + 1, t ** 4 + 2, t ** 4 - 2,
             t ** 5 - t - 1, t ** 10 - 2, t ** 12 - 3,
             (2 * t * t + 1) * (t * t + t + 1), t5 * t5 + 1, t5 * t5 + 2,
             t5 ** 4 + 2, t7 * t7 + 1, t7 ** 14 + 3 * t7 + 1,
             t7 ** 9 + t7 + 3]
    calls = []

    def recording(f, p):
        calls.append((f, p, _rabin_irreducible(f, p)))
        return calls[-1][2]
    monkeypatch.setattr(valuation, "_rabin_irreducible", recording)
    for poly in polys:
        try:
            Place.finite(poly)
        except UsageError:
            pass
    assert len(calls) > 100
    for f, p, verdict in calls:
        assert verdict == ref_rabin_irreducible(f, p), (f, p)


def test_place_normalizes_monic():
    t = QT.poly_var("t")
    p = Place.finite(2 * t + 2)
    assert p.poly == t + 1


def test_valuation_laws_random():
    rng = random.Random(4321)
    places = [nu_t(), Place.infinity(QT),
              Place.finite(QT.poly_var("t") ** 2 + 1)]
    for v in places:
        for _ in range(12):
            f = random_ratfunc_nonzero(rng, QT)
            g = random_ratfunc_nonzero(rng, QT)
            assert v.valuation(f * g) == v.valuation(f) + v.valuation(g)
            s = f + g
            if not s.is_zero():
                lo = min(v.valuation(f), v.valuation(g))
                assert v.valuation(s) >= lo
                if v.valuation(f) != v.valuation(g):
                    assert v.valuation(s) == lo


def test_length_profile_frozen():
    t = QT.var("t")
    s = SkewEndo(QT, [t + 1], [t - 1])
    v = nu_t()
    prof = length_profile(s, v, 1 / t, window=16)
    assert prof.support == [0]
    assert prof.length == 0
    u = 1 / t - s.apply(1 / t)          # 1/t - 1/(t+1) = 1/(t^2 + t)
    prof = length_profile(s, v, u, window=16)
    assert prof.support == [-1, 0]
    assert prof.length == 1


def test_length_profile_truncation_gives_no_length():
    t = QT.var("t")
    s = SkewEndo(QT, [t + 1], [t - 1])
    v = nu_t()
    prof = length_profile(s, v, 1 / (t + 16), window=16)
    assert prof.support == [-16]
    assert prof.truncated is True
    assert prof.length is None
    prof = length_profile(s, v, QT.one() + t, window=4)
    assert prof.support == [] and prof.length is None


def test_length_growth_by_one_samples():
    # l(u - sigma(u)) = l(u) + 1 whenever the profile is interior
    rng = random.Random(99)
    t = QT.var("t")
    s = SkewEndo(QT, [t + 1], [t - 1])
    v = nu_t()
    for _ in range(25):
        poles = rng.sample(range(-8, 9), rng.randint(1, 3))
        u = QT.zero()
        for p in poles:
            u = u + QT.const(rng.randint(1, 5)) / (t + p)
        lu = length_profile(s, v, u, window=16)
        du = u - s.apply(u)
        ldu = length_profile(s, v, du, window=16)
        assert lu.length is not None
        assert ldu.length == lu.length + 1


@pytest.mark.parametrize("char, quad", [(0, 1), (5, 2), (7, 1)])
def test_length_profile_moves_the_place(char, quad):
    """The one-variable support, read off the moved place, matches
    v(sigma^n(u)) < 0 with sigma^n(t) built by repeated substitution."""
    rng = random.Random(100 + char)
    ff = FunctionField(char, ["t"])
    t, y, one = ff.var("t"), ff.poly_var("t"), ff.one()
    places = [Place.finite(y), Place.finite(y - 1),
              Place.finite(y * y + quad), Place.infinity(ff)]
    # the shift, doubling, t -> -1/(t+1) and t -> (t+2)/(t+3)
    maps = [([t + 1], [t - 1]), ([2 * t], [t / 2]),
            ([-one / (t + 1)], [(-one - t) / t]),
            ([(t + 2) / (t + 3)], [(3 * t - 2) / (1 - t)])]
    for images, inverse in maps:
        s = SkewEndo(ff, images, inverse)
        power = {0: [t]}
        for n in range(1, 9):
            power[n] = [g.substitute(images) for g in power[n - 1]]
            power[-n] = [g.substitute(inverse) for g in power[1 - n]]
        for _ in range(6):
            # poles at sigma^-k of the finite places, and at infinity
            u = ff.const(rng.randint(0, 3)) * t ** rng.randint(0, 2)
            for _ in range(rng.randint(1, 3)):
                pl = rng.choice(places[:3])
                k = rng.randint(-8, 8)
                piece = (ff.one() * pl.poly).substitute(power[k])
                c, e = ff.const(rng.randint(1, 4)), rng.randint(1, 2)
                u = u + c / piece ** e
            if u.is_zero():
                continue
            moved = [u.substitute(power[n]) for n in range(-8, 9)]
            for n, img in zip(range(-8, 9), moved):
                assert s.apply(u, n) == img
            for pl in places:
                want = [n for n, img in zip(range(-8, 9), moved)
                        if pl.valuation(img) < 0]
                prof = length_profile(s, pl, u, window=8)
                assert prof.support == want, (images, pl, u)
                assert prof.truncated is (bool(want) and 8 in (-want[0],
                                                               want[-1]))


def test_length_profile_in_two_variables():
    # t -> t + 1, u -> 2u on Q(t, u): the general path composes u
    ff = FunctionField(0, ["t", "u"])
    t, u = ff.gens()
    s = SkewEndo(ff, [t + 1, 2 * u], [t - 1, u / 2])
    place = Place.finite(ff.poly_var("t"))
    # poles at t = 0 after the shift by n = 0 and 3, and by n = -2
    f = 1 / (t * (t - 3)) + u / (t + 2)
    prof = length_profile(s, place, f, window=6)
    assert prof.support == [-2, 0, 3]
    assert (prof.truncated, prof.length) == (False, 5)
    assert prof.support == [n for n in range(-6, 7)
                            if place.valuation(s.apply(f, n)) < 0]
    # u itself has no pole along t = 0
    assert length_profile(s, place, u / (t * t + 1), window=6).support == []


def test_length_profile_refuses_foreign_fields():
    t = QT.var("t")
    s = SkewEndo(QT, [t + 1], [t - 1])
    qu = FunctionField(0, ["u"])
    with pytest.raises(CharacteristicMismatch):
        length_profile(s, nu_t(), 1 / qu.var("u"))
    with pytest.raises(CharacteristicMismatch):
        length_profile(s, Place.finite(qu.poly_var("u")), 1 / t)
    with pytest.raises(CharacteristicMismatch):
        length_profile(s, Place.infinity(qu), 1 / t)

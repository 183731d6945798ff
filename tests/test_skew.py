"""Automorphism/derivation presentations, orbits, and delta towers."""

import random

import pytest

from orefree.errors import (
    CharacteristicMismatch, InconsistentDerivation, InvalidConstantDeclaration,
    NotAnAutomorphism, RequiresPureDerivation, WrongCharacteristic,
)
from orefree.field import FunctionField, RatFunc
from orefree.skew import (
    SkewDerivation, SkewEndo, SkewPair, delta_tower, orbit_analyze,
)

from oracles import (
    poly_parts, random_ratfunc, random_ratfunc_nonzero, ref_delta_apply,
)

QT = FunctionField(0, ["t"])


def shift_sigma(ff=QT):
    t = ff.var("t")
    return SkewEndo(ff, [t + 1], [t - 1])


def scale_sigma(c, ff=QT):
    t = ff.var("t")
    return SkewEndo(ff, [ff.const(c) * t], [t / ff.const(c)])


def ddt_delta(ff=QT):
    return SkewDerivation(ff, [ff.one()], SkewEndo.identity(ff))


def test_automorphism_round_trip_verified():
    s = shift_sigma()
    t = QT.var("t")
    assert s.apply(t) == t + 1
    assert s.apply(t, -1) == t - 1
    with pytest.raises(NotAnAutomorphism):
        SkewEndo(QT, [t + 1], [t + 1])
    with pytest.raises(NotAnAutomorphism):
        SkewEndo(QT, [t * t], [t])


def test_sigma_on_fractions_frozen():
    s = shift_sigma()
    t = QT.var("t")
    assert s.apply(1 / (t - 1)) == 1 / t
    assert s.apply((t + 1) / t, 2) == (t + 3) / (t + 2)


def test_sigma_refuses_elements_of_another_field():
    # Q(u) has the characteristic of Q(t), but its elements are not in
    # the field sigma acts on, under polynomial and Moebius maps alike
    qu = FunctionField(0, ["u"])
    u = qu.var("u")
    t, one = QT.var("t"), QT.one()
    mobius = SkewEndo(QT, [-one / (t + 1)], [(-one - t) / t])
    qtu = FunctionField(0, ["t", "u"])
    t2, u2 = qtu.gens()
    two = SkewEndo(qtu, [t2 + 1, 2 * u2], [t2 - 1, u2 / 2])
    qtw = FunctionField(0, ["t", "w"])
    for s, f in ((shift_sigma(), 1 / u), (mobius, 1 / (u + 2)),
                 (two, 1 / qtw.var("w"))):
        for n in (1, -2, 0):
            with pytest.raises(CharacteristicMismatch):
                s.apply(f, n)
    assert shift_sigma().apply(1 / t) == 1 / (t + 1)


def test_sigma_powers_compose():
    rng = random.Random(5)
    s = scale_sigma(2)
    for _ in range(8):
        f = random_ratfunc(rng, QT)
        g = s.apply(s.apply(s.apply(f)))
        assert s.apply(f, 3) == g
        if not f.is_zero():
            assert s.apply(s.apply(f, -2), 2) == f


def test_sigma_is_field_hom():
    rng = random.Random(6)
    s = shift_sigma()
    for _ in range(8):
        f = random_ratfunc(rng, QT)
        g = random_ratfunc(rng, QT)
        assert s.apply(f + g) == s.apply(f) + s.apply(g)
        assert s.apply(f * g) == s.apply(f) * s.apply(g)


def test_delta_twisted_power_rule_frozen():
    # sigma(t) = t+1, delta(t) = t gives delta(t^2) = (t+1)t + t*t = 2t^2 + t
    t = QT.var("t")
    s = shift_sigma()
    d = SkewDerivation(QT, [t], s)
    assert d.apply(t * t) == 2 * t * t + t


def test_delta_quotient_rule_frozen():
    t = QT.var("t")
    d = ddt_delta()
    assert d.apply(1 / t) == -1 / (t * t)
    assert d.apply((t * t + 1) / t) == (t * t - 1) / (t * t)


def reference_delta_cases():
    """(name, delta) for the derivations the numerator form distinguishes:
    d/dt over Q(t) and F_7(t), rational images, two and five variables,
    and twisted in one and two variables, by polynomial and rational
    sigma."""
    t = QT.var("t")
    f7 = FunctionField(7, ["t"])
    ac = FunctionField(0, ["a", "c"])
    a, c = ac.gens()
    tower = FunctionField(5, ["x%d" % i for i in range(5)])
    ts = FunctionField(0, ["t", "s"])
    u, s = ts.gens()
    mixed = SkewEndo(ts, [u + 1, 2 * s], [u - 1, s / 2])
    # sigma rational one way: its numerators need not stay coprime
    tw = FunctionField(0, ["t", "u"])
    t2, u2 = tw.gens()
    twist = SkewEndo(tw, [t2, t2 * u2], [t2, u2 / t2])
    mobius = SkewEndo(QT, [-1 / (t + 1)], [-(t + 1) / t])
    return [
        ("ddt", ddt_delta()),
        ("ddt-F7", ddt_delta(f7)),
        ("t2+1", SkewDerivation(QT, [t * t + 1], SkewEndo.identity(QT))),
        ("t/(t+1)", SkewDerivation(QT, [t / (t + 1)],
                                   SkewEndo.identity(QT))),
        ("acq", SkewDerivation(ac, [c / (a + 1), ac.zero()],
                               SkewEndo.identity(ac))),
        ("tower5", SkewDerivation(
            tower, [tower.var(i + 1) for i in range(4)] + [tower.zero()],
            SkewEndo.identity(tower))),
        ("t(sigma-id)", SkewDerivation(QT, [t], shift_sigma())),
        ("mixed-ts", SkewDerivation(ts, [u * s, u * s * s], mixed)),
        ("t(mobius-id)", SkewDerivation(QT, [t * (-1 / (t + 1) - t)],
                                        mobius)),
        ("u(twist-id)", SkewDerivation(tw, [tw.zero(), u2 * (t2 * u2 - u2)],
                                       twist)),
    ]


@pytest.mark.parametrize("name,delta", reference_delta_cases(),
                         ids=[n for n, _ in reference_delta_cases()])
def test_delta_apply_matches_reference(name, delta):
    # one fraction over numerators against the chain rule on RatFuncs, in
    # value and in printed form, also on delta's own images; in five
    # variables the reference's gcds of a second image fall to the slow
    # PRS, so there the fractions are linear and applied once
    rng = random.Random("delta:" + name)
    deg, steps = (1, 1) if delta.ff.nvars > 2 else (2, 2)
    for _ in range(10):
        f = random_ratfunc_nonzero(rng, delta.ff, max_deg=deg, max_terms=3)
        for _ in range(steps):
            want = ref_delta_apply(delta, f)
            got = delta.apply(f)
            assert got == want and str(got) == str(want)
            f = got


def test_delta_refuses_elements_of_another_field():
    u = FunctionField(0, ["u"]).var("u")
    for d in (ddt_delta(), SkewDerivation(QT, [QT.var("t")], shift_sigma())):
        with pytest.raises(CharacteristicMismatch):
            d.apply(1 / u)


def test_twisted_leibniz_random():
    rng = random.Random(17)
    t = QT.var("t")
    s = shift_sigma()
    d = SkewDerivation(QT, [t], s)
    for _ in range(10):
        f = random_ratfunc(rng, QT, max_deg=2)
        g = random_ratfunc(rng, QT, max_deg=2)
        if g.is_zero() or f.is_zero():
            continue
        assert d.apply(f * g) == s.apply(f) * d.apply(g) + d.apply(f) * g
        assert d.apply(f + g) == d.apply(f) + d.apply(g)


def test_untwisted_leibniz_multivariate():
    rng = random.Random(18)
    ff = FunctionField(5, ["x0", "x1", "x2"])
    d = SkewDerivation(ff, [ff.var(1), ff.var(2), ff.zero()],
                       SkewEndo.identity(ff))
    for _ in range(8):
        f = random_ratfunc(rng, ff, max_deg=2, max_terms=2)
        g = random_ratfunc(rng, ff, max_deg=2, max_terms=2)
        assert d.apply(f * g) == f * d.apply(g) + d.apply(f) * g


def assert_sigma_derivation(delta, rng, rounds=6, **shape):
    """delta takes its generator images and obeys the twisted Leibniz rule
    and additivity on random pairs."""
    ff, sigma = delta.ff, delta.twist
    for y, image in zip(ff.gens(), delta.images):
        assert delta.apply(y) == image
    for _ in range(rounds):
        a = random_ratfunc(rng, ff, **shape)
        b = random_ratfunc(rng, ff, **shape)
        assert delta.apply(a * b) == (sigma.apply(a) * delta.apply(b)
                                      + delta.apply(a) * b)
        assert delta.apply(a + b) == delta.apply(a) + delta.apply(b)


@pytest.mark.parametrize("char", [0, 5])
def test_one_variable_sigma_derivation_is_c_times_sigma_minus_id(char):
    # in k(t) a sigma-derivation is fixed by delta(t): it is
    # c (sigma - id) with c = delta(t) / (sigma(t) - t) when sigma != id,
    # and delta(t) d/dt when sigma = id
    ff = QT if char == 0 else FunctionField(char, ["t"])
    t = ff.var("t")
    rng = random.Random(31 + char)
    twists = [shift_sigma(ff), SkewEndo(ff, [2 * t], [t / 2]),
              SkewEndo(ff, [-1 / (t + 1)], [-(t + 1) / t])]
    for sigma, image in zip(twists, [t, t * t + 1, ff.one()]):
        delta = SkewDerivation(ff, [image], sigma)
        assert delta.inner == image / (sigma.images[0] - t)
        assert_sigma_derivation(delta, rng)
    delta = SkewDerivation(ff, [t * t], SkewEndo.identity(ff))
    assert delta.inner is None
    for _ in range(6):
        a = random_ratfunc(rng, ff)
        num, den = poly_parts(a)
        da = (num.partial(0) * den - num * den.partial(0))
        assert delta.apply(a) == t * t * da / (den * den)


def several_variable_twist(name):
    """(sigma, c) over F_7(y1, y2) with diag7's sigma, or over Q(t, s),
    where "fixed-t" has sigma fix the first generator."""
    if name == "diag7":
        ff = FunctionField(7, ["y1", "y2"])
        y1, y2 = ff.gens()
        return SkewEndo(ff, [6 * y1, 2 * y2], [6 * y1, 4 * y2]), y1 * y2
    ff = FunctionField(0, ["t", "s"])
    t, s = ff.gens()
    if name == "shift-double":
        return SkewEndo(ff, [t + 1, 2 * s], [t - 1, s / 2]), t * s
    return SkewEndo(ff, [t, s + 1], [t, s - 1]), t / (s + 1)


@pytest.mark.parametrize("name", ["diag7", "shift-double", "fixed-t"])
def test_several_variable_sigma_derivation_is_inner(name):
    sigma, c = several_variable_twist(name)
    ff = sigma.ff
    images = [c * (g - y) for g, y in zip(sigma.images, ff.gens())]
    delta = SkewDerivation(ff, images, sigma)
    assert delta.inner == c
    assert_sigma_derivation(delta, random.Random("inner:" + name), rounds=4,
                            max_deg=2, max_terms=2)


def test_pairwise_consistency_rejected():
    # F_7(y1, y2), sigma = (6*y1, 2*y2): delta(y1) = 1 forces
    # delta(y1)*(2*y2 - y2) = y2 != 0 = delta(y2)*(6*y1 - y1)
    ff = FunctionField(7, ["y1", "y2"])
    y1, y2 = ff.gens()
    s = SkewEndo(ff, [6 * y1, 2 * y2], [6 * y1, 4 * y2])
    with pytest.raises(InconsistentDerivation):
        SkewDerivation(ff, [ff.one(), ff.zero()], s)
    # the inner-derivation shape passes: delta(y_i) = c*(sigma(y_i) - y_i)
    c = y1 * y2
    SkewDerivation(ff, [c * (6 * y1 - y1), c * (2 * y2 - y2)], s)
    ff = FunctionField(0, ["t", "u"])
    t, u = ff.gens()
    one, zero = ff.one(), ff.zero()
    # sigma moves only t, yet delta(u) != 0
    with pytest.raises(InconsistentDerivation):
        SkewDerivation(ff, [zero, one], SkewEndo(ff, [t + 1, u], [t - 1, u]))
    # sigma fixes the first generator t, yet delta(t) != 0
    with pytest.raises(InconsistentDerivation):
        SkewDerivation(ff, [one, zero], SkewEndo(ff, [t, u + 1], [t, u - 1]))


def test_images_missing_from_a_dict():
    # a generator left out of a dict keeps its place under sigma and is
    # sent to 0 by a derivation
    ff = FunctionField(0, ["t", "s"])
    t, s = ff.gens()
    one, zero = ff.one(), ff.zero()
    sigma = SkewEndo(ff, {"t": t + 1}, {"t": t - 1})
    assert sigma.images == [t + 1, s] and sigma.inverse_images == [t - 1, s]
    ddt = SkewDerivation(ff, {"t": one}, SkewEndo.identity(ff))
    assert ddt.images == [one, zero]
    assert ddt.apply(s) == zero and ddt.apply(t * s) == s
    # delta = t (sigma - id): delta(s) = 0 is no inconsistency
    inner = SkewDerivation(ff, {"t": t}, sigma)
    assert inner.images == [t, zero] and inner.apply(s) == zero


def test_identity_accepted_without_substitution(monkeypatch):
    ff = FunctionField(5, ["x0", "x1", "x2", "x3", "x4"])

    def refuse(*args):
        raise AssertionError("substitution while accepting the identity")

    monkeypatch.setattr(RatFunc, "substitute", refuse)
    assert SkewEndo.identity(ff).is_identity()
    monkeypatch.undo()
    # images the generators, inverse images not: still decided, and
    # refused, by substitution
    ff = FunctionField(0, ["t", "s"])
    t, s = ff.gens()
    with pytest.raises(NotAnAutomorphism):
        SkewEndo(ff, [t, s], [2 * t, s])


def test_psi_and_declared_constants():
    s = shift_sigma()
    pair = SkewPair.automorphism(s)
    t = QT.var("t")
    assert pair.psi(t) == QT.one()
    assert pair.psi(QT.const(3)).is_zero()
    with pytest.raises(InvalidConstantDeclaration):
        SkewPair(s, SkewDerivation.zero(QT, s), e_generators=(t,))
    # char 5: t^5 is a genuine constant for d/dt
    ff5 = FunctionField(5, ["t"])
    t5 = ff5.var("t")
    pair5 = SkewPair(SkewEndo.identity(ff5), ddt_delta(ff5),
                     e_generators=(t5 ** 5,))
    assert pair5.psi(t5 ** 5).is_zero()


def test_fixed_power_check_f7():
    ff = FunctionField(7, ["y1", "y2"])
    y1, y2 = ff.gens()
    s = SkewEndo(ff, [6 * y1, 2 * y2], [6 * y1, 4 * y2])
    assert s.fixed_power_check(6) is True
    assert s.fixed_power_check(3) is False
    assert s.fixed_power_check(2) is False
    assert s.order(10) == 6


@pytest.mark.parametrize("char", [0, 5])
def test_one_variable_powers_match_repeated_substitution(char):
    """sigma^n from Moebius matrix powers equals n-fold substitution, in
    canonical form, for the shift, doubling, an order-3 map and t/(t+1)."""
    ff = FunctionField(char, ["t"])
    t, one = ff.var("t"), ff.one()
    maps = [
        ([t + 1], [t - 1], None if char == 0 else 5),
        ([2 * t], [t / 2], None if char == 0 else 4),
        ([-one / (t + 1)], [(-one - t) / t], 3),
        ([t / (t + 1)], [t / (1 - t)], None if char == 0 else 5),
    ]
    for images, inverse, order in maps:
        s = SkewEndo(ff, images, inverse)
        for n in range(-6, 7):
            want = [t]
            for _ in range(abs(n)):
                want = [g.substitute(images if n > 0 else inverse)
                        for g in want]
            (got,) = s._power_images(n)
            assert (got.num, got.den) == (want[0].num, want[0].den), (
                images, n)
            if n > 0:
                assert s.fixed_power_check(n) is (want == [t])
        assert s.order(12) == order


def _by_substitution(ff, images, inverse):
    """The substitution loop's outcome on a presentation: "ok", or the
    class and text of what it raised."""
    s = object.__new__(SkewEndo)
    s.ff, s.images, s.inverse_images = ff, images, inverse
    try:
        s._verify_by_substitution()
    except NotAnAutomorphism as exc:
        return type(exc), str(exc)
    return "ok"


def _by_construction(ff, images, inverse):
    try:
        SkewEndo(ff, images, inverse)
    except NotAnAutomorphism as exc:
        return type(exc), str(exc)
    return "ok"


def _moebius_presentations(ff, rng, count):
    """count random Moebius maps of k(t), each with its inverse, with that
    inverse's matrix times a scalar, and with one entry of it moved by 1."""
    t, p = ff.var("t"), ff.char
    out = []
    while len(out) < 3 * count:
        a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
        det = a * d - b * c
        if (det % p if p else det) == 0:
            continue
        image = (ff.const(a) * t + b) / (ff.const(c) * t + d)
        k = rng.choice([2, 3, -1])
        inv = [d, -b, -c, a]
        moved = inv[:]
        moved[rng.randrange(4)] += 1
        for e, f, g, h in (inv, [k * x for x in inv], moved):
            den = ff.const(g) * t + h
            if not den.is_zero():
                out.append(([image], [(ff.const(e) * t + f) / den]))
    return out


@pytest.mark.parametrize("char", [0, 5, 7])
def test_matrix_check_agrees_with_substitution(char, monkeypatch):
    """In one variable a presentation is accepted from the product of
    the two Moebius matrices.  On random maps with their true inverse, a
    scalar multiple of its matrix and a perturbed inverse, and on
    presentations that are not Moebius, construction accepts exactly
    what the substitution loop accepts, and raises its class and text
    otherwise.  Accepting a Moebius pair calls no substitution."""
    ff = FunctionField(char, ["t"])
    t, one = ff.var("t"), ff.one()
    round_trip = (NotAnAutomorphism, "round trip fails on generator 't'")
    fixed = [
        (([t * t], [t]), round_trip),
        (([t + 1], [t + 1]), round_trip),
        (([one], [one / (t - 1)]),
         (NotAnAutomorphism, "images of 't' do not compose: "
                             "substitution maps denominator to zero")),
        (([t], [t]), "ok"),
    ]
    for case, want in fixed:
        assert _by_substitution(ff, *case) == want
    moebius = _moebius_presentations(ff, random.Random(28 + char), 12)
    moebius += [case for case, _ in fixed]
    outcomes = [_by_substitution(ff, *case) for case in moebius]
    assert "ok" in outcomes and round_trip in outcomes
    # a Moebius inverse written over a common factor is not of degree
    # <= 1, so the loop decides it
    common = ([2 * t], [RatFunc(ff, (t * (t + 1)).num, (2 * t + 2).num,
                                coprime=True)])
    assert _by_substitution(ff, *common) == "ok"
    for case, outcome in zip(moebius + [common], outcomes + ["ok"]):
        assert _by_construction(ff, *case) == outcome, case

    def refuse(*args):
        raise AssertionError("substitution while accepting a Moebius pair")

    monkeypatch.setattr(RatFunc, "substitute", refuse)
    for case, outcome in zip(moebius, outcomes):
        if outcome == "ok":
            SkewEndo(ff, *case)
    SkewEndo.identity(ff)


def test_orbit_finite_period_two():
    s = scale_sigma(-1)
    rep = orbit_analyze(s, QT.var("t"), bound=16)
    assert rep.kind == "finite" and rep.period == 2
    rep = orbit_analyze(s, QT.var("t") ** 2, bound=16)
    assert rep.kind == "finite" and rep.period == 1


def test_orbit_infinite_shift_and_scale():
    t = QT.var("t")
    rep = orbit_analyze(shift_sigma(), t, bound=8)
    assert rep.kind == "infinite"
    rep = orbit_analyze(scale_sigma(2), 1 / (t - 1), bound=8)
    assert rep.kind == "infinite"


def test_moebius_readers_pinned_for_one_scale():
    # t -> (2t + 1)/(3t + 1) is stored as (2/3 t + 1/3)/(t + 1/3): both
    # scales are 3, and its inverse (1 - t)/(3t - 2) has two scales of 3 as
    # well; every reader of the matrix ignores that common factor
    t = QT.var("t")
    s = SkewEndo(QT, [(2 * t + 1) / (3 * t + 1)], [(1 - t) / (3 * t - 2)])
    rep = orbit_analyze(s, t)
    assert rep.kind == "infinite"
    assert rep.reason.startswith("tr^2/det = -9 is not 0, 1, 2 or 3")
    assert s.moebius_table(5) == ([109, 251], [[1], [142, 327]])
    assert str(s.apply(t, 5)) == "(251/327*t + 1/3)/(t + 142/327)"
    assert str(s.apply(t, -3)) == "(-13/30*t + 1/3)/(t - 23/30)"
    assert s.apply(s.apply(t, 5), -5) == t


def test_orbit_finite_charp_scaling():
    ff = FunctionField(7, ["t"])
    t = ff.var("t")
    s = SkewEndo(ff, [2 * t], [4 * t])
    rep = orbit_analyze(s, t, bound=16)
    assert rep.kind == "finite" and rep.period == 3  # ord(2) mod 7


def test_orbit_unknown_mobius():
    # t/(t + 1) is parabolic: tr^2/det = 4, so sigma has infinite order
    t = QT.var("t")
    s = SkewEndo(QT, [t / (t + 1)], [t / (1 - t)])
    rep = orbit_analyze(s, t, bound=6)
    assert rep.kind == "infinite" and rep.iterates == []
    # several variables keep bounded iteration and report what they saw
    ff = FunctionField(0, ["t", "u"])
    t, u = ff.gens()
    s = SkewEndo(ff, [u, t + u], [u - t, t])
    rep = orbit_analyze(s, t, bound=6)
    assert rep.kind == "unknown"
    # a itself plus six iterates, formatted as before
    assert rep.iterates == ["t", "u", "t + u", "t + 2*u", "2*t + 3*u",
                            "3*t + 5*u", "5*t + 8*u"]


def test_orbit_charp_closed_form_beyond_bound():
    # sigma(t) = t + 1 over F_11 has order 11 > bound 8; one variable
    # reads it off the matrix and ignores the bound
    ff = FunctionField(11, ["t"])
    t = ff.var("t")
    s = SkewEndo(ff, [t + 1], [t - 1])
    rep = orbit_analyze(s, t, bound=8)
    assert rep.kind == "finite" and rep.period == 11


def _moebius(ff, a, b, c, d):
    """t -> (a t + b) / (c t + d) with its inverse (d t - b) / (a - c t)."""
    t = ff.var("t")
    a, b, c, d = (ff.const(v) for v in (a, b, c, d))
    return SkewEndo(ff, [(a * t + b) / (c * t + d)],
                    [(d * t - b) / (a - c * t)])


# shift, doubling, t -> -t, orders 3, 4 and 6 over Q, parabolic, hyperbolic
MOEBIUS_MAPS = [(1, 1, 0, 1), (2, 0, 0, 1), (-1, 0, 0, 1), (0, -1, 1, 1),
                (1, 1, -1, 1), (1, -1, 1, 2), (1, 0, 1, 1), (2, 1, 1, 1)]


@pytest.mark.parametrize("char", [0, 5, 7, 11])
def test_exact_orbits_match_iteration(char):
    """Kind and period from the Moebius matrix agree with plain
    substitution up to 64 steps: a return gives that period, and no
    return means an infinite orbit (over Q; over F_p every order is at
    most p + 1 <= 12)."""
    ff = FunctionField(char, ["t"])
    t = ff.var("t")
    proper = 0
    for m in MOEBIUS_MAPS:
        s = _moebius(ff, *m)
        order = s.order(64)
        for a in (t, t ** 2, 1 / (t - 1), t + s.images[0]):
            cur, period = a, None
            for n in range(1, 65):
                cur = cur.substitute(s.images)
                if cur == a:
                    period = n
                    break
            rep = orbit_analyze(s, a)
            if period is None:
                assert char == 0
                assert (rep.kind, rep.period) == ("infinite", None), (m, a)
            else:
                assert (rep.kind, rep.period) == ("finite", period), (m, a)
                assert order % period == 0
                proper += period < order
    # some element's period is a proper divisor of the order of sigma
    assert proper


def test_exact_orders_over_q():
    orders = [_moebius(QT, *m).order(64) for m in MOEBIUS_MAPS]
    assert orders == [None, None, 2, 3, 4, 6, None, None]


def test_large_prime_orbits_are_exact_and_fast():
    """Over F_(2^31 - 1) the shift has order p, past any iteration bound."""
    p = 2 ** 31 - 1
    ff = FunctionField(p, ["t"])
    t = ff.var("t")
    shift = SkewEndo(ff, [t + 1], [t - 1])
    assert shift.order(p) == p and shift.order(p - 1) is None
    rep = orbit_analyze(shift, t, bound=8)
    assert (rep.kind, rep.period) == ("finite", p)
    # 2 and 4 have order 31 mod 2^31 - 1
    rep = orbit_analyze(SkewEndo(ff, [2 * t], [t / 2]), t ** 2)
    assert (rep.kind, rep.period) == ("finite", 31)
    # (2t + 1)/(t + 1): the discriminant 5 is not a square mod p, so the
    # eigenvalue ratio lies in F_(p^2) with order dividing p + 1 = 2^31;
    # the matrix's 2^30-th power is -1 and its 2^29-th is not scalar
    rep = orbit_analyze(_moebius(ff, 2, 1, 1, 1), t)
    assert (rep.kind, rep.period) == ("finite", 2 ** 30)


def test_delta_tower_strict_shift_fixture():
    ff = FunctionField(5, ["x0", "x1", "x2", "x3", "x4"])
    xs = ff.gens()
    d = SkewDerivation(ff, xs[1:] + [ff.zero()], SkewEndo.identity(ff))
    rep = delta_tower(d, xs[0], depth=5)
    assert [lv.status for lv in rep.levels] == ["strict"] * 4
    assert rep.all_strict()
    assert [str(v) for v in rep.values] == ["x0", "x1", "x2", "x3", "x4"]
    # starting higher up stalls once the chain hits zero
    rep = delta_tower(d, xs[3], depth=4)
    assert [lv.status for lv in rep.levels] == ["strict", "stalled",
                                                "stalled"]


def test_delta_tower_guards():
    d = ddt_delta()
    with pytest.raises(WrongCharacteristic):
        delta_tower(d, QT.var("t"), depth=3)
    ff = FunctionField(5, ["t"])
    t = ff.var("t")
    s = SkewEndo(ff, [t + 1], [t - 1])
    twisted = SkewDerivation(ff, [ff.zero()], s)
    with pytest.raises(RequiresPureDerivation):
        delta_tower(twisted, t, depth=3)


def test_delta_tower_undecided_not_upgraded():
    # delta(t) = t^2 gives nonlinear iterates: never claimed strict
    ff = FunctionField(5, ["t"])
    t = ff.var("t")
    d = SkewDerivation(ff, [t * t], SkewEndo.identity(ff))
    rep = delta_tower(d, t, depth=4)
    assert all(lv.status == "undecided" for lv in rep.levels)
    assert not rep.all_strict()

"""Word independence certificates, their two coordinatizations, and witnesses."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from orefree import config, freeness
from orefree.errors import (
    NotAdditiveEigen, RequiresPureAutomorphism, ResourceBoundExceeded,
    UsageError, ZeroArgument,
)
from orefree.field import FunctionField, MPoly, RatFunc
from orefree.intpoly import _conv, _long_div
from orefree.freeness import (
    FreenessCertificate, build_word_V, build_word_W, common_left_denominator,
    freeness_certify, independence_check, monomial_products_check,
    one_minus_x_inverse, valuation_witness, weyl_pair_from_additive, word_key,
    words_up_to, _expand_words, _xinv_word_series,
)
from orefree.linalg import _split_by_monomial, flatten_to_k, rank_over_k
from orefree.orefrac import OreFraction
from orefree.orepoly import OrePoly
from orefree.skew import SkewDerivation, SkewEndo, SkewPair
from orefree.valuation import Place

from oracles import eval_ratfunc, k_rank_by_evaluation, poly_parts, \
    ref_relation_holds_fp, series_xinv_step_delta, series_xstep_delta, \
    series_xstep_sigma, word_series

QU = FunctionField(0, ["u"])
QT = FunctionField(0, ["t"])


def shift_ctx():
    u = QU.var(0)
    return SkewPair.automorphism(SkewEndo(QU, [u + 1], [u - 1]))


def double_ctx():
    t = QT.var(0)
    return SkewPair.automorphism(SkewEndo(QT, [2 * t], [t / 2]))


def ddt_ctx():
    return SkewPair.derivation(
        SkewDerivation(QT, [QT.one()], SkewEndo.identity(QT)))


def tddt_ctx():
    t = QT.var(0)
    return SkewPair.derivation(SkewDerivation(QT, [t], SkewEndo.identity(QT)))


def t2ddt_ctx():
    t = QT.var(0)
    return SkewPair.derivation(
        SkewDerivation(QT, [t * t], SkewEndo.identity(QT)))


def invtddt_ctx():
    return SkewPair.derivation(
        SkewDerivation(QT, [QT.var(0).inverse()], SkewEndo.identity(QT)))


def f5_ctx(image):
    """F_5(t) under delta = image(t) d/dt."""
    ff = FunctionField(5, ["t"])
    return SkewPair.derivation(
        SkewDerivation(ff, [image(ff.var(0))], SkewEndo.identity(ff)))


def ac_ctx():
    """Q(a, c) with delta(a) = ac and delta(c) = 1."""
    ff = FunctionField(0, ["a", "c"])
    a, c = ff.var(0), ff.var(1)
    return SkewPair.derivation(
        SkewDerivation(ff, [a * c, ff.one()], SkewEndo.identity(ff)))


def ac_deriv_ctx():
    """Q(a, c) with delta(a) = c and delta(c) = 0."""
    ff = FunctionField(0, ["a", "c"])
    return SkewPair.derivation(
        SkewDerivation(ff, [ff.var(1), ff.zero()], SkewEndo.identity(ff)))


def f7_t2ddt_ctx():
    """F_7(t) under delta = t^2 d/dt."""
    ff = FunctionField(7, ["t"])
    return SkewPair.derivation(
        SkewDerivation(ff, [ff.var(0) ** 2], SkewEndo.identity(ff)))


def f3_ac_ctx():
    """F_3(a, c) with delta(a) = c^2 and delta(c) = a."""
    ff = FunctionField(3, ["a", "c"])
    a, c = ff.var(0), ff.var(1)
    return SkewPair.derivation(
        SkewDerivation(ff, [c * c, a], SkewEndo.identity(ff)))


def tower_ctx(nvars=5, p=5):
    ff = FunctionField(p, ["x%d" % i for i in range(nvars)])
    gens = [ff.var(i) for i in range(nvars)]
    images = gens[1:] + [ff.zero()]
    return SkewPair.derivation(
        SkewDerivation(ff, images, SkewEndo.identity(ff)))


def rel_by_key(cert):
    return {word_key(w): c for w, c in (cert.relation or {}).items()}


# -- word enumeration and construction --------------------------------------

def test_words_up_to_counts_and_order():
    ws = words_up_to(3)
    assert len(ws) == 15
    assert ws[:7] == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert words_up_to(0) == [()]
    for L in range(5):
        assert len(words_up_to(L)) == 2 ** (L + 1) - 1
    with pytest.raises(UsageError):
        words_up_to(-1)


def test_word_key_forms():
    assert word_key(()) == ""
    assert word_key((1, 0, 1)) == "101"


def test_empty_word_is_one_and_single_words():
    ctx = shift_ctx()
    b = QU.var(0).inverse()
    assert build_word_W(ctx, (), b).is_one()
    w0 = build_word_W(ctx, (0,), b)
    assert w0 == one_minus_x_inverse(ctx)
    # (1 - x) W_(0) = 1 recovers the inverse
    one = OrePoly.one(ctx)
    lhs = OreFraction.from_poly(one - OrePoly.x(ctx)) * w0
    assert lhs.is_one()
    w10 = build_word_W(ctx, (1, 0), b)
    byhand = OreFraction.from_ratfunc(ctx, b) * w0 * w0
    assert w10 == byhand


def test_rewriting_identities_both_contexts():
    # (1-x) V_I = W_I = b^{i1} V_{I'} and x V_I = V_I - b^{i1} V_{I'}
    cases = [(shift_ctx(), QU.var(0).inverse()), (ddt_ctx(), QT.var(0))]
    for ctx, b in cases:
        x = OreFraction.from_poly(OrePoly.x(ctx))
        one_minus_x = OreFraction.from_poly(
            OrePoly.one(ctx) - OrePoly.x(ctx))
        for bits in words_up_to(3):
            v = build_word_V(ctx, bits, b)
            w = build_word_W(ctx, bits, b)
            assert one_minus_x * v == w
            if bits:
                head = OreFraction.from_ratfunc(ctx, b ** bits[0])
                tail = build_word_V(ctx, bits[1:], b)
                assert w == head * tail
                assert x * v == v - head * tail
            else:
                assert x * v == v - OreFraction.one(ctx)


def test_expand_words_matches_build_word():
    ctx = ddt_ctx()
    b = QT.var(0)
    words = words_up_to(2)
    fracs = _expand_words(ctx, words, b)
    for bits, f in zip(words, fracs):
        assert f == build_word_W(ctx, bits, b)


# -- common denominator and the independence kernel --------------------------

def test_common_left_denominator_random_reassembly():
    rng = random.Random(40)
    ff = FunctionField(7, ["t"])
    t = ff.var(0)
    ctx = SkewPair.automorphism(SkewEndo(ff, [t + 1], [t - 1]))
    for _ in range(6):
        fracs = []
        while len(fracs) < 3:
            den = OrePoly(ctx, [ff.const(rng.randrange(7)),
                                ff.const(rng.randrange(1, 7))])
            num = OrePoly(ctx, [t * rng.randrange(7),
                                ff.const(rng.randrange(7))])
            if not num.is_zero():
                fracs.append(OreFraction(den, num))
        den, nums = common_left_denominator(fracs)
        for f, n in zip(fracs, nums):
            assert OreFraction(den, n) == f


def test_independence_one_and_b():
    ctx = shift_ctx()
    u = QU.var(0)
    one = OreFraction.one(ctx)
    bu = OreFraction.from_ratfunc(ctx, u.inverse())
    ind, rank, rel = independence_check([one, bu])
    assert ind and rank == 2 and rel is None
    # a rational constant collapses onto 1
    c = OreFraction.from_ratfunc(ctx, QU.const(Fraction(3, 2)))
    ind, rank, rel = independence_check([one, c])
    assert not ind and rank == 1
    assert rel == (3, -2) or rel == (-3, 2)


def test_trivial_witness_one_gives_relation():
    for ctx in (shift_ctx(), ddt_ctx()):
        cert = freeness_certify(ctx, 1, 1)
        assert cert.verdict == "Dependent"
        assert cert.word_count == 3 and cert.rank == 2
        assert rel_by_key(cert) == {"0": 1, "1": -1}


# -- frozen certificates, cross-checked against the oracles ------------------

def test_shift_L2_independent():
    cert = freeness_certify(shift_ctx(), QU.var(0).inverse(), 2)
    assert cert.verdict == "Independent"
    assert cert.word_count == 7 and cert.rank == 7
    assert cert.independent


def test_shift_L3_relation_frozen_and_oracle_certified():
    ctx = shift_ctx()
    u = QU.var(0)
    cert = freeness_certify(ctx, u.inverse(), 3)
    assert cert.verdict == "Dependent"
    assert cert.rank == 14
    assert rel_by_key(cert) == {"01": 1, "10": -1, "11": -1, "101": 1}
    # oracle route: series coordinates by single-x commutation steps, rank
    # lower bound by evaluation; together with the re-verified relation the
    # rank is pinned from both sides
    words = words_up_to(3)
    step = lambda ff, c: series_xstep_sigma(ff, ctx.sigma, c)
    rows = [word_series(QU, w, u.inverse(), 12, step) for w in words]
    rank_o, null_o = k_rank_by_evaluation(
        rows, [(Fraction(7),), (Fraction(11),), (Fraction(17),)])
    assert rank_o == 14 and len(null_o) == 1
    lam = null_o[0]
    by_word = {word_key(w): c for w, c in zip(words, lam) if c}
    scale = by_word["01"]
    assert {k: v / scale for k, v in by_word.items()} == {
        "01": 1, "10": -1, "11": -1, "101": 1}


def moebius_ctx():
    t = QT.var(0)
    return SkewPair.automorphism(SkewEndo(QT, [t / (t + 1)], [t / (1 - t)]))


def two_variable_ctx():
    ff = FunctionField(0, ["u", "v"])
    u, v = ff.var(0), ff.var(1)
    return SkewPair.automorphism(SkewEndo(ff, [u + 1, 2 * v], [u - 1, v / 2]))


def shift_f5_ctx():
    ff = FunctionField(5, ["u"])
    u = ff.var(0)
    return SkewPair.automorphism(SkewEndo(ff, [u + 1], [u - 1]))


def shift_f7_ctx():
    ff = FunctionField(7, ["t"])
    t = ff.var(0)
    return SkewPair.automorphism(SkewEndo(ff, [t + 1], [t - 1]))


def diag7_ctx():
    """F_7(y1, y2) under y1 -> 6 y1, y2 -> 2 y2, as in demos/problems."""
    ff = FunctionField(7, ["y1", "y2"])
    y1, y2 = ff.var(0), ff.var(1)
    return SkewPair.automorphism(
        SkewEndo(ff, [6 * y1, 2 * y2], [6 * y1, 4 * y2]))


def assert_relation_vanishes(ctx, b, relation):
    acc = OreFraction.zero(ctx)
    for w, c in relation.items():
        acc = acc + OreFraction.from_ratfunc(ctx, ctx.ff.const(c)) \
            * build_word_W(ctx, w, b)
    assert acc.is_zero()


def _route_cases():
    u, t = QU.var(0), QT.var(0)
    ff = two_variable_ctx().ff
    u5, t7 = shift_f5_ctx().ff.var(0), shift_f7_ctx().ff.var(0)
    y1, y2 = diag7_ctx().ff.gens()
    panel = [(shift_ctx, "1", QU.one(), (1, 2, 3)),
             (shift_ctx, "1/u", u.inverse(), (1, 2, 3)),
             (shift_ctx, "1/u^2", (u * u).inverse(), (1, 2, 3)),
             (double_ctx, "1/(t-1)", (t - 1).inverse(), (1, 2, 3)),
             (double_ctx, "1/t", t.inverse(), (1, 2, 3)),
             (moebius_ctx, "1/(t+1)", (t + 1).inverse(), (2, 3)),
             # the fold takes about half a minute at L = 3
             (two_variable_ctx, "1/(uv)",
              (ff.var(0) * ff.var(1)).inverse(), (2,)),
             # derivations of Q(t), expanded in x^{-1} and evaluated, for
             # polynomial witnesses as for rational ones
             (ddt_ctx, "1/t", t.inverse(), (2, 3)),
             (ddt_ctx, "t", t, (2, 3)),
             (ddt_ctx, "1/(t^2+1)", (t * t + 1).inverse(), (2, 3)),
             (ddt_ctx, "t/(2t+1)", t / (2 * t + 1), (2, 3)),
             (ddt_ctx, "1/(t-2)", (t - 2).inverse(), (2, 3)),
             (tddt_ctx, "1/(t-1)", (t - 1).inverse(), (2, 3)),
             (t2ddt_ctx, "1/t", t.inverse(), (2, 3)),
             (invtddt_ctx, "t", t, (2, 3)),
             # automorphisms over F_p, evaluated at a point of F_p[y]/(f)
             (shift_f5_ctx, "1/u", u5.inverse(), (2, 3)),
             (shift_f5_ctx, "1/u^2", (u5 * u5).inverse(), (3,)),
             (shift_f7_ctx, "1/t", t7.inverse(), (3,)),
             (diag7_ctx, "1/(y1+y2)", (y1 + y2).inverse(), (2,)),
             (diag7_ctx, "1/(y1+1)", (y1 + 1).inverse(), (4,))]
    return [pytest.param(make, b, L, id="%s:%s:L%d" % (
                make.__name__[:-4], name, L))
            for make, name, b, lengths in panel for L in lengths]


def _assert_series_route_agrees_with_fold(monkeypatch, ctx, b, L):
    words = words_up_to(L)

    def no_fold(*args, **kw):
        raise AssertionError("series route fell back to the fold")

    # no Ore fraction is built either: a series route proves its
    # relations on their own series
    with monkeypatch.context() as m:
        m.setattr(freeness, "common_left_denominator", no_fold)
        m.setattr(freeness, "_expand_words", no_fold)
        cert = freeness_certify(ctx, b, L)
    ind, rank, lam = independence_check(_expand_words(ctx, words, b))
    assert cert.independent == ind
    assert cert.rank == rank and cert.word_count == len(words)
    if ind:
        assert cert.relation is None
    else:
        # the relation ending at the first dependent word, on every route
        assert cert.relation == {w: c for w, c in zip(words, lam) if c}
        assert_relation_vanishes(ctx, b, cert.relation)


@pytest.mark.parametrize("make_ctx,b,L", _route_cases())
def test_evaluated_route_agrees_with_fold(monkeypatch, make_ctx, b, L):
    _assert_series_route_agrees_with_fold(monkeypatch, make_ctx(), b, L)


@pytest.mark.parametrize("make_ctx,L", [
    (lambda: f5_ctx(lambda t: t * t), 2),
    (lambda: f5_ctx(lambda t: t * t), 3),
    (lambda: f5_ctx(lambda t: t.ff.one()), 3),
    (ac_ctx, 2),
], ids=["F5-t2ddt:t:L2", "F5-t2ddt:t:L3", "F5-ddt:t:L3", "Q(a,c):a:L2"])
def test_exact_xinv_route_agrees_with_fold(monkeypatch, make_ctx, L):
    # the first generator as witness, under polynomial images outside the
    # evaluated route: F_p, and derivations in several variables
    ctx = make_ctx()
    _assert_series_route_agrees_with_fold(monkeypatch, ctx, ctx.ff.var(0), L)


def test_exact_xinv_route_expands_only_the_relation_closure(monkeypatch):
    # t under d/dt over F_5 at L = 4: the relation 01 + 4*10 + 4*000 is
    # proved on the series of the 7 words of its support's prefix closure,
    # not all 31; the rows are the one series run over every word
    ctx = f5_ctx(lambda t: t.ff.one())
    formed = []
    shared = freeness._prefix_shared

    def spy(words, root, step):
        formed.append(list(words))
        return shared(words, root, step)
    monkeypatch.setattr(freeness, "_prefix_shared", spy)
    cert = freeness_certify(ctx, ctx.ff.var(0), 4)
    rows, closure = formed
    assert len(rows) == 31 and len(closure) == 7 < 31
    assert set(closure) == {w[:k] for w in cert.relation
                            for k in range(len(w) + 1)}
    assert (cert.verdict, cert.rank, cert.word_count) == ("Dependent", 20, 31)
    assert rel_by_key(cert) == {"01": 1, "10": 4, "000": 4}
    assert cert.matrix_digest == (
        "af84c026aab3b760c0217d3a10ef71bcbaa04a0b08fdf353a7f1eedff3621ab6")
    assert_relation_vanishes(ctx, ctx.ff.var(0), cert.relation)


@pytest.mark.parametrize("make_ctx,b,L", [
    (shift_ctx, QU.var(0).inverse(), 3),
    (double_ctx, (QT.var(0) - 1).inverse(), 2),
    (ddt_ctx, QT.var(0).inverse(), 3),
    (shift_f5_ctx, shift_f5_ctx().ff.var(0).inverse(), 3),
], ids=["shift:1/u:L3", "double:1/(t-1):L2", "ddt:1/t:L3",
        "shift-F5:1/u:L3"])
def test_evaluated_route_falls_back_to_fold(monkeypatch, make_ctx, b, L):
    # rows cut to their first two entries at every point: the evaluated
    # rank drops, the lifted nullspace vectors fail exact verification,
    # and the certificate must be the fold's, unchanged
    ctx = make_ctx()
    real = freeness._evaluated_word_rows

    def truncated(pair, words, b, N):
        for rows, point in real(pair, words, b, N):
            yield [row[:2] for row in rows], point

    with monkeypatch.context() as m:
        m.setattr(freeness, "_evaluated_word_rows", lambda *a: iter(()))
        fold = freeness_certify(ctx, b, L)
    with monkeypatch.context() as m:
        m.setattr(freeness, "_evaluated_word_rows", truncated)
        cert = freeness_certify(ctx, b, L)
    assert cert == fold
    if cert.relation is not None:
        assert_relation_vanishes(ctx, b, cert.relation)


@pytest.mark.parametrize("make_ctx,b,L", [
    (shift_ctx, QU.var(0).inverse(), 3),
    (ddt_ctx, QT.var(0), 3),
], ids=["shift:1/u:L3", "ddt:t:L3"])
def test_spurious_evaluated_relation_falls_back(monkeypatch, make_ctx, b, L):
    # the last word's row is overwritten by the empty word's, so the
    # evaluated nullspace gains the false relation W_111 = W_(): its lift
    # fails exact verification, and the exact route must answer instead
    ctx = make_ctx()
    real = freeness._evaluated_word_rows

    def spurious(pair, words, b, N):
        for rows, point in real(pair, words, b, N):
            yield rows[:-1] + [rows[0]], point

    with monkeypatch.context() as m:
        m.setattr(freeness, "_evaluated_word_rows", lambda *a: iter(()))
        exact = freeness_certify(ctx, b, L)
    with monkeypatch.context() as m:
        m.setattr(freeness, "_evaluated_word_rows", spurious)
        cert = freeness_certify(ctx, b, L)
    assert cert == exact and cert.verdict == "Dependent"
    assert_relation_vanishes(ctx, b, cert.relation)


def _last_word(relation):
    return max(relation, key=lambda w: (len(w), w))


def _settle_rule_points(blocks, n, p):
    """How many of the given point blocks a loop takes that stops once the
    rank is full or has not risen over two more points."""
    echelon, ranks = freeness._Echelon(n, p or freeness._EVAL_PRIME), []
    for k, block in enumerate(blocks, 1):
        ranks.append(echelon.add(block))
        if ranks[-1] == n or k > 2 and ranks[-3] == ranks[-1]:
            return k
    return len(blocks)


@pytest.mark.parametrize("make_ctx,b,L,rank,refused", [
    (shift_ctx, QU.var(0).inverse(), 3, 14, None),
    (ddt_ctx, QT.var(0).inverse(), 3, 14, None),
    (shift_ctx, QU.var(0).inverse(), 4, 25, (1, 0, 0, 1)),
    (ddt_ctx, QT.var(0).inverse(), 4, 25, (1, 0, 0, 1)),
    (shift_f5_ctx, FunctionField(5, ["u"]).var(0).inverse(), 4, 25,
     (1, 0, 0, 1)),
], ids=["no-lift-shift:1/u", "no-lift-ddt:1/t", "second-proof-shift:1/u:L4",
        "second-proof-ddt:1/t:L4", "second-proof-shift-F5:1/u:L4"])
def test_obstruction_fallback_keeps_the_relation(monkeypatch, make_ctx, b, L,
                                                 rank, refused):
    # a lift that fails (refused is None), or a proof that fails only at
    # the obstruction refused, the second after W_101 at L = 4: every
    # point then adds the next one, until the rank has not risen over two
    # more points, and the evaluated route steps aside.  The route after
    # it must give the same relation and rank
    ctx = make_ctx()
    cert = freeness_certify(ctx, b, L)
    real, rows = freeness._relation_holds, freeness._evaluated_word_rows
    refusals, blocks = [], []

    def proof(pair, words, exact, lam):
        word = _last_word({w: c for w, c in zip(words, lam) if c})
        if word == refused:
            refusals.append(word)
            return False
        return real(pair, words, exact, lam)

    def recording(*args):
        for block, point in rows(*args):
            blocks.append(block)
            yield block, point

    with monkeypatch.context() as m:
        if refused is None:
            m.setattr(freeness, "_rational_reconstruct", lambda a, q: None)
        m.setattr(freeness, "_relation_holds", proof)
        m.setattr(freeness, "_evaluated_word_rows", recording)
        fallback = freeness_certify(ctx, b, L)
    assert set(refusals) == ({refused} if refused else set())
    n, p = 2 ** (L + 1) - 1, ctx.ff.char
    every = [block for block, _ in itertools.islice(
        rows(ctx, words_up_to(L), b, freeness._truncation_order(L)),
        len(blocks) + 2)]
    assert len(blocks) == _settle_rule_points(every, n, p)
    # the evaluated digest names q and its points, the fold's does not
    assert fallback.matrix_digest != cert.matrix_digest
    assert cert.verdict == fallback.verdict == "Dependent"
    assert (fallback.rank, fallback.word_count) == (rank, n)
    assert fallback.relation == cert.relation


@pytest.mark.parametrize("make_ctx,b,L,rank,obstructions", [
    (shift_ctx, QU.var(0).inverse(), 4, 25, ["101", "1001"]),
    (shift_ctx, QU.var(0).inverse(), 5, 41, ["101", "1001", "10001"]),
    (ddt_ctx, QT.var(0), 3, 13, ["000", "100"]),
    (ddt_ctx, QT.var(0), 4, 21, ["000", "100", "0010", "1010"]),
], ids=["shift:1/u:L4", "shift:1/u:L5", "ddt:t:L3", "ddt:t:L4"])
def test_evaluated_route_verifies_only_generators(monkeypatch, make_ctx, b, L,
                                                  rank, obstructions):
    # only the obstructions, the dependent words whose prefix and suffix
    # of one letter fewer are independent, have their relations proved:
    # 1/u at L = 4 has 6 relations, 2 of them proved.  Every other
    # dependent word ends a one-letter multiple of a shorter relation
    cert, checked = _checked_generators(monkeypatch, make_ctx(), b, L)
    assert cert.verdict == "Dependent" and cert.rank == rank
    assert [word_key(_last_word(r)) for r in checked] == obstructions


def _checked_generators(monkeypatch, ctx, b, L):
    """The certificate, and the relations proved at its accepted point.

    Proofs are tried at every point with a rank deficit; the attempts
    before the accepted point were rejected, each at a rank below the
    certificate's.
    """
    attempts = []
    lift, real = freeness._obstruction_relations, freeness._relation_holds

    def lifting(null, words, p):
        attempts.append((len(words) - len(null), []))
        return lift(null, words, p)

    def recording(pair, words, b, lam):
        attempts[-1][1].append({w: c for w, c in zip(words, lam) if c})
        return real(pair, words, b, lam)

    with monkeypatch.context() as m:
        m.setattr(freeness, "_obstruction_relations", lifting)
        m.setattr(freeness, "_relation_holds", recording)
        cert = freeness_certify(ctx, b, L)
    *rejected, (rank, checked) = attempts
    assert rank == cert.rank
    assert all(r < cert.rank for r, _ in rejected)
    return cert, checked


def _closure_order_and_ones(relation):
    closure = {w[:k] for w in relation for k in range(len(w) + 1)}
    return len(closure) - 1, max(sum(w) for w in relation)


_POINT_CHECK_CASES = pytest.mark.parametrize("make_ctx,witness", [
    (shift_ctx, lambda u: u.inverse()),
    (double_ctx, lambda t: t.inverse()),
    (ddt_ctx, lambda t: t.inverse()),
], ids=["shift:1/u:L4", "double:1/t:L4", "ddt:1/t:L4"])


@_POINT_CHECK_CASES
def test_point_bound_covers_every_order(monkeypatch, make_ctx, witness):
    # each generator's exact series in Q(t), built by the oracle's single
    # commutation steps: the relation vanishes at orders 0..e, and every
    # order's coefficient of a support word times Delta^r is a polynomial
    # of degree at most B, so B + 1 points decide it
    ctx = make_ctx()
    ff = ctx.ff
    b = witness(ff.var(0))
    if ctx.is_pure_automorphism():
        step, geom = (lambda f, c: series_xstep_sigma(f, ctx.sigma, c)), None
    else:
        step = lambda f, c: series_xinv_step_delta(f, ctx.delta, c)
    cert, generators = _checked_generators(monkeypatch, ctx, b, 4)
    assert cert.verdict == "Dependent" and generators
    for relation in generators:
        e, r = _closure_order_and_ones(relation)
        _, delta, B = freeness._point_bound(
            ctx, freeness._ExactValues(ctx, b), e, r)
        scale = RatFunc(ff, delta, ff.ring.one) ** r
        if not ctx.is_pure_automorphism():
            geom = [ff.zero()] + [-ff.one()] * e
        series = {w: word_series(ff, w, b, e, step, geom) for w in relation}
        for m in range(e + 1):
            assert sum((ff.const(c) * series[w][m]
                        for w, c in relation.items()), ff.zero()).is_zero()
            for w in relation:
                scaled = series[w][m] * scale
                assert scaled.is_poly()
                assert ff.ring.degree(scaled.num) <= B


@_POINT_CHECK_CASES
def test_exact_values_built_once_per_certificate(monkeypatch, make_ctx,
                                                 witness):
    # the proofs of one certificate share sigma^j(b) or delta^j(b): the
    # map is applied once per value of the longest prefix that any proof
    # reads, however many generators there are
    ctx = make_ctx()
    b = witness(ctx.ff.var(0))
    cls = SkewEndo if ctx.is_pure_automorphism() else SkewDerivation
    calls = []
    real = cls.apply

    def counting(self, f, *args):
        calls.append(f)
        return real(self, f, *args)

    monkeypatch.setattr(cls, "apply", counting)
    cert, generators = _checked_generators(monkeypatch, ctx, b, 4)
    assert cert.verdict == "Dependent" and len(generators) >= 2
    e = max(_closure_order_and_ones(g)[0] for g in generators)
    assert len(calls) == (e if cls is SkewEndo else e - 1)


@_POINT_CHECK_CASES
def test_point_check_rejects_a_changed_coefficient(monkeypatch, make_ctx,
                                                   witness):
    # a generator with one coefficient changed by 1 differs from a
    # relation by a nonzero word, so it must be rejected
    ctx = make_ctx()
    b = witness(ctx.ff.var(0))
    words = words_up_to(4)
    cert, generators = _checked_generators(monkeypatch, ctx, b, 4)
    assert cert.verdict == "Dependent" and generators
    exact = freeness._ExactValues(ctx, b)
    for relation in generators:
        lam = [relation.get(w, 0) for w in words]
        assert freeness._relation_holds(ctx, words, exact, lam)
        for w in relation:
            changed = [c + (v == w) for v, c in zip(words, lam)]
            assert not freeness._relation_holds(ctx, words, exact, changed)


@pytest.mark.parametrize("make_ctx,witness", [
    (shift_f5_ctx, lambda u: u.inverse()),
    (diag7_ctx, lambda y1: (y1 + 1).inverse()),
    (lambda: f5_ctx(lambda t: t.ff.one()), lambda t: t),
    (shift_ctx, lambda u: u.inverse()),
    (ddt_ctx, lambda t: t.inverse()),
], ids=["shift-F5:1/u:L4", "diag7:1/(y1+1):L4", "F5-ddt:t:L4",
        "shift-Q:1/u:L4", "ddt-Q:1/t:L4"])
def test_relation_proof_reads_every_order_of_the_closure(make_ctx, witness):
    # W_() - W_0 under an automorphism and W_00 under a derivation are
    # nonzero, and their series vanish at orders 0..e-1 of their prefix
    # closure but not at e: a proof that stops short of order e accepts
    # them.  Exact polynomials over F_p and in two variables, integer
    # points over Q(t); each certificate's own relation is accepted
    ctx = make_ctx()
    ff = ctx.ff
    b = witness(ff.var(0))
    words = words_up_to(4)
    cert = freeness_certify(ctx, b, 4)
    assert cert.verdict == "Dependent"
    exact = freeness._ExactValues(ctx, b)
    assert freeness._relation_holds(
        ctx, words, exact, [cert.relation.get(w, 0) for w in words])
    auto = ctx.is_pure_automorphism()
    false = {(): 1, (0,): -1} if auto else {(0, 0): 1}
    e, _ = _closure_order_and_ones(false)
    if auto:
        step, geom = (lambda f, c: series_xstep_sigma(f, ctx.sigma, c)), None
    else:
        step = lambda f, c: series_xinv_step_delta(f, ctx.delta, c)
        geom = [ff.zero()] + [-ff.one()] * e
    total = [sum((ff.const(c) * word_series(ff, w, b, e, step, geom)[m]
                  for w, c in false.items()), ff.zero())
             for m in range(e + 1)]
    assert all(x.is_zero() for x in total[:-1]) and not total[-1].is_zero()
    assert not freeness._relation_holds(
        ctx, words, exact, [false.get(w, 0) for w in words])


def test_shift_inverse_square_L6_known_answer(monkeypatch):
    # 1/u^2 under the shift is Dependent at L = 6, with the fold and the
    # exact series refused, its two generators proved by the point check.
    # The 14-word relation below lies in the same relation space: it
    # passes the point check, and fails it with W_1011 raised by 1
    _no_exact_route(monkeypatch)
    ctx = shift_ctx()
    b = (QU.var(0) * QU.var(0)).inverse()
    cert = freeness_certify(ctx, b, 6)
    assert (cert.verdict, cert.rank, cert.word_count) == (
        "Dependent", 125, 127)
    assert rel_by_key(cert) == {
        "001": 1, "010": -2, "011": 1, "100": 1, "101": -8, "110": 1,
        "0001": -1, "0010": 1, "0100": 1, "0101": -7, "1000": -1,
        "1001": 38, "1010": -7, "01001": 12, "10001": -54, "10010": 12,
        "010001": -6, "100001": 24, "100010": -6}
    relation = {"011": 1, "101": -2, "110": 1, "111": -2, "0101": -1,
                "1001": 2, "1010": -1, "1011": 4, "1101": 4, "10011": -2,
                "10101": -6, "11001": -2, "100101": 2, "101001": 2}
    words = words_up_to(6)
    exact = freeness._ExactValues(ctx, b)
    lam = [relation.get(word_key(w), 0) for w in words]
    assert freeness._relation_holds(ctx, words, exact, lam)
    lam[words.index((1, 0, 1, 1))] += 1
    assert not freeness._relation_holds(ctx, words, exact, lam)


@pytest.mark.parametrize("N", [1, 2, 14, 30, 62, 126, 254, 510])
def test_xinv_convolution_matches_binomial_dot_product(N):
    # the x^{-1} product mod q as one factorial-scaled convolution gives
    # the binomial dot product's residues: on random rows, on rows of
    # q - 1, and on rows whose packed entries a_m / (m-1)! and
    # (-1)^j e_j / j! are all q - 1, which fill every slot the most
    q = freeness._EVAL_PRIME
    rng = random.Random(N)
    fact = list(itertools.accumulate(range(1, N + 1), lambda x, i: x * i % q,
                                     initial=1))
    rows = [([rng.randrange(q) for _ in range(N + 1)],
             [rng.randrange(q) for _ in range(rng.randint(1, N))]),
            ([q - 1] * (N + 1), [q - 1] * N),
            ([q - 1] + [-fact[m - 1] % q for m in range(1, N + 1)],
             [(-1) ** (j + 1) * fact[j] % q for j in range(N)])]
    F = freeness._residues(q)
    for a, e in rows:
        want, binom = [a[0] * e[0] % q], [1]     # binom: C(n - 1, .) mod q
        for n in range(1, N + 1):
            want.append(sum(
                a[m] * (-1) ** (n - m) * binom[n - m] * e[n - m]
                for m in range(max(1, n - len(e) + 1), n + 1)) % q)
            binom = [1] + [(x + y) % q for x, y in zip(binom, binom[1:])] \
                + [1]
        step = freeness._xinv_step(e, N, 0, F)
        assert step(a, 1) == [0] + [
            -s % q for s in itertools.accumulate(want[:-1])]
        assert step(a, 0) == [0] + [
            -s % q for s in itertools.accumulate(a[:-1])]


def _fp_relation_cases():
    """(pair, b, L) over F_2, F_5, F_7 and F_(2^31 - 1): the shift with
    b = 1/t, and d/dt with b = t^2 and with b = 1/t."""
    for p in (2, 5, 7, 2 ** 31 - 1):
        ff = FunctionField(p, ["t"])
        t = ff.var(0)
        shift = SkewPair.automorphism(SkewEndo(ff, [t + 1], [t - 1]))
        ddt = SkewPair.derivation(
            SkewDerivation(ff, [ff.one()], SkewEndo.identity(ff)))
        yield pytest.param(shift, t.inverse(), 4, id="F%d-shift:1/t" % p)
        yield pytest.param(ddt, t * t, 4, id="F%d-ddt:t^2" % p)
        yield pytest.param(ddt, t.inverse(), 3, id="F%d-ddt:1/t" % p)


@pytest.mark.parametrize("pair,b,L", _fp_relation_cases())
def test_packed_proof_matches_mpoly_proof(pair, b, L):
    # seeded combinations of a certificate's relation R and its one-letter
    # multiples g_j R and R g_j hold; with one coefficient changed they
    # differ from a relation by a word, so they fail.  The proof in
    # F_p[y]/(y^(B+1)) gives the verdict of the MPoly reference each time
    p = pair.ff.char
    cert = freeness_certify(pair, b, L)
    assert cert.verdict == "Dependent"
    R = cert.relation
    multiples = [R] + [{(j,) + w: c for w, c in R.items()} for j in (0, 1)] \
        + [{w + (j,): c for w, c in R.items()} for j in (0, 1)]
    words = words_up_to(L + 1)
    exact = freeness._ExactValues(pair, b)
    rng = random.Random(p)
    for _ in range(3):
        lam = [0] * len(words)
        for rel in rng.sample(multiples, 2):
            c = rng.randrange(1, p)
            for w, x in rel.items():
                lam[words.index(w)] = (lam[words.index(w)] + c * x) % p
        assert freeness._relation_holds(pair, words, exact, lam)
        assert ref_relation_holds_fp(pair, words, exact, lam)
        i = rng.choice([i for i, c in enumerate(lam) if c])
        lam[i] += 1
        assert not freeness._relation_holds(pair, words, exact, lam)
        assert not ref_relation_holds_fp(pair, words, exact, lam)


def test_truncated_packed_ring_raises_at_its_degree():
    # F_p[y]/(y^k) has no fold: products of degree below k are the list
    # products mod p, and one that reaches y^k raises instead of losing
    # its top part
    rng = random.Random(38)
    for p, k in ((2, 1), (5, 9), (7, 40), (2 ** 31 - 1, 17)):
        F = freeness._Packed([0] * k + [1], p, k)
        for _ in range(20):
            da = rng.randrange(k)
            a = [rng.randrange(p) for _ in range(da)] + [rng.randrange(1, p)]
            b = [rng.randrange(p) for _ in range(k - 1 - da)] + [1]
            want = [c % p for c in _conv(a, b)]
            assert F.unpack([F.mul(F.pack(a), F.pack(b))]) == want + [0] * (
                k - len(want))
            with pytest.raises(AssertionError):
                F.mul(F.pack(a), F.pack([0] + b))


def test_packed_proof_raises_on_a_short_degree_bound(monkeypatch):
    # the proof ring is sized by _point_bound's B: were B too small, the
    # values or their products would reach y^(B+1), and the proof must
    # raise rather than decide on truncated series
    pair, b, L = shift_f5_ctx(), FunctionField(5, ["u"]).var(0).inverse(), 4
    words = words_up_to(L)
    lam = [freeness_certify(pair, b, L).relation.get(w, 0) for w in words]
    exact = freeness._ExactValues(pair, b)
    assert freeness._relation_holds(pair, words, exact, lam)
    real = freeness._point_bound

    def halved(*args):
        values, delta, B = real(*args)
        assert B >= 4
        return values, delta, B // 2
    monkeypatch.setattr(freeness, "_point_bound", halved)
    with pytest.raises(AssertionError, match="not folded below"):
        freeness._relation_holds(pair, words, exact, lam)


@pytest.mark.parametrize("make_ctx,witness,L", [
    (shift_ctx, lambda u: (u * u).inverse(), 3),
    (double_ctx, lambda t: (t - 1).inverse(), 3),
    (shift_ctx, lambda u: u.inverse(), 4),
    (ddt_ctx, lambda t: t.inverse(), 4),
], ids=["shift-Q:1/u^2:L3", "double-Q:1/(t-1):L3", "shift-Q:1/u:L4",
        "ddt-Q:1/t:L4"])
def test_screen_refutes_false_lifts_before_exact_values(monkeypatch,
                                                        make_ctx, witness, L):
    # the one lift that each point loop rejects, at its first point for
    # the Independent two and at its second for the Dependent two, is
    # refuted by the screen mod q with no exact value built for it: every
    # _point_bound belongs to a proof that passes.  The screen never
    # refutes those, and with it switched off the certificate is the
    # same, as it only refutes
    ctx = make_ctx()
    b = witness(ctx.ff.var(0))
    cert = freeness_certify(ctx, b, L)
    screen, bound = freeness._refuted_mod_q, freeness._point_bound
    outcomes, bounds = [], []

    def screening(*args):
        outcomes.append(screen(*args))
        return outcomes[-1]

    def bounding(*args):
        bounds.append(args)
        return bound(*args)

    with monkeypatch.context() as m:
        m.setattr(freeness, "_refuted_mod_q", screening)
        m.setattr(freeness, "_point_bound", bounding)
        assert freeness_certify(ctx, b, L) == cert
    assert outcomes.count(True) == 1
    assert len(bounds) == outcomes.count(False)
    monkeypatch.setattr(freeness, "_refuted_mod_q", lambda *args: False)
    assert freeness_certify(ctx, b, L) == cert


# -- the trie order and the point loop ----------------------------------------

def test_truncation_order_is_the_trie_edge_count():
    for L in range(1, 9):
        assert freeness._truncation_order(L) == 2 ** (L + 1) - 2
        assert freeness._truncation_order(L) == len(words_up_to(L)) - 1


@pytest.mark.parametrize("make_ctx,b,lengths,tight", [
    (shift_ctx, (QU.var(0) * QU.var(0)).inverse(), (1, 2), False),
    (ddt_ctx, QT.var(0).inverse(), (1, 2), False),
    (ddt_ctx, (QT.var(0) * QT.var(0) + 1).inverse(), (1, 2), False),
    (double_ctx, (QT.var(0) - 1).inverse(), (1, 2, 3), True),
], ids=["shift:1/u^2", "ddt:1/t", "ddt:1/(t^2+1)", "double:1/(t-1)"])
def test_fold_denominator_within_trie_order(make_ctx, b, lengths, tight):
    # the fold's common left denominator has degree at most the trie
    # order, and 1/(t-1) under doubling reaches it: 2, 6 and 14
    ctx = make_ctx()
    for L in lengths:
        den, _ = common_left_denominator(
            _expand_words(ctx, words_up_to(L), b))
        N = freeness._truncation_order(L)
        assert den.degree == N if tight else den.degree <= N


def _no_exact_route(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("evaluated route fell back to an exact route")
    monkeypatch.setattr(freeness, "common_left_denominator", refuse)
    monkeypatch.setattr(freeness, "_xinv_word_series", refuse)


@pytest.mark.parametrize("make_ctx,witness,L,verdict,rank,relation", [
    (ddt_ctx, lambda t: t, 5, "Dependent", 31,
     {"01": 1, "10": -1, "000": -1}),
    (ddt_ctx, lambda t: (t * t).inverse(), 4, "Dependent", 30,
     {"0110": 1, "1001": -1}),
    (ddt_ctx, lambda t: (t * t).inverse(), 5, "Dependent", 54,
     {"0110": 1, "1001": -1}),
    (shift_ctx, lambda u: u * u, 5, "Dependent", 49,
     {"0001": 1, "0010": -3, "0100": 3, "1000": -1}),
    (shift_ctx, lambda u: u.inverse(), 6, "Dependent", 63,
     {"01": 1, "10": -1, "11": -1, "101": 1}),
    (double_ctx, lambda t: (t - 1).inverse(), 6, "Independent", 127, {}),
], ids=["ddt:t:L5", "ddt:1/t^2:L4", "ddt:1/t^2:L5", "shift:u^2:L5",
        "shift:1/u:L6", "double:1/(t-1):L6"])
def test_evaluated_route_known_answers(monkeypatch, make_ctx, witness, L,
                                       verdict, rank, relation):
    # answers at the trie order with the fold and the exact series
    # refused: the point loop adds points until the rank is exact
    _no_exact_route(monkeypatch)
    ctx = make_ctx()
    b = witness(ctx.ff.var(0))
    cert = freeness_certify(ctx, b, L)
    assert (cert.verdict, cert.rank, cert.word_count) == (
        verdict, rank, 2 ** (L + 1) - 1)
    assert rel_by_key(cert) == relation
    if cert.relation:
        assert_relation_vanishes(ctx, b, cert.relation)


def test_point_loop_waits_two_points_for_a_rise(monkeypatch):
    # every point comes twice, so every second copy adds no rank: the loop
    # must go on to the next point and reach the exact rank of t under
    # d/dt at L = 5 without an exact route
    _no_exact_route(monkeypatch)
    real = freeness._evaluated_word_rows

    def twice(pair, words, b, N):
        for found in real(pair, words, b, N):
            yield found
            yield found

    monkeypatch.setattr(freeness, "_evaluated_word_rows", twice)
    cert = freeness_certify(ddt_ctx(), QT.var(0), 5)
    assert (cert.verdict, cert.rank) == ("Dependent", 31)
    assert rel_by_key(cert) == {"01": 1, "10": -1, "000": -1}


@pytest.mark.parametrize("make_ctx,witness,L,points", [
    (shift_ctx, lambda u: u.inverse(), 4, 3),
    (shift_ctx, lambda u: (u * u).inverse(), 3, 2),
    (double_ctx, lambda t: (t - 1).inverse(), 3, 2),
    (double_ctx, lambda t: t.inverse(), 4, 3),
    (shift_f5_ctx, lambda u: u.inverse(), 4, 1),
    (ddt_ctx, lambda t: t, 3, 3),
    (ddt_ctx, lambda t: t.inverse(), 4, 3),
], ids=["shift-Q:1/u:L4", "shift-Q:1/u^2:L3", "double-Q:1/(t-1):L3",
        "double-Q:1/t:L4", "shift-F5:1/u:L4", "ddt-Q:t:L3", "ddt-Q:1/t:L4"])
def test_point_loop_stops_at_the_first_proved_point(monkeypatch, make_ctx,
                                                    witness, L, points):
    # the benchmark's evaluated entries: a Dependent certificate stops at
    # the first point whose obstructions are proved, with no points after
    # it to confirm the rank, and an Independent one at full rank
    ctx = make_ctx()
    real, taken = freeness._evaluated_word_rows, []

    def counting(*args):
        for found in real(*args):
            taken.append(found[1])
            yield found

    monkeypatch.setattr(freeness, "_evaluated_word_rows", counting)
    cert = freeness_certify(ctx, witness(ctx.ff.var(0)), L)
    assert len(taken) == points
    assert cert.verdict == ("Independent" if points == 2 else "Dependent")


@pytest.mark.parametrize("make_ctx,b,L", [
    (shift_ctx, QU.var(0).inverse(), 3),
    (ddt_ctx, QT.var(0), 3),
    (shift_f5_ctx, FunctionField(5, ["u"]).var(0).inverse(), 3),
], ids=["shift:1/u:L3", "ddt:t:L3", "shift-F5:1/u:L3"])
def test_spurious_first_point_takes_the_next(monkeypatch, make_ctx, b, L):
    # only the first point's block has the last word's row overwritten by
    # the empty word's, so its nullspace gains the false relation
    # W_111 = W_(): that point's lift or proof is rejected, the next
    # point restores the rank, and the certificate keeps the verdict,
    # rank and relation of the unpatched one.  Over F_5 the unpatched
    # certificate proves at the first point
    ctx = make_ctx()
    cert = freeness_certify(ctx, b, L)
    rows = freeness._evaluated_word_rows
    lift, proof = freeness._obstruction_relations, freeness._relation_holds
    outcomes = []

    def spurious(pair, words, b, N):
        for k, (block, point) in enumerate(rows(pair, words, b, N)):
            outcomes.append([])
            yield (block[:-1] + [block[0]] if k == 0 else block), point

    def lifting(*args):
        relations = lift(*args)
        outcomes[-1].append(relations is not None)
        return relations

    def proving(*args):
        outcomes[-1].append(proof(*args))
        return outcomes[-1][-1]

    _no_exact_route(monkeypatch)
    monkeypatch.setattr(freeness, "_evaluated_word_rows", spurious)
    monkeypatch.setattr(freeness, "_obstruction_relations", lifting)
    monkeypatch.setattr(freeness, "_relation_holds", proving)
    patched = freeness_certify(ctx, b, L)
    assert False in outcomes[0]
    assert len(outcomes) >= 2 and all(outcomes[-1])
    assert (patched.verdict, patched.rank, patched.relation) == (
        cert.verdict, cert.rank, cert.relation)
    assert patched.verdict == "Dependent"


def test_witness_pole_on_the_orbit_skips_the_point(monkeypatch):
    # 1/(u - s0 - 3) has a pole at the third shift of the first start s0,
    # so that point is skipped and the next start is the first one used.
    # The shift commutes with u -> u + s0 + 3, which carries 1/u to this
    # witness, so its certificate has the verdict, rank and relation of
    # 1/u (its digest names other points)
    q = freeness._EVAL_PRIME
    s0, s1 = freeness._EVAL_STARTS[:2]
    ctx, u = shift_ctx(), QU.var(0)
    b = (u - (s0 + 3)).inverse()
    F = freeness._residues(q)
    assert freeness._orbit_values(ctx.sigma.images, b, (s0,), 3, F) is None
    assert freeness._orbit_values(ctx.sigma.images, b, (s0,), 2, F)
    _, point = next(freeness._evaluated_word_rows(ctx, words_up_to(3), b, 14))
    assert point == (s1,)
    _no_exact_route(monkeypatch)
    cert = freeness_certify(ctx, b, 3)
    ref = freeness_certify(ctx, u.inverse(), 3)
    assert (cert.verdict, cert.rank, cert.relation) == (
        ref.verdict, ref.rank, ref.relation)
    assert (cert.rank, rel_by_key(cert)) == (
        14, {"01": 1, "10": -1, "11": -1, "101": 1})


def test_image_pole_on_the_orbit_skips_the_point(monkeypatch):
    # t -> 1/(t - s0) has its pole at the first start s0 itself: the point
    # map is undefined there, so the next start is the first one used, and
    # the certificate is the fold's
    s0, s1 = freeness._EVAL_STARTS[:2]
    t = QT.var(0)
    ctx = SkewPair.automorphism(
        SkewEndo(QT, [(t - s0).inverse()], [t.inverse() + s0]))
    F = freeness._residues(freeness._EVAL_PRIME)
    assert freeness._orbit_values(ctx.sigma.images, t, (s0,), 1, F) is None
    _, point = next(freeness._evaluated_word_rows(ctx, words_up_to(2), t, 6))
    assert point == (s1,)
    _assert_series_route_agrees_with_fold(monkeypatch, ctx, t, 2)


def _moebius_ctx(ff, image, inverse):
    t = ff.var(0)
    return SkewPair.automorphism(SkewEndo(ff, [image(t)], [inverse(t)]))


def test_evaluate_matches_exact_values():
    # _evaluate takes coordinate powers by repeated squaring: dense
    # exponents up to 40 over Q, mod q at integer points, against exact
    # rational values; and y^n in F_7[y]/(f) against x^n mod f
    rng = random.Random(33)
    ff = FunctionField(0, ["a", "c"])
    a, c = ff.gens()
    q = freeness._EVAL_PRIME
    R = freeness._residues(q)

    def dense():
        return sum((rng.randrange(1, 10) * a ** rng.randrange(41)
                    * c ** rng.randrange(41) for _ in range(8)), ff.one())
    for _ in range(6):
        g = dense() / dense()
        P = (rng.randrange(2, 99), rng.randrange(2, 99))
        want = eval_ratfunc(g, tuple(map(Fraction, P)))
        assert freeness._evaluate(g, [P], R) == [
            want.numerator * pow(want.denominator, -1, q) % q]
    F = freeness._extension(7)
    f = F.f
    k = len(f) - 1
    t = FunctionField(7, ["t"]).var(0)
    y = F.pack([0, 1])
    for n in (1, 2, 5, 40, 343):
        rem = _long_div([0] * n + [1], f, 7)[1]
        assert F.unpack(freeness._evaluate(t ** n, [(y,)], F)) == (
            rem + [0] * (k - len(rem)))


@pytest.mark.parametrize("image,inverse", [
    (lambda t: t + 1, lambda t: t - 1),
    (lambda t: 2 * t, lambda t: t / 2),
    (lambda t: -1 / (t + 1), lambda t: (-1 - t) / t),
    (lambda t: (t / 3 + 1) / (t + Fraction(1, 5)),
     lambda t: (1 - t / 5) / (t - Fraction(1, 3))),
    (lambda t: t / 2 + Fraction(1, 3), lambda t: 2 * t - Fraction(2, 3)),
], ids=["shift", "double", "order3", "fractional", "fractional-affine"])
def test_point_map_mod_q_equals_image_evaluation(image, inverse):
    # the matrix's point map over Q steps each point where evaluating
    # sigma(t) mod q does, to the same value, and meets the same poles:
    # along the orbits of the evaluation starts, at random residues, and
    # at the pole of a map with c != 0
    q = freeness._EVAL_PRIME
    F = freeness._residues(q)
    ctx = _moebius_ctx(QT, image, inverse)
    (g,) = ctx.sigma.images
    step = freeness._point_map(ctx.sigma, F)
    rng = random.Random(28)
    points = list(freeness._EVAL_STARTS) + [rng.randrange(q)
                                            for _ in range(20)]
    a, b, c, d = ctx.sigma._matrix()
    if c:
        points.append(-d * pow(c, -1, q) % q)
    poles = 0
    for P in points:
        for _ in range(6):
            want = freeness._evaluate(g, [(P,)], F)
            got = step((P,))
            assert got == (None if want is None else tuple(want))
            if got is None:
                poles += 1
                break
            (P,) = got
    assert poles == (1 if c else 0)


def test_point_map_mod_q_defers_to_evaluation_at_a_bad_denominator():
    # q divides a coefficient denominator of sigma(t) = t + 1/q, so the
    # image has no value mod q anywhere, and its cleared matrix is
    # singular mod q: there is no point map, the images are evaluated,
    # and every orbit stops at its first step
    q = freeness._EVAL_PRIME
    F = freeness._residues(q)
    ctx = _moebius_ctx(QT, lambda t: t + Fraction(1, q),
                       lambda t: t - Fraction(1, q))
    assert freeness._point_map(ctx.sigma, F) is None
    assert freeness._orbit_values(ctx.sigma.images, QT.var(0),
                                  (freeness._EVAL_STARTS[0],), 2, F) is None


def test_point_map_in_the_extension_equals_image_evaluation():
    # the F_5 shift and t -> -1/(t + 1) over F_5 at the point y of
    # F_p[y]/(f): the matrix's point map gives the coordinates that
    # evaluating sigma(t) there gives, step by step along the orbit
    ff = FunctionField(5, ["t"])
    F = freeness._extension(5)
    for image, inverse in ((lambda t: t + 1, lambda t: t - 1),
                           (lambda t: -1 / (t + 1), lambda t: (-1 - t) / t)):
        ctx = _moebius_ctx(ff, image, inverse)
        (g,) = ctx.sigma.images
        step = freeness._point_map(ctx.sigma, F)
        P = (F.pack([0, 1]),)
        for _ in range(12):
            want = freeness._evaluate(g, [P], F)
            got = step(P)
            assert got == tuple(want)
            P = got


@pytest.mark.parametrize("make_ctx,b,L", [
    (shift_ctx, lambda u: u.inverse(), 3),
    (lambda: _moebius_ctx(QT, lambda t: -1 / (t + 1),
                          lambda t: (-1 - t) / t),
     lambda t: (t - 2).inverse(), 3),
    (shift_f5_ctx, lambda u: u.inverse(), 3),
], ids=["shift-Q", "order3-Q", "shift-F5"])
def test_one_variable_orbits_evaluate_no_image(monkeypatch, make_ctx, b, L):
    # in one variable the evaluated route steps its points by the matrix
    # alone: only the witness is ever evaluated
    ctx = make_ctx()
    witness = b(ctx.ff.var(0))
    seen = []
    real = freeness._evaluate

    def recording(g, *args):
        seen.append(g)
        return real(g, *args)
    monkeypatch.setattr(freeness, "_evaluate", recording)
    cert = freeness_certify(ctx, witness, L)
    assert cert.rank > 0 and seen
    assert all(g == witness for g in seen)


def _assert_next_extension_point(monkeypatch, ctx, b, L, first, second):
    # the orbit of the first point meets a pole of b, so the evaluated
    # route certifies at the second, with no fold, and gives the fold's
    # verdict, rank and relation; its digest header names the new point
    F = freeness._extension(ctx.ff.char)
    assert freeness._orbit_values(ctx.sigma.images, b, first,
                                  freeness._truncation_order(L), F) is None
    with monkeypatch.context() as m:
        m.setattr(freeness, "_evaluated_word_rows", lambda *a: iter(()))
        fold = freeness_certify(ctx, b, L)
    rows = freeness._evaluated_word_rows
    points = []

    def recording(*args):
        for found in rows(*args):
            points.append(found[1])
            yield found
    monkeypatch.setattr(freeness, "_evaluated_word_rows", recording)
    monkeypatch.setattr(freeness, "common_left_denominator",
                        lambda *a: pytest.fail("fold"))
    cert = freeness_certify(ctx, b, L)
    assert points == [tuple(F.unpack([v]) for v in second)]
    assert (cert.verdict, cert.rank, cert.relation) == (
        fold.verdict, fold.rank, fold.relation)


@pytest.mark.parametrize("L", [1, 2])
def test_extension_point_pole_takes_the_next_point(monkeypatch, L):
    # 1/f(u), f the modulus of F_5[y]/(f), has a pole at the point y
    # itself: the route takes the next point, y^2
    ctx = shift_f5_ctx()
    u = ctx.ff.var(0)
    F = freeness._extension(5)
    b = sum((c * u ** j for j, c in enumerate(F.f)), ctx.ff.zero()).inverse()
    y = F.pack([0, 1])
    _assert_next_extension_point(monkeypatch, ctx, b, L, (y,),
                                 (F.mul(y, y),))


@pytest.mark.parametrize("L", [3, 4])
def test_diag7_point_pole_takes_the_next_point(monkeypatch, L):
    # y2 - y1^2 vanishes at the first point (y, y^2), and nowhere on the
    # orbit of the second, (y^2, y^3).  The points (y^j, y^{2j}) all lie
    # on y2 = y1^2, which is why the exponents step by one
    ctx = diag7_ctx()
    y1, y2 = ctx.ff.gens()
    F = freeness._extension(7)
    y = F.pack([0, 1])
    y2_, y3_ = F.mul(y, y), F.mul(F.mul(y, y), y)
    _assert_next_extension_point(monkeypatch, ctx, (y2 - y1 * y1).inverse(),
                                 L, (y, y2_), (y2_, y3_))


def test_diag7_first_point_keeps_its_digest():
    # 1/(y1 + y2) meets no pole at the first point (y, y^2), which its
    # certificate still names
    ctx = diag7_ctx()
    y1, y2 = ctx.ff.gens()
    cert = freeness_certify(ctx, (y1 + y2).inverse(), 3)
    assert (cert.verdict, cert.rank) == ("Independent", 15)
    assert cert.matrix_digest == (
        "7d0a5b3cafdf8e141153391a10795ced654e001039a365c8304545b00cf72286")


def test_tower_L6_relation_known_answer(monkeypatch):
    # x0 under the F_5 tower at L = 6: the exact x^{-1} route proves its
    # relation on the exact series of its 13-word closure, with no Ore
    # fractions.  The oracle's single x^{-1} commutation steps confirm it
    # at orders 0..12.  The relation refutes freeness for this witness,
    # while classify still answers Free for tower5 (ROADMAP item 1)
    ctx = tower_ctx()
    ff = ctx.ff
    b = ff.var(0)
    monkeypatch.setattr(freeness, "_expand_words",
                        lambda *a: pytest.fail("Ore fractions"))
    cert = freeness_certify(ctx, b, 6)
    assert (cert.verdict, cert.rank, cert.word_count) == (
        "Dependent", 126, 127)
    assert rel_by_key(cert) == {"000001": 1, "100000": 4}
    e, _ = _closure_order_and_ones(cert.relation)
    assert e == 12
    step = lambda f, c: series_xinv_step_delta(f, ctx.delta, c)
    geom = [ff.zero()] + [-ff.one()] * e
    series = {w: word_series(ff, w, b, e, step, geom) for w in cert.relation}
    for m in range(e + 1):
        assert sum((ff.const(c) * series[w][m]
                    for w, c in cert.relation.items()), ff.zero()).is_zero()


def test_exact_xinv_series_held_to_denominator_bound(monkeypatch):
    # the trie order of L = 3 is 14: the tower's exact series runs at that
    # bound and raises one below it, as the fold does
    ctx = tower_ctx()
    b = ctx.ff.var(0)
    monkeypatch.setattr(config, "MAX_DEN_DEGREE", 14)
    assert freeness_certify(ctx, b, 3).rank == 15
    monkeypatch.setattr(config, "MAX_DEN_DEGREE", 13)
    with pytest.raises(ResourceBoundExceeded, match="series order 14"):
        freeness_certify(ctx, b, 3)


def test_two_variable_derivation_L3_known_answer(monkeypatch):
    # Q(a, c) with delta a = ac, delta c = 1 and witness a: the exact
    # x^{-1} series reads the e_j = delta^j(a) only up to the trie order
    ctx = ac_ctx()
    monkeypatch.setattr(freeness, "common_left_denominator",
                        lambda *a: pytest.fail("fold"))
    cert = freeness_certify(ctx, ctx.ff.var(0), 3)
    assert (cert.verdict, cert.rank, cert.word_count) == (
        "Independent", 15, 15)


# every candidate of degree 2 with coefficients below 8 is reducible mod
# this prime: their discriminants are all squares
QR_PRIME = 1518520249


@pytest.mark.parametrize("p", [2, 3, 5, 7, QR_PRIME, (1 << 61) - 1])
def test_extension_field_kernel(p):
    # F_p[y]/(f) of the evaluated route over F_p on packed ints: products,
    # sums, inverses and the batch inversion of the orbit values against
    # _long_div(_conv(a, b), f, p), on seeded elements, on zero and on the
    # largest slots.  The two large primes take slots wider than a machine
    # word, packed as whole bytes
    F = freeness._extension(p)
    f = F.f
    k = len(f) - 1
    # past every L whose trie order fits the denominator bound (L <= 8)
    floor = next(L for L in range(1, 64)
                 if freeness._truncation_order(L) > config.MAX_DEN_DEGREE)
    least = next(m for m in range(floor, 64) if p ** m >= 1 << 61)
    assert f[-1] == 1 and least <= k <= least + 2
    assert (F.code is None) == (p > 7)
    one = F.pack([1])

    def coords(a):
        return F.unpack([a])

    # f is irreducible by Rabin's criterion, on the kernel's own powers
    # and inverses: y^(p^k) = y, and y^(p^(k/r)) - y is a unit for every
    # prime r dividing k
    y = F.pack([0, 1])
    assert F.power(y, p ** k) == y
    for r in range(2, k + 1):
        if k % r == 0 and all(r % d for d in range(2, r)):
            h = F.reduce(F.power(y, p ** (k // r)) + F.pack([0, p - 1]))
            assert F.mul(h, F.inv(h)) == one
    rng = random.Random(p)
    elems = [[rng.randrange(p) for _ in range(k)] for _ in range(12)]
    elems += [[0] * k, [p - 1] * k]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        A, B = F.pack(a), F.pack(b)
        rem = _long_div(_conv(a, b), f, p)[1]
        assert coords(F.mul(A, B)) == rem + [0] * (k - len(rem))
        assert coords(F.reduce(A + B)) == [(x + z) % p for x, z in zip(a, b)]
        if any(a):
            assert _long_div(_conv(a, coords(F.inv(A))), f, p)[1] == [1]
        assert F.power(A, p ** k) == A
    assert F.inv(0) is None and F.mul(0, B) == 0
    # a prefix sum of the most terms the slots are sized for, each slot at
    # p - 1, comes back reduced
    top = F.pack([p - 1] * k)
    total = sum([top] * (config.MAX_DEN_DEGREE + 1))
    assert coords(F.reduce(total)) == [
        (config.MAX_DEN_DEGREE + 1) * (p - 1) % p] * k
    # one inversion for the whole list, and None when one element is 0
    xs = [F.pack(a) for a in elems if any(a)]
    assert freeness._inverses(xs, F) == [F.inv(x) for x in xs]
    assert freeness._inverses(xs[:3] + [0] + xs[3:], F) is None
    # the inverse of a scalar is one slot, and a product by it scales
    # the coordinates
    c = rng.randrange(1, p)
    inv = F.inv(c)
    assert inv == pow(c, -1, p)
    assert coords(F.mul(A, inv)) == [x * inv % p for x in a]


def test_extension_modulus_search_always_ends(monkeypatch):
    # a shift over F_p certifies through the evaluated route as the fold
    # does, with every degree-2 candidate with coefficients below 8
    # reducible; and with every candidate whose coefficients stay below 8
    # declared reducible, the second round over all of F_p^* finds f
    ff = FunctionField(QR_PRIME, ["u"])
    u = ff.var(0)
    ctx = SkewPair.automorphism(SkewEndo(ff, [u + 1], [u - 1]))
    monkeypatch.setattr(freeness, "_EXTENSION_CACHE", {})
    _assert_series_route_agrees_with_fold(monkeypatch, ctx, u.inverse(), 3)
    real = freeness._rabin_irreducible
    monkeypatch.setattr(freeness, "_rabin_irreducible",
                        lambda f, p: max(f) >= 8 and real(f, p))
    monkeypatch.setattr(freeness, "_EXTENSION_CACHE", {})
    f = freeness._extension(QR_PRIME).f
    assert max(f) >= 8 and real(f, QR_PRIME)
    _assert_series_route_agrees_with_fold(monkeypatch, ctx, u.inverse(), 2)


def test_large_prime_shift_stays_evaluated(monkeypatch):
    # for large p a modulus of degree 2 (y^2 + 1 here, as at 2^61 - 1)
    # cannot separate the polynomials of degree 2 in u that the word span
    # holds, and sent 1/u to the fold at L = 3..5; the degree floor keeps
    # these evaluated, with the fold's answers.  2^31 - 1 stands in for
    # 2^61 - 1, whose primality check by trial division takes minutes
    p = (1 << 31) - 1
    ff = FunctionField(p, ["u"])
    u = ff.var(0)
    ctx = SkewPair.automorphism(SkewEndo(ff, [u + 1], [u - 1]))
    assert len(freeness._extension(p).f) - 1 >= 9
    for L, rank in ((3, 14), (4, 25), (5, 41)):
        with monkeypatch.context() as m:
            m.setattr(freeness, "common_left_denominator",
                      lambda *a: pytest.fail("fold"))
            cert = freeness_certify(ctx, u.inverse(), L)
        words = words_up_to(L)
        _, fold_rank, lam = independence_check(
            _expand_words(ctx, words, u.inverse()))
        assert (cert.verdict, cert.rank, fold_rank) == ("Dependent", rank,
                                                        rank)
        assert cert.relation == {w: c for w, c in zip(words, lam) if c}
        assert rel_by_key(cert) == {"01": 1, "10": p - 1, "11": p - 1,
                                    "101": 1}


def test_one_letter_multiples_of_a_relation_vanish():
    # g_j W_I = W_{jI} and W_I g_j = W_{Ij}: the multiples of the L = 3
    # relation of 1/u vanish as fraction sums built by build_word_W
    ctx = shift_ctx()
    b = QU.var(0).inverse()
    cert = freeness_certify(ctx, b, 3)
    assert rel_by_key(cert) == {"01": 1, "10": -1, "11": -1, "101": 1}
    relation = cert.relation
    multiples = [{(j,) + w: c for w, c in relation.items()} if left
                 else {w + (j,): c for w, c in relation.items()}
                 for j in (0, 1) for left in (True, False)]
    for rel in multiples:
        assert_relation_vanishes(ctx, b, rel)


def test_shift_inverse_witness_L5_known_answer():
    # 63 words, 22 relations, three of them verified as generators
    ctx = shift_ctx()
    b = QU.var(0).inverse()
    cert = freeness_certify(ctx, b, 5)
    assert cert.verdict == "Dependent"
    assert cert.word_count == 63 and cert.rank == 41
    assert rel_by_key(cert) == {"01": 1, "10": -1, "11": -1, "101": 1}
    assert_relation_vanishes(ctx, b, cert.relation)


def test_reported_relation_is_the_same_for_every_L_and_route(monkeypatch):
    # W_101 is the first word in the span of the words before it, so the
    # relation ending there is reported at every L >= 3: on the evaluated
    # route over Q, and over F_5 on the evaluated route and on the fold,
    # normalized to a leading 1
    ctx = shift_ctx()
    for L in (3, 4, 5):
        cert = freeness_certify(ctx, QU.var(0).inverse(), L)
        assert rel_by_key(cert) == {"01": 1, "10": -1, "11": -1, "101": 1}
    f5 = shift_f5_ctx()
    b = f5.ff.var(0).inverse()
    evaluated = freeness_certify(f5, b, 4)
    monkeypatch.setattr(freeness, "_evaluated_word_rows", lambda *a: iter(()))
    fold = freeness_certify(f5, b, 4)
    assert fold.matrix_digest != evaluated.matrix_digest
    for cert in (evaluated, fold):
        assert rel_by_key(cert) == {"01": 1, "10": 4, "11": 4, "101": 1}


@pytest.mark.parametrize("witness,L,verdict,rank,count,relation", [
    (lambda u: u.inverse(), 5, "Dependent", 41, 63,
     {"01": 1, "10": 4, "11": 4, "101": 1}),
    (lambda u: (u * u).inverse(), 4, "Independent", 31, 31, {}),
], ids=["1/u:L5", "1/u^2:L4"])
def test_shift_f5_known_answers(witness, L, verdict, rank, count, relation):
    # answers of the fold, pinned: the evaluated route over F_5 reaches
    # them in a fraction of the fold's time (a quarter and a sixteenth)
    ctx = shift_f5_ctx()
    b = witness(ctx.ff.var(0))
    cert = freeness_certify(ctx, b, L)
    assert (cert.verdict, cert.rank, cert.word_count) == (verdict, rank,
                                                          count)
    assert rel_by_key(cert) == relation
    if cert.relation:
        assert_relation_vanishes(ctx, b, cert.relation)


@pytest.mark.parametrize("make_ctx,witness,L,verdict,rank,count,relation,"
                         "digest", [
    (shift_ctx, lambda u: u.inverse(), 4, "Dependent", 25, 31,
     {"01": 1, "10": -1, "11": -1, "101": 1},
     "3310eaf079524d177874439be246c1b7eb290cf0ac861b0d5fb9cfa3284ad542"),
    (shift_ctx, lambda u: (u * u).inverse(), 3, "Independent", 15, 15, {},
     "67363db744a64987794ddf2fa48c6fcbfcc9c98100b573288b9b9c610ee90204"),
    (double_ctx, lambda t: (t - 1).inverse(), 3, "Independent", 15, 15, {},
     "65dd619313e20c96ab5ae025d8b65d3c84aa02dedf0ede81a01f96a2ca5ffbf8"),
    (double_ctx, lambda t: t.inverse(), 4, "Dependent", 25, 31,
     {"01": 1, "10": -2, "010": 1},
     "69c4b4ce2e280cc61044b204afa80d4ab00739b18a6b167d9392f3c892111595"),
    (shift_f5_ctx, lambda u: u.inverse(), 4, "Dependent", 25, 31,
     {"01": 1, "10": 4, "11": 4, "101": 1},
     "20886d5c8107cd9e78825c442453a104d2363473630c2f7bcfc45bbda9da7601"),
    (ddt_ctx, lambda t: t, 3, "Dependent", 13, 15,
     {"000": -1, "01": 1, "10": -1},
     "cd0e11b1cceb7dfe1249f145c97f49a22850ccd6ab4e6f2782b7cb5a1a6e74e4"),
    (ddt_ctx, lambda t: t.inverse(), 4, "Dependent", 25, 31,
     {"01": 1, "10": -1, "101": 1},
     "7a1565eb1e3015ad7ffb79908814540d79404e0c5512d1cf53c871f7361cd5e8"),
    (tower_ctx, lambda x0: x0, 3, "Independent", 15, 15, {},
     "45f8f70db69a57b844a03786f6e2870ff2fde0e7ff20f4a1a3b46892c809b495"),
], ids=["shift-Q:1/u:L4", "shift-Q:1/u^2:L3", "double-Q:1/(t-1):L3",
        "double-Q:1/t:L4", "shift-F5:1/u:L4", "ddt-Q:t:L3", "ddt-Q:1/t:L4",
        "tower-F5:x0:L3"])
def test_benchmark_panel_certificates_pinned(make_ctx, witness, L, verdict,
                                             rank, count, relation, digest):
    # the certify workload's panel: verdict, rank, word count, reported
    # relation and digest.  The relation is the one ending at the first
    # dependent word, the same on every route
    ctx = make_ctx()
    cert = freeness_certify(ctx, witness(ctx.ff.var(0)), L)
    assert (cert.verdict, cert.rank, cert.word_count) == (verdict, rank,
                                                          count)
    assert rel_by_key(cert) == relation
    assert cert.matrix_digest == digest


def test_shift_inverse_square_L4_independent_oracle_certified():
    # the fold did not finish this case in 9 minutes
    ctx = shift_ctx()
    u = QU.var(0)
    b = (u * u).inverse()
    cert = freeness_certify(ctx, b, 4)
    assert cert.verdict == "Independent"
    assert cert.word_count == 31 and cert.rank == 31
    # independent oracle: 8 orders at 5 points give 40 >= 31 columns, and
    # full evaluated rank is a lower bound that already equals the count
    step = lambda ff, c: series_xstep_sigma(ff, ctx.sigma, c)
    rows = [word_series(QU, w, b, 7, step) for w in words_up_to(4)]
    rank_o, null_o = k_rank_by_evaluation(
        rows, [(Fraction(v),) for v in (7, 11, 17, 23, 29)])
    assert rank_o == 31 and not null_o


def test_ddt_inverse_witness_L3_relation_oracle_certified():
    # 1/t under d/dt: the x^{-1}-series route, pinned from both sides by
    # its re-verified relation and an oracle rank lower bound
    ctx = ddt_ctx()
    t = QT.var(0)
    b = t.inverse()
    cert = freeness_certify(ctx, b, 3)
    assert cert.verdict == "Dependent"
    assert cert.word_count == 15 and cert.rank == 14
    assert rel_by_key(cert) == {"01": 1, "10": -1, "101": 1}
    words = words_up_to(3)
    step = lambda ff, c: series_xinv_step_delta(ff, ctx.delta, c)
    geom = [QT.zero()] + [-QT.one()] * 10
    rows = [word_series(QT, w, b, 10, step, geom) for w in words]
    rank_o, null_o = k_rank_by_evaluation(
        rows, [(Fraction(v),) for v in (3, 5, 7)])
    assert rank_o == 14 and len(null_o) == 1
    by_word = {word_key(w): c for w, c in zip(words, null_o[0]) if c}
    scale = by_word["01"]
    assert {k: v / scale for k, v in by_word.items()} == rel_by_key(cert)


def test_derivative_values_match_oracle_series():
    # x^{-1} b = sum_j (-1)^j delta^j(b) x^{-1-j}: the oracle's single
    # x^{-1} steps give every delta^j(b), read at c mod q, for a witness
    # and a delta(t) with fractions in num and den, at unequal and equal
    # scales, and at a point where the witness has a pole mod q
    q = freeness._EVAL_PRIME
    t = QT.var(0)
    n = 7
    for image, b in (((t * t / 3 + Fraction(1, 2)) / (t / 5 - 2),
                      (t / 4 + Fraction(2, 3)) / (t * t / 6 + 1)),
                     ((2 * t + 1) / (3 * t + 1), (t / 3 + 1) / (t / 3 - 2))):
        delta = SkewDerivation(QT, [image], SkewEndo.identity(QT))
        coeffs = series_xinv_step_delta(QT, delta, [b] + [QT.zero()] * n)
        for c in (3, 11, freeness._EVAL_STARTS[0]):
            want = []
            for j in range(n):
                x = eval_ratfunc((-1) ** j * coeffs[j + 1], (Fraction(c),))
                want.append(x.numerator * pow(x.denominator, -1, q) % q)
            assert freeness._derivative_values(image, b, c, n, q) == want
    pole = (t / 3 + 1) / (t / 3 - 2)
    assert freeness._derivative_values(t, pole, 6, n, q) is None
    assert freeness._derivative_values(pole, t, 6 + q, n, q) is None


def test_xinv_rows_equal_oracle_series_at_each_point():
    # entrywise: the evaluated x^{-1} rows at each point are the oracle's
    # series, built by single x^{-1} commutation steps, evaluated there
    # mod q; a witness with a pole at the first orbit start skips it
    q = freeness._EVAL_PRIME
    starts = freeness._EVAL_STARTS
    t = QT.var(0)
    words = words_up_to(2)
    for ctx, b, used in ((t2ddt_ctx(), t.inverse(), starts[:3]),
                         (ddt_ctx(), (t - starts[0]).inverse(), starts[1:4])):
        blocks = itertools.islice(
            freeness._evaluated_word_rows(ctx, words, b, 8), 3)
        step = lambda ff, c: series_xinv_step_delta(ff, ctx.delta, c)
        geom = [QT.zero()] + [-QT.one()] * 8
        series = [word_series(QT, w, b, 8, step, geom) for w in words]
        for (rows, point), v in zip(blocks, used):
            assert point == (v,)
            for row, coeffs in zip(rows, series):
                expect = []
                for c in coeffs:
                    x = eval_ratfunc(c, (Fraction(v),))
                    expect.append(
                        x.numerator * pow(x.denominator, -1, q) % q)
                assert row == expect


def test_scaling_automorphism_L2_independent():
    ctx = double_ctx()
    b = (QT.var(0) - 1).inverse()
    cert = freeness_certify(ctx, b, 2)
    assert cert.verdict == "Independent" and cert.rank == 7


def test_ddt_relation_frozen_both_routes_and_oracle():
    ctx = ddt_ctx()
    t = QT.var(0)
    cert = freeness_certify(ctx, t, 3)      # series coordinatization
    assert cert.verdict == "Dependent" and cert.rank == 13
    assert rel_by_key(cert) == {"01": 1, "10": -1, "000": -1}
    words = words_up_to(3)
    fracs = _expand_words(ctx, words, t)    # denominator coordinatization
    ind, rank, lam = independence_check(fracs)
    assert not ind and rank == 13
    assert {word_key(w): c for w, c in zip(words, lam) if c} == rel_by_key(cert)
    # oracle: delta-case series pad absorbs the downward bleed of x^m a
    step = lambda ff, c: series_xstep_delta(ff, ctx.delta, c)
    rows = [word_series(QT, w, t, 14 + 12, step)[:15] for w in words]
    rank_o, null_o = k_rank_by_evaluation(
        rows, [(Fraction(5),), (Fraction(9),), (Fraction(13),)])
    assert rank_o == 13 and len(null_o) == 2


def test_mini_tower_routes_agree():
    ctx = tower_ctx(nvars=3)
    b = ctx.ff.var(0)
    words = words_up_to(2)
    cert = freeness_certify(ctx, b, 2)
    ind, rank, lam = independence_check(_expand_words(ctx, words, b))
    assert cert.verdict == "Independent" and cert.rank == 7
    assert ind and rank == 7 and lam is None


def test_tower_L3_independent_oracle_certified():
    ctx = tower_ctx()
    ff = ctx.ff
    b = ff.var(0)
    cert = freeness_certify(ctx, b, 3)
    assert cert.verdict == "Independent"
    assert cert.word_count == 15 and cert.rank == 15
    step = lambda f, c: series_xstep_delta(f, ctx.delta, c)
    rows = [word_series(ff, w, b, 18 + 24, step)[:19] for w in words_up_to(3)]
    rng = random.Random(77)
    pts = [tuple(rng.randrange(5) for _ in range(5)) for _ in range(6)]
    rank_o, null_o = k_rank_by_evaluation(rows, pts)
    assert rank_o == 15 and not null_o


def test_series_rows_match_fraction_route_on_ddt():
    # the exact x^{-1} series rows agree with expanding each word as a
    # fraction and reading numerators over the common denominator: both
    # flatten to matrices with identical nullspaces, checked via rank
    ctx = ddt_ctx()
    t = QT.var(0)
    words = words_up_to(2)
    rows_series = _split_by_monomial(
        [[c.terms for c in row] for row in _xinv_word_series(
            ctx, words, freeness._ExactValues(ctx, t), 10)], QT.base.zero())
    rank_s, _ = rank_over_k(rows_series, QT.base)
    ind, rank_f, _ = independence_check(_expand_words(ctx, words, t))
    assert rank_s == rank_f == 7 and ind
    # entrywise, on d/dt and on the tower: orders 0..10 of every word equal
    # the oracle's series, built by single x^{-1} commutation steps, whose
    # entries are polynomials: the exact series are their numerators
    tower = tower_ctx()
    for pair, b in ((ctx, t), (tower, tower.ff.var(0))):
        ff = pair.ff
        step = lambda f, c: series_xinv_step_delta(f, pair.delta, c)
        geom = [ff.zero()] + [-ff.one()] * 10
        rows = _xinv_word_series(pair, words,
                                 freeness._ExactValues(pair, b), 10)
        for w, row in zip(words, rows):
            assert len(row) == 11
            oracle = word_series(ff, w, b, 10, step, geom)
            assert all(c.is_poly() for c in oracle)
            assert row == [poly_parts(c)[0] for c in oracle]


@pytest.mark.parametrize("make_ctx,witness,L", [
    (tower_ctx, lambda g: g[0], 3),
    (tower_ctx, lambda g: g[0], 4),
    (tower_ctx, lambda g: g[0], 5),
    (tower_ctx, lambda g: g[0], 6),
    (ac_deriv_ctx, lambda g: g[0] ** 2, 4),
    (lambda: f5_ctx(lambda t: t.ff.one()), lambda g: g[0], 4),
    (f7_t2ddt_ctx, lambda g: g[0] ** 3 + 1, 4),
    (f3_ac_ctx, lambda g: g[0] * g[1], 3),
], ids=["tower:x0:L3", "tower:x0:L4", "tower:x0:L5", "tower:x0:L6",
        "Q(a,c):a^2:L4", "F5-ddt:t:L4", "F7-t2ddt:t^3+1:L4",
        "F3(a,c):ac:L3"])
def test_exact_xinv_rows_split_polynomials_as_flatten(make_ctx, witness, L):
    # the exact x^{-1} series are polynomials, split by monomial with no
    # denominator pass: the rows equal flatten_to_k of the same series
    # taken as rational functions with denominator 1
    ctx = make_ctx()
    ff = ctx.ff
    words = words_up_to(L)
    series = _xinv_word_series(
        ctx, words, freeness._ExactValues(ctx, witness(ff.gens())),
        2 ** (L + 1) - 2)
    assert all(isinstance(c, MPoly) for row in series for c in row)
    rows = _split_by_monomial([[c.terms for c in row] for row in series],
                              ff.base.zero())
    wrapped = [[ff.one() * c for c in row] for row in series]
    # as strings, since the digest hashes the entries' str
    assert [list(map(str, row)) for row in rows] == [
        list(map(str, row)) for row in flatten_to_k(wrapped)]


@pytest.mark.parametrize("make_ctx,witness,rank,relation,digest", [
    (ac_deriv_ctx, lambda g: g[0] ** 2, 29,
     {"0001": 1, "0010": -3, "0100": 3, "1000": -1},
     "14b37c1ef6067c6f932036af15b66f52cf2944aaa07d0cbb4cec4e73d8ce10f6"),
    (f7_t2ddt_ctx, lambda g: g[0] ** 3 + 1, 29,
     {"0001": 1, "0010": 6, "0100": 6, "0101": 2, "0110": 6, "1000": 1,
      "1001": 4, "1010": 2},
     "04f071537a0b906db8fc998130f2e6707623200df05634d18465e71f4053850d"),
], ids=["Q(a,c):a^2:L4", "F7-t2ddt:t^3+1:L4"])
def test_exact_xinv_certificates_pinned(make_ctx, witness, rank, relation,
                                        digest):
    # the exact x^{-1} route in several variables over Q and over F_7
    ctx = make_ctx()
    b = witness(ctx.ff.gens())
    cert = freeness_certify(ctx, b, 4)
    assert (cert.verdict, cert.rank, cert.word_count) == ("Dependent", rank,
                                                          31)
    assert rel_by_key(cert) == relation
    assert cert.matrix_digest == digest
    assert_relation_vanishes(ctx, b, cert.relation)


def test_monotonicity_of_independence():
    # Independent at L forces Independent at every shorter bound
    ctx = shift_ctx()
    b = QU.var(0).inverse()
    assert freeness_certify(ctx, b, 2).independent
    assert freeness_certify(ctx, b, 1).independent


# -- certificate surface ------------------------------------------------------

def test_certificate_json_shape_and_digest_determinism():
    ctx = shift_ctx()
    b = QU.var(0).inverse()
    one = freeness_certify(ctx, b, 2).to_json_dict()
    two = freeness_certify(ctx, b, 2).to_json_dict()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
    assert set(one) == {"witness", "L", "word_count", "rank", "digest",
                        "verdict"}
    dep = freeness_certify(ctx, b, 3).to_json_dict()
    assert set(dep) == {"witness", "L", "word_count", "rank", "digest",
                        "verdict", "relation"}
    assert all(isinstance(v, int) for v in dep["relation"].values())
    json.dumps(dep)


def test_series_route_digest_determinism():
    ctx = tower_ctx(nvars=3)
    b = ctx.ff.var(0)
    assert (freeness_certify(ctx, b, 2).matrix_digest
            == freeness_certify(ctx, b, 2).matrix_digest)
    # literal digests: t under d/dt takes the evaluated x^{-1} series, the
    # tower the exact one
    t = QT.var(0)
    assert freeness_certify(ddt_ctx(), t, 3).matrix_digest == (
        "cd0e11b1cceb7dfe1249f145c97f49a22850ccd6ab4e6f2782b7cb5a1a6e74e4")
    tower = tower_ctx()
    x0 = tower.ff.var(0)
    assert freeness_certify(tower, x0, 3).matrix_digest == (
        "45f8f70db69a57b844a03786f6e2870ff2fde0e7ff20f4a1a3b46892c809b495")
    # delta(x3^5) = 5 x3^4 x4 = 0 in F_5, so the series use e_0 alone
    x35 = tower.ff.var(3) ** 5
    assert tower.delta.apply(x35).is_zero()
    cert = freeness_certify(tower, x35, 3)
    assert cert.verdict == "Dependent" and cert.rank == 10
    assert cert.matrix_digest == (
        "303d7fab0dbf099acf3b0cca338d310540de1477fb91209d56de25e4237aa24f")
    # the evaluated x^{-1}-series route: 1/t under d/dt
    assert freeness_certify(ddt_ctx(), t.inverse(), 3).matrix_digest == (
        "ea309df4fb1ceda69751ae7797893284e3c2c0ba3d40390955c137e848ed4597")


def test_matrix_digest_table_hashes_as_str_and_refuses_non_residues():
    # 40 = 8 * 5 residues mod 5 go through the table of the five strings,
    # 32 through str; either way the bytes are str's.  A value outside
    # [0, 5) misses the table instead of hashing as another residue
    rows = [[c % 5 for c in range(i, i + 8)] for i in range(5)]
    for part in (rows, rows[:4]):
        assert freeness._matrix_digest(part, "h", 5) == (
            freeness._matrix_digest(part, "h"))
    for bad in (-1, 5, Fraction(1, 2)):
        with pytest.raises(KeyError):
            freeness._matrix_digest(rows[:4] + [[bad] + rows[4][1:]], "h", 5)


@pytest.mark.parametrize("make_ctx,witness,L,header", [
    (shift_f5_ctx, lambda g: g[0].inverse(), 3, "p:5;"),
    (shift_f5_ctx, lambda g: g[0].inverse(), 3, "k:5"),
    (lambda: f5_ctx(lambda t: t.ff.one()), lambda g: g[0], 3, "k:5"),
    (f3_ac_ctx, lambda g: g[0] * g[1], 3, "k:3"),
    (f7_t2ddt_ctx, lambda g: g[0].inverse(), 2, "k:7"),
], ids=["evaluated:shift-F5:1/u:L3", "fold:shift-F5:1/u:L3",
        "exact-xinv:F5-ddt:t:L3", "exact-xinv:F3(a,c):ac:L3",
        "fold:F7-t2ddt:1/t:L2"])
def test_fp_rows_are_residues_on_every_route(monkeypatch, make_ctx, witness,
                                             L, header):
    # the digest over F_p formats its entries through a table of the p
    # strings: every route's rows hold residues in [0, p), at least 8p of
    # them here, and the certificate's digest is the one str gives
    ctx = make_ctx()
    real, seen = freeness._matrix_digest, []

    def spy(rows, head, p=0):
        seen.append((rows, head, p))
        return real(rows, head, p)
    monkeypatch.setattr(freeness, "_matrix_digest", spy)
    if header == "k:5" and ctx.is_pure_automorphism():
        monkeypatch.setattr(freeness, "_evaluated_word_rows",
                            lambda *a: iter(()))
    cert = freeness_certify(ctx, witness(ctx.ff.gens()), L)
    (rows, head, p), = seen
    assert head.startswith(header) and p == ctx.ff.char
    assert 8 * p <= len(rows) * len(rows[0])
    assert all(type(c) is int and 0 <= c < p for row in rows for c in row)
    assert cert.matrix_digest == real(rows, head)


def test_certificate_usage_errors_and_bounds(monkeypatch):
    ctx = shift_ctx()
    b = QU.var(0).inverse()
    with pytest.raises(UsageError):
        freeness_certify(ctx, b, 0)
    with pytest.raises(ZeroArgument):
        freeness_certify(ctx, QU.zero(), 1)
    monkeypatch.setattr(config, "MAX_WORDS", 3)
    with pytest.raises(ResourceBoundExceeded, match="words exceed"):
        freeness_certify(ctx, b, 2)
    monkeypatch.undo()
    monkeypatch.setattr(config, "MAX_DEN_DEGREE", 1)
    with pytest.raises(ResourceBoundExceeded, match="denominator reached"):
        freeness_certify(ctx, b, 2)


def test_word_bound_checked_before_enumeration(monkeypatch):
    # 2^41 - 1 words at L = 40: the bound refuses them from the count alone
    monkeypatch.setattr(freeness, "words_up_to",
                        lambda L: pytest.fail("words built past the bound"))
    with pytest.raises(ResourceBoundExceeded, match="words exceed"):
        freeness_certify(shift_ctx(), QU.var(0).inverse(), 40)


def test_fold_relation_is_first_canonical_nullspace_vector():
    # sigma = shift and delta = t (sigma - id) over Q(t) take the lclm fold;
    # its reported relation is rank_over_k's first nullspace vector over Q
    t = QT.var(0)
    sig = SkewEndo(QT, [t + 1], [t - 1])
    ctx = SkewPair(sig, SkewDerivation(QT, [t], sig))
    b, words = t.inverse(), words_up_to(3)
    cert = freeness_certify(ctx, b, 3)
    assert cert.verdict == "Dependent" and cert.rank == 14
    rows, rank, lam = freeness._fold_rank(_expand_words(ctx, words, b))
    null = rank_over_k(rows, QT.base)[1]
    assert rank == cert.rank and list(lam) == null[0]
    assert cert.relation == {w: c for w, c in zip(words, null[0]) if c}
    assert_relation_vanishes(ctx, b, cert.relation)


def test_den_degree_bound_at_every_check(monkeypatch):
    # two degree-1 denominators whose lclm has degree 2: each fraction fits
    # the patched bound, every fold over both of them crosses it
    ctx = shift_ctx()
    x, one = OrePoly.x(ctx), OrePoly.one(ctx)
    f = OreFraction(x - one, one)
    g = OreFraction(x - OrePoly.const(ctx, QU.var(0)), one)
    monkeypatch.setattr(config, "MAX_DEN_DEGREE", 1)
    with pytest.raises(ResourceBoundExceeded, match="fraction denominator"):
        OreFraction((x - one) * (x - one), one)
    with pytest.raises(ResourceBoundExceeded, match="common denominator"):
        common_left_denominator([f, g])
    with pytest.raises(ResourceBoundExceeded, match="common denominator"):
        freeness._relation_vanishes([f, g], (1, 1))


# -- the independence helpers around the certificates -------------------------

def test_monomial_products_examples():
    ff = FunctionField(0, ["y1", "y2"])
    assert monomial_products_check([ff.var(0), ff.var(1)])
    assert not monomial_products_check([ff.one(), ff.one()])
    t = QT.var(0)
    # dependent: t + t(t+1) - t(t+2) = 0
    assert not monomial_products_check([t, t + 1, t + 2])
    assert monomial_products_check([t, t + 1])
    assert monomial_products_check([t.inverse(), t + 1, t * t + 2])
    with pytest.raises(UsageError):
        monomial_products_check([t])


def test_valuation_witness_examples():
    ctx = shift_ctx()
    u = QU.var(0)
    place = Place.finite(QU.poly_var(0))
    picked = valuation_witness(
        ctx.sigma, place, 8, [u, u.inverse(), u.inverse() + (u + 1).inverse()])
    assert picked == u.inverse()
    assert valuation_witness(ctx.sigma, place, 8, [u, u + 3]) is None
    ctx2 = double_ctx()
    t = QT.var(0)
    place2 = Place.finite(QT.poly_var(0) - QT.poly_one())
    b = (t - 1).inverse()
    assert valuation_witness(ctx2.sigma, place2, 8, [b]) == b


def test_weyl_pair_from_additive_cases():
    ctx = shift_ctx()
    u = QU.var(0)
    y, z, ok = weyl_pair_from_additive(ctx, u, QU.one())
    assert ok and y == OreFraction.from_ratfunc(ctx, u)
    ff = FunctionField(0, ["t"])
    t = ff.var(0)
    plus2 = SkewPair.automorphism(SkewEndo(ff, [t + 2], [t - 2]))
    y2, z2, ok2 = weyl_pair_from_additive(plus2, t, ff.const(2))
    assert ok2 and y2 == OreFraction.from_ratfunc(plus2, t / 2)
    with pytest.raises(NotAdditiveEigen):
        weyl_pair_from_additive(double_ctx(), QT.var(0), QT.one())
    with pytest.raises(ZeroArgument):
        weyl_pair_from_additive(ctx, u, QU.zero())
    with pytest.raises(RequiresPureAutomorphism):
        weyl_pair_from_additive(ddt_ctx(), QT.var(0), QT.one())

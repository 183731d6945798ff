"""Flattening and exact rank: frozen examples, oracle elimination, fuzzing."""

import random
from fractions import Fraction

import pytest

from orefree.errors import UsageError
from orefree.field import BaseField, FunctionField
from orefree.linalg import _PANEL, _Echelon, flatten_to_k, rank_over_k

from oracles import (
    EagerEchelon, gauss_rank_fractions, gauss_rank_modp, generic_nullspace,
    nullspace_modp, random_ratfunc,
)

QT = FunctionField(0, ["t"])
QQ = BaseField(0)
F5 = BaseField(5)


def test_flatten_constants_identity_pattern():
    t = QT.var("t")
    rows = flatten_to_k([[QT.one()], [t]])
    # columns: monomials {t, 1} in graded-lex descending order
    assert rows == [[0, 1], [1, 0]]
    rank, null = rank_over_k(rows, QQ)
    assert rank == 2 and null == []


def test_flatten_proportional_rows():
    t = QT.var("t")
    rows = flatten_to_k([[1 / t], [2 / t]])
    assert rows == [[1], [2]]
    rank, null = rank_over_k(rows, QQ)
    assert rank == 1
    assert null == [[2, -1]]


def test_flatten_mixed_denominators():
    # 1/(t-1) and 1/(t+1) over common den t^2-1: numerators t+1, t-1
    t = QT.var("t")
    rows = flatten_to_k([[1 / (t - 1)], [1 / (t + 1)]])
    assert rows == [[1, 1], [1, -1]]
    assert rank_over_k(rows, QQ)[0] == 2


def test_flatten_rejects_ragged_input():
    t = QT.var("t")
    with pytest.raises(UsageError):
        flatten_to_k([[t], [t, t]])


def test_rank_frozen_example():
    rows = [[1, 2], [2, 4], [0, 1]]
    rank, null = rank_over_k(rows, QQ)
    assert rank == 2
    assert null == [[2, -1, 0]]
    # oracle re-check: the relation annihilates the rows
    for j in range(2):
        assert sum(null[0][i] * rows[i][j] for i in range(3)) == 0


def test_rank_modp_and_nullspace():
    rows = [[1, 2], [2, 4], [0, 1]]
    rank, null = rank_over_k(rows, F5)
    assert rank == 2
    assert len(null) == 1
    lam = null[0]
    assert lam[0] == 1  # leading entry normalized
    for j in range(2):
        assert sum(lam[i] * rows[i][j] for i in range(3)) % 5 == 0


def test_rank_empty_and_zero():
    assert rank_over_k([], QQ) == (0, [])
    rank, null = rank_over_k([[0, 0], [0, 0]], QQ)
    assert rank == 0
    assert null == [[1, 0], [0, 1]]


def test_rank_matches_textbook_oracle_char0():
    rng = random.Random(20260815)
    for _ in range(40):
        n = rng.randint(1, 6)
        c = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                 for _ in range(c)] for _ in range(n)]
        if rng.random() < 0.5 and n > 1:
            # plant a dependency to exercise the nullspace path
            rows[-1] = [a + b for a, b in zip(rows[0], rows[n // 2])]
        rank, null = rank_over_k(rows, QQ)
        assert rank == gauss_rank_fractions(rows)
        assert len(null) == n - rank
        for lam in null:
            for j in range(c):
                assert sum(lam[i] * rows[i][j] for i in range(n)) == 0
        # oracle nullspace must have the same dimension
        ref = generic_nullspace(rows, Fraction(0), Fraction(1))
        assert len(ref) == len(null)


def test_rank_matches_textbook_oracle_modp():
    rng = random.Random(440)
    for p in (2, 5, 7):
        base = BaseField(p)
        for _ in range(20):
            n = rng.randint(1, 6)
            c = rng.randint(1, 6)
            rows = [[rng.randint(0, p - 1) for _ in range(c)]
                    for _ in range(n)]
            rank, null = rank_over_k(rows, base)
            assert rank == gauss_rank_modp(rows, p)
            assert len(null) == n - rank
            for lam in null:
                for j in range(c):
                    assert sum(lam[i] * rows[i][j]
                               for i in range(n)) % p == 0


@pytest.mark.parametrize("p", [0, 5, 7, (1 << 61) - 1])
def test_incremental_echelon_matches_one_shot(p):
    # column blocks fed one at a time give the one-shot rank and the very
    # same nullspace vectors; rows with planted relations keep the matrix
    # deficient, and a repeated block adds no rank.  p = 0 ranks integer
    # rows over Z.  The nullspace is the canonical basis: each vector ends
    # at its dependent row and is zero at every other dependent row
    rng = random.Random(p % 1000 + 61)
    lo, hi = (0, p - 1) if p else (-9, 9)
    for _ in range(12):
        n = rng.randint(1, 9)
        ncols = rng.randint(6, 12)
        rows = [[rng.randint(lo, hi) for _ in range(ncols)]
                for _ in range(n)]
        for i in range(n // 2, n):
            if rng.random() < 0.5:
                a, b = rng.randrange(n), rng.randrange(n)
                c = rng.randint(lo, hi)
                rows[i] = [x + c * y for x, y in zip(rows[a], rows[b])]
                if p:
                    rows[i] = [x % p for x in rows[i]]
        cuts = sorted(rng.sample(range(1, ncols), 2))
        blocks = [[row[lo:hi] for row in rows]
                  for lo, hi in zip([0] + cuts, cuts + [ncols])]
        blocks.insert(2, blocks[0])
        echelon = _Echelon(n, p)
        seen, ranks = [[] for _ in rows], []
        for block in blocks:
            for s, part in zip(seen, block):
                s.extend(part)
            ranks.append(echelon.add(block))
            assert ranks[-1] == (gauss_rank_modp(seen, p) if p
                                 else gauss_rank_fractions(seen))
        assert ranks[2] == ranks[1]
        one_shot = _Echelon(n, p)
        one_shot.add(seen)
        assert (echelon.rank, echelon.nullspace()) == (one_shot.rank,
                                                      one_shot.nullspace())
        null = echelon.nullspace()
        oracle = (nullspace_modp(rows, p) if p else generic_nullspace(
            [[Fraction(x) for x in row] for row in rows],
            Fraction(0), Fraction(1)))
        assert len(null) == len(oracle) == n - echelon.rank
        ends = [max(i for i, x in enumerate(lam) if x) for lam in null]
        assert ends == sorted(set(ends))
        for lam, end in zip(null, ends):
            lead = next(x for x in lam if x)
            assert (lead == 1) if p else (lead > 0)
            assert all(lam[d] == 0 for d in ends if d != end)
            for j in range(ncols):
                total = sum(lam[i] * rows[i][j] for i in range(n))
                assert (total % p if p else total) == 0


def _combinations(rng, n, basis, p):
    """n random combinations mod p of the rows of basis."""
    out = []
    for _ in range(n):
        row = [0] * len(basis[0])
        for b in basis:
            c = rng.randrange(p)
            row = [x + c * y for x, y in zip(row, b)]
        out.append([x % p for x in row])
    return out


def _wide_matrices(rng, p):
    """Matrices past one panel: the rank settling in the first panel, in
    a late one, and at full rank; zero and repeated rows in the first two."""
    def rand(n, ncols):
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(n)]

    first = _combinations(rng, 90, rand(12, 300), p)
    # rank 8 on the first 230 columns, rising again in the last two panels
    late = [a + b for a, b in zip(_combinations(rng, 80, rand(8, 230), p),
                                  rand(80, 70))]
    for rows in (first, late):
        for i in rng.sample(range(len(rows)), 6):
            rows[i] = ([0] * len(rows[0]) if i % 2
                       else list(rows[rng.randrange(len(rows))]))
    return [first, late, rand(70, 300)]


@pytest.mark.parametrize("p", [2, 5, (1 << 61) - 1])
def test_panel_echelon_matches_eager_reference(p):
    # matrices taller and wider than one panel, fed in random column
    # blocks: after every block the rank of the eager reference, at the
    # end its nullspace.  The earlier tests stay inside the first panel
    rng = random.Random(p % 1000 + 2025)
    for rows in _wide_matrices(rng, p):
        n, ncols = len(rows), len(rows[0])
        for _ in range(2):
            cuts = sorted(rng.sample(range(1, ncols), rng.randint(1, 5)))
            echelon, eager = _Echelon(n, p), EagerEchelon(n, p)
            for lo, hi in zip([0] + cuts, cuts + [ncols]):
                block = [row[lo:hi] for row in rows]
                assert echelon.add(block) == eager.add(block)
            assert echelon.nullspace() == eager.nullspace()


@pytest.mark.parametrize("p", [5, (1 << 61) - 1])
def test_panels_yield_the_rank_of_each_column_prefix(p):
    # a block fed one panel at a time yields after each panel the columns
    # taken so far, with the eager reference's rank on them, and stops
    # yielding once every row is a pivot
    rng = random.Random(p % 1000 + 42)
    for rows in _wide_matrices(rng, p):
        n, ncols = len(rows), len(rows[0])
        echelon = _Echelon(n, p)
        ends = []
        for end in echelon.panels(rows):
            ends.append(end)
            eager = EagerEchelon(n, p)
            assert echelon.rank == eager.add([row[:end] for row in rows])
        assert ends == [min(end, ncols) for end in range(
            _PANEL, _PANEL * len(ends) + 1, _PANEL)]
        assert ends[-1] == ncols or echelon.rank == n
        eager = EagerEchelon(n, p)
        assert echelon.rank == eager.add(rows)


@pytest.mark.parametrize("p", [5, (1 << 61) - 1])
def test_add_multiples_matches_full_elimination(p):
    # a first block whose later rows are scalar multiples of earlier ones,
    # of pivots, of dependent rows and of other multiples, 0 among the
    # scalars: leaving those rows out of the
    # elimination gives the same rank and transforms, so the same rank and
    # nullspace after a second block too
    rng = random.Random(p % 1000 + 7)
    for _ in range(6):
        n = rng.randint(8, 40)
        first = _combinations(rng, n, [[rng.randrange(p) for _ in range(90)]
                                       for _ in range(rng.randint(2, 9))], p)
        multiples = {}
        for r in sorted(rng.sample(range(1, n), n // 3)):
            s, c = rng.randrange(r), rng.randrange(p)
            multiples[r] = (s, c)
            first[r] = [c * x % p for x in first[s]]
        second = [[rng.randrange(p) for _ in range(70)] for _ in range(n)]
        full, short = _Echelon(n, p), _Echelon(n, p)
        assert full.add(first) == short.add_multiples(first, multiples)
        assert full.free == short.free
        assert full.add(second) == short.add(second)
        assert full.nullspace() == short.nullspace()
    with pytest.raises(AssertionError):
        short.add_multiples(first, multiples)


def test_rank_over_fp_takes_ints_in_any_range():
    # ints outside [0, p), negative and wide, rank as their residues
    rng = random.Random(5)
    for p in (2, 5, 7):
        for _ in range(10):
            rows = [[rng.randint(-10 ** 20, 10 ** 20) for _ in range(9)]
                    for _ in range(6)]
            rows[5] = [x + 3 * y for x, y in zip(rows[0], rows[2])]
            reduced = [[x % p for x in row] for row in rows]
            assert rank_over_k(rows, BaseField(p)) == rank_over_k(
                reduced, BaseField(p))


def test_flatten_then_rank_detects_k_relations_only():
    # t and 2t are k-dependent; t and t^2 are not, although K-dependent
    t = QT.var("t")
    rows = flatten_to_k([[t], [2 * t]])
    assert rank_over_k(rows, QQ)[0] == 1
    rows = flatten_to_k([[t], [t * t]])
    assert rank_over_k(rows, QQ)[0] == 2


def test_flatten_random_consistency():
    # a planted k-linear combination stays dependent after flattening
    rng = random.Random(77)
    for ff in (QT, FunctionField(5, ["t"])):
        for _ in range(10):
            v1 = [random_ratfunc(rng, ff) for _ in range(2)]
            v2 = [random_ratfunc(rng, ff) for _ in range(2)]
            a = ff.base.of_int(rng.randint(1, 4))
            b = ff.base.of_int(rng.randint(1, 4))
            v3 = [ff.const(a) * x + ff.const(b) * y for x, y in zip(v1, v2)]
            rows = flatten_to_k([v1, v2, v3])
            rank, null = rank_over_k(rows, ff.base)
            assert rank <= 2
            assert len(null) >= 1

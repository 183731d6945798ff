"""Exact k-linear algebra for vectors over K = k(y1, ..., yn).

K-linear independence questions are reduced to the prime field k in two
steps.  :func:`flatten_to_k` clears each coordinate to a common polynomial
denominator and splits the numerators into monomial coordinates, giving a
matrix over k whose row space mirrors the K-span (a k-relation among the
rows is exactly a k-relation among the original vectors, because scaling a
coordinate by a fixed nonzero polynomial and splitting by monomial are both
injective on k-linear combinations).  Rows that are polynomials already go
to the split alone (:func:`_split_by_monomial`).

:func:`rank_over_k` then computes rank and a row-nullspace basis without
fractions: Bareiss elimination over Z in characteristic 0 (rows are first
scaled to integers; the scaling is undone on the nullspace vectors) and
ordinary elimination over F_p otherwise.  Nullspace vectors are read off an
augmented identity block, so no back substitution is needed.  The mod-p
elimination also takes its columns one block at a time
(:class:`_EchelonModp`), so a caller can add evaluation points until the
rank settles and pay for each point once.
"""

import math
from fractions import Fraction

from .errors import UsageError
from .field import _grlex_key, poly_gcd
from .intpoly import _primitive_ints


def _split_by_monomial(polys, zero):
    """Matrix over k of a matrix of polynomials, one row per row.

    Each column is split into one column per monomial that occurs in it,
    in descending graded-lex order; zero fills the monomials a polynomial
    lacks.
    """
    rows = [[] for _ in polys]
    for col in zip(*polys):
        monos = set()
        for nm in col:
            monos.update(nm.terms)
        order = sorted(monos, key=_grlex_key, reverse=True)
        for row, nm in zip(rows, col):
            row.extend(nm.terms.get(e, zero) for e in order)
    return rows


def flatten_to_k(vectors):
    """Matrix over k with one row per vector, columns per (coordinate, monomial).

    All vectors must have the same length and live over the same field.
    Column order is deterministic: coordinates left to right, monomials in
    descending graded-lex order within a coordinate.
    """
    if not vectors:
        return []
    width = len(vectors[0])
    ff = None
    for v in vectors:
        if len(v) != width:
            raise UsageError("vectors of unequal length")
        for x in v:
            if ff is None:
                ff = x.ff
            elif x.ff != ff:
                raise UsageError("vectors over different fields")
    if width == 0:
        return [[] for _ in vectors]
    cols = []
    for j in range(width):
        col = [v[j] for v in vectors]
        den = ff.poly_one()
        for x in col:
            if not x.den.is_const():
                den = den.divide_exact(poly_gcd(den, x.den)) * x.den
        nums = []
        for x in col:
            q = den.divide_exact(x.den)
            if q is None:
                raise AssertionError("column denominator not divisible")
            nums.append(x.num * q)
        cols.append(nums)
    return _split_by_monomial(list(zip(*cols)), ff.base.zero())


def _normalize_int_vector(vec):
    """Scale a Fraction vector to coprime integers, first nonzero positive."""
    ints, _ = _primitive_ints(vec)
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def _rank_bareiss(rows):
    """Fraction-free elimination over Z on [M | I]; returns rank, nullspace."""
    n = len(rows)
    ncols = len(rows[0]) if n else 0
    # m[i] = scales[i] * rows[i], so a nullspace coefficient mu for the
    # scaled row corresponds to mu * scales[i] for the original
    m, scales = [], []
    for row in rows:
        ints, scale = _primitive_ints(row)
        m.append(ints)
        scales.append(scale)
    # strip column contents (pure column scaling, nullspace unaffected)
    for c in range(ncols):
        g = 0
        for r in range(n):
            g = math.gcd(g, m[r][c])
            if g == 1:
                break
        if g > 1:
            for r in range(n):
                m[r][c] //= g
    aug = ncols + n
    for i in range(n):
        m[i].extend(1 if j == i else 0 for j in range(n))
    prev = 1
    rank = 0
    for col in range(ncols):
        piv = -1
        best = None
        for r in range(rank, n):
            v = m[r][col]
            if v and (best is None or abs(v) < best):
                piv, best = r, abs(v)
        if piv < 0:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        row_p = m[rank]
        for r in range(rank + 1, n):
            # uniform one-step update keeps every entry an exact minor,
            # so the division by the previous pivot never truncates
            vr = m[r][col]
            row_r = m[r]
            if vr:
                for j in range(col + 1, aug):
                    row_r[j] = (pv * row_r[j] - vr * row_p[j]) // prev
            else:
                for j in range(col + 1, aug):
                    row_r[j] = pv * row_r[j] // prev
            row_r[col] = 0
        prev = pv
        rank += 1
    null = []
    for r in range(rank, n):
        if any(m[r][c] for c in range(ncols)):
            raise AssertionError("nullspace row not eliminated")
        lam = [Fraction(m[r][ncols + i]) * scales[i] for i in range(n)]
        null.append(_normalize_int_vector(lam))
    return rank, null


def _leading_one(vec, p):
    """vec mod p scaled to a leading 1."""
    inv = pow(next(x for x in vec if x), -1, p)
    return [x * inv % p for x in vec]


class _EchelonModp:
    """Row echelon form mod p of an n-row matrix fed in column blocks.

    It keeps the row transform T: the rows of T M past the first rank
    are zero on every column seen.  A pivot row is never touched again,
    so a new block B only needs the rows of T B from rank on, and then
    its own elimination: each block costs only its own columns.  The
    state after any sequence of blocks is the state after one block of
    all their columns side by side, so rank and nullspace are those of
    a single elimination of [M | I].
    """

    def __init__(self, n, p):
        self.p, self.rank = p, 0
        self.transform = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(self, block):
        """Append the columns of block (one row per matrix row); the rank.

        Rows below the pivots are reduced mod p only where they are read:
        each update adds less than p^2 to an entry, so they stay small.
        """
        p, rank, transform = self.p, self.rank, self.transform
        ncols = len(block[0]) if block else 0
        m = []
        for lam in transform[rank:]:
            acc = [0] * ncols
            for i, c in enumerate(lam):
                if c:
                    acc = [a + c * x for a, x in zip(acc, block[i])]
            m.append(acc + lam)
        k = 0
        for col in range(ncols):
            if k == len(m):
                break
            piv = next((r for r in range(k, len(m)) if m[r][col] % p), -1)
            if piv < 0:
                continue
            m[k], m[piv] = m[piv], m[k]
            tail = m[k][col:] = [x % p for x in m[k][col:]]
            inv = pow(tail[0], -1, p)
            for row in m[k + 1:]:
                f = row[col] * inv % p
                if f:
                    row[col:] = [x - f * y for x, y in zip(row[col:], tail)]
            k += 1
        if any(x % p for row in m[k:] for x in row[:ncols]):
            raise AssertionError("nullspace row not eliminated")
        transform[rank:] = [[x % p for x in row[ncols:]] for row in m]
        self.rank = rank + k
        return self.rank

    def nullspace(self):
        """Row relations of every column seen, each scaled to a leading 1."""
        return [_leading_one(lam, self.p)
                for lam in self.transform[self.rank:]]


def _rank_modp(rows, p):
    """Rank and nullspace mod p: the echelon form fed one block."""
    echelon = _EchelonModp(len(rows), p)
    echelon.add(rows)
    return echelon.rank, echelon.nullspace()


def rank_over_k(rows, base):
    """Rank and row-nullspace basis of a matrix of prime-field scalars.

    Returns ``(rank, nullspace)`` where each nullspace vector lam satisfies
    sum(lam[i] * rows[i]) == 0.  Over Q the vectors are normalized to
    coprime integers with positive leading entry; over F_p the leading
    nonzero entry is 1.
    """
    if base.p:
        return _rank_modp([[int(x) % base.p for x in row] for row in rows],
                          base.p)
    return _rank_bareiss([[Fraction(x) for x in row] for row in rows])

"""Exact k-linear algebra for vectors over K = k(y1, ..., yn).

K-linear independence questions are reduced to the prime field k in two
steps.  :func:`flatten_to_k` clears each coordinate to a common polynomial
denominator and splits the numerators into monomial coordinates, giving a
matrix over k whose row space mirrors the K-span (a k-relation among the
rows is exactly a k-relation among the original vectors, because scaling a
coordinate by a fixed nonzero polynomial and splitting by monomial are both
injective on k-linear combinations).  Rows that are polynomials already go
to the split alone (:func:`_split_by_monomial`).

:func:`rank_over_k` then computes rank and a row-nullspace basis with the
one elimination of this module, :class:`_Echelon`: over F_p, and over Z in
characteristic 0 (rows are first scaled to integers; the scaling is undone
on the nullspace vectors).  It takes its columns one block at a time, so a
caller can add evaluation points until the rank settles and pay for each
point once, and a block one panel at a time (:meth:`_Echelon.panels`), so
a caller that can prove the rank from the nullspace so far stops there.
Each row not yet a pivot carries its transform, the
combination of the original rows it holds: a new block's values for that
row are its transform times the block, and the nullspace is read off the
transforms of the rows left over.

Its pivot rule makes the nullspace canonical.  In each column the pivot is
the first remaining row in row order, and it leaves the remaining rows
where it stands, with no swap.  The rows before it are zero in that
column, so every reduction of a row r uses a pivot row s < r, and the
transform of r is supported on r and the pivots before it.  The pivot
rows are independent (their reduced rows are in echelon form), and every
row left over lies in the span of the pivots before it.  So row i is a
pivot exactly when it is outside the span of rows 0..i-1, and a row r left
over holds the relation that ends at r and is supported on the
independent rows before r.  That relation is unique up to scale.  Scaled
to a leading 1 over F_p, or to coprime integers with the first entry
positive over Z, the nullspace therefore depends on the matrix alone: it
is the same after any split into column blocks, each vector is zero past
its own row and at every other dependent row, and its first vector is the
relation ending at the first row in the span of the rows before it.

Over F_p only the rows after the pivot are reduced, and the columns are
taken one panel of ``_PANEL`` columns at a time.  A pivot reduces the
rows after it on its own panel's columns only, and each reduction records
its multiplier instead of rewriting the row's transform.  At the panel's
end one backward sweep over the pivots' multipliers (:func:`_sweep`)
forms the transforms of the rows still free; a row that became a pivot
never gets one.  The next panel's values are those transforms times its
columns, as for a new block, so a row is never reduced on columns past
its panel, and once the rank has settled a panel costs only the products
of the few free transforms with it.  The pivots are those of the rule
above, so the result is the same.  Between two panels the state is the
elimination of the columns taken so far, with its own canonical
nullspace and a rank that bounds the whole matrix's from below; over Z
a block is one panel.

Over Z every remaining row takes the uniform one-step update of Bareiss
(Math. Comp. 22, 1968), (pv * v - vr * w) / prev with prev the previous
pivot, on its entries and its transform alike.  Each entry is then a
minor of the rows and columns taken so far, a transform entry with a unit
column in place of a matrix column, so the division is exact.
"""

import itertools
import math

from .errors import UsageError
from .field import _common_denominator, _grlex_key
from .intpoly import _primitive_ints


def _split_by_monomial(polys, zero, key=None):
    """Matrix over k of a matrix of polynomials, one row per row, each
    given by its {monomial: coefficient} dict.

    Each column is split into one column per monomial that occurs in it,
    in descending order of key(monomial), or of the monomials themselves
    without key; zero fills the monomials a polynomial lacks.  Exponent
    tuples take key=_grlex_key, and the packed monomials of
    field._SparseRing are ints in graded-lex order already.
    """
    rows = [[] for _ in polys]
    for col in zip(*polys):
        order = sorted(set().union(*col), key=key, reverse=True)
        fill = itertools.repeat(zero)
        for row, nm in zip(rows, col):
            row.extend(map(nm.get, order, fill))
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
        den, nums = _common_denominator([v[j] for v in vectors])
        # coefficients over den made monic, as over the monic lcm
        cols.append([ff.ring.terms(n, den) for n in nums])
    return _split_by_monomial(list(zip(*cols)), ff.base.zero(), _grlex_key)


def _normalize_int_vector(vec):
    """Scale a Fraction vector to coprime integers, first nonzero positive."""
    ints, _ = _primitive_ints(vec)
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def _leading_one(vec, p):
    """vec mod p scaled to a leading 1."""
    inv = pow(next(x for x in vec if x), -1, p)
    return [x * inv % p for x in vec]


# _Echelon eliminates over F_p one panel of this many columns at a time.
# Replaying the blocks of word certificates (best of 3-7, raw, CPython
# 3.11 on a 2-vCPU Xeon VM): on the F_5 shift `1/u` at L = 5..7, up to
# 255 rows by 6885 columns, 32 was up to 1.4 times slower than 64 and
# 96 or 128 at most 10% faster.  On the 127-column blocks mod 2^61 - 1
# at L = 6 over Q(t) neither 32 nor 96 was more than 10% faster, and 128,
# one panel per block, was up to 1.7 times slower (`1/u^2` under the
# shift: 0.084 against 0.144 s).  128 was clearly faster only on
# doubling at L = 7 (0.43 against 0.61 s), whose 255-column blocks each
# gain at most 125 in rank.
_PANEL = 64


def _sweep(t, mult, pivots, p):
    """The transform of a row left free at the end of a panel.

    t is its transform at the start of the panel, updated in place, and
    mult its (j, f): the panel's pivot j, in pivot order, reduced it by f
    times that pivot's row.  pivots[j] = (t_j, mult_j) likewise, for the
    pivot row j, whose own transform is never formed.  The row's transform is
    t - sum f T_j, and T_j = t_j - sum f' T_k over the (k, f') in mult_j,
    so one backward sweep over the pivots expands it on the panel-start
    transforms: c_j starts at -f, and from the last pivot down c_j t_j is
    added and c_j f' taken off each c_k of mult_j.
    """
    if not mult:
        return t
    c = [0] * (mult[-1][0] + 1)
    for j, f in mult:
        c[j] = -f
    for j in range(len(c) - 1, -1, -1):
        cj = c[j] % p
        if cj:
            tj, mj = pivots[j]
            t[:len(tj)] = [x + cj * y for x, y in zip(t, tj)]
            for k, f in mj:
                c[k] -= cj * f
    return [x % p for x in t]


class _Echelon:
    """Row echelon form of an n-row matrix over F_p, or over Z for p = 0.

    The matrix is fed in column blocks.  Each row not yet taken as a
    pivot keeps its transform: the combination of the original rows that
    it now holds, of length r + 1 for row r.  A pivot row is never read
    again, so a new block B only needs the products of the remaining
    transforms with B, and then its own elimination: each block costs only
    its own columns, and the state after any sequence of blocks is the
    state after one block of all their columns side by side.  Over F_p a
    block is fed the same way one panel of ``_PANEL`` columns at a time,
    and the transforms are formed at the end of each panel, for the rows
    left free only (module docstring); :meth:`panels` hands control back
    after each one, and :meth:`add` takes them all.
    """

    def __init__(self, n, p):
        self.n, self.p, self.rank, self.prev = n, p, 0, 1
        self.free = [(r, [0] * r + [1]) for r in range(n)]

    def _values(self, block):
        """Each remaining row on the columns of block: its transform times
        block."""
        out = []
        for _, t in self.free:
            acc = [0] * len(block[0])
            for c, row in zip(t, block):
                if c:
                    acc = [a + c * x for a, x in zip(acc, row)]
            out.append(acc)
        return out

    def add(self, block):
        """Append the columns of block (one row per matrix row); the rank."""
        for _ in self.panels(block):
            pass
        return self.rank

    def panels(self, block):
        """Append the columns of block, yielding after each panel the
        number of its columns taken so far: ``_PANEL`` at a time over F_p,
        all at once over Z.  Nothing is yielded once every row is a pivot.
        A caller that stops between panels leaves a valid echelon form of
        the columns taken, whose rank is a lower bound for the whole
        block's."""
        ncols = len(block[0]) if block else 0
        step = _PANEL if self.p else max(ncols, 1)
        for lo in range(0, ncols, step):
            if not self.free:
                return
            if self.p:
                self._panel([row[lo:lo + step] for row in block])
            else:
                self._bareiss(block)
            yield min(lo + step, ncols)

    def add_multiples(self, block, multiples):
        """add(block) for the first block, when each row r in multiples
        is c times the row s < r, for (s, c) = multiples[r], over F_p.

        Such a row lies in the span of the rows before it, so it is no
        pivot, and leaving it out changes neither the pivots nor any
        other row's relation.  The other rows are eliminated, and row r
        then holds the relation of row s times c taken off it: e_r - c e_s
        for a pivot s, and e_r + c (t_s - e_s) for a row s left free with
        the transform t_s.  That is the unique relation ending at r on
        the pivots before it, the transform the elimination would give.
        """
        if not self.p or self.rank:
            raise AssertionError("multiples need the first block over F_p")
        p = self.p
        self.add([[0] * len(row) if r in multiples else row
                  for r, row in enumerate(block)])
        free = dict(self.free)
        for r, (s, c) in sorted(multiples.items()):
            ts = free.get(s)
            t = [c * x % p for x in ts[:s]] if ts else [0] * s
            free[r] = t + [0 if ts else -c % p] + [0] * (r - s - 1) + [1]
        self.free = sorted(free.items())
        return self.rank

    def _panel(self, block):
        """Eliminate the columns of one panel over F_p.

        The remaining rows are reduced mod p only where they are read:
        each update adds less than p^2 to an entry, so residues stay small.
        A reduction records its multiplier; :func:`_sweep` forms the
        transforms of the rows still free at the end.  A panel on which
        every remaining row is zero, as once the rank has settled, has
        nothing to eliminate and changes no transform.
        """
        p = self.p
        rows = [(r, v, t, []) for (r, t), v in zip(self.free,
                                                    self._values(block))]
        if not any(x % p for _, v, _, _ in rows for x in v):
            return
        pivots = []
        for col in range(len(block[0])):
            piv = next((k for k, (_, v, _, _) in enumerate(rows)
                        if v[col] % p), -1)
            if piv < 0:
                continue
            _, vp, tp, mp = rows.pop(piv)
            vp = [x % p for x in vp[col:]]
            inv = pow(vp[0], -1, p)
            for _, v, _, m in rows[piv:]:
                f = v[col] * inv % p
                if f:
                    v[col:] = [x - f * y for x, y in zip(v[col:], vp)]
                    m.append((len(pivots), f))
            pivots.append((tp, mp))
            self.rank += 1
            if not rows:
                break
        if any(x % p for _, v, _, _ in rows for x in v):
            raise AssertionError("nullspace row not eliminated")
        self.free = [(r, _sweep(t, m, pivots, p)) for r, _, t, m in rows]

    def _bareiss(self, block):
        """Eliminate the columns of block over Z by one-step Bareiss."""
        prev = self.prev
        rows = [(r, v, t) for (r, t), v in zip(self.free,
                                                self._values(block))]
        for col in range(len(block[0])):
            piv = next((k for k, (_, v, _) in enumerate(rows) if v[col]), -1)
            if piv < 0:
                continue
            _, vp, tp = rows.pop(piv)
            pv, vp = vp[col], vp[col:]
            for _, v, t in rows:
                vr = v[col]
                if vr:
                    v[col:] = [(pv * x - vr * y) // prev
                               for x, y in zip(v[col:], vp)]
                    t[:] = [(pv * x - vr * y) // prev for x, y in
                            itertools.zip_longest(t, tp, fillvalue=0)]
                elif pv != prev:
                    v[col:] = [pv * x // prev for x in v[col:]]
                    t[:] = [pv * x // prev for x in t]
            prev = pv
            self.rank += 1
            if not rows:
                break
        if any(x for _, v, _ in rows for x in v):
            raise AssertionError("nullspace row not eliminated")
        self.prev = prev
        self.free = [(r, t) for r, _, t in rows]

    def nullspace(self):
        """The canonical relation basis (module docstring), in row order.

        Over F_p each vector is scaled to a leading 1, over Z to coprime
        integers with the first entry positive.
        """
        out = []
        for r, t in self.free:
            lam = t + [0] * (self.n - r - 1)
            out.append(_leading_one(lam, self.p) if self.p
                       else _normalize_int_vector(lam))
        return out


def rank_over_k(rows, base):
    """Rank and row-nullspace basis of a matrix of prime-field scalars.

    Returns ``(rank, nullspace)`` where each nullspace vector lam satisfies
    sum(lam[i] * rows[i]) == 0: the canonical basis of :class:`_Echelon`.
    Over F_p the rows are ints, taken as they are, in any range.  Over Q
    the rows are scaled to integers and the columns stripped of
    their contents first, and the vectors are normalized to coprime
    integers with positive leading entry; over F_p the leading nonzero
    entry is 1.
    """
    echelon = _Echelon(len(rows), base.p)
    if base.p:
        # F_p scalars are ints, which the elimination reduces where it reads
        echelon.add(rows)
        return echelon.rank, echelon.nullspace()
    scaled = [_primitive_ints(row) for row in rows]
    m = [ints for ints, _ in scaled]
    # strip column contents: a column scaling keeps every row relation
    for c, col in enumerate(zip(*m)):
        g = math.gcd(*col)
        if g > 1:
            for row in m:
                row[c] //= g
    echelon.add(m)
    return echelon.rank, [
        _normalize_int_vector([c * s for c, (_, s) in zip(lam, scaled)])
        for lam in echelon.nullspace()]

"""Free-subalgebra evidence: words in (1 - x)^{-1} and b(1 - x)^{-1}.

For a nonzero witness b in K, an index word I = (i_1, ..., i_r) over {0, 1}
names the product

    W_I = b^{i_1} (1-x)^{-1} b^{i_2} (1-x)^{-1} ... b^{i_r} (1-x)^{-1},

with W of the empty word equal to 1, and the companion element
V_I = (1-x)^{-1} W_I.  These satisfy the rewriting identities

    (1-x) V_I = W_I = b^{i_1} V_{I'}        (I' drops the first index)
    x V_I = V_I - b^{i_1} V_{I'}            (x V = V - 1 for the empty word)

which is why k-linear combinations of the W_I are stable enough to carry a
freeness argument.  This module checks the finite part of that argument
exactly: expand every word of length at most L, coordinatize the set over
the prime field k, and rank.  Full rank certifies that no k-relation exists
up to length L.  A rank deficit yields the relation ending at the first
word in the span of the words before it, unique up to scale, so the same
on every route and for every L past its last word; it is proved exactly
before being reported.

Words are coordinatized in one of two ways, which decide the same rank.
The series way expands each word in a skew series ring, truncated at the
trie order N = 2^{L+1} - 2, the number of edges of the trie of all words
of length at most L.  Write W_I = D_I^{-1} n_I with n_I in K.  Then

    W_{Ii} = W_I b^i (1-x)^{-1} = (Q D_I)^{-1} n_I b^i,
    Q = c (1-x) c^{-1},  c = n_I b^i,

so each letter puts one left factor of degree 1 on its prefix's
denominator, and words that share a prefix share its denominator as a
right factor.  Since lclm(A C, B C) = lclm(A, B) C, induction over the
trie shows that the lclm D of the D_I has degree at most the number of
edges, and a k-combination of the words is D^{-1} P with
deg P <= deg D <= N.  Under an automorphism every Q has constant term 1,
and D has a nonzero one: were D = x D', each cofactor u_I with
u_I D_I = D would be x u'_I, and D' a common left multiple of smaller
degree.  So D^{-1} P is a power series, P is D times it, and P vanishes
when the series vanishes at orders 0..N.  Under a derivation the x^{-1}
expansion below does the same.  1/(t-1) under t -> 2t reaches the bound
at L = 1, 2, 3.  Since (1-x)^{-1} has scalar coefficients, appending
b^i (1-x)^{-1} to a word is one series step over any coefficient ring:
on i = 1 right-multiply by b, then take a prefix sum.

* Pure automorphisms, in K[[x; sigma]] with (1-x)^{-1} = sum_n x^n:
  x^m b = sigma^m(b) x^m, and sigma^m(b)(P) = b(s^m(P)) for the point
  map s of sigma, so the product by b is pointwise.  In one variable s
  is read off the matrix of sigma, P -> (a P + b) / (c P + d), with no
  image evaluated.  Over Q the series are evaluated modulo the prime
  q = 2^61 - 1 along the orbits of points from a fixed list of large
  residues.  Over F_p no point of F_p^n will do: under the shift every
  orbit runs through all of F_p and meets each pole of b.  The series
  are evaluated instead in F_p[y]/(f), with f monic irreducible of
  degree k, p^k >= 2^61, k > 8 and k at most two past the least such
  degree (_extension), so that y has degree k over F_p, along the
  orbit of the first of the points (y^j, y^{j+1}, ..., y^{j+n-1}),
  j = 1, 2, ..., whose orbit meets no pole; (y^j, y^{2j}) would all lie
  on y2 = y1^2.  An element is one int, its k coordinates packed in
  slots (intpoly._Packed), so a product is one int multiplication and
  a fold, and the rows hold the k coordinates of each entry.  A
  combination of words vanishes there only when f divides its
  numerator: a factor of degree k, where a point mod q forces one of
  degree 1.  Z/q and F_p[y]/(f) are each given as five operations on
  ints, so one evaluator (_evaluate), one point map (_point_map), one
  point loop (_evaluated_word_rows) and one series step serve both.
* Pure derivations, in K((x^{-1}; delta)) with
  (1-x)^{-1} = -sum_{k>=1} x^{-k}: x^0 b = b and, for n >= 1,
  x^{-n} b = sum_j (-1)^j C(n+j-1, j) delta^j(b) x^{-n-j}.  A nonzero
  D^{-1} P has leading term x^{deg P - deg D}, of order at least -deg D
  >= -N, so the orders x^0 .. x^{-N} decide a relation exactly, as in
  K[[x]], and orders only move down, so no padding is needed.  Every
  coefficient is an integer polynomial in the e_j = delta^j(b): products
  by b act on the right, so coefficients already on the left are never
  differentiated.  For a polynomial witness under polynomial images the
  entries stay polynomials.  They are computed exactly from the e_j up
  to the last nonzero one, by the same builder as the relation proof
  below (_word_series), in a sparse ring over k (field._SparseRing): a
  polynomial is a dict from packed monomials to ints, each monomial one
  int whose fields hold the total degree, then the exponents, wide
  enough for a proven degree bound, so that adding two keys multiplies
  the monomials and int order is graded-lex order.  Each series order is
  one fused multiply-accumulate into one dict.  Over Q the e_j run as
  integers over one common denominator d, and a word with r ones is
  divided by d^r at the end.  The rows split each entry by monomial,
  in descending int order, with no denominator pass.  Rational entries
  grow faster than the fold's numerators, so other exact inputs fold.
  For derivations
  of Q(t), evaluation at P is a ring homomorphism on every entry, so
  the same product runs on the values e_j(P) mod q at points from the
  same list, read off the Taylor jets of b and delta(t) at P.  A point
  where either has a pole mod q is skipped, so every delta^j(b) is
  regular there.  Mod q > N every factorial up to N is a unit, and
  C(n-1, n-m) = (n-1)! / ((m-1)! (n-m)!) makes order n >= 1 of a
  product by b (n-1)! times order n of one convolution, of a_m/(m-1)!
  by (-1)^j e_j/j!, each packed into one int (_xinv_times_mod).  The
  exact rows and the proofs keep the binomial dot product: factorials
  are not integral over Z, nor units mod a small p.

In the evaluated routes over Q, truncation and evaluation are
Z_(q)-linear and a primitive integer relation stays nonzero mod q; over
F_p, evaluation is a ring homomorphism where it is defined, and
truncation and the coordinates are F_p-linear.  So the evaluated rank is
a lower bound, and so is the rank of any of its columns: full rank
proves independence, and on a deficit d the exact nullity is at most d.
The points are added one at a time, each block of columns eliminated
one panel at a time (linalg._Echelon.panels), and the obstructions below
are proved at the end of each block and after each panel that raises no
rank, their vectors first checked on the block's columns still to come:
proved, they pin the nullity at the rank so far, so the first proofs
that pass end the loop and the rest of the elimination.  A failed lift
or proof adds a point (t under d/dt at L = 5 needs five), until the
rank has not risen over two more points.  Over Q nothing is lifted at
the first point unless b is constant: W_{1I} = b W_{0I}, b on the far
left, so at one point P the row of every word 1I is b(P) times that of
0I.  So those rows are formed (one product per order, in place of a
series step), the first point's elimination leaves them out, each with
the relation of its 0I row times b(P) (linalg._Echelon.add_multiples),
and the first nullspace holds b(P) W_0 = W_1, a relation only when b is
constant.  Over F_p the rows hold coordinates
over F_p, of which b(P) in F_p[y]/(f) is no scalar, so the first point
may prove.

The relations are checked by the leading-word argument of Bergman's
diamond lemma (Adv. Math. 29, 1978).  The words are the monomials of the
free algebra on g0 = (1-x)^{-1} and g1 = b(1-x)^{-1}: g_j W_I = W_{jI}
and W_I g_j = W_{Ij}, so a relation R yields the relations g_j R and
R g_j by moving indices alone.  Words are ordered by length, then
lexicographically, as words_up_to lists them, so the last word of R g_j
is (last word of R) j, and the last word of g_j R is j (last word of R).
Let D be the set of words dependent mod q (mod p over F_p) on the
columns eliminated so far, each the end of its canonical nullspace
vector (linalg module docstring), and d = |D|.  Only the obstructions
are proved: the words w in D whose prefix w[:-1] and suffix w[1:] both
lie outside D.  Over Q the vector ending at an obstruction is lifted by
maximal-quotient rational reconstruction (intpoly._rational_reconstruct),
which refuses nearly every residue of no small fraction, so a false
relation mod q rarely reaches a proof; over F_p it is exact already.
Each is proved as below.  By induction on length every w in D then has
an exact relation whose last word is w: if w is an obstruction, its
own; if w[:-1] (or w[1:]) is in D, a one-letter multiple of the
relation of that shorter word.  Relations whose last words differ are
independent, so the exact nullity is at least d; the rank of the
columns so far bounds it by d, so that rank is exact, and the columns
not yet eliminated could not raise it.  The first dependent word is
always an obstruction, since its prefix and suffix come before it, so
the reported relation is the lift of the first nullspace vector, which
the rest of the elimination would not change (linalg module
docstring).  Once the points settle, a failed lift or check falls back
to the exact x^{-1} series, or else to the fold.

Every relation R found on a series route, evaluated or exact, is proved
one way, on its own series, with no Ore arithmetic.  Let C be the prefix
closure of its support and e = |C| - 1.  The trie argument above,
applied to C, gives R a common left denominator of degree at most e, so
R = 0 iff its series vanishes at orders 0..e.  Those orders read only
the values v_j = sigma^j(b), j <= e, or v_j = delta^j(b), j < e.  Let
Delta = lcm_j den(v_j) and r the most ones in a support word.  Every
order's coefficient of a word with r_w <= r ones is an integer
combination of products of r_w values, so the series run fraction-free
on the values Delta v_j, with the coefficient of each word weighted by
Delta^{r - r_w}: that is the series of R times Delta^r.  Let
h = max(0, max_j(deg num v_j - deg den v_j)), in total degree.  Each
Delta v_j is a polynomial of degree at most deg Delta + h, so every
coefficient of the series of R times Delta^r has degree at most
B = r (deg Delta + h).  In several variables the series are computed
once, exactly, in the sparse ring of the exact rows, whose fields B
sets.  Over F_p(t) the series are computed once in F_p[y]/(y^(B+1)), one
packed int per element (intpoly._Packed), which holds them exactly: a
product that would reach y^(B+1) raises.  Over Q(t), where exact
coefficients grow too fast, they are evaluated at integer points.
Evaluation at a point P with Delta(P) != 0 is a ring homomorphism on
these coefficients, so when the series vanishes exactly at B + 1 such
integers, every order 0..e is zero (Schwartz, J. ACM 1980) and R = 0.

Everything else brings all words over one common left denominator by an
lclm fold, flattens the numerator coefficient vectors, and proves its
relation by summing the scaled numerators of its support over the
support's common left denominator, by the same fold.

Independence at bound L says nothing about longer words.  The certificate
stores the bound, the rank, and a digest of the flattened matrix so runs
are comparable; callers decide what theorem the evidence supports.
"""

import collections
import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .errors import (
    ContextMismatch, NotAdditiveEigen, RequiresPureAutomorphism,
    ResourceBoundExceeded, UsageError, ZeroArgument,
)
from .field import RatFunc, _SparseRing, _common_denominator
from .intpoly import (
    _Packed, _conv, _poly_jet_mod, _rational_reconstruct, _trim,
)
from .linalg import (
    _Echelon, _normalize_int_vector, _split_by_monomial,
    flatten_to_k, rank_over_k,
)
from .orefrac import OreFraction, weyl_check
from .orepoly import OrePoly, lclm
from .valuation import _rabin_irreducible, length_profile


def words_up_to(max_len):
    """All index words over {0, 1} of length <= max_len, shortest first.

    Within one length the order is lexicographic with 0 before 1, so the
    full sequence starts (), (0,), (1,), (0, 0), (0, 1), ...  The order is
    part of the certificate contract: matrix rows and digests follow it.
    """
    if max_len < 0:
        raise UsageError("word length bound must be nonnegative")
    out = [()]
    for r in range(1, max_len + 1):
        out.extend(itertools.product((0, 1), repeat=r))
    if len(out) != 2 ** (max_len + 1) - 1:
        raise AssertionError("word count is not 2^(L+1) - 1")
    return out


def word_key(bits):
    """Bitstring form of an index word; the empty word maps to ''."""
    return "".join(str(b) for b in bits)


def one_minus_x_inverse(ctx):
    """(1 - x)^{-1} as a left fraction (stored with monic denominator x - 1)."""
    one = OrePoly.one(ctx)
    return OreFraction(one - OrePoly.x(ctx), one)


def _as_witness(ctx, b):
    if isinstance(b, int):
        b = ctx.ff.const(b)
    if not isinstance(b, RatFunc):
        raise UsageError("witness must be a rational function or integer")
    if b.ff != ctx.ff:
        raise ContextMismatch("witness lives over a different field")
    if b.is_zero():
        raise ZeroArgument("witness b must be nonzero")
    return b


def build_word_W(ctx, bits, b):
    """The word W for index tuple `bits`; the empty tuple gives 1."""
    b = _as_witness(ctx, b)
    g0 = one_minus_x_inverse(ctx)
    g1 = OreFraction.from_ratfunc(ctx, b) * g0
    out = OreFraction.one(ctx)
    for i in bits:
        if i not in (0, 1):
            raise AssertionError("word index %r is not 0 or 1" % (i,))
        out = out * (g1 if i else g0)
    return out


def build_word_V(ctx, bits, b):
    """The companion word V = (1 - x)^{-1} W; the empty tuple gives (1-x)^{-1}."""
    return one_minus_x_inverse(ctx) * build_word_W(ctx, bits, b)


def common_left_denominator(fracs):
    """Rewrite fractions over one denominator: den^{-1} nums[i] == fracs[i].

    Left fold in input order, growing the denominator by lclm steps; the
    cofactor that lifts the old denominator rescales all earlier
    numerators.  Input order is significant (it fixes the intermediate
    lclms), so callers wanting reproducible output must fix their order.
    """
    if not fracs:
        raise UsageError("need at least one fraction")
    ctx = fracs[0].ctx
    den = fracs[0].den
    nums = [fracs[0].num]
    for f in fracs[1:]:
        if f.ctx != ctx:
            raise ContextMismatch("fractions from different Ore contexts")
        m, u, v = lclm(den, f.den)
        if m.degree > config.MAX_DEN_DEGREE:
            raise ResourceBoundExceeded(
                "common denominator reached degree %d (bound %d)"
                % (m.degree, config.MAX_DEN_DEGREE))
        if not u.is_one():
            nums = [u * n for n in nums]
        nums.append(v * f.num)
        den = m
    return den, nums


def _matrix_digest(rows, header, p=0):
    """SHA-256 of the header, the shape and the rows' decimal entries, over
    F_p (p > 0) residues, which from 8p entries on (measured to beat str)
    are formatted by a table of the p strings that no other value hits."""
    h = hashlib.sha256()
    ncols = len(rows[0]) if rows else 0
    h.update(("%s;%dx%d" % (header, len(rows), ncols)).encode())
    text = ({c: str(c) for c in range(p)}.__getitem__
            if 0 < 8 * p <= len(rows) * ncols else str)
    for row in rows:
        h.update(b"|")
        h.update(",".join(map(text, row)).encode())
    return h.hexdigest()


def _relation_vanishes(fracs, lam):
    """True when sum(lam[i] * fracs[i]) is the zero fraction.

    The scalars lie in the prime field k, which commutes with every Ore
    polynomial, so over the common left denominator den of the support
    the sum is den^{-1} sum(lam[i] * nums[i]): it vanishes exactly when
    that Ore polynomial does.  The support's lclm right-divides the lclm
    of all the fractions, so its degree bound is crossed only where the
    fold over all of them crossed it first.
    """
    support = [(c, f) for c, f in zip(lam, fracs) if c]
    if not support:
        return True
    ctx = support[0][1].ctx
    _, nums = common_left_denominator([f for _, f in support])
    total = OrePoly.zero(ctx)
    for (c, _), n in zip(support, nums):
        total = total + n.scale_left(ctx.ff.const(c))
    return total.is_zero()


def _rank_and_relation(rows, base, verify):
    """(rank, relation) of coordinate rows, one per word, over k.

    relation is None at full rank.  Otherwise it is the relation ending at
    the first row in the span of the rows before it: the first vector of
    rank_over_k's canonical nullspace, normalized as rank_over_k
    normalizes.  It is re-verified exactly by verify(relation), which is
    called only then.
    """
    rank, null = rank_over_k(rows, base)
    if rank == len(rows):
        return rank, None
    lam = tuple(null[0])
    if not any(lam):
        raise AssertionError("nullspace produced the zero relation")
    if not verify(lam):
        raise AssertionError("relation does not annihilate the words")
    return rank, lam


def independence_check(fracs):
    """Exact k-linear independence of left fractions.

    Returns (independent, rank, relation).  relation is None when
    independent; otherwise a tuple of prime-field scalars, one per input:
    the relation ending at the first fraction in the span of those before
    it, re-verified to sum the scaled fractions to zero.
    """
    _, rank, lam = _fold_rank(fracs)
    return lam is None, rank, lam


def _fold_rank(fracs):
    """(rows, rank, relation) of fractions by the lclm fold.

    The rows are the numerator coefficients over the common left
    denominator, flattened over k; the relation is proved by summing the
    scaled fractions (_relation_vanishes).
    """
    _, nums = common_left_denominator(fracs)
    width = max(1, max(n.degree for n in nums) + 1)
    rows = flatten_to_k([[n.coeff(j) for j in range(width)] for n in nums])
    rank, lam = _rank_and_relation(rows, fracs[0].ctx.ff.base,
                                   lambda lam: _relation_vanishes(fracs, lam))
    return rows, rank, lam


@dataclass(frozen=True)
class FreenessCertificate:
    """Bounded-length independence evidence for the two word generators.

    verdict is "Independent" (rank equals word count; no k-relation among
    words of length <= max_length exists) or "Dependent" (relation maps
    index words to nonzero prime-field scalars and sums to zero).  The
    digest identifies the flattened matrix, so equal runs hash equal.
    """

    witness_b: RatFunc
    max_length: int
    word_count: int
    rank: int
    matrix_digest: str
    verdict: str
    relation: dict = None

    @property
    def independent(self):
        return self.verdict == "Independent"

    def to_json_dict(self):
        out = {
            "witness": str(self.witness_b),
            "L": self.max_length,
            "word_count": self.word_count,
            "rank": self.rank,
            "digest": self.matrix_digest,
            "verdict": self.verdict,
        }
        if self.relation is not None:
            out["relation"] = {word_key(w): c for w, c in self.relation.items()}
        return out


def _certificate(b, L, words, rows, header, rank, lam):
    """The certificate of a rank, Independent when the relation lam is
    None, with the digest of rows under header, whose entries over F_p
    are residues on every route."""
    digest = _matrix_digest(rows, header, b.ff.char)
    if lam is None:
        return FreenessCertificate(b, L, len(words), rank, digest,
                                   "Independent")
    return FreenessCertificate(b, L, len(words), rank, digest, "Dependent",
                               {w: c for w, c in zip(words, lam) if c})


def _prefix_shared(words, root, step):
    """One value per word, each built from its longest proper prefix.

    cache[w] = step(cache[w[:-1]], w[-1]) with cache[()] = root, so words
    must list every prefix before its extensions, as words_up_to does.
    """
    cache = {(): root}
    for w in words:
        if w:
            cache[w] = step(cache[w[:-1]], w[-1])
    return [cache[w] for w in words]


def _expand_words(ctx, words, b):
    """One fraction per word, sharing prefixes (same fold order as build_word_W)."""
    g0 = one_minus_x_inverse(ctx)
    g1 = OreFraction.from_ratfunc(ctx, b) * g0
    return _prefix_shared(words, OreFraction.one(ctx),
                          lambda f, bit: f * (g1 if bit else g0))


def _series_step(times_b, geometric):
    """Append b^bit (1-x)^{-1} to a word series, given as coefficients.

    A 1 bit first right-multiplies by b through times_b; then geometric
    right-multiplies by (1-x)^{-1}, whose coefficients are scalars.  In
    K[[x]] that is sum_n x^n, a prefix sum; in K((x^{-1})) it is
    -sum_{k>=1} x^{-k}, a prefix sum shifted one order down and negated.
    """
    def step(series, bit):
        return geometric(times_b(series) if bit else series)
    return step


def _truncation_order(L):
    """Series order N = 2^{L+1} - 2, the edge count of the word trie.

    W_{Ii} = (Q D_I)^{-1} n_I b^i with Q = c (1-x) c^{-1} of degree 1 and
    c = n_I b^i, and lclm(A C, B C) = lclm(A, B) C, so all words of
    length <= L have a common left denominator of degree at most the
    number of trie edges.  Any k-relation has a numerator of degree at
    most N and is already visible, exactly, in the orders up to N (module
    docstring).
    """
    return 2 ** (L + 1) - 2


def _same(c):
    return c


def _signed_pascal(N, scalar=_same):
    """Rows 0..N-1 of Pascal's triangle with alternating signs,
    (-1)^i C(n, i), through a coefficient ring's scalar map: _xinv_step's
    weights before their products with the e_j, which a proof at many
    points builds once."""
    rows, row = [], [1]
    for n in range(N):
        rows.append([scalar((-1) ** i * c) for i, c in enumerate(row)])
        row = [1] + [scalar(row[i - 1] + row[i])
                     for i in range(1, n + 1)] + [1]
    return rows


def _xinv_step(e, N, zero, F=None, pascal=None):
    """Series step in K((x^{-1}; delta)) on orders 0..N (see _series_step).

    e lists e_j = delta^j(b), exactly or as values in the field F, whose
    operations reduce every coefficient, and every e_j past its end is
    zero.  x^0 b = b, and x^{-m} b = sum_j (-1)^j C(m+j-1, j) e_j x^{-m-j}
    for m >= 1, so order n >= 1 of A b is the binomial convolution
    sum_m a_m (-1)^{n-m} C(n-1, n-m) e_{n-m}.  In Z/q, a _Field, it is
    one factorial-scaled product (_xinv_times_mod).  Integers,
    F_p[y]/(y^k) and the sparse polynomials of field._SparseRing take a
    dot product per order over a table of weights, through F's mul:
    factorials are not integral over Z, nor units mod a small p.  The
    sparse ring forms each dot product, and each negated prefix sum of
    the geometric step, in one pass (its dot and neg_sums).  pascal,
    when given, holds the signed binomials (_signed_pascal(N) in F), so
    that only their products with the e_j are formed here.  Orders only
    move down, so orders 0..N need no padding.
    """
    if isinstance(F, _Field):
        times_b = _xinv_times_mod(e, N, F.p)
    else:
        mul, scalar, reduce = (F.mul, F.scalar, F.reduce) if F else (
            operator.mul, _same, _same)
        dot = F.dot if isinstance(F, _SparseRing) else (
            lambda xs, ys: reduce(sum(map(mul, xs, ys), zero)))
        if pascal is None:
            pascal = _signed_pascal(N, scalar)
        weights = [None]        # order n: first m, then the factors of a_m
        for n, row in enumerate(pascal, 1):
            lo = max(1, n - len(e) + 1)
            weights.append((lo, [mul(row[n - m], e[n - m])
                                 for m in range(lo, n + 1)]))

        def times_b(a):
            return [mul(a[0], e[0])] + [
                dot(a[lo:n + 1], w)
                for n, (lo, w) in enumerate(weights[1:], 1)]

    if isinstance(F, _SparseRing):
        neg_sums = F.neg_sums
    else:
        neg = F.neg if F else operator.neg

        def neg_sums(xs):
            return list(map(neg, itertools.accumulate(xs)))

    def geometric(a):
        return [zero] + neg_sums(a[:-1])

    return _series_step(times_b, geometric)


def _xinv_times_mod(e, N, q):
    """The product by b of _xinv_step on orders 0..N of residues mod the
    prime q > N, as one int multiplication.

    Since C(n-1, n-m) = (n-1)! / ((m-1)! (n-m)!), order n >= 1 of A b is
    (n-1)! (s * e')_n for s_m = a_m / (m-1)!, m >= 1, and
    e'_j = (-1)^j e_j / j!.  Each is packed as one int, s_m in slot
    m - 1 and e'_j in slot j, as residues in [0, q); e' once per point.
    A slot of the product sums at most N products below q^2, so it is
    below 2^(2 bits(q) + bits(N)), and slots of that many bits, rounded
    up to whole bytes, carry nothing: slot n - 1 of the product is
    (s * e')_n.
    """
    def times(x, i):
        return x * i % q
    fact = list(itertools.accumulate(range(1, N), times, initial=1))
    inv = list(itertools.accumulate(range(N - 1, 0, -1), times,
                                    initial=pow(fact[-1], -1, q)))[::-1]
    nb = -(-(2 * q.bit_length() + N.bit_length()) // 8)
    qs, nbs, little = (itertools.repeat(x) for x in (q, nb, "little"))
    packed_e = int.from_bytes(b"".join(map(
        int.to_bytes, [(-1) ** j * c * i % q for j, (c, i) in enumerate(
            zip(e, inv))], nbs, little)), "little")
    size = nb * (N + len(inv))
    cuts = [slice(i, i + nb) for i in range(0, nb * N, nb)]
    mul, mod = operator.mul, operator.mod

    def times_b(a):
        s = int.from_bytes(b"".join(map(int.to_bytes, map(
            mod, map(mul, a[1:], inv), qs), nbs, little)), "little")
        raw = (s * packed_e).to_bytes(size, "little")
        return [a[0] * e[0] % q] + list(map(mod, map(mul, map(
            int.from_bytes, map(raw.__getitem__, cuts), little), fact), qs))

    return times_b


class _ExactValues:
    """The exact values that word series read, for one witness b.

    sigma^j(b) under an automorphism and delta^j(b) under a derivation,
    grown on demand, with the running lcm of their denominators: built
    once and shared by the proofs of one certificate, each of which
    reads its own prefix.
    """

    __slots__ = ("pair", "values", "_lcms", "_ended")

    def __init__(self, pair, b):
        self.pair = pair
        self.values = [b]
        self._lcms = []
        # a derivation has reached delta^j(b) = 0
        self._ended = False

    def prefix(self, n):
        """The exact values that orders 0..n of a word series read.

        These are sigma^j(b) for j <= n under an automorphism, and
        delta^j(b) for j < n, up to the first zero, under a derivation:
        order m >= 1 of x^{-1} series reads e_j for j < m only.
        """
        pair, values = self.pair, self.values
        if pair.is_pure_automorphism():
            while len(values) <= n:
                values.append(pair.sigma.apply(values[-1]))
            return values[:n + 1]
        while len(values) < n and not self._ended:
            nxt = pair.delta.apply(values[-1])
            if nxt.is_zero():
                self._ended = True
            else:
                values.append(nxt)
        return values[:max(n, 1)]

    def lcm(self, k):
        """The lcm of the denominators of the first k values, in the
        field's ring (_common_denominator)."""
        lcms = self._lcms
        while len(lcms) < k:
            lcms.append(_common_denominator([self.values[len(lcms)]],
                                            lcms[-1] if lcms else None)[0])
        return lcms[k - 1]


def _sigma_step(values, F=None):
    """Series step in K[[x; sigma]] (see _series_step).

    values[m] stands for sigma^m(b), exactly or as a value at a point,
    in the field F (its mul, and reduce to bring a sum to normal form)
    or, without F, on exact values.  x^m b = sigma^m(b) x^m, so a
    product by b multiplies order m by values[m], and
    (1-x)^{-1} = sum_n x^n makes the geometric step a prefix sum.
    """
    if F is None:
        return _series_step(lambda a: list(map(operator.mul, a, values)),
                            lambda a: list(itertools.accumulate(a)))
    return _series_step(lambda a: list(map(F.mul, a, values)),
                        lambda a: list(map(F.reduce, itertools.accumulate(a))))


def _word_series(pair, words, values, n, zero, one, F=None, pascal=None):
    """Series of every word at orders 0..n, one list of coefficients each.

    values[j] stands for sigma^j(b) under an automorphism and for
    delta^j(b) under a derivation, in a coefficient ring with the given
    zero and one: integers, or values in the ring F (Z/q and
    F_p[y]/(f) at a point, F_p[y]/(y^k) for a proof, the sparse
    polynomials of field._SparseRing for the exact x^{-1} rows and the
    proofs in several variables), whose operations reduce every
    coefficient.  A derivation's step reads its signed
    binomials from pascal when given (_xinv_step).
    """
    if pair.is_pure_automorphism():
        step = _sigma_step(values, F)
    else:
        step = _xinv_step(values, n, zero, F, pascal)
    return _prefix_shared(words, [one] + [zero] * n, step)


def _xinv_ring(ff, words, values):
    """The sparse ring (field._SparseRing) of the exact x^{-1} series of
    words on the polynomials values, e_j = delta^j(b).

    A coefficient of a word with r ones is an integer combination of
    products of r values, and each product the series step forms is a
    term of one, so its total degree is at most r max_j deg e_j: the
    most ones in a word bound r, and so the ring's width.
    """
    degree = ff.ring.degree
    return _SparseRing(ff.char, max(map(sum, words)) * max(
        degree(v.num) for v in values))


def _xinv_word_series(pair, words, exact, N):
    """Exact word series in K((x^{-1}; delta)) at orders 0..N, one
    {packed monomial: coefficient} dict per order, in the ring of
    _xinv_ring.

    b and the images of delta are polynomials, so every delta^j(b) is one,
    and so is every coefficient: the series run on _ExactValues.prefix(N)
    in that ring.  Over Q the values run as integers times their common
    denominator d, and the coefficients of a word with r ones are divided
    by d^r at the end.  N is held to ``config.MAX_DEN_DEGREE``, the
    fold's bound on the same degree.
    """
    if N > config.MAX_DEN_DEGREE:
        raise ResourceBoundExceeded(
            "series order %d exceeds the denominator bound %d"
            % (N, config.MAX_DEN_DEGREE))
    ff = pair.ff
    values = exact.prefix(N)
    F = _xinv_ring(ff, words, values)
    d, polys = F.integral([ff.ring.terms(v.num, v.den) for v in values])
    series = _word_series(pair, words, polys, N, F.zero, F.one, F)
    if d == 1:
        return series
    return [[{k: Fraction(c, d ** sum(w)) for k, c in x.items()} for x in s]
            for w, s in zip(words, series)]


# q = 2^61 - 1 is prime.  No proof rests on its size, since a failed lift
# adds a point or falls back to an exact route; the size makes that rare,
# as rational reconstruction recovers every n/d with |n| d below about
# 10^9, and a random residue passes its quotient margin with probability
# about 6 * 10^-6 (intpoly._RECONSTRUCT_MARGIN)
_EVAL_PRIME = (1 << 61) - 1
# orbit starts tried in this order, fixed residues in [10^6, 10^17) drawn
# once at random, so that no small pole or fixed point of a map meets
# them; a multivariate point takes consecutive entries, cyclically
_EVAL_STARTS = (
    47480984580189208, 9190202576432850, 65908557494553312,
    88984348155850552, 36908794040235870, 73215390690805454,
    7075979763761372, 18202126366933451, 92271814228128582,
    10950242936855078, 32022090439176414, 30564773206849362)


# a field that the series are evaluated in, on ints with 0 and + for sums
# (Z/p here; intpoly._Packed has the same operations): scalar(c) is the
# value of a coefficient c of the function field or None, inv(0) is None,
# power(v, n) is v^n for n >= 1, and reduce(c) and neg(c) the normal forms
# of c and -c for a sum c of up to config.MAX_DEN_DEGREE + 1 values
_Field = collections.namedtuple("_Field", "p scalar mul inv power reduce neg")


def _residues(q):
    """Z/q for the prime q, on ints in [0, q); a coefficient has no value
    when q divides its denominator."""
    def scalar(c):
        if c.denominator % q == 0:
            return None
        return c.numerator * pow(c.denominator, -1, q) % q
    return _Field(q, scalar, lambda a, b: a * b % q,
                  lambda a: pow(a, -1, q) if a else None,
                  lambda a, n: pow(a, n, q), lambda c: c % q,
                  lambda c: -c % q)


def _inverses(xs, F):
    """[x^{-1} for x in xs] in the field F, or None when one x is 0: one
    inversion of their product and three products each (Montgomery)."""
    prefix = list(itertools.accumulate(xs, F.mul))
    inv = F.inv(prefix[-1])
    if inv is None:
        return None
    out = [inv] * len(xs)
    for i in range(len(xs) - 1, 0, -1):  # out[i] is 1 / prefix[i]
        out[i - 1], out[i] = F.mul(out[i], xs[i]), F.mul(out[i], prefix[i - 1])
    return out


def _evaluate(g, points, F):
    """[g(P) for P in points] in the field F for g in the function field,
    or None where a coefficient of g has no value in F or the denominator
    of g vanishes at a point, whose values are inverted together
    (_inverses).  Over Q(t) the coefficients are num's and den's ints."""
    ring = g.ff.ring

    def poly(h):
        terms = [(F.scalar(c), e) for e, c in ring.terms(h).items()]
        if any(c is None for c, _ in terms):
            return None
        out = []
        for P in points:
            acc = 0
            for term, e in terms:
                for v, n in zip(P, e):
                    if n:
                        term = F.mul(term, F.power(v, n))
                acc = F.reduce(acc + term)
            out.append(acc)
        return out
    nums = poly(g.num)
    if nums is None or g.den == ring.one:
        return nums
    dens = poly(g.den)
    invs = None if dens is None else _inverses(dens, F)
    if invs is None or g.num == ring.one:
        return invs
    return list(map(F.mul, nums, invs))


def _orbit_values(images, b, point, N, F, step=None):
    """b(s^i(P)) for i = 0..N in the field F, s the point map of sigma.

    step(P) is s(P), or None at a pole of s; without it each generator
    image is evaluated at P.  None comes back when b or a generator image
    meets a pole along the orbit, which is exactly when sigma^i(b)(P) =
    b(s^i(P)) could fail.  The orbit is stepped first, and b evaluated
    at all its points with one inversion (_evaluate).
    """
    if step is None:
        def step(P):
            P = [_evaluate(g, [P], F) for g in images]
            return None if None in P else tuple(v for v, in P)
    points = [point]
    for _ in range(N):
        points.append(step(points[-1]))
        if points[-1] is None:
            return None
    return _evaluate(b, points, F)


def _point_map(sigma, F):
    """The point map P -> (a P + b) / (c P + d) in the field F of sigma on
    k(t), read off its matrix, whose scale cancels: (s(P),), or None at a
    pole, where evaluating sigma(t) has one.  None in place of the map in
    several variables, or when a coefficient of sigma(t) has no value in
    F, which is when the leading coefficient of its integer denominator
    has no inverse there.  The matrix may then be singular in F (t -> t +
    1/q mod q), where stepping by it would not give sigma^m(b)(P), so the
    images are evaluated."""
    if sigma.ff.nvars > 1 or F.inv(F.scalar(sigma.images[0].den[-1])) is None:
        return None
    a, b, c, d = map(F.scalar, sigma._matrix())

    def step(P):
        inv = F.inv(F.reduce(F.mul(c, P[0]) + d))
        return None if inv is None else (
            F.mul(F.reduce(F.mul(a, P[0]) + b), inv),)
    return step


# F_p[y]/(f) for pure automorphisms over F_p, one per p and denominator
# bound: an intpoly._Packed, which holds f and the constants of its slots
_EXTENSION_CACHE = {}


def _modulus_candidates(p):
    """The candidates for the modulus f over F_p, in the order tried.
    Their degree is m, m + 1 or m + 2, for the least m >= L_max + 1 with
    p^m >= 2^61, where L_max is the largest L whose trie order fits
    ``config.MAX_DEN_DEGREE`` (8 by default).  At y of degree k no
    nonzero F_p-polynomial of degree below k vanishes, while one of
    degree k <= L may lie in the word span: at p = 2^61 - 1 and k = 2 the
    shift's 1/u ranks 13 of 14 at L = 3.  The floor keeps every L that
    evaluates clear of that, and leaves small p unchanged.

    Candidates go sparsest first: by their number of terms, then by the
    exponents of the lower terms, then by degree, then by coefficients.
    Over F_2 that gives y^63 + y + 1 at the sixth test, where the least
    degree, 61, has no irreducible trinomial.  A first round keeps to at
    most four terms with coefficients below 8, so that neither a shape
    with no irreducible member, as y^9 + c when p = 2 mod 3, runs through
    all of F_p^*, nor the 7^w coefficient tuples of every sparsity w <= m
    are tried first.  A second round takes all of F_p^*: it contains
    every monic f of degree m with f(0) != 0, among them irreducible
    ones, so the search always ends.  The coefficient tuples are counted
    in base top - 1: itertools.product would store range(1, top) first.
    """
    m = (config.MAX_DEN_DEGREE + 2).bit_length() - 1
    while p ** m < 1 << 61:
        m += 1
    for top, most in sorted({(min(p, 8), 3), (p, m)}):
        for w in range(1, most + 1):
            for lower in itertools.combinations(range(1, m + 2), w - 1):
                for d in range(max((m - 1,) + lower) + 1, m + 3):
                    for n in range((top - 1) ** w):
                        cs = [n // (top - 1) ** i % (top - 1) + 1
                              for i in reversed(range(w))]
                        f = [0] * d + [1]
                        for j, c in zip((0,) + lower, cs):
                            f[j] = c
                        yield f


def _extension(p):
    """F_p[y]/(f) on packed ints, f the first candidate that Rabin's test
    proves irreducible (_modulus_candidates), with slots that hold a
    prefix sum at any series order up to ``config.MAX_DEN_DEGREE``."""
    key = (p, config.MAX_DEN_DEGREE)
    if key not in _EXTENSION_CACHE:
        f = next(f for f in _modulus_candidates(p) if _rabin_irreducible(f, p))
        _EXTENSION_CACHE[key] = _Packed(f, p, config.MAX_DEN_DEGREE + 1)
    return _EXTENSION_CACHE[key]


def _jet_mod(f, c, n, q):
    """Taylor coefficients 0..n-1 of f(c + eps) mod q for f in Q(t).

    None when f is undefined at c mod q.  Substituting t = c + eps is a
    ring homomorphism that carries d/dt to d/d(eps).  With f = num / den
    on integer lists, the jet of f is that of num over that of den,
    defined when den(c) is a unit mod q.
    """
    num, den = (_poly_jet_mod(ints, c, n, q) for ints in (f.num, f.den))
    if not den[0]:
        return None
    inv = pow(den[0], -1, q)
    dens = [(i, d) for i, d in enumerate(den) if i and d]
    out = []
    for k in range(n):
        acc = num[k] - sum(d * out[k - i] for i, d in dens if i <= k)
        out.append(acc * inv % q)
    return out


def _derivative_values(f, b, c, n, q):
    """delta^j(b)(c) mod q for j < n, where delta = f d/dt, or None.

    On jets at c, delta acts as F d/d(eps) with F the jet of f, a product
    of lists (intpoly._conv); each application loses the top order, so n
    orders give n values exactly.
    """
    jet, fjet = _jet_mod(b, c, n, q), _jet_mod(f, c, n, q)
    if jet is None or fjet is None:
        return None
    fjet = _trim(fjet) or [0]
    vals = [jet[0]]
    while len(vals) < n:
        d = [k * jet[k] for k in range(1, len(jet))]
        jet = [x % q for x in _conv(fjet, d)[:len(d)]]
        vals.append(jet[0])
    return vals


def _evaluated_word_rows(pair, words, b, N):
    """Word series at orders 0..N, evaluated at points, one point at a time.

    Yields (rows, point) with one row per word for each usable point, in
    Z/q over Q (_residues) and in F_p[y]/(f) over F_p (_extension), whose
    rows and point are unpacked into coordinates.  Over Q the points
    come from _EVAL_STARTS, over F_p they are (y^j, ..., y^{j+n-1}) for
    j = 1, 2, ..., as many as there are starts.  The values are
    sigma^m(b)(P) = b(s^m(P)) along the orbit of P for pure
    automorphisms (_orbit_values) and delta^j(b)(P) mod q for
    derivations of Q(t) (_derivative_values); a point where one is
    undefined is skipped.
    """
    p, n = pair.ff.char, pair.ff.nvars
    F = _extension(p) if p else _residues(_EVAL_PRIME)
    auto = pair.is_pure_automorphism()
    step = _point_map(pair.sigma, F) if auto else None
    for j in range(len(_EVAL_STARTS)):
        if p:
            point = tuple(itertools.accumulate(
                itertools.repeat(F.pack([0, 1]), j + n), F.mul))[j:]
        else:
            point = tuple(_EVAL_STARTS[(j + i) % len(_EVAL_STARTS)]
                          for i in range(n))
        if auto:
            values = _orbit_values(pair.sigma.images, b, point, N, F, step)
        else:
            values = _derivative_values(pair.delta.images[0], b, point[0],
                                        N, _EVAL_PRIME)
        if values is None:
            continue
        if p:
            series = list(map(F.unpack, _word_series(pair, words, values, N,
                                                     0, 1, F)))
            point = tuple(F.unpack([v]) for v in point)
        else:
            series = _series_mod_q(pair, words, values, N, F)
        yield series, point


def _series_mod_q(pair, words, values, N, F):
    """_word_series mod q, but with the series of each word 1I formed as
    b(P) = values[0] times that of 0I, one product per order.

    W_{1I} = b W_{0I} with b on the far left, and evaluation at P is a
    ring homomorphism, so this is the series step's own result, at the
    cost of a scalar product in place of a convolution.  words must hold
    0I for each 1I, as words_up_to does.
    """
    heads = [w for w in words if not w or not w[0]]
    series = dict(zip(heads, _word_series(pair, heads, values, N, 0, 1, F)))
    bP, q = values[0], F.p
    return [series[w] if not w or not w[0]
            else [bP * c % q for c in series[(0,) + w[1:]]] for w in words]


def _obstruction_relations(null, words, p):
    """The exact relations of the obstructions, first word first, or None.

    null is the canonical basis of the evaluated relations (linalg module
    docstring), mod q = 2^61 - 1 over Q and mod p over F_p: each vector
    ends at its own dependent word.  An obstruction is a dependent word w
    whose prefix w[:-1] and suffix w[1:] are not dependent.  Its vector is
    lifted to Q by rational reconstruction, and over F_p it is exact
    already.  The first dependent word is always an obstruction, so the
    first relation is the lift of the first vector.  None when a lift
    fails.
    """
    ends = {words[max(i for i, c in enumerate(vec) if c)]: vec
            for vec in null}
    relations = []
    for w, vec in ends.items():
        if w[:-1] in ends or w[1:] in ends:
            continue
        if not p:
            lifted = []
            for x in vec:
                x = x and _rational_reconstruct(x, _EVAL_PRIME)
                if x is None:
                    return None
                lifted.append(x)
            vec = _normalize_int_vector(lifted)
        relations.append(vec)
    return relations


def _vanish_past(relations, block, lo, m):
    """True when every relation, ints over the rows of block, vanishes
    mod m on its columns from lo on: support times columns products."""
    for vec in relations:
        acc = [0] * (len(block[0]) - lo)
        for c, row in zip(vec, block):
            if c:
                acc = [a + c * x for a, x in zip(acc, row[lo:])]
        if any(a % m for a in acc):
            return False
    return True


def _proved_obstructions(pair, words, exact, echelon, block, lo):
    """The relations of the obstructions of echelon's nullspace, proved,
    or None: when a lift fails, when one is nonzero mod the echelon's
    prime on a column of block from lo on, which the elimination has not
    reached yet, or when a proof fails."""
    relations = _obstruction_relations(echelon.nullspace(), words,
                                       pair.ff.char)
    if relations is None or not _vanish_past(relations, block, lo,
                                             echelon.p):
        return None
    if all(_relation_holds(pair, words, exact, r) for r in relations):
        return relations
    return None


def _prefix_closure(support):
    """Every prefix of the given words, shortest first (as words_up_to)."""
    return sorted({w[:k] for w in support for k in range(len(w) + 1)},
                  key=lambda w: (len(w), w))


def _point_bound(pair, exact, e, r):
    """(values, Delta, B) for the proof of a relation.

    values are the exact v_j that the series of a relation read at
    orders 0..e (_ExactValues.prefix).  Delta is the lcm of their
    denominators, h = max(0, max_j(deg num v_j - deg den v_j)) and
    B = r (deg Delta + h).  Every order's coefficient of a word with at
    most r ones is an integer combination of products of as many values,
    so times Delta^r it is a polynomial of degree at most B.  exact is
    the witness's _ExactValues.
    """
    values = exact.prefix(e)
    delta = exact.lcm(len(values))
    degree = pair.ff.ring.degree
    h = max(0, max(degree(v.num) - degree(v.den) for v in values))
    return values, delta, r * (degree(delta) + h)


def _relation_holds(pair, words, exact, lam):
    """True when sum(lam[i] W_{words[i]}) = 0, decided exactly.

    C is the prefix closure of the support and e = |C| - 1: the relation
    holds iff its series over C vanishes at orders 0..e (module
    docstring).  The series run fraction-free.  Each value v_j is scaled
    by Delta, the lcm of their denominators, which scales the series of
    a word with r_w ones by Delta^{r_w}, and the weight Delta^{r - r_w}
    of its coefficient evens that out.  With B the degree bound of
    _point_bound, in several variables they are computed once in the
    sparse ring of degree bound B (field._SparseRing), over Q as
    integers: the values and Delta times one common denominator, which
    scales the whole sum by a nonzero constant.  Over F_p(t) they are
    computed once in F_p[y]/(y^(B+1)), which holds every scaled
    coefficient exactly: a product that reaches y^(B+1) raises
    (intpoly._Packed).  Over Q(t) the scaled coefficients
    are evaluated at the first B + 1 integers P >= 0 where Delta does not
    vanish, each point's values scaled by one integer in place of
    Delta(P); under a derivation the signed binomials of the series step
    are built once for all the points (_signed_pascal).
    exact is the witness's _ExactValues, which shares the values and
    their lcms with the other proofs of one certificate.
    """
    support = [(w, c) for w, c in zip(words, lam) if c]
    closure = _prefix_closure(w for w, _ in support)
    e = len(closure) - 1
    r = max(sum(w) for w, _ in support)

    def vanishes(vals, scale, zero=0, one=1, F=None, pascal=None):
        series = dict(zip(closure, _word_series(pair, closure, vals, e,
                                                zero, one, F, pascal)))
        mul = F.mul if F else operator.mul
        total = [zero] * (e + 1)
        for w, c in support:
            f = functools.reduce(mul, [scale] * (r - sum(w)),
                                 F.scalar(c) if F else c)
            total = [x + mul(f, y) for x, y in zip(total, series[w])]
        return not any(map(F.reduce, total) if F else total)

    ff = pair.ff
    if ff.char or ff.nvars > 1:
        # with no ones in the support the ring still holds each Delta v_j
        values, delta, B = _point_bound(pair, exact, e, max(r, 1))
        _, nums = _common_denominator(values, delta)
        if ff.nvars > 1:
            F = _SparseRing(ff.char, B)
            _, (delta, *nums) = F.integral(
                [ff.ring.terms(h) for h in [delta] + nums])
            return vanishes(nums, delta, F.zero, F.one, F)
        F = _Packed([0] * (B + 1) + [1], ff.char, e + 1)
        return vanishes(list(map(F.pack, nums)), F.pack(delta), F=F)
    values, _, B = _point_bound(pair, exact, e, r)
    pascal = None if pair.is_pure_automorphism() else _signed_pascal(e)

    def at(ints, P):
        return functools.reduce(lambda acc, c: acc * P + c, reversed(ints), 0)

    P, left = -1, B + 1
    while left:
        P += 1
        nums = [at(v.num, P) for v in values]
        dens = [at(v.den, P) for v in values]
        if not all(dens):
            continue
        s = math.lcm(*dens)
        if not vanishes([n * (s // d) for n, d in zip(nums, dens)], s,
                        pascal=pascal):
            return False
        left -= 1
    return True


def _first_point_multiples(words, block, b, point):
    """{index of 1I: (index of 0I, b(P))} for the rows of a first block mod
    q that are b(P) times the row of 0I, as W_{1I} = b W_{0I} makes each,
    checked entry by entry (_Echelon.add_multiples)."""
    q = _EVAL_PRIME
    bP, = _evaluate(b, [point], _residues(q))
    index = {w: i for i, w in enumerate(words)}
    out = {}
    for i, w in enumerate(words):
        j = index.get((0,) + w[1:]) if w and w[0] else None
        if j is not None and block[i] == [bP * c % q for c in block[j]]:
            out[i] = (j, bP)
    return out


def _certify_by_evaluation(pair, words, b, L):
    """Certificate from the evaluated series, or None to run an exact route.

    Points are added one at a time, each block of columns eliminated one
    panel at a time (_Echelon.panels).  Full rank mod q proves
    independence.  On a deficit the relations of the obstructions
    (_obstruction_relations) are lifted and proved by _relation_holds;
    their one-letter multiples pin the rank (module docstring), so the
    first proof that passes ends the loop.  They are tried at the end of
    each block and after each panel that raises no rank, where the block's
    columns still to come must first vanish on them; over Q, unless b is
    constant, nothing is lifted at the first point, whose elimination
    leaves out the rows that are b(P) times others (module docstring).
    A nullspace whose relations failed is not tried again, and a failed
    lift or proof adds the next point, until the rank has not risen over
    two more points.  The relation ending at the first dependent word is
    reported.
    """
    p = pair.ff.char
    echelon = _Echelon(len(words), p or _EVAL_PRIME)
    exact = _ExactValues(pair, b)
    rows, points, risen, tried = [[] for _ in words], [], 0, None
    for block, point in _evaluated_word_rows(pair, words, b,
                                             _truncation_order(L)):
        for row, part in zip(rows, block):
            row.extend(part)
        points.append(point)
        # W_{1I} = b W_{0I}, so over Q the first point's row of every 1I is
        # b(P) times that of 0I: b(P) W_0 = W_1 holds only for constant b
        lifts = p or len(points) > 1 or b.is_const()
        start = rank = echelon.rank
        ncols, relations = len(block[0]), None
        if not lifts:
            echelon.add_multiples(block, _first_point_multiples(
                words, block, b, point))
        else:
            # after a panel that raises no rank and at the block's end, the
            # rank so far is a lower bound that proved obstructions pin; at
            # full rank the nullspace, and so the list of relations, is empty
            for end in itertools.chain(echelon.panels(block), [ncols]):
                if echelon.rank != tried and (echelon.rank == rank
                                              or end == ncols):
                    tried = echelon.rank
                    relations = _proved_obstructions(pair, words, exact,
                                                     echelon, block, end)
                    if relations is not None:
                        break
                rank = echelon.rank
            if relations is not None:
                break
        if echelon.rank > start:
            risen = len(points)
        if len(points) - risen == 2:
            return None
    else:
        return None
    if p:
        header = "p:%d;f:%s;points:%s" % (p, _extension(p).f, points)
    elif pair.is_pure_automorphism():
        header = "q:%d;points:%s" % (_EVAL_PRIME, points)
    else:
        header = "q:%d;x^-1;points:%s" % (_EVAL_PRIME, points)
    return _certificate(b, L, words, rows, header, echelon.rank,
                        relations[0] if relations else None)


def freeness_certify(pair, b, L):
    """Certificate for all words of length <= L (count 2^{L+1} - 1).

    Independent means exactly that the bounded set carries no nontrivial
    k-relation; Dependent refutes freeness outright and carries the
    relation ending at the first word in the span of the words before
    it, the same on every route, proved exactly.  The route is fixed by
    the input, first match wins (module docstring):

    * with the trie order N = 2^{L+1} - 2 at most
      ``config.MAX_DEN_DEGREE`` (L <= 8 by default), pure automorphisms
      take the evaluated K[[x; sigma]] series, mod q = 2^61 - 1 over Q and
      at the first point of F_p[y]/(f) whose orbit meets no pole over
      F_p, and derivations of Q(t) the evaluated K((x^{-1}; delta))
      series mod q.  Points are added one at a time, each block
      eliminated one panel at a time, and the first proofs that pass, at
      the end of a block or after a panel that raises no rank, end the
      loop and the elimination; over Q that is never at the first point
      unless b is constant, as there the row of every word 1I is b(P)
      times that of 0I, and is formed so.  A Dependent result proves
      only the relations of its obstructions, the dependent words whose
      prefix and suffix of one letter fewer are not dependent, each by
      its series at orders 0..e, e + 1 the size of its support's prefix
      closure (_relation_holds, module docstring).  Every other
      dependent word gets a relation ending there as a multiple g_j R or
      R g_j of a shorter one, an index move that needs no arithmetic.
      These d relations end at distinct words, so they are independent
      over k, while the rank of the evaluated columns taken bounds the
      nullity by d: the rank is exact.  The
      digest covers the evaluated matrix and a header naming q and the
      points, with a mark of its own for the x^{-1} series, or p, f and
      the points.  No usable point, or a lift or check still failing
      once the rank has not risen over two more points, goes on to the
      next route;
    * pure derivations with a polynomial witness and polynomial images
      take the exact K((x^{-1}; delta)) series;
    * everything else goes through the common left denominator.

    The last two rank rows over k and verify the reported relation
    exactly.  The exact series are polynomials on packed monomials
    (field._SparseRing), split by monomial with no denominator pass, and
    built by the builder of the relation proof (_word_series); the
    relation is proved as on the evaluated routes,
    on the prefix closure of its support.  The fold flattens its
    numerators over its common denominator and proves the relation by
    summing the scaled numerators of its support over the support's
    common left denominator.  Raises
    ResourceBoundExceeded when the word count crosses
    ``config.MAX_WORDS``, or when the exact series' order N or the
    fold's denominator degree crosses ``config.MAX_DEN_DEGREE``.
    """
    if L < 1:
        raise UsageError("certificate needs L >= 1")
    b = _as_witness(pair, b)
    if 2 ** (L + 1) - 1 > config.MAX_WORDS:
        raise ResourceBoundExceeded(
            "%d words exceed the configured bound %d"
            % (2 ** (L + 1) - 1, config.MAX_WORDS))
    words = words_up_to(L)
    if _truncation_order(L) <= config.MAX_DEN_DEGREE and (
            pair.is_pure_automorphism() or (pair.ff.char == 0 and (
                pair.is_pure_derivation() and pair.ff.nvars == 1))):
        cert = _certify_by_evaluation(pair, words, b, L)
        if cert is not None:
            return cert
    base = pair.ff.base
    if (pair.is_pure_derivation() and b.is_poly()
            and all(img.is_poly() for img in pair.delta.images)):
        exact = _ExactValues(pair, b)
        rows = _split_by_monomial(_xinv_word_series(
            pair, words, exact, _truncation_order(L)), base.zero())
        rank, lam = _rank_and_relation(
            rows, base, lambda lam: _relation_holds(pair, words, exact, lam))
    else:
        rows, rank, lam = _fold_rank(_expand_words(pair, words, b))
    return _certificate(b, L, words, rows, "k:%d" % base.p, rank, lam)


def monomial_products_check(elems):
    """k-independence of the subset products led by the first element.

    The tested set is {a0} together with a0 * a_{i1} * ... * a_{i_m} over
    every nonempty increasing index sequence: 2^n products for n trailing
    factors, enumerated by bitmask so the order is fixed.
    """
    if len(elems) < 2:
        raise UsageError("need a lead element and at least one further factor")
    a0, rest = elems[0], list(elems[1:])
    prods = []
    for mask in range(1 << len(rest)):
        p = a0
        for j, a in enumerate(rest):
            if mask >> j & 1:
                p = p * a
        prods.append(p)
    rows = flatten_to_k([[p] for p in prods])
    rank, _ = rank_over_k(rows, a0.ff.base)
    return rank == len(prods)


def valuation_witness(sigma, place, window, candidates):
    """Candidate with minimal finite support length at the place, if any.

    A candidate qualifies when its support {n : v(sigma^n b) < 0} inside
    the +-window is nonempty and does not touch the window edge (so the
    length is known, not truncated).  Ties keep the earliest candidate.
    """
    best = None
    best_len = None
    for b in candidates:
        if b.is_zero():
            continue
        prof = length_profile(sigma, place, b, window)
        ell = prof.length
        if ell is None:
            continue
        if best_len is None or ell < best_len:
            best, best_len = b, ell
    return best


def weyl_pair_from_additive(pair, u, alpha):
    """Weyl pair from an additive eigenvector: sigma(u) - u = alpha.

    Returns (y, z, verified) with y = u / alpha (so sigma(y) = y + 1 when
    alpha is a constant of sigma), z = y x^{-1}, and verified the outcome
    of checking x z - z x = 1 by exact fraction arithmetic.
    """
    if not pair.is_pure_automorphism():
        raise RequiresPureAutomorphism(
            "Weyl pair from an additive eigenvector needs delta = 0")
    if alpha.is_zero():
        raise ZeroArgument("alpha must be nonzero")
    if pair.sigma.apply(u) - u != alpha:
        raise NotAdditiveEigen("sigma(u) - u != alpha for the supplied pair")
    y = u / alpha
    yf = OreFraction.from_ratfunc(pair, y)
    xf = OreFraction.from_poly(OrePoly.x(pair))
    z = yf * xf.inverse()
    outcome = weyl_check(z, xf)
    return yf, z, bool(outcome)

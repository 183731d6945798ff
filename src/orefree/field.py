"""Exact arithmetic in rational function fields K = k(y1, ..., yn).

The base field k is either Q (characteristic 0) or F_p for a prime p.
Scalars are represented as ``fractions.Fraction`` in characteristic 0 and
as plain ints in ``range(p)`` otherwise; :class:`BaseField` bundles the
arithmetic so polynomial code never branches on the characteristic.

Polynomials (:class:`MPoly`) are sparse dicts mapping exponent tuples to
nonzero scalars.  The monomial order used for leading terms and printing
is graded lexicographic: compare total degree first, then the exponent
tuple with the first generator most significant.

Field elements (:class:`RatFunc`) are quotients num/den of polynomials
with the denominator normalized monic (graded-lex leading coefficient 1).
Construction reduces by a gcd, so every fraction built with the default
``reduce=True`` is in lowest terms; callers that pass ``reduce=False``
keep equality exact because it falls back to cross multiplication.  No
floating point is used anywhere.

Univariate kernels (products, exact division, gcds, roots) work on the
dense int lists of :mod:`intpoly` with one common denominator
(:func:`_dense`, :func:`_from_dense`); their results go back into the same
term dicts, so the representation above is unchanged.  A fraction of k(t)
is cleared to two int lists over one scale by :func:`_cleared`, and a
list of fractions is brought over the lcm of their denominators by
:func:`_common_denominator`.  gcds use dense Euclid for univariate
polynomials over F_p, the heuristic gcd over Z (evaluation at one
integer, proved by division) over Q; in several variables one Kronecker
substitution onto those, proved by division, and where that cannot tell
a primitive PRS with recursion on contents.
"""

import heapq
import math
from fractions import Fraction

from . import config
from .errors import (
    BadCharacteristic,
    CharacteristicMismatch,
    DivisionByZero,
    ResourceBoundExceeded,
)
from .intpoly import (
    _compose, _conv, _is_prime, _long_div, _primitive_ints, _trim,
    _uni_gcd_p, _uni_gcd_q,
)

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _divisors(n):
    """Positive divisors of |n| in increasing order; empty for n = 0."""
    n = abs(n)
    small = [f for f in range(1, math.isqrt(n) + 1) if n % f == 0]
    return small + [n // f for f in reversed(small) if f * f != n]


class BaseField:
    """The prime field: Q when ``p == 0``, else F_p for prime p."""

    __slots__ = ("p",)

    def __init__(self, p=0):
        if p and not _is_prime(p):
            raise BadCharacteristic("modulus %r is not prime" % (p,))
        self.p = p

    @property
    def char(self):
        return self.p

    def zero(self):
        return 0 if self.p else Fraction(0)

    def one(self):
        return 1 if self.p else Fraction(1)

    def of_int(self, n):
        return n % self.p if self.p else Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero scalar")
        if self.p:
            return pow(a, self.p - 2, self.p)
        return 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return pow(a, n, self.p) if self.p else a ** n

    def is_zero(self, a):
        return not a

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else "F%d" % self.p


class FunctionField:
    """Context object for K = k(names): base field plus ordered generators."""

    __slots__ = ("base", "names")

    def __init__(self, char, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names: %r" % (names,))
        for nm in names:
            if not nm or nm[0].isdigit() or any(c not in _IDENT_OK for c in nm):
                raise ValueError("bad generator name %r" % (nm,))
        self.base = BaseField(char)
        self.names = names

    @property
    def char(self):
        return self.base.p

    @property
    def nvars(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError("unknown generator %r" % (name,)) from None

    # -- polynomial constructors -------------------------------------

    def poly_zero(self):
        return MPoly(self, {})

    def poly_one(self):
        return MPoly(self, {(0,) * self.nvars: self.base.one()})

    def poly_const(self, c):
        if isinstance(c, int):
            c = self.base.of_int(c)
        if not c:
            return MPoly(self, {})
        return MPoly(self, {(0,) * self.nvars: c})

    def poly_var(self, which):
        i = which if isinstance(which, int) else self.index(which)
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): self.base.one()})

    # -- field element constructors ----------------------------------

    def zero(self):
        return RatFunc(self.poly_zero(), self.poly_one(), reduce=False)

    def one(self):
        return RatFunc(self.poly_one(), self.poly_one(), reduce=False)

    def const(self, c):
        return RatFunc(self.poly_const(c), self.poly_one(), reduce=False)

    def from_int(self, n):
        return self.const(n)

    def var(self, which):
        return RatFunc(self.poly_var(which), self.poly_one(), reduce=False)

    def gens(self):
        return [self.var(i) for i in range(self.nvars)]

    def __eq__(self, other):
        return self is other or (isinstance(other, FunctionField)
                                 and self.base == other.base
                                 and self.names == other.names)

    def __hash__(self):
        return hash((self.base.p, self.names))

    def __repr__(self):
        return "%r(%s)" % (self.base, ",".join(self.names))


def _grlex_key(e):
    return (sum(e), e)


def _check_same_field(a, b):
    if a.ff != b.ff:
        raise CharacteristicMismatch(
            "operands live in different fields: %r vs %r" % (a.ff, b.ff))


class _RingElement:
    """``-`` from ``+``, unary ``-`` and ``_coerce``, which a subclass
    defines; ``_coerce`` returns None for an operand it does not take."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)


class _DivisionRingElement(_RingElement):
    """``/`` from ``*``, ``inverse`` and ``_coerce``, which a subclass
    defines."""

    __slots__ = ()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()


class MPoly(_RingElement):
    """Sparse multivariate polynomial over the prime field.

    ``terms`` maps exponent tuples (one slot per field generator) to
    nonzero scalars.  The zero polynomial has an empty dict.  Instances
    are treated as immutable; all operators return fresh objects.
    """

    __slots__ = ("ff", "terms")

    def __init__(self, ff, terms):
        self.ff = ff
        self.terms = terms

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        if not self.terms:
            return True
        if len(self.terms) > 1:
            return False
        (e, _), = self.terms.items()
        return not any(e)

    def const_value(self):
        """Scalar value, assuming :meth:`is_const`."""
        if not self.terms:
            return self.ff.base.zero()
        return next(iter(self.terms.values()))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def vars_used(self):
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def lc(self):
        return self.leading()[1]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ff.poly_const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ff == other.ff and self.terms == other.terms

    def __hash__(self):
        return hash((self.ff, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ff.poly_const(other)
        if isinstance(other, Fraction) and self.ff.char == 0:
            return self.ff.poly_const(other)
        if isinstance(other, MPoly):
            _check_same_field(self, other)
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        base = self.ff.base
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = base.add(out.get(e, 0), c) if e in out else c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(self.ff, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ff.base.neg
        return MPoly(self.ff, {e: neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return MPoly(self.ff, {})
        if len(a) > len(b):
            a, b = b, a
        ff = self.ff
        if ff.nvars == 1:
            # one integer convolution; univariate products dominate several
            # pipelines
            (ia, sa), (ib, sb) = _dense(a, ff.char), _dense(b, ff.char)
            return _from_dense(ff, _conv(ia, ib), sa * sb)
        p = ff.base.p
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(int.__add__, e1, e2))
                c = c1 * c2
                if e in out:
                    c = out[e] + c
                if p:
                    c %= p
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
        return MPoly(ff, out)

    __rmul__ = __mul__

    def scalar_mul(self, c):
        if not c:
            return MPoly(self.ff, {})
        mul = self.ff.base.mul
        return MPoly(self.ff, {e: mul(v, c) for e, v in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers need n >= 0")
        result = self.ff.poly_one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divide_exact(self, g):
        """Quotient self/g when g divides exactly, else None."""
        if g.is_zero():
            raise DivisionByZero("polynomial division by zero")
        _check_same_field(self, g)
        if self.is_zero():
            return self.ff.poly_zero()
        if g.is_const():
            return self.scalar_mul(self.ff.base.inv(g.const_value()))
        if self.ff.nvars == 1:
            # the dividend is scaled by s = lc^(n-m+1) over Q: s * self =
            # quo * g exactly when the integer remainder is zero
            p = self.ff.char
            (r, sr), (d, sd) = _dense(self.terms, p), _dense(g.terms, p)
            quo, rem = _long_div(r, d, p)
            if rem:
                return None
            s = 1 if p else d[-1] ** len(quo)
            return _from_dense(self.ff, [c * sd for c in quo], sr * s)
        # the remainder's exponents in a heap, by negated grlex key
        base = self.ff.base
        ge, gc = g.leading()
        gcinv = base.inv(gc)
        rem = dict(self.terms)
        heap = [(-sum(e), tuple(-k for k in e)) for e in rem]
        heapq.heapify(heap)
        quo = {}
        while heap:
            re = tuple(-k for k in heapq.heappop(heap)[1])
            if re not in rem:
                continue
            qe = tuple(map(int.__sub__, re, ge))
            if any(k < 0 for k in qe):
                return None
            qc = base.mul(rem[re], gcinv)
            quo[qe] = qc
            # rem -= (qc * x^qe) * g
            for e, c in g.terms.items():
                te = tuple(map(int.__add__, qe, e))
                if te not in rem:
                    heapq.heappush(heap, (-sum(te), tuple(-k for k in te)))
                s = base.sub(rem.get(te, 0), base.mul(qc, c))
                if s:
                    rem[te] = s
                else:
                    rem.pop(te, None)
        return MPoly(self.ff, quo)

    def monic(self):
        if not self.terms:
            return self
        c = self.lc()
        if c == self.ff.base.one():
            return self
        return self.scalar_mul(self.ff.base.inv(c))

    def partial(self, i):
        """Formal partial derivative with respect to generator i."""
        base = self.ff.base
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = list(e)
                e2[i] = k - 1
                c2 = base.mul(c, base.of_int(k))
                if c2:
                    out[tuple(e2)] = c2
        return MPoly(self.ff, out)

    # -- substitution ----------------------------------------------------

    def substitute_poly(self, images, dens=None, bound=None):
        """Image under y_i -> images[i] with polynomial values (stays MPoly);
        with ``dens``, the numerator of the image under y_i -> images[i] /
        dens[i] over prod dens[i]^bound[i], bound[i] >= the degree in y_i."""
        ff = self.ff
        if len(images) != ff.nvars:
            raise AssertionError("need one image per variable")
        if not images:
            return self
        tgt = images[0].ff
        if not self.terms:
            return tgt.poly_zero()
        _check_char(ff, tgt)
        maxes = [max(ks) for ks in zip(*self.terms)]
        pows = [_powers(g, m) for g, m in zip(images, maxes)]
        dpows = [_powers(d, m) for d, m in zip(dens or (), bound or ())]
        out = tgt.poly_zero()
        for e, c in self.terms.items():
            part = tgt.poly_const(c)
            for i, k in enumerate(e):
                if k:
                    part = part * pows[i][k]
                if dens and bound[i] - k:
                    part = part * dpows[i][bound[i] - k]
            out = out + part
        return out

    # -- printing ----------------------------------------------------------

    def _term_str(self, e, c):
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(self.ff.names[i])
            elif k:
                factors.append("%s^%d" % (self.ff.names[i], k))
        mono = "*".join(factors)
        if not mono:
            return str(c)
        one = self.ff.base.one()
        if c == one:
            return mono
        if self.ff.char == 0 and c == -one:
            return "-" + mono
        return "%s*%s" % (c, mono)

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms, key=_grlex_key, reverse=True)
        out = self._term_str(items[0], self.terms[items[0]])
        for e in items[1:]:
            s = self._term_str(e, self.terms[e])
            if s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
        return out

    def __repr__(self):
        return "MPoly(%s)" % self


def _powers(p, n):
    """[p^0, p^1, ..., p^n] with shared partial products."""
    out = [p.ff.poly_one()]
    for _ in range(n):
        out.append(out[-1] * p)
    return out


def _check_char(src, tgt):
    if src.char != tgt.char:
        raise CharacteristicMismatch(
            "cannot move scalar between characteristics %d and %d"
            % (src.char, tgt.char))


def _dense(terms, p, v=0):
    """(ints, scale) for a term dict univariate in y_v, constant first:
    y_v^k has coefficient ints[k] / scale, and scale is the lcm of the
    denominators over Q and 1 over F_p."""
    # the keys differ only in slot v, so the largest key has the degree
    ints = [0] * (max(terms)[v] + 1) if terms else []
    if p:
        for e, c in terms.items():
            ints[e[v]] = c
        return ints, 1
    scale = 1
    for c in terms.values():
        if c.denominator != 1:
            scale = math.lcm(scale, c.denominator)
    for e, c in terms.items():
        ints[e[v]] = c.numerator * (scale // c.denominator)
    return ints, scale


def _cleared(f):
    """(n, d) int lists with f = n / d over one scale, for f in k(t): the
    dense lists of num and den, mod p over F_p."""
    p = f.ff.char
    n, sn = _dense(f.num.terms, p)
    d, sd = _dense(f.den.terms, p)
    if sn != sd:
        n, d = [x * sd for x in n], [x * sn for x in d]
    return n, d


def _from_dense(ff, ints, scale=1, v=0):
    """The MPoly with ints[k] / scale at y_v^k; scale is 1 over F_p."""
    p, head, tail = ff.char, (0,) * v, (0,) * (ff.nvars - v - 1)
    if p:
        cs = ((k, c % p) for k, c in enumerate(ints))
    elif scale == 1:
        cs = ((k, Fraction(c)) for k, c in enumerate(ints) if c)
    else:
        cs = ((k, Fraction(c, scale)) for k, c in enumerate(ints) if c)
    return MPoly(ff, {head + (k,) + tail: c for k, c in cs if c})


# ---------------------------------------------------------------------------
# gcd machinery
# ---------------------------------------------------------------------------

def _rational_roots(poly, v):
    """All roots in the prime field of a univariate polynomial in y_v.

    Over Q the candidates are +-p/q with p dividing the lowest nonzero
    coefficient and q the leading one, after clearing denominators; roots
    come out in that candidate order, 0 first when it is one.
    """
    p = poly.ff.char
    ints, _ = _dense(poly.terms, p, v)
    if p:
        ones = [[1]] * len(ints)
        return [r for r in range(p)
                if not _compose(ints, [r], ones, len(ints) - 1, p)]
    ints, _ = _primitive_ints(ints)
    n, out = len(ints) - 1, []
    if ints[0] == 0:
        out.append(Fraction(0))
    lead, const = ints[-1], ints[0]
    if const == 0:
        const = next((x for x in ints if x), lead)
    for p in _divisors(const):
        for q in _divisors(lead):
            qpow = [[q ** k] for k in range(n + 1)]
            for s in (p, -p):
                # P(s/q) = 0 exactly when sum ints[k] s^k q^(n-k) = 0
                r = Fraction(s, q)
                if r not in out and not _compose(ints, [s], qpow, n, 0):
                    out.append(r)
    return out


def _mv_content(p, v):
    """gcd of the coefficients of p viewed as univariate in variable v."""
    cont = p.ff.poly_zero()
    for k in sorted({e[v] for e in p.terms}):
        cont = poly_gcd(cont, _coeff_in(p, v, k))
        if cont.is_const():
            break
    return cont


def _mv_prem(a, b, v):
    """Pseudo-remainder of a by b in the main variable v."""
    db = b.degree_in(v)
    lb = _coeff_in(b, v, db)
    r = a
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < db:
            break
        c = _coeff_in(r, v, dr)
        xm = r.ff.poly_var(v) ** (dr - db)
        r = lb * r - c * xm * b
    return r


def _coeff_in(p, v, k):
    """The coefficient of y_v^k in p, a polynomial free of y_v."""
    return MPoly(p.ff, {e[:v] + (0,) + e[v + 1:]: c
                        for e, c in p.terms.items() if e[v] == k})


# _kronecker_gcd leaves a gcd with longer univariate images to the PRS
_KRONECKER_GCD_MAX = 4096


def _kronecker_gcd(a, b, extra):
    """gcd(a, b) of nonzero a, b by one Kronecker substitution, or None.

    With the monomial content off (the gcd's is the smaller one), y_i ->
    z^(w_i), w_i the product of the B_j = extra + 1 + deg_j over j < i, is
    a ring map K, injective on the divisors of a, so K(g) | h = gcd(K(a),
    K(b)).  For h = z^v h0 and K(g) = z^j G0, z dividing neither h0 nor
    G0, G0 | h0 and j <= top, the least power of z in K(a) or K(b).  So a
    c = K^-1(z^i h0), i <= top, that divides a and b is g: it divides g,
    so z^i h0 | z^j G0, which forces h0 = G0, and then K(g / c) = z^(j-i)
    makes g / c a monomial, 1 as no y_i divides a.  A common factor of
    K(a) and K(b) outside K(g) leaves no c dividing.
    """
    ff, p = a.ff, a.ff.char
    lows = [[min(ks) for ks in zip(*f.terms)] for f in (a, b)]
    a, b = (MPoly(ff, {tuple(map(int.__sub__, e, low)): c
                       for e, c in f.terms.items()})
            for f, low in zip((a, b), lows))
    bounds = [max(ks) + 1 + extra for ks in zip(*a.terms, *b.terms)]
    if math.prod(bounds) > _KRONECKER_GCD_MAX:
        return None
    weights = [math.prod(bounds[:i]) for i in range(len(bounds))]
    ka, kb = [0] * math.prod(bounds), [0] * math.prod(bounds)
    for f, out in ((a, ka), (b, kb)):
        scale = 1 if p else math.lcm(*(c.denominator for c in f.terms.values()))
        for e, c in f.terms.items():
            out[sum(map(int.__mul__, e, weights))] = (
                c if p else c.numerator * (scale // c.denominator))
    top = min(next(i for i, c in enumerate(k) if c) for k in (ka, kb))
    h = _uni_gcd_p(ka, kb, p) if p else _uni_gcd_q(_trim(ka), _trim(kb))
    h = h[next(i for i, c in enumerate(h) if c):]
    for i in range(top, -1, -1):
        cand = MPoly(ff, {
            tuple(code // w % bd for w, bd in zip(weights, bounds)):
            c if p else Fraction(c) for code, c in enumerate(h, i) if c})
        if a.divide_exact(cand) is not None and \
                b.divide_exact(cand) is not None:
            mono = MPoly(ff, {tuple(map(min, *lows)): ff.base.one()})
            return (cand * mono).monic()
    return None


def poly_gcd(a, b):
    """Monic greatest common divisor of two polynomials; gcd(0, 0) is 0."""
    _check_same_field(a, b)
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_const() or b.is_const():
        return a.ff.poly_one()
    if len(a.terms) == 1 and len(b.terms) == 1:
        (ea,), (eb,) = a.terms, b.terms
        e = tuple(min(i, j) for i, j in zip(ea, eb))
        return MPoly(a.ff, {e: a.ff.base.one()})
    used = a.vars_used() | b.vars_used()
    ff, p = a.ff, a.ff.char
    if len(used) == 1:
        (v,) = used
        la, lb = _dense(a.terms, p, v)[0], _dense(b.terms, p, v)[0]
        if p:
            return _from_dense(ff, _uni_gcd_p(la, lb, p), 1, v)
        g = _uni_gcd_q(la, lb)
        return _from_dense(ff, g, g[-1], v)
    # one degree wider moves cyclotomic factors such as of t + s -> z + z^B
    for extra in (0, 1):
        g = _kronecker_gcd(a, b, extra)
        if g is not None:
            return g
    # primitive PRS on the first used variable
    v = min(used)
    ca = _mv_content(a, v)
    cb = _mv_content(b, v)
    c = poly_gcd(ca, cb)
    a = a.divide_exact(ca)
    b = b.divide_exact(cb)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero():
        r = _mv_prem(a, b, v)
        if not r.is_zero():
            r = r.divide_exact(_mv_content(r, v))
        a, b = b, r
    return (c * a).monic()


def _cancel(a, b):
    """a and b divided by their gcd."""
    g = poly_gcd(a, b)
    if g.is_const():
        return a, b
    return a.divide_exact(g), b.divide_exact(g)


def _denominator_lcm(fs, den=None):
    """The monic lcm of the denominators of a nonempty list of RatFuncs,
    and of den when given."""
    if den is None:
        den = fs[0].ff.poly_one()
    for f in fs:
        if not f.den.is_const():
            den = den * f.den.divide_exact(poly_gcd(den, f.den))
    return den


def _common_denominator(fs, den=None):
    """(den, nums) with f_i = nums[i] / den for a nonempty list of RatFuncs:
    den the monic lcm of their denominators, built here unless given."""
    if den is None:
        den = _denominator_lcm(fs)
    nums = []
    for f in fs:
        q = den.divide_exact(f.den)
        if q is None:
            raise AssertionError("denominator does not divide their lcm")
        nums.append(f.num * q)
    return den, nums


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class RatFunc(_DivisionRingElement):
    """Element of K = k(y1, ..., yn) as a normalized fraction num/den.

    Invariants after construction: den is nonzero and monic; num == 0
    implies den == 1; num and den are coprime unless the caller passed
    ``reduce=False`` for a pair it knows to be coprime.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, reduce=True):
        _check_same_field(num, den)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            den = num.ff.poly_one()
        elif reduce and not den.is_const():
            num, den = _cancel(num, den)
        if not num.is_zero():
            base = num.ff.base
            c = den.lc()
            if c != base.one():
                cinv = base.inv(c)
                num = num.scalar_mul(cinv)
                den = den.scalar_mul(cinv)
        nterms = len(num.terms) + len(den.terms)
        if nterms > config.MAX_FRACTION_TERMS:
            raise ResourceBoundExceeded(
                "fraction grew to %d terms (bound %d)"
                % (nterms, config.MAX_FRACTION_TERMS))
        self.num = num
        self.den = den

    @property
    def ff(self):
        return self.num.ff

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def is_const(self):
        return self.num.is_const() and self.den.is_const()

    def const_value(self):
        base = self.ff.base
        return base.div(self.num.const_value(), self.den.const_value())

    def is_poly(self):
        return self.den.is_const()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.terms == other.num.terms and self.den.terms == other.den.terms:
            return True
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if self.ff != other.ff:
                raise CharacteristicMismatch(
                    "operands live in different fields: %r vs %r"
                    % (self.ff, other.ff))
            return other
        if isinstance(other, int) or (
                isinstance(other, Fraction) and self.ff.char == 0):
            return self.ff.const(other)
        if isinstance(other, MPoly):
            _check_same_field(self.num, other)
            return RatFunc(other, self.ff.poly_one(), reduce=False)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if da.terms == db.terms:
            # common denominator: one cheap reduction pass on the sum
            return RatFunc(na + nb, da)
        g = poly_gcd(da, db)
        if g.is_const():
            return RatFunc(na * db + nb * da, da * db, reduce=False)
        da_r = da.divide_exact(g)
        db_r = db.divide_exact(g)
        t = na * db_r + nb * da_r
        g2 = poly_gcd(t, g)
        if g2.is_const():
            return RatFunc(t, da_r * db, reduce=False)
        return RatFunc(t.divide_exact(g2), da_r * db.divide_exact(g2),
                       reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if na.is_zero() or nb.is_zero():
            return self.ff.zero()
        # cross cancellation keeps products reduced without a final gcd
        na, db = _cancel(na, db)
        nb, da = _cancel(nb, da)
        return RatFunc(na * nb, da * db, reduce=False)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num, reduce=False)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ff.one()
        # refused before squaring: in one variable a power of degree n deg
        # is a dense list of n deg + 1 entries
        deg = n * max(self.num.total_degree(), self.den.total_degree())
        if deg > config.MAX_FRACTION_TERMS:
            raise ResourceBoundExceeded(
                "power of degree %d exceeds the fraction bound %d"
                % (deg, config.MAX_FRACTION_TERMS))
        if self.ff.nvars == 1:
            return RatFunc(self.num ** n, self.den ** n, reduce=False)
        # several variables multiply term by term, so squaring a dense power
        # costs the square of its term count; one factor at a time every
        # power passes the term check, and a blow-up is refused at the first
        # power past the bound
        out = self
        for _ in range(n - 1):
            out = RatFunc(out.num * self.num, out.den * self.den, reduce=False)
        return out

    def substitute(self, images):
        """Image under y_i -> images[i]; denominator must stay nonzero."""
        top = [max(ks) for ks in zip(*self.num.terms, *self.den.terms)]
        nums, dens = [g.num for g in images], [g.den for g in images]
        num, den = (f.substitute_poly(nums, dens, top)
                    for f in (self.num, self.den))
        if den.is_zero():
            raise DivisionByZero("substitution maps denominator to zero")
        return RatFunc(num, den)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if self.den.is_const() and self.den.const_value() == self.ff.base.one():
            return str(self.num)
        ns = str(self.num)
        if len(self.num.terms) > 1:
            ns = "(%s)" % ns
        ds = str(self.den)
        if not all(c in _IDENT_OK for c in ds):
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "RatFunc(%s)" % self

"""Exact arithmetic in rational function fields K = k(y1, ..., yn).

The base field k is either Q (characteristic 0) or F_p for a prime p.
Scalars are represented as ``fractions.Fraction`` in characteristic 0 and
as plain ints in ``range(p)`` otherwise; :class:`BaseField` bundles the
arithmetic so polynomial code never branches on the characteristic.

Polynomials (:class:`MPoly`) are sparse dicts mapping exponent tuples to
nonzero scalars.  The monomial order used for leading terms and printing
is graded lexicographic: compare total degree first, then the exponent
tuple with the first generator most significant.

Each field picks its numerator ring once (``FunctionField.ring``).  Over
k(t) it is :class:`_IntRing`, the dense int lists of :mod:`intpoly`,
constant first, mod p over F_p; in several variables it is
:class:`_MPolyRing`, MPolys.  A field element (:class:`RatFunc`) holds
num and den in that ring, in the ring's canonical form (``canon``), which
the Ore kernels of :mod:`orepoly` share: num and den coprime, over Q(t)
their integers together coprime with lc(den) > 0, otherwise den monic
(in graded-lex order in several variables).  A sum of fractions is
brought over one denominator by the ring's ``over_lcm``.  A fraction
prints its coefficients as c / lc(den), through the term printer of
MPoly, so it reads as num and den made monic.  MPoly stays the type of
one-variable polynomials given from outside (``poly_var``, a place's
polynomial); :func:`_dense` turns one into an int list and a scale.  No
floating point is used anywhere.

gcds use dense Euclid for univariate polynomials over F_p, the heuristic
gcd over Z (evaluation at one integer, proved by division) over Q; in
several variables one Kronecker substitution onto those, proved by
division, and where that cannot tell a primitive PRS with recursion on
contents.
"""

import heapq
import itertools
import math
import operator
from fractions import Fraction

from . import config
from .errors import (
    BadCharacteristic,
    CharacteristicMismatch,
    DivisionByZero,
    ResourceBoundExceeded,
)
from .intpoly import (
    _add, _compose, _exact_quo, _gcd_cofactors, _is_prime, _long_div, _mul,
    _power, _primitive_ints, _sub, _trim, _uni_gcd_p, _uni_gcd_q,
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

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else "F%d" % self.p


class FunctionField:
    """Context object for K = k(names): base field plus ordered generators,
    and the ring that holds numerators and denominators."""

    __slots__ = ("base", "names", "ring")

    def __init__(self, char, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names: %r" % (names,))
        for nm in names:
            if not nm or nm[0].isdigit() or any(c not in _IDENT_OK for c in nm):
                raise ValueError("bad generator name %r" % (nm,))
        self.base = BaseField(char)
        self.names = names
        self.ring = (_IntRing if len(names) == 1 else _MPolyRing)(self)

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

    def scalar(self, c):
        """c, an int or a Fraction, in the prime field, the one entry point
        of scalars: over F_p a Fraction n/d is n d^-1 mod p, and p dividing
        d raises DivisionByZero."""
        p = self.char
        if isinstance(c, Fraction) and p:
            if c.denominator % p == 0:
                raise DivisionByZero("%s has no value mod %d" % (c, p))
            c = c.numerator * pow(c.denominator, -1, p)
        elif not isinstance(c, (int, Fraction)):
            raise TypeError("scalar %r is neither an int nor a Fraction"
                            % (c,))
        return self.base.of_int(c) if isinstance(c, int) else c

    def poly_const(self, c):
        c = self.scalar(c)
        return MPoly(self, {(0,) * self.nvars: c} if c else {})

    def poly_var(self, which):
        i = which if isinstance(which, int) else self.index(which)
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): self.base.one()})

    # -- field element constructors ----------------------------------

    def zero(self):
        return RatFunc(self, self.ring.zero, self.ring.one, coprime=True)

    def one(self):
        return RatFunc(self, self.ring.one, self.ring.one, coprime=True)

    def const(self, c):
        """The constant c in the ring's form: [n] over [d] for n/d in k(t)."""
        if self.nvars > 1:
            return RatFunc(self, self.poly_const(c), self.ring.one, True)
        c = self.scalar(c)
        return RatFunc(self, [c.numerator] if c else [], [c.denominator],
                       True)

    def from_int(self, n):
        return self.const(n)

    def var(self, which):
        return RatFunc(self, *self.ring.of_poly(self.poly_var(which)),
                       coprime=True)

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

    def __str__(self):
        return _poly_str(self.ff, self.terms)

    def __repr__(self):
        return "MPoly(%s)" % self


def _term_str(ff, e, c):
    factors = []
    for i, k in enumerate(e):
        if k == 1:
            factors.append(ff.names[i])
        elif k:
            factors.append("%s^%d" % (ff.names[i], k))
    mono = "*".join(factors)
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if ff.char == 0 and c == -1:
        return "-" + mono
    return "%s*%s" % (c, mono)


def _poly_str(ff, terms):
    """The polynomial with the {exponent: coefficient} dict terms, leading
    term first; MPoly and RatFunc print through it."""
    if not terms:
        return "0"
    out = ""
    for e in sorted(terms, key=_grlex_key, reverse=True):
        s = _term_str(ff, e, terms[e])
        if not out:
            out = s
        elif s.startswith("-"):
            out += " - " + s[1:]
        else:
            out += " + " + s
    return out


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


def _from_dense(ff, ints, scale=1, v=0):
    """The MPoly with ints[k] / scale at y_v^k; scale is 1 over F_p.  A
    view of an int list kept for code that combines polynomials with
    Python operators."""
    p, head, tail = ff.char, (0,) * v, (0,) * (ff.nvars - v - 1)
    cs = ((k, c % p if p else Fraction(c, scale)) for k, c in enumerate(ints))
    return MPoly(ff, {head + (k,) + tail: c for k, c in cs if c})


# ---------------------------------------------------------------------------
# gcd machinery
# ---------------------------------------------------------------------------

def _rational_roots(ints, p):
    """All roots in the prime field k of the nonzero polynomial with the
    trimmed int list ints, mod p over F_p.

    Over Q the candidates are +-p/q with p dividing the lowest nonzero
    coefficient and q the leading one of the primitive list; roots come
    out in that candidate order, 0 first when it is one.
    """
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
        # monic over F_p, and over Q made monic by its lc
        g = _uni_gcd_p(la, lb, p) if p else _uni_gcd_q(la, lb)
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


def _check_terms(worst):
    if worst > config.MAX_FRACTION_TERMS:
        raise ResourceBoundExceeded("fraction grew to %d terms (bound %d)"
                                    % (worst, config.MAX_FRACTION_TERMS))


def _common_denominator(fs, den=None):
    """(den, nums) with f_i = nums[i] / den for a nonempty list of RatFuncs,
    in their field's ring: den the lcm of their denominators, and of den
    when given, in Z[t] over Q and monic otherwise."""
    ring = fs[0].ff.ring
    if den is None:
        den = ring.one
    nums = []
    for f in fs:
        lift, grow = ring.cofactors([den, f.den])
        if grow != ring.one:
            den = ring.times(den, grow)
            nums = [ring.times(n, grow) for n in nums]
        nums.append(ring.times(f.num, lift))
    return den, nums


# ---------------------------------------------------------------------------
# numerator rings
# ---------------------------------------------------------------------------

class _Ring:
    """What the two numerator rings share: sums of fractions over one
    denominator.  A ring also has zero, one, add, sub, neg, times (a
    product that returns the other factor when one is 1, so results are
    read, never mutated), cofactors (each polynomial over the gcd of
    all), canon, degree, divide_exact, of_poly and terms."""

    def over_lcm(self, d1, n1, d2, n2):
        """(den, nums) with nums[j] / den = n1[j] / d1 + n2[j] / d2, den the
        product of d1 and d2 over their gcd; not reduced."""
        add, times = self.add, self.times
        pairs = itertools.zip_longest(n1, n2, fillvalue=self.zero)
        if d1 == d2:
            return d1, [add(a, b) for a, b in pairs]
        f2, f1 = self.cofactors([d1, d2])
        return times(d1, f1), [add(times(a, f1), times(b, f2))
                               for a, b in pairs]


class _IntRing(_Ring):
    """Polynomials over k(t): the dense int lists of :mod:`intpoly`,
    constant first and trimmed, mod p over F_p."""

    zero, one = [], [1]

    def __init__(self, ff):
        self.p = ff.char

    def add(self, a, b):
        return _add(a, b, self.p)

    def sub(self, a, b):
        return _sub(a, b, self.p)

    def neg(self, a):
        p = self.p
        return [-x % p for x in a] if p else [-x for x in a]

    def times(self, a, b):
        if a == [1]:
            return b
        if b == [1]:
            return a
        return _mul(a, b, self.p)

    def power(self, a, n):
        """a^n for n >= 1, by repeated squaring."""
        return _power(a, n, lambda x, y: _mul(x, y, self.p))

    def cofactors(self, polys):
        """Each polynomial over the gcd of all, over Q with the gcd of
        their integer contents, so that a multiple of every input's
        denominator is not grown by a content it already has."""
        qs = _gcd_cofactors(polys, self.p)[1]
        c = 1 if self.p else math.gcd(*itertools.chain.from_iterable(qs))
        return qs if c == 1 else [[x // c for x in q] for q in qs]

    def canon(self, den, nums, coprime=False):
        """The canonical form of the fractions nums[j] / den: the
        coefficients of an Ore polynomial sum nums[j] / den x^j, or of a
        RatFunc with one entry.  gcd(den, nums...) = 1, and over Q the
        integers together are coprime with lc(den) > 0, over F_p den is
        monic.  nums is a fresh list, its trailing zeros popped;
        ``coprime`` skips the polynomial gcd when no factor of den can
        divide every numerator."""
        p = self.p
        _trim(nums)
        if not nums:
            return [1], []
        if not p:
            # coprime integers first: dividing by a primitive gcd keeps them
            # coprime and the sign of lc(den)
            c = math.gcd(*den, *itertools.chain.from_iterable(nums))
            if den[-1] < 0:
                c = -c
            if c != 1:
                den = [x // c for x in den]
                nums = [[x // c for x in n] for n in nums]
        if len(den) > 1 and not coprime:
            den, *nums = _gcd_cofactors([den] + nums, p)[1]
        if p and den[-1] != 1:
            inv = pow(den[-1], -1, p)
            den = [x * inv % p for x in den]
            nums = [[x * inv % p for x in n] for n in nums]
        if len(den) + max(map(len, nums)) > config.MAX_FRACTION_TERMS:
            _check_terms(len(den) - den.count(0)
                         + max(len(n) - n.count(0) for n in nums))
        return den, nums

    def degree(self, a):
        return len(a) - 1

    def divide_exact(self, a, d):
        """a / d when d divides a, else None; d primitive over Q."""
        if self.p:
            quo, rem = _long_div(a, d, self.p)
            return None if rem else quo
        return _exact_quo(d, a)

    def of_poly(self, f):
        """(num, den) with f = num / den, for an MPoly f of k(t)."""
        ints, scale = _dense(f.terms, self.p)
        return ints, [scale]

    def terms(self, a, den=one):
        """The {exponent: coefficient} dict of a / lc(den): the terms of a
        over a denominator made monic, as an MPoly would hold them."""
        lc = den[-1]
        if self.p or lc == 1:
            return {(k,): c for k, c in enumerate(a) if c}
        return {(k,): Fraction(c, lc) for k, c in enumerate(a) if c}


class _MPolyRing(_Ring):
    """Polynomials in several variables: MPolys.  Canonical fractions have
    a monic denominator."""

    add, sub, neg = operator.add, operator.sub, operator.neg

    def __init__(self, ff):
        self.ff, self.zero, self.one = ff, MPoly(ff, {}), ff.poly_one()

    def times(self, a, b):
        if a == self.one:
            return b
        if b == self.one:
            return a
        return a * b

    def cofactors(self, polys):
        g = self.zero
        for f in polys:
            if f:
                g = poly_gcd(g, f)
                if g.is_const():
                    return polys
        return [f.divide_exact(g) for f in polys]

    def canon(self, den, nums, coprime=False):
        """As over k(t), with the gcd of poly_gcd."""
        _trim(nums)
        if not nums:
            return self.one, []
        if not (coprime or den.is_const()):
            den, *nums = self.cofactors([den] + nums)
        c = den.lc()
        if c != 1:
            c = self.ff.base.inv(c)
            den, nums = den.scalar_mul(c), [n.scalar_mul(c) for n in nums]
        _check_terms(len(den.terms) + max(len(n.terms) for n in nums))
        return den, nums

    def degree(self, a):
        return a.total_degree()

    def divide_exact(self, a, d):
        return a.divide_exact(d)

    def of_poly(self, f):
        return f, self.one

    def terms(self, a, den=None):
        """The terms of a; denominators are monic here."""
        return a.terms


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

class RatFunc(_DivisionRingElement):
    """Element of K = k(y1, ..., yn) as num / den in the field's ring.

    Construction puts the pair in the ring's canonical form (``canon``),
    reduced by a gcd unless the caller passes ``coprime=True`` for a pair
    it knows to be coprime, so equal elements hold equal num and den.
    """

    __slots__ = ("ff", "num", "den")

    def __init__(self, ff, num, den, coprime=False):
        if not den:
            raise DivisionByZero("zero denominator")
        den, nums = ff.ring.canon(den, [num], coprime)
        self.ff, self.den = ff, den
        self.num = nums[0] if nums else ff.ring.zero

    # -- queries ---------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def is_const(self):
        degree = self.ff.ring.degree
        return degree(self.num) <= 0 and degree(self.den) == 0

    def is_poly(self):
        return self.ff.ring.degree(self.den) == 0

    def vars_used(self):
        """The indices of the generators that num or den holds."""
        if self.ff.nvars == 1:
            return set() if self.is_const() else {0}
        return self.num.vars_used() | self.den.vars_used()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        ff = self.ff
        if isinstance(other, RatFunc):
            if ff != other.ff:
                raise CharacteristicMismatch(
                    "operands live in different fields: %r vs %r"
                    % (ff, other.ff))
            return other
        if isinstance(other, int) or (
                isinstance(other, Fraction) and ff.char == 0):
            return ff.const(other)
        if isinstance(other, MPoly):
            _check_same_field(self, other)
            return RatFunc(ff, *ff.ring.of_poly(other), coprime=True)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den, (num,) = self.ff.ring.over_lcm(self.den, [self.num],
                                            other.den, [other.num])
        return RatFunc(self.ff, num, den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.ff, self.ff.ring.neg(self.num), self.den,
                       coprime=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.ff.ring
        na, da = self.num, self.den
        nb, db = other.num, other.den
        if not na or not nb:
            return self.ff.zero()
        # cross cancellation keeps products reduced without a final gcd
        na, db = ring.cofactors([na, db])
        nb, da = ring.cofactors([nb, da])
        return RatFunc(self.ff, ring.times(na, nb), ring.times(da, db),
                       coprime=True)

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.ff, self.den, self.num, coprime=True)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.ff.one()
        ring = self.ff.ring
        # refused before squaring: in one variable a power of degree n deg
        # is a dense list of n deg + 1 entries
        deg = n * max(ring.degree(self.num), ring.degree(self.den))
        if deg > config.MAX_FRACTION_TERMS:
            raise ResourceBoundExceeded(
                "power of degree %d exceeds the fraction bound %d"
                % (deg, config.MAX_FRACTION_TERMS))
        if self.ff.nvars == 1:
            return RatFunc(self.ff, ring.power(self.num, n),
                           ring.power(self.den, n), coprime=True)
        # several variables multiply term by term, so squaring a dense power
        # costs the square of its term count; one factor at a time every
        # power passes the term check, and a blow-up is refused at the first
        # power past the bound
        out = self
        for _ in range(n - 1):
            out = RatFunc(self.ff, out.num * self.num, out.den * self.den,
                          coprime=True)
        return out

    def substitute(self, images):
        """Image under y_i -> images[i], images in this field; the
        denominator must stay nonzero.  Over k(t), with images[0] = A / B,
        num and den go to their numerators over B^m, m their largest
        degree."""
        ff, num, den = self.ff, self.num, self.den
        if ff.nvars == 1:
            (g,) = images
            m = max(len(num), len(den)) - 1
            bpow = [[1]]
            for _ in range(m):
                bpow.append(_mul(bpow[-1], g.den, ff.char))
            num, den = (_compose(f, g.num, bpow, m, ff.char)
                        for f in (num, den))
        else:
            top = [max(ks) for ks in zip(*num.terms, *den.terms)]
            nums, dens = [g.num for g in images], [g.den for g in images]
            num, den = (f.substitute_poly(nums, dens, top)
                        for f in (num, den))
        if not den:
            raise DivisionByZero("substitution maps denominator to zero")
        return RatFunc(ff, num, den)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        ff, terms = self.ff, self.ff.ring.terms
        num = terms(self.num, self.den)
        ns = _poly_str(ff, num)
        if self.is_poly():
            return ns
        if len(num) > 1:
            ns = "(%s)" % ns
        ds = _poly_str(ff, terms(self.den, self.den))
        if not all(c in _IDENT_OK for c in ds):
            ds = "(%s)" % ds
        return "%s/%s" % (ns, ds)

    def __repr__(self):
        return "RatFunc(%s)" % self

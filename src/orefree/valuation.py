"""Discrete valuations on rational function fields.

Finite places correspond to monic irreducible univariate polynomials
(order of vanishing counted by exact division); the infinite place is
deg(den) - deg(num).  Both satisfy v(fg) = v(f) + v(g) and
v(f + g) >= min(v(f), v(g)).

:func:`length_profile` records where an element has poles along the
sigma-orbit of a place: the support {n : v(sigma^n(u)) < 0} inside a
symmetric window, and the spread max - min when both extremes are
strictly interior (a pole on the window edge means the profile may be
truncated, so no length is claimed).

Over k(t) it moves the place instead of u.  sigma^n(t) = phi is a
Moebius map, sigma^n(u) = u o phi, and

    v_P(u o phi) = v_Q(u),   Q the place at phi of the roots of P.

Proof.  Over the algebraic closure, v_P counts the order at any one root
z of P (P is irreducible, and separable over a prime field), and v_oo
the order at z = infinity.  phi is a local isomorphism at z: in the
parameters t - z (or 1/t at infinity) and s - phi(z) (or 1/s when phi(z)
is infinity), phi has a simple zero, as ad - bc != 0.  So the order of
u o phi at z is the order of u at phi(z).  phi is defined over k and
injective, so the images phi(z) of the conjugates z are conjugate again
and distinct: the roots of one irreducible Q of the same degree, the
numerator of P(sigma^-n(t)) up to a scalar.  With sigma^-n(t) =
(a t + b) / (c t + d) and c != 0, its t^deg P coefficient is
c^deg P P(a/c), so the degree drops only when P has the root a/c, the
point phi sends to infinity.  A root in k makes deg P = 1, the numerator
is then a constant, and Q is infinity.  Infinity goes to the place of
phi(infinity).
"""

from dataclasses import dataclass

from .errors import CharacteristicMismatch, UsageError, ZeroArgument
from .field import _dense, _rational_roots, poly_gcd
from .intpoly import _Packed, _compose, _long_div, _uni_gcd_p


def _univariate_var(poly):
    used = poly.vars_used()
    if len(used) != 1:
        raise UsageError(
            "finite places need a univariate polynomial, got %s" % poly)
    return next(iter(used))


# tried in order over Q, each reduction by Rabin's test
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _rabin_irreducible(f, p):
    """Rabin's test (SIAM J. Comput. 9, 1980) for the monic mod-p list f.

    f of degree n >= 2 is irreducible over F_p exactly when x^(p^n) = x
    mod f and gcd(x^(p^(n/r)) - x, f) = 1 for every prime r dividing n.
    The gcd is taken for every k <= n/2, each n/r among them: a
    reducible f has a factor of degree k <= n/2, which divides
    x^(p^k) - x, and an irreducible f none.  One gcd serves each batch
    k = 1, 2..3, 4..7, ..., n/2, on the product of its x^(p^k) - x mod f,
    which an irreducible factor divides only if it divides one factor.
    An f with f(0) = 0 has the factor y, and is refused first: for
    f = y^n the packed ring keeps no product that reaches y^n.
    """
    if not f[0]:
        return False
    n, E = len(f) - 1, _Packed(f, p)
    h = x = E.pack([0, 1])
    minus_x, batch = E.pack([0, p - 1]), 1
    for k in range(1, n + 1):
        h = E.power(h, p)
        if 2 * k <= n:
            batch = E.mul(batch, E.reduce(h + minus_x))
            if k & (k + 1) == 0 or 2 * k + 2 > n:
                if len(_uni_gcd_p(E.unpack([batch]), f, p)) > 1:
                    return False
                batch = 1
    return h == x


def _is_irreducible(poly, v):
    """Irreducibility of a squarefree univariate poly in y_v, proved.

    Over F_p by Rabin's test.  Over Q a factor of degree 1 is a rational
    root, which settles degrees 2 and 3.  From degree 4 on the primitive
    integer form F is reduced mod the primes p up to 47 not dividing
    lc(F): if F mod p is irreducible, so is F over Q, since by Gauss's
    lemma a factorization over Q is one over Z, and it survives mod p
    with its degrees.  UsageError is raised rather than a guess when no
    prime tried certifies: t^4 + 1 and t^4 - 10t^2 + 1 split mod every
    prime, and t^12 - 3 splits mod every prime up to 47.
    """
    deg, p = poly.degree_in(v), poly.ff.char
    if deg == 1:
        return True
    # poly is monic, so its cleared form over Q is primitive with lead > 0
    ints = _dense(poly.terms, p, v)[0]
    if p:
        return _rabin_irreducible(ints, p)
    if _rational_roots(ints, p):
        return False
    if deg <= 3:
        return True
    for p in _SMALL_PRIMES:
        if ints[-1] % p and _rabin_irreducible(
                [c * pow(ints[-1], -1, p) % p for c in ints], p):
            return True
    raise UsageError("cannot certify irreducibility of %s over Q: it "
                     "factors modulo every prime tried" % poly)


class Place:
    """A discrete valuation: finite (monic irreducible poly) or infinite.

    ``divisor`` is poly in the field's ring, which divides numerators and
    denominators."""

    __slots__ = ("ff", "poly", "var", "divisor")

    def __init__(self, ff, poly=None, var=None):
        self.ff = ff
        self.poly = poly          # None <=> infinite place
        self.var = var
        self.divisor = None if poly is None else ff.ring.of_poly(poly)[0]

    @classmethod
    def finite(cls, poly):
        """Place of a univariate polynomial proved irreducible, made monic."""
        if poly.is_zero() or poly.is_const():
            raise UsageError("a finite place needs a nonconstant polynomial")
        v = _univariate_var(poly)
        poly = poly.monic()
        deg = poly.degree_in(v)
        # a repeated factor is invisible to the root test beyond degree 3
        if deg >= 2 and not poly_gcd(poly, poly.partial(v)).is_const():
            raise UsageError("polynomial %s is not squarefree" % poly)
        if not _is_irreducible(poly, v):
            raise UsageError("polynomial %s is reducible" % poly)
        return cls(poly.ff, poly, v)

    @classmethod
    def infinity(cls, ff):
        return cls(ff, None, None)

    def _multiplicity(self, poly):
        m = 0
        while True:
            q = self.ff.ring.divide_exact(poly, self.divisor)
            if q is None:
                return m
            poly = q
            m += 1

    def valuation(self, f):
        """v(f) for nonzero f; raises ZeroArgument on zero."""
        if f.is_zero():
            raise ZeroArgument("valuation of zero is undefined")
        if self.poly is None:
            degree = f.ff.ring.degree
            return degree(f.den) - degree(f.num)
        return self._multiplicity(f.num) - self._multiplicity(f.den)

    def __str__(self):
        if self.poly is None:
            return "infinity"
        return str(self.poly)

    def __repr__(self):
        return "Place(%s)" % self

    def __eq__(self, other):
        if not isinstance(other, Place):
            return NotImplemented
        if self.ff != other.ff:
            return False
        if self.poly is None or other.poly is None:
            return self.poly is None and other.poly is None
        return self.poly == other.poly

    def __hash__(self):
        key = None
        if self.poly is not None:
            key = frozenset(self.poly.terms.items())
        return hash((self.ff, key))


@dataclass
class LengthProfile:
    """Pole pattern of an element along the sigma-orbit of a place."""

    support: list                 # sorted n with v(sigma^n(u)) < 0
    window: int
    truncated: bool               # a pole sits on the window edge

    @property
    def length(self):
        """max - min of the support, or None when absent/truncated."""
        if not self.support or self.truncated:
            return None
        return self.support[-1] - self.support[0]

    def to_json_dict(self):
        return {"support": list(self.support), "window": self.window,
                "truncated": self.truncated, "length": self.length}


def _moved_place(sigma, poly, n):
    """The place Q with v_P(sigma^n(u)) = v_Q(u) for every u in k(t).

    P and Q are int lists, None for infinity (module docstring): a finite
    P goes to the numerator of P(sigma^-n(t)), or to infinity when that
    is a constant, and infinity goes to the place of sigma^n(infinity).
    """
    if poly is None:
        a, bpow = sigma.moebius_table(n)
        b = bpow[1]
        if len(b) == 1:
            return None
        # sigma^n(infinity) = a_1 / b_1, the root of b_1 t - a_1
        return [-a[1] if len(a) > 1 else 0, b[1]]
    k = len(poly) - 1
    a, bpow = sigma.moebius_table(-n, k)
    q = _compose(poly, a, bpow, k, sigma.ff.char)
    return q if len(q) > 1 else None


def length_profile(sigma, place, u, window=16):
    """Support and length of {n : v(sigma^n(u)) < 0} for |n| <= window."""
    if u.is_zero():
        raise ZeroArgument("length profile of zero is undefined")
    if window < 1:
        raise UsageError("window must be >= 1")
    if u.ff != sigma.ff or place.ff != sigma.ff:
        raise CharacteristicMismatch(
            "sigma acts on %r, but u lies in %r and the place in %r"
            % (sigma.ff, u.ff, place.ff))
    if sigma.ff.nvars == 1:
        p, num, den = sigma.ff.char, u.num, u.den

        def pole(n):
            # u = N / D is reduced: v_Q(u) < 0 iff Q divides D, or
            # deg N > deg D at infinity.  Over Q _long_div pseudo-divides,
            # and its remainder is zero iff Q divides D.
            q = _moved_place(sigma, place.divisor, n)
            if q is None:
                return len(num) > len(den)
            return not _long_div(den, q, p)[1]
    else:
        # a Cremona map need not send a place to a place: compose u
        def pole(n):
            return place.valuation(sigma.apply(u, n)) < 0
    support = [n for n in range(-window, window + 1) if pole(n)]
    truncated = bool(support) and (support[0] == -window
                                   or support[-1] == window)
    return LengthProfile(support, window, truncated)

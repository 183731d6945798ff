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
"""

from dataclasses import dataclass

from .config import DEFAULT_LIMITS
from .errors import UsageError, ZeroArgument
from .field import _rational_roots, poly_gcd


def _univariate_var(poly):
    used = poly.vars_used()
    if len(used) != 1:
        raise UsageError(
            "finite places need a univariate polynomial, got %s" % poly)
    return next(iter(used))


def _is_irreducible(poly, v, limit):
    """Exact where feasible; degree > limit over Q falls back to a root test."""
    deg = poly.degree_in(v)
    if deg == 1:
        return True
    ff = poly.ff
    if ff.char:
        # trial division by all monic polynomials of degree <= deg//2
        p = ff.char
        half = deg // 2
        if p ** half > 200_000:
            raise UsageError(
                "cannot certify irreducibility of degree %d over F_%d"
                % (deg, p))
        y = ff.poly_var(v)
        for d in range(1, half + 1):
            for code in range(p ** d):
                cand = y ** d
                c = code
                for k in range(d):
                    cand = cand + ff.poly_const(c % p) * y ** k
                    c //= p
                if poly.divide_exact(cand) is not None:
                    return False
        return True
    if _rational_roots(poly, v):
        return False
    # degree 2 and 3 are settled by the root test; beyond the configured
    # bound we accept the declaration (documented probabilistic fallback)
    return True


class Place:
    """A discrete valuation: finite (monic irreducible poly) or infinite."""

    __slots__ = ("ff", "poly", "var")

    def __init__(self, ff, poly=None, var=None):
        self.ff = ff
        self.poly = poly          # None <=> infinite place
        self.var = var

    @classmethod
    def finite(cls, poly, limit=DEFAULT_LIMITS):
        if poly.is_zero() or poly.is_const():
            raise UsageError("a finite place needs a nonconstant polynomial")
        v = _univariate_var(poly)
        poly = poly.monic()
        deg = poly.degree_in(v)
        # a repeated factor is invisible to the root test beyond degree 3
        if deg >= 2 and not poly_gcd(poly, poly.partial(v)).is_const():
            raise UsageError("polynomial %s is not squarefree" % poly)
        if deg <= limit.irreducibility_exact_degree or poly.ff.char:
            ok = _is_irreducible(poly, v, limit)
        else:
            ok = not _rational_roots(poly, v)
        if not ok:
            raise UsageError("polynomial %s is reducible" % poly)
        return cls(poly.ff, poly, v)

    @classmethod
    def infinity(cls, ff):
        return cls(ff, None, None)

    def is_infinite(self):
        return self.poly is None

    def _multiplicity(self, poly):
        m = 0
        while True:
            q = poly.divide_exact(self.poly)
            if q is None:
                return m
            poly = q
            m += 1

    def valuation(self, f):
        """v(f) for nonzero f; raises ZeroArgument on zero."""
        if f.is_zero():
            raise ZeroArgument("valuation of zero is undefined")
        if self.poly is None:
            return f.den.total_degree() - f.num.total_degree()
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


def length_profile(sigma, place, u, window=16):
    """Support and length of {n : v(sigma^n(u)) < 0} for |n| <= window."""
    if u.is_zero():
        raise ZeroArgument("length profile of zero is undefined")
    if window < 1:
        raise UsageError("window must be >= 1")
    support = []
    for n in range(-window, window + 1):
        if place.valuation(sigma.apply(u, n)) < 0:
            support.append(n)
    truncated = bool(support) and (support[0] == -window
                                   or support[-1] == window)
    return LengthProfile(support, window, truncated)

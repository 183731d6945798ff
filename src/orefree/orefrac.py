"""Left fractions den^{-1} * num over K[x; sigma, delta].

Since sigma is an automorphism the Ore condition holds on the left, and
every element of the quotient division ring is a left fraction.  Addition
and multiplication rewrite denominators through least common left
multiples:

    s1^{-1} r1 + s2^{-1} r2 = m^{-1} (u r1 + v r2),  m = u s1 = v s2
    s1^{-1} r1 * s2^{-1} r2 = (u s1)^{-1} (v r2),    u r1 = v s2 = lclm

Fractions are kept lazy: common left factors are cancelled (via a greatest
common left divisor) only on request, because eager cancellation costs a
full Euclid per operation and correctness never depends on it -- equality
is decided by subtraction.  Denominators are always monic.

Printed forms therefore follow the products that built a fraction.  A
product by the literal 1 (denominator and numerator both 1) returns the
other fraction, which is the form the lclm would give it: lclm(1, s) = s
with cofactors s and 1.  D^{-1} D is not the literal 1, and its products
still take the lclm.
"""

from . import config
from .errors import (
    ContextMismatch, DivisionByZero, RequiresPureAutomorphism,
    ResourceBoundExceeded, UsageError,
)
from .field import RatFunc, _DivisionRingElement
from .orepoly import OrePoly, _check_power_degree, gcld, lclm, left_monic


class OreFraction(_DivisionRingElement):
    """den^{-1} * num with monic den; immutable."""

    __slots__ = ("den", "num")

    def __init__(self, den, num):
        if den.ctx is not num.ctx and den.ctx != num.ctx:
            raise ContextMismatch("denominator and numerator contexts differ")
        if den.is_zero():
            raise DivisionByZero("zero denominator in Ore fraction")
        if num.is_zero():
            den = OrePoly.one(den.ctx)
        elif not den.is_monic():
            den, num = left_monic(den, num)
        if den.degree > config.MAX_DEN_DEGREE:
            raise ResourceBoundExceeded(
                "fraction denominator reached degree %d (bound %d)"
                % (den.degree, config.MAX_DEN_DEGREE))
        self.den = den
        self.num = num

    @property
    def ctx(self):
        return self.den.ctx

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_poly(cls, p):
        return cls(OrePoly.one(p.ctx), p)

    @classmethod
    def from_ratfunc(cls, ctx, a):
        return cls(OrePoly.one(ctx), OrePoly.const(ctx, a))

    @classmethod
    def zero(cls, ctx):
        return cls(OrePoly.one(ctx), OrePoly.zero(ctx))

    @classmethod
    def one(cls, ctx):
        return cls(OrePoly.one(ctx), OrePoly.one(ctx))

    # -- queries ---------------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den and self.num == other.num:
            return True
        return (self - other).is_zero()

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, OreFraction):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch("fractions from different Ore contexts")
            return other
        if isinstance(other, OrePoly):
            return OreFraction.from_poly(other)
        if isinstance(other, (int, RatFunc)):
            return OreFraction.from_ratfunc(self.ctx, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return OreFraction(self.den, self.num + other.num)
        m, u, v = lclm(self.den, other.den)
        return OreFraction(m, u * self.num + v * other.num)

    __radd__ = __add__

    def __neg__(self):
        return OreFraction(self.den, -self.num)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return OreFraction.zero(self.ctx)
        # the literal 1 times y is y; D^{-1} D * y keeps the lclm's form
        if self.den.is_one() and self.num.is_one():
            return other
        if other.den.is_one():
            return OreFraction(self.den, self.num * other.num)
        # rewrite num * den'^{-1} as u^{-1} * v with u num = v den'
        m, u, v = lclm(self.num, other.den)
        return OreFraction(u * self.den, v * other.num)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero fraction")
        return OreFraction(self.num, self.den)

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        if self.den.is_one():
            return OreFraction.from_poly(self.num ** n)
        # fractions are kept unreduced, so their printed form follows the
        # products: one factor at a time, as it always was
        _check_power_degree(n, max(self.den.degree, self.num.degree))
        out = OreFraction.one(self.ctx)
        for _ in range(n):
            out = out * self
        return out

    def simplify(self):
        """Cancel the greatest common left divisor of den and num."""
        g = gcld(self.den, self.num)
        if g.degree < 1:
            return self
        qd, rd = self.den.left_quo_rem(g)
        qn, rn = self.num.left_quo_rem(g)
        if not (rd.is_zero() and rn.is_zero()):
            raise AssertionError("gcld does not divide on the left")
        return OreFraction(qd, qn)

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if self.num.is_zero():
            return "0"
        if self.den.is_one():
            return str(self.num)
        return "inv(%s) * (%s)" % (self.den, self.num)

    def __repr__(self):
        return "OreFraction(%s)" % self


class WeylOutcome:
    """Result of a commutator probe: which orientation equals 1, if any."""

    __slots__ = ("holds", "orientation")

    def __init__(self, holds, orientation):
        self.holds = holds
        self.orientation = orientation

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return "WeylOutcome(%r, %r)" % (self.holds, self.orientation)


def weyl_check(y, z):
    """Test the canonical commutation relation on a candidate pair.

    Returns WeylOutcome(True, "zy-yz") when z*y - y*z == 1, the mirrored
    tag when y*z - z*y == 1, and (False, None) otherwise.  An embedded
    Weyl algebra in characteristic 0 rules out polynomial identities.
    """
    d = z * y - y * z
    if d.is_one():
        return WeylOutcome(True, "zy-yz")
    if (-d).is_one():
        return WeylOutcome(True, "yz-zy")
    return WeylOutcome(False, None)


def central_power_check(pair, n):
    """True when x^n commutes with every declared generator of K.

    Verified by actual products x^n * a == a * x^n in the Ore ring, not by
    the fixed-power shortcut on sigma, so the two routes stay independent.
    Only meaningful for pure automorphism contexts.
    """
    if n < 1:
        raise UsageError("central power exponent must be >= 1")
    if not pair.is_pure_automorphism():
        raise RequiresPureAutomorphism(
            "central powers of x need delta = 0")
    xn = OrePoly.x_pow(pair, n)
    for i in range(pair.ff.nvars):
        a = OrePoly.const(pair, pair.ff.var(i))
        if xn * a != a * xn:
            return False
    return True

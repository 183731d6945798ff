"""Skew polynomials K[x; sigma, delta] with left coefficients.

Elements are tuples of RatFunc coefficients, index = power of x, and the
commutation rule is

    x * a = sigma(a) * x + delta(a),

extended to products by pushing x through one step at a time.  Because
sigma is an automorphism, degrees add under multiplication and both
one-sided division algorithms terminate: right division is ordinary
Euclid, left division twists the candidate coefficient by sigma^{-deg g}.

Greatest common right divisors come from the right Euclidean algorithm;
least common left multiples from its extended form (the cofactor rows of
the last zero remainder), with the degree law

    deg lclm(f, g) = deg f + deg g - deg gcrd(f, g)

asserted on every run.  A greatest common left divisor (via left-division
Euclid) supports cancellation inside left fractions.
"""

from .errors import ContextMismatch, DivisionByZero
from .field import RatFunc


def _same_ctx(a, b):
    if a.ctx != b.ctx:
        raise ContextMismatch("operands from different Ore contexts")


class OrePoly:
    """Element of K[x; sigma, delta]; immutable, trailing coefficient nonzero."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.ff.one(),))

    @classmethod
    def const(cls, ctx, a):
        if isinstance(a, int):
            a = ctx.ff.const(a)
        return cls(ctx, (a,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.ff.zero(), ctx.ff.one()))

    @classmethod
    def x_pow(cls, ctx, n):
        return cls(ctx, (ctx.ff.zero(),) * n + (ctx.ff.one(),))

    @classmethod
    def from_coeffs(cls, ctx, coeffs):
        out = []
        for c in coeffs:
            if isinstance(c, int):
                c = ctx.ff.const(c)
            out.append(c)
        return cls(ctx, out)

    # -- queries ----------------------------------------------------------

    @property
    def degree(self):
        """Degree in x; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise DivisionByZero("leading coefficient of zero")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.ff.zero()

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        _same_ctx(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OrePoly(self.ctx, out)

    def __neg__(self):
        return OrePoly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return self + (-other)

    def scale_left(self, a):
        """a * self for a scalar coefficient a (degree zero, no twisting)."""
        if a.is_zero():
            return OrePoly.zero(self.ctx)
        return OrePoly(self.ctx, [a * c for c in self.coeffs])

    def _x_step(self):
        """x * self, one application of the commutation rule."""
        ctx = self.ctx
        sigma, delta = ctx.sigma, ctx.delta
        zero = ctx.ff.zero()
        out = [zero] * (len(self.coeffs) + 1)
        dz = delta.is_zero()
        for j, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            out[j + 1] = out[j + 1] + sigma.apply(c)
            if not dz:
                out[j] = out[j] + delta.apply(c)
        return OrePoly(ctx, out)

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self * OrePoly.const(self.ctx, other)
        if not isinstance(other, OrePoly):
            return NotImplemented
        _same_ctx(self, other)
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(self.ctx)
        acc = OrePoly.zero(self.ctx)
        xk = other
        for i, a in enumerate(self.coeffs):
            if i:
                xk = xk._x_step()
            if not a.is_zero():
                acc = acc + xk.scale_left(a)
        return acc

    def __rmul__(self, other):
        # scalar * poly only; poly * poly goes through __mul__
        if isinstance(other, (int, RatFunc)):
            return OrePoly.const(self.ctx, other) * self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Ore powers need n >= 0")
        out = OrePoly.one(self.ctx)
        for _ in range(n):
            out = out * self
        return out

    def monic(self):
        if self.is_zero():
            return self
        c = self.lc()
        if c.is_one():
            return self
        return self.scale_left(c.inverse())

    # -- division ------------------------------------------------------------

    def right_quo_rem(self, g):
        """(q, r) with self = q*g + r and deg r < deg g."""
        _same_ctx(self, g)
        if g.is_zero():
            raise DivisionByZero("right division by zero")
        ctx = self.ctx
        dg = g.degree
        dr = self.degree
        if dr < dg:
            return OrePoly.zero(ctx), self
        # cache x^k * g for every k that can appear
        xg = [g]
        for _ in range(dr - dg):
            xg.append(xg[-1]._x_step())
        lg = g.lc()
        r = self
        q = [ctx.ff.zero()] * (dr - dg + 1)
        while not r.is_zero() and r.degree >= dg:
            m = r.degree - dg
            c = r.lc() / ctx.sigma.apply(lg, m)
            q[m] = q[m] + c
            r = r - xg[m].scale_left(c)
        return OrePoly(ctx, q), r

    def left_quo_rem(self, g):
        """(q, r) with self = g*q + r and deg r < deg g."""
        _same_ctx(self, g)
        if g.is_zero():
            raise DivisionByZero("left division by zero")
        ctx = self.ctx
        dg = g.degree
        dr = self.degree
        if dr < dg:
            return OrePoly.zero(ctx), self
        lg_inv = g.lc().inverse()
        r = self
        q = [ctx.ff.zero()] * (dr - dg + 1)
        while not r.is_zero() and r.degree >= dg:
            m = r.degree - dg
            # leading coefficient of g * (c x^m) is lc(g) * sigma^dg(c)
            c = ctx.sigma.apply(lg_inv * r.lc(), -dg)
            q[m] = q[m] + c
            mono = OrePoly(ctx, (ctx.ff.zero(),) * m + (c,))
            r = r - g * mono
        return OrePoly(ctx, q), r

    # -- printing -------------------------------------------------------------

    def _term_str(self, i, c):
        if i == 0:
            return str(c)
        xs = "X" if i == 1 else "X^%d" % i
        if c.is_one():
            return xs
        cs = str(c)
        if " " in cs or "/" in cs:
            cs = "(%s)" % cs
        return "%s*%s" % (cs, xs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            s = self._term_str(i, c)
            if parts and s.startswith("-"):
                parts.append(" - " + s[1:])
            elif parts:
                parts.append(" + " + s)
            else:
                parts.append(s)
        return "".join(parts)

    def __repr__(self):
        return "OrePoly(%s)" % self


def gcrd(f, g):
    """Monic greatest common right divisor; gcrd(0, 0) = 0."""
    _same_ctx(f, g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.right_quo_rem(b)[1]
    return a.monic()


def gcld(f, g):
    """Monic greatest common left divisor via left-division Euclid.

    Left divisibility survives multiplying the divisor by a unit on the
    right only, so normalization uses a * c with sigma^deg(c) = lc^{-1}
    (a left scaling would break a = divisor * quotient factorizations).
    """
    _same_ctx(f, g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, a.left_quo_rem(b)[1]
    if a.is_zero() or a.lc().is_one():
        return a
    c = a.ctx.sigma.apply(a.lc().inverse(), -a.degree)
    return a * OrePoly.const(a.ctx, c)


def lclm(f, g):
    """(m, u, v) with m = u*f = v*g monic of minimal degree.

    Extended right Euclid on (f, g); when the remainder reaches zero its
    cofactor row gives the left multipliers.  Requires f, g nonzero.
    """
    _same_ctx(f, g)
    if f.is_zero() or g.is_zero():
        raise DivisionByZero("lclm needs nonzero arguments")
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = OrePoly.one(ctx), OrePoly.zero(ctx)
    v0, v1 = OrePoly.zero(ctx), OrePoly.one(ctx)
    last_nonzero = r1
    while not r1.is_zero():
        q, r2 = r0.right_quo_rem(r1)
        u2 = u0 - q * u1
        v2 = v0 - q * v1
        last_nonzero = r1
        r0, r1 = r1, r2
        u0, u1 = u1, u2
        v0, v1 = v1, v2
    # r1 = u1*f + v1*g = 0, so u1*f = -(v1*g)
    m = u1 * f
    if m.is_zero():
        raise AssertionError("lclm: the cofactor row gave zero")
    c = m.lc().inverse()
    m = m.scale_left(c)
    u = u1.scale_left(c)
    v = (-v1).scale_left(c)
    if m.degree != f.degree + g.degree - last_nonzero.degree:
        raise AssertionError("lclm: degree law violated")
    if m != v * g:
        raise AssertionError("lclm: m != v * g")
    return m, u, v

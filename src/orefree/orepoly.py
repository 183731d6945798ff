"""Skew polynomials K[x; sigma, delta] with left coefficients.

An element is sum_j a_j x^j with a_j in K, and the commutation rule is

    x * a = sigma(a) * x + delta(a),

extended to products by pushing x through one step at a time.  Because
sigma is an automorphism, degrees add under multiplication and both
one-sided division algorithms terminate: right division is ordinary
Euclid, left division twists the candidate coefficient by sigma^{-deg g}.

Every element is fraction-free: one denominator D and numerators N_j with
a_j = N_j / D, polynomials in the field's ring (``FunctionField.ring``),
which also holds the num and den of a RatFunc: dense int lists of
:mod:`intpoly` over k(t) (mod p over F_p), an
:class:`~orefree.field.MPoly` in several variables.  The form is the
ring's canonical one (``canon``), which RatFunc also takes, so equality
compares the polynomials: gcd(D, N_0, ..., N_n) = 1, and over Q(t) the
integers of D and the N_j together are coprime with lc(D) > 0; otherwise
D is monic (in graded-lex order in several variables).  Each operation
reduces once at its end, by one gcd of D and all numerators; right
division is pseudo-division over one running denominator, where each
step first cancels the gcd of the two leading numerators it combines.
A coefficient enters by its own num and den, and ``coeffs``, ``coeff``
and ``lc`` build RatFuncs from N_j and D only when asked, with no
conversion either way.

The x-step needs no RatFunc either.  sigma^k(n / D) = sigma^k(n) /
sigma^k(D) is two numerators over one shared factor, which
``SkewEndo.numerators`` forms: over k(t) sigma^k(t) = A/B and H_m(n) =
sum n_k A^k B^(m-k), for m >= deg n, deg D, in several variables by
substitution.  A sigma-derivation is fixed by its images, so

    delta = c (sigma - id),          c = cn / cd,        sigma != id,
    delta = D / cd,   D = sum_i cn_i d/dy_i,             sigma = id,

with c as :mod:`skew` proves, cd the lcm of the delta(y_i)'s denominators
and cn_i = delta(y_i) cd, formed once by ``SkewDerivation``, whose
``derive`` is D on numerators as ``SkewEndo.numerators`` is sigma^k.
For a derivation the step takes g = gcd(den, D(den)), den = g f and
D(den) = g e first:

    x (n / den) = (n / den) x + (f D(n) - n e) / (cd den f),

over cd den f where the quotient rule gives cd den^2.  A
sigma-derivation takes g = gcd(den, sden) for sigma(n / den) = s / sden
alike, den = g f and sden = g e:

    x (n / den) = (s / sden) x + cn (s f - n e) / (cd sden f),

over cd sden f in place of cd sden den.  ``canon`` still reduces the
result once: g leaves the integers' content, the leading coefficient
and any factor of cd that every new numerator shares.

Greatest common right divisors come from the right Euclidean algorithm;
least common left multiples from its extended form (the cofactor of f
at the first zero remainder, the cofactor of g by right division), with
the degree law

    deg lclm(f, g) = deg f + deg g - deg gcrd(f, g)

checked on every run.  For monic f, lc(u f) = lc(u), so the cofactor
is made monic first and u f comes out monic and canonical.  A unit
argument c runs no Euclid: lclm(c, h) = monic(h), with cofactors
monic(h) c^{-1} and lc(h)^{-1}.  A greatest common left divisor (via
left-division Euclid) supports cancellation inside left fractions.
"""

from . import config
from .errors import ContextMismatch, DivisionByZero, ResourceBoundExceeded
from .field import RatFunc, _check_same_field
from .intpoly import _trim


def _same_ctx(a, b):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch("operands from different Ore contexts")


# ---------------------------------------------------------------------------
# the kernel: the x-step of a context
# ---------------------------------------------------------------------------

class _Kernel:
    """x^k * (sum N_j / D x^j) for one context, in the field's ring;
    ``coprime_sigma``: sigma keeps coprime numerators so.  delta's cn, cd
    and D on numerators are the context's ``SkewDerivation``'s."""

    def __init__(self, ctx):
        sigma, delta = ctx.sigma, ctx.delta
        self.ring = ctx.ff.ring
        self.sigma = sigma
        self.coprime_sigma = ctx.ff.nvars == 1 or sigma._is_poly
        self.kind = "comm"
        if not sigma.is_identity():
            self.kind = "aut"
        if not delta.is_zero():
            self.kind = "sd" if self.kind == "aut" else "der"
            self.cn, self.cd, self.derive = delta.cn, delta.cd, delta.derive

    def step(self, den, nums, k=1):
        """The canonical form of x^k * (sum nums[j] / den x^j), k >= 1:
        one substitution sigma^k without delta, k single steps with it."""
        zero = self.ring.zero
        if self.kind == "comm":
            return den, [zero] * k + nums
        if self.kind == "aut":
            sden, *hi = self.sigma.numerators([den] + nums, k)
            return self.ring.canon(sden, [zero] * k + hi,
                                   coprime=self.coprime_sigma)
        for _ in range(k):
            den, nums = self._delta_step(den, nums)
        return den, nums

    def _delta_step(self, den, nums):
        """The canonical form of x * (sum nums[j] / den x^j), delta != 0;
        delta's part adds the factor f = den / gcd(den, D(den)), or den
        over its gcd with sigma's denominator sden (module docstring)."""
        r = self.ring
        times, sub = r.times, r.sub
        if self.kind == "der":
            # x a = a x + delta(a): (den D(n) - n D(den)) / cd den^2 is
            # (f D(n) - n e) / cd den f for g = gcd(den, D(den)), den = g f
            # and D(den) = g e; canon stays for what g leaves (the integers'
            # content, the leading coefficient, factors of cd)
            f, e = r.cofactors([den, self.derive(den)])
            lo = [sub(times(f, self.derive(n)), times(n, e)) for n in nums]
            hi, hden, rest = nums, den, f
        else:
            sden, *hi = self.sigma.numerators([den] + nums, 1)
            # x a = sigma(a) x + c (sigma(a) - a) with sigma(a) = s / sden:
            # for g = gcd(den, sden), den = g f and sden = g e, the
            # difference s / sden - n / den is (s f - n e) / (sden f)
            f, e = r.cofactors([den, sden])
            lo = [times(self.cn, sub(times(s, f), times(n, e)))
                  for s, n in zip(hi, nums)]
            hden, rest = sden, f
        # hi's terms are over hden, lo's over cd hden rest
        scale = times(self.cd, rest)
        hi = [times(s, scale) for s in hi]
        den = times(hden, scale)
        zero = r.zero
        out = [r.add(a, b) for a, b in zip(lo + [zero], [zero] + hi)]
        return r.canon(den, out)


def _kernel(ctx):
    k = ctx._kernel
    if k is None:
        k = ctx._kernel = _Kernel(ctx)
    return k


def _check_power_degree(n, degree):
    """Refuse a power of x-degree n * degree past ``config.MAX_DEN_DEGREE``,
    before its first product."""
    if n * degree > config.MAX_DEN_DEGREE:
        raise ResourceBoundExceeded(
            "power of x-degree %d exceeds the degree bound %d"
            % (n * degree, config.MAX_DEN_DEGREE))


class OrePoly:
    """Element of K[x; sigma, delta]; immutable, trailing coefficient nonzero.

    ``_den`` and ``_nums`` hold the canonical fraction-free form, in the
    ring of the context's kernel, and ``_cs`` caches the coefficients once
    built.
    """

    __slots__ = ("ctx", "_cs", "_den", "_nums")

    def __init__(self, ctx, coeffs):
        ring = ctx.ff.ring
        den, nums = ring.one, []
        for j, c in enumerate(coeffs):
            _check_same_field(ctx, c)
            den, nums = ring.over_lcm(den, nums, c.den,
                                      [ring.zero] * j + [c.num])
        self.ctx, self._cs = ctx, None
        self._den, self._nums = ring.canon(den, nums)

    @classmethod
    def _make(cls, ctx, den, nums):
        """The element with the canonical form (den, nums)."""
        out = object.__new__(cls)
        out.ctx, out._cs, out._den, out._nums = ctx, None, den, nums
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls._make(ctx, ctx.ff.ring.one, [])

    @classmethod
    def one(cls, ctx):
        return cls.x_pow(ctx, 0)

    @classmethod
    def const(cls, ctx, a):
        return cls.from_coeffs(ctx, (a,))

    @classmethod
    def x(cls, ctx):
        return cls.x_pow(ctx, 1)

    @classmethod
    def x_pow(cls, ctx, n):
        ring = ctx.ff.ring
        return cls._make(ctx, ring.one, [ring.zero] * n + [ring.one])

    @classmethod
    def from_coeffs(cls, ctx, coeffs):
        return cls(ctx, [ctx.ff.const(c) if isinstance(c, int) else c
                         for c in coeffs])

    # -- queries ----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as reduced RatFuncs, index = power of x."""
        if self._cs is None:
            ff = self.ctx.ff
            self._cs = tuple(RatFunc(ff, n, self._den) for n in self._nums)
        return self._cs

    @property
    def degree(self):
        """Degree in x; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def is_zero(self):
        return not self._nums

    def lc(self):
        if self.is_zero():
            raise DivisionByZero("leading coefficient of zero")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return self.ctx.ff.zero()

    def is_one(self):
        return len(self._nums) == 1 and self._nums[0] == self._den

    def is_monic(self):
        """True when the leading coefficient is 1; False for zero."""
        return bool(self._nums) and self._nums[-1] == self._den

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        return self._den == other._den and self._nums == other._nums

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        _same_ctx(self, other)
        # a sum with 0 is the other operand, already canonical
        if not self._nums:
            return other
        if not other._nums:
            return self
        ring = self.ctx.ff.ring
        return OrePoly._make(self.ctx, *ring.canon(*ring.over_lcm(
            self._den, self._nums, other._den, other._nums)))

    def __neg__(self):
        neg = self.ctx.ff.ring.neg
        return OrePoly._make(self.ctx, self._den, [neg(n) for n in self._nums])

    def __sub__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return self + (-other)

    def scale_left(self, a):
        """a * self for a scalar coefficient a (degree zero, no twisting)."""
        if a.is_zero():
            return OrePoly.zero(self.ctx)
        _check_same_field(self.ctx, a)
        return self._scale(a.num, a.den)

    def _scale(self, an, ad):
        """(an / ad) * self for nonzero polynomials an, ad."""
        ring = self.ctx.ff.ring
        return OrePoly._make(self.ctx, *ring.canon(
            ring.times(ad, self._den),
            [ring.times(an, n) for n in self._nums]))

    def _x_step(self, k=1):
        """x^k * self, k >= 1, by the commutation rule."""
        if not self._nums:
            return self
        return OrePoly._make(self.ctx, *_kernel(self.ctx).step(
            self._den, self._nums, k))

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self * OrePoly.const(self.ctx, other)
        if not isinstance(other, OrePoly):
            return NotImplemented
        _same_ctx(self, other)
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(self.ctx)
        # a product by 1 is the other factor, already canonical
        if self.is_one():
            return other
        if other.is_one():
            return self
        # sum_i (N_i / D) x^i other over one denominator
        # x^i other is advanced from the last nonzero term's power
        ring = self.ctx.ff.ring
        times = ring.times
        den, nums = ring.one, []
        xk, i0 = other, 0
        for i, a in enumerate(self._nums):
            if a:
                if i > i0:
                    xk, i0 = xk._x_step(i - i0), i
                den, nums = ring.over_lcm(den, nums, xk._den,
                                       [times(a, n) for n in xk._nums])
        return OrePoly._make(self.ctx,
                             *ring.canon(times(den, self._den), nums))

    def __rmul__(self, other):
        # scalar * poly only; poly * poly goes through __mul__
        if isinstance(other, (int, RatFunc)):
            return OrePoly.const(self.ctx, other) * self
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Ore powers need n >= 0")
        if self.degree < 1:
            # the coefficient's own power, which bounds its degree
            return OrePoly.const(self.ctx, self.coeff(0) ** n)
        _check_power_degree(n, self.degree)
        out, base = OrePoly.one(self.ctx), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def monic(self):
        if self.is_zero():
            return self
        return left_monic(self)[0]

    # -- division ------------------------------------------------------------

    def right_quo_rem(self, g):
        """(q, r) with self = q*g + r and deg r < deg g.

        q and r share one denominator.  Removing the leading term of r by
        c x^m g with c = (rt / den) / (gt / gd), where rt / den and
        gt / gd are the leading coefficients of r and x^m g, multiplies q
        and r by gt' and adds rt' gd to q's numerator at x^m, where
        gt' and rt' are gt and rt over their gcd: the steps stay
        polynomial and the denominator grows by gt' alone.  A step that
        leaves a leading term raises; each result is reduced once at the
        end.
        """
        _same_ctx(self, g)
        if g.is_zero():
            raise DivisionByZero("right division by zero")
        ctx = self.ctx
        dg = g.degree
        if self.degree < dg:
            return OrePoly.zero(ctx), self
        # cache x^k * g for every k that can appear
        xg = [g]
        for _ in range(self.degree - dg):
            xg.append(xg[-1]._x_step())
        ring = ctx.ff.ring
        times, sub = ring.times, ring.sub
        den, rn = self._den, list(self._nums)
        qn = [ring.zero for _ in xg]
        while len(rn) > dg:
            m = len(rn) - 1 - dg
            gd, gn = xg[m]._den, xg[m]._nums
            gt, rt = ring.cofactors([gn[-1], rn[-1]])
            rn = [sub(times(gt, a), times(rt, b)) for a, b in zip(rn, gn)]
            if rn.pop():
                raise AssertionError("right division: a step left its "
                                     "leading term")
            _trim(rn)
            qn = [times(gt, a) for a in qn]
            qn[m] = ring.add(qn[m], times(rt, gd))
            den = times(den, gt)
        return (OrePoly._make(ctx, *ring.canon(den, qn)),
                OrePoly._make(ctx, *ring.canon(den, rn)))

    def left_quo_rem(self, g):
        """(q, r) with self = g*q + r and deg r < deg g.

        The leading coefficient of g c x^m is lc(g) sigma^dg(c), so the
        step that removes the leading term rt / den of r takes
        c = sigma^-dg((rt gd) / (den gt)), with gt / gd = lc(g): the
        images of the two products, reduced once.  q collects the terms
        c x^m over one denominator and is reduced at the end.
        """
        _same_ctx(self, g)
        if g.is_zero():
            raise DivisionByZero("left division by zero")
        ctx = self.ctx
        dg = g.degree
        if self.degree < dg:
            return OrePoly.zero(ctx), self
        ring = ctx.ff.ring
        gd, gt = g._den, g._nums[-1]
        r, qden, qn = self, ring.one, []
        while r.degree >= dg:
            m = r.degree - dg
            cn, cd = ctx.sigma.numerators([ring.times(r._nums[-1], gd),
                                           ring.times(r._den, gt)], -dg)
            mono = OrePoly._make(ctx, *ring.canon(cd, [ring.zero] * m + [cn]))
            qden, qn = ring.over_lcm(qden, qn, mono._den, mono._nums)
            r = r - g * mono
        return OrePoly._make(ctx, *ring.canon(qden, qn)), r

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
        for i in range(self.degree, -1, -1):
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


def left_monic(f, *others):
    """[c f, c g, ...] for c = lc(f)^{-1}, so that c f is monic."""
    if f.is_monic():
        return [f, *others]
    # lc(f) = N_n / D, so c f = (1 / N_n) sum N_j x^j
    ring = f.ctx.ff.ring
    an, ad = f._den, f._nums[-1]
    return [OrePoly._make(f.ctx, *ring.canon(ad, list(f._nums)))] + [
        h._scale(an, ad) if h else h for h in others]


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
    if a.is_zero() or a.is_monic():
        return a
    # lc(a) = N_n / D, so c = sigma^-deg(D / N_n)
    ring = a.ctx.ff.ring
    cn, cd = a.ctx.sigma.numerators([a._den, a._nums[-1]], -a.degree)
    return a * OrePoly._make(a.ctx, *ring.canon(cd, [cn]))


def lclm(f, g):
    """(m, u, v) with m = u*f = v*g monic of minimal degree.

    Extended right Euclid on (f, g), tracking only the cofactor of f: when
    the remainder reaches zero, its row u gives the multiple m = u*f,
    with u made monic first when f is monic, so that m needs no
    rescaling.  Then v is the right quotient of m by g, and its zero
    remainder proves m = v*g.  When the first division, of the longer
    argument (f on a tie) by the other, leaves no remainder, the longer
    one made monic is the lclm, and Euclid stops there; when exactly one
    argument is a unit, it runs no division at all.  Requires f, g
    nonzero.
    """
    _same_ctx(f, g)
    if f.is_zero() or g.is_zero():
        raise DivisionByZero("lclm needs nonzero arguments")
    ctx = f.ctx
    one, zero = OrePoly.one(ctx), OrePoly.zero(ctx)
    if (f.degree == 0) != (g.degree == 0):
        # a unit c and h: lclm(c, h) = monic(h) = lc(h)^{-1} h, and c's
        # cofactor is monic(h) c^{-1}
        c, h = (f, g) if f.degree == 0 else (g, f)
        m, s = left_monic(h, one)
        w = m * one._scale(c._den, c._nums[0])
        return (m, w, s) if c is f else (m, s, w)
    # for deg f < deg g Euclid's first step only swaps f and g
    swap = f.degree < g.degree
    r0, r1 = (g, f) if swap else (f, g)
    u0, u1 = (zero, one) if swap else (one, zero)
    q, r2 = r0.right_quo_rem(r1)
    if r2.is_zero():
        # r0 = q r1, and no common left multiple is shorter than r0
        m, u, v = left_monic(*((g, q, one) if swap else (f, one, q)))
        return m, u, v
    while True:
        last_nonzero = r1
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
        if r1.is_zero():
            break
        q, r2 = r0.right_quo_rem(r1)
    # r1 = u1*f + v1*g = 0 for the untracked row v1
    if u1.is_zero():
        raise AssertionError("lclm: the cofactor row gave zero")
    if f.is_monic():
        # lc(u f) = lc(u) for monic f, so u f is monic for monic u
        u = u1.monic()
        m = u * f
    else:
        m, u = left_monic(u1 * f, u1)
    if m.degree != f.degree + g.degree - last_nonzero.degree:
        raise AssertionError("lclm: degree law violated")
    v, r = m.right_quo_rem(g)
    if r:
        raise AssertionError("lclm: m != v * g")
    return m, u, v

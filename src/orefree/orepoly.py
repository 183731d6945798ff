"""Skew polynomials K[x; sigma, delta] with left coefficients.

An element is sum_j a_j x^j with a_j in K, and the commutation rule is

    x * a = sigma(a) * x + delta(a),

extended to products by pushing x through one step at a time.  Because
sigma is an automorphism, degrees add under multiplication and both
one-sided division algorithms terminate: right division is ordinary
Euclid, left division twists the candidate coefficient by sigma^{-deg g}.

The storage follows the number of generators of K.  In several variables
the coefficients are a tuple of reduced RatFuncs.  Over K = k(t) an
element is fraction-free: one denominator D and numerators N_j, all
dense int lists of :mod:`intpoly` (mod p over F_p), with a_j = N_j / D.
The stored form is canonical: gcd(D, N_0, ..., N_n) = 1, and over Q the
integers of D and the N_j together are coprime with lc(D) > 0, over F_p
D is monic.  It is unique, so equality compares lists.  Each operation
runs on the lists and reduces once at its end, with one gcd of D and
all numerators that also returns the reduced lists; right
division is pseudo-division, its quotient and remainder kept over one
running denominator, and left division twists each quotient coefficient
by the Moebius map sigma^-deg g on the lists.  ``coeffs``, ``coeff`` and
``lc`` build reduced RatFuncs only when asked.

The x-step over k(t) needs no RatFunc either.  sigma is a Moebius map,
sigma(t) = A/B, so for deg n, deg D <= m

    sigma(n / D) = H_m(n) / H_m(D),   H_m(n) = sum_k n_k A^k B^(m-k).

A sigma-derivation of k(t) is fixed by its value on t, so

    delta = c (sigma - id),   c = delta.inner,   sigma != id,
    delta = delta(t) d/dt,                       sigma = id,

with c = delta(t) / (sigma(t) - t) as :mod:`skew` proves.  Without
delta, x^k a = sigma^k(a) x^k is one Moebius map for any k.

Greatest common right divisors come from the right Euclidean algorithm;
least common left multiples from its extended form (the cofactor of f
at the first zero remainder, the cofactor of g by right division), with
the degree law

    deg lclm(f, g) = deg f + deg g - deg gcrd(f, g)

checked on every run.  A greatest common left divisor (via left-division
Euclid) supports cancellation inside left fractions.
"""

import itertools
import math

from . import config
from .errors import (
    CharacteristicMismatch, ContextMismatch, DivisionByZero,
    ResourceBoundExceeded,
)
from .field import RatFunc, _cleared, _from_dense
from .intpoly import (
    _add, _compose, _derivative, _gcd_cofactors, _mul, _sub, _trim,
)


def _same_ctx(a, b):
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise ContextMismatch("operands from different Ore contexts")


# ---------------------------------------------------------------------------
# the fraction-free form over k(t)
# ---------------------------------------------------------------------------

def _canon(den, nums, p, coprime=False):
    """The canonical form of sum nums[j] / den x^j.

    nums is a fresh list of trimmed lists; its trailing zeros are popped.
    ``coprime`` skips the polynomial gcd when no factor of den can divide
    every numerator.
    """
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
        nd = len(den) - den.count(0)
        worst = nd + max(len(n) - n.count(0) for n in nums)
        if worst > config.MAX_FRACTION_TERMS:
            raise ResourceBoundExceeded(
                "fraction grew to %d terms (bound %d)"
                % (worst, config.MAX_FRACTION_TERMS))
    return den, nums


def _times(a, b, p):
    """a * b as _mul gives it, with the product skipped when a factor is
    [1]: the other factor itself then comes back, so the result is only
    read, never mutated in place."""
    if a == [1]:
        return b
    if b == [1]:
        return a
    return _mul(a, b, p)


def _over_lcm(d1, n1, d2, n2, p):
    """(den, nums) with nums[j] / den = n1[j] / d1 + n2[j] / d2, den the
    product of d1 and d2 over their gcd; not reduced."""
    if d1 == d2:
        return d1, [_add(a, b, p) for a, b in
                    itertools.zip_longest(n1, n2, fillvalue=[])]
    f2, f1 = _gcd_cofactors([d1, d2], p)[1]
    return _times(d1, f1, p), [
        _add(_times(a, f1, p), _times(b, f2, p), p)
        for a, b in itertools.zip_longest(n1, n2, fillvalue=[])]


class _Kernel:
    """x^k * (sum N_j / D x^j) on int lists, for one context over k(t)."""

    __slots__ = ("p", "kind", "sigma", "cn", "cd")

    def __init__(self, ctx):
        ff, sigma, delta = ctx.ff, ctx.sigma, ctx.delta
        self.p = ff.char
        self.kind = "comm"
        if not sigma.is_identity():
            self.kind, self.sigma = "aut", sigma
        if not delta.is_zero():
            if self.kind == "aut":
                self.kind, c = "sd", delta.inner
            else:
                self.kind, c = "der", delta.images[0]
            self.cn, self.cd = _cleared(c)

    def _sigma(self, polys, m, k=1):
        """[H_m(n) for n in polys] for the Moebius map sigma^k (k != 0)."""
        a, bpow = self.sigma.moebius_table(k, m)
        return [_compose(n, a, bpow, m, self.p) for n in polys]

    def step(self, den, nums, k=1):
        """The canonical form of x^k * (sum nums[j] / den x^j), k >= 1:
        one Moebius map sigma^k without delta, k single steps with it."""
        p, kind = self.p, self.kind
        if kind == "comm":
            return den, [[]] * k + nums
        if kind == "aut":
            # sigma keeps coprime lists coprime: at a common root r of
            # every H_m(n), B(r) = 0 would leave lc(n) A(r)^m != 0 for an
            # n of degree m, and B(r) != 0 would make sigma^k(r) a common
            # root of den and the numerators
            m = max(len(den), max(map(len, nums))) - 1
            sden, *hi = self._sigma([den] + nums, m, k)
            return _canon(sden, [[]] * k + hi, p, coprime=True)
        for _ in range(k):
            den, nums = self._delta_step(den, nums)
        return den, nums

    def _delta_step(self, den, nums):
        """The canonical form of x * (sum nums[j] / den x^j), delta != 0."""
        p = self.p
        if self.kind == "der":
            # x a = a x + c a' with a = n / den and c = cn / cd
            dd = _derivative(den, p)
            lo = [_times(self.cn, _sub(_times(_derivative(n, p), den, p),
                                       _times(n, dd, p), p), p) for n in nums]
            cd_den = _times(self.cd, den, p)
            hi = [_times(n, cd_den, p) for n in nums]
            den = _times(_times(den, den, p), self.cd, p)
        else:
            m = max(len(den), max(map(len, nums))) - 1
            sden, *hi = self._sigma([den] + nums, m)
            # x a = sigma(a) x + c (sigma(a) - a) with sigma(a) = s / sden
            lo = [_times(self.cn,
                         _sub(_times(s, den, p), _times(n, sden, p), p), p)
                  for s, n in zip(hi, nums)]
            cd_den = _times(self.cd, den, p)
            hi = [_times(s, cd_den, p) for s in hi]
            den = _times(_times(sden, den, p), self.cd, p)
        out = [_add(a, b, p) for a, b in zip(lo + [[]], [[]] + hi)]
        return _canon(den, out, p)


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

    Over k(t), ``_den`` and ``_nums`` hold the canonical fraction-free form
    and ``_cs`` caches the coefficients once built; in several variables
    ``_cs`` holds them and ``_den`` is None.
    """

    __slots__ = ("ctx", "_cs", "_den", "_nums")

    def __init__(self, ctx, coeffs):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.ctx = ctx
        self._cs = tuple(coeffs)
        self._den = self._nums = None
        ff = ctx.ff
        if ff.nvars == 1:
            p = ff.char
            den, nums = [1], []
            for j, c in enumerate(self._cs):
                if c.ff is not ff and c.ff != ff:
                    raise CharacteristicMismatch(
                        "operands live in different fields: %r vs %r"
                        % (ff, c.ff))
                n, d = _cleared(c)
                den, nums = _over_lcm(den, nums, d, [[]] * j + [n], p)
            self._den, self._nums = _canon(den, nums, p)

    @classmethod
    def _make(cls, ctx, den, nums):
        """The element with the canonical form (den, nums)."""
        out = object.__new__(cls)
        out.ctx, out._cs, out._den, out._nums = ctx, None, den, nums
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        if ctx.ff.nvars == 1:
            return cls._make(ctx, [1], [])
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls.x_pow(ctx, 0)

    @classmethod
    def const(cls, ctx, a):
        if isinstance(a, int):
            a = ctx.ff.const(a)
        return cls(ctx, (a,))

    @classmethod
    def x(cls, ctx):
        return cls.x_pow(ctx, 1)

    @classmethod
    def x_pow(cls, ctx, n):
        if ctx.ff.nvars == 1:
            return cls._make(ctx, [1], [[]] * n + [[1]])
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
    def coeffs(self):
        """The coefficients as reduced RatFuncs, index = power of x."""
        if self._cs is None:
            ff = self.ctx.ff
            den = _from_dense(ff, self._den)
            self._cs = tuple(RatFunc(_from_dense(ff, n), den)
                             for n in self._nums)
        return self._cs

    @property
    def degree(self):
        """Degree in x; -1 for the zero polynomial."""
        if self._den is not None:
            return len(self._nums) - 1
        return len(self._cs) - 1

    def is_zero(self):
        return self.degree < 0

    def lc(self):
        if self.is_zero():
            raise DivisionByZero("leading coefficient of zero")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i <= self.degree:
            return self.coeffs[i]
        return self.ctx.ff.zero()

    def is_one(self):
        if self._den is not None:
            return len(self._nums) == 1 and self._nums[0] == self._den
        return len(self._cs) == 1 and self._cs[0].is_one()

    def is_monic(self):
        """True when the leading coefficient is 1; False for zero."""
        if self._den is not None:
            return bool(self._nums) and self._nums[-1] == self._den
        return bool(self._cs) and self._cs[-1].is_one()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            return False
        if self._den is not None:
            return self._den == other._den and self._nums == other._nums
        return self._cs == other._cs

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        _same_ctx(self, other)
        if self._den is not None:
            p = _kernel(self.ctx).p
            return OrePoly._make(self.ctx, *_canon(*_over_lcm(
                self._den, self._nums, other._den, other._nums, p), p))
        a, b = self._cs, other._cs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OrePoly(self.ctx, out)

    def __neg__(self):
        if self._den is not None:
            p = _kernel(self.ctx).p
            return OrePoly._make(self.ctx, self._den, [
                [-x % p for x in n] if p else [-x for x in n]
                for n in self._nums])
        return OrePoly(self.ctx, [-c for c in self._cs])

    def __sub__(self, other):
        if not isinstance(other, OrePoly):
            return NotImplemented
        return self + (-other)

    def scale_left(self, a):
        """a * self for a scalar coefficient a (degree zero, no twisting)."""
        if a.is_zero():
            return OrePoly.zero(self.ctx)
        if self._den is not None:
            ff = self.ctx.ff
            if a.ff is not ff and a.ff != ff:
                raise CharacteristicMismatch(
                    "operands live in different fields: %r vs %r"
                    % (ff, a.ff))
            return self._scale_ints(*_cleared(a))
        return OrePoly(self.ctx, [a * c for c in self._cs])

    def _scale_ints(self, an, ad):
        """(an / ad) * self for nonzero int lists an, ad."""
        p = _kernel(self.ctx).p
        return OrePoly._make(self.ctx, *_canon(
            _times(ad, self._den, p), [_times(an, n, p) for n in self._nums],
            p))

    def _x_step(self, k=1):
        """x^k * self, k >= 1, by the commutation rule."""
        ctx = self.ctx
        if self._den is not None:
            if not self._nums:
                return self
            return OrePoly._make(ctx, *_kernel(ctx).step(self._den,
                                                         self._nums, k))
        sigma, delta = ctx.sigma, ctx.delta
        zero = ctx.ff.zero()
        dz = delta.is_zero()
        cs = self._cs
        for _ in range(k):
            out = [zero] * (len(cs) + 1)
            for j, c in enumerate(cs):
                if c.is_zero():
                    continue
                out[j + 1] = out[j + 1] + sigma.apply(c)
                if not dz:
                    out[j] = out[j] + delta.apply(c)
            cs = out
        return OrePoly(ctx, cs)

    def __mul__(self, other):
        if isinstance(other, (int, RatFunc)):
            return self * OrePoly.const(self.ctx, other)
        if not isinstance(other, OrePoly):
            return NotImplemented
        _same_ctx(self, other)
        if self.is_zero() or other.is_zero():
            return OrePoly.zero(self.ctx)
        if self._den is not None:
            # sum_i (N_i / D) x^i other over one denominator
            # x^i other is advanced from the last nonzero term's power
            p = _kernel(self.ctx).p
            den, nums = [1], []
            xk, k = other, 0
            for i, a in enumerate(self._nums):
                if a:
                    if i > k:
                        xk, k = xk._x_step(i - k), i
                    den, nums = _over_lcm(den, nums, xk._den,
                                          [_times(a, n, p) for n in xk._nums],
                                          p)
            return OrePoly._make(self.ctx, *_canon(
                _times(den, self._den, p), nums, p))
        acc = OrePoly.zero(self.ctx)
        xk, k = other, 0
        for i, a in enumerate(self._cs):
            if not a.is_zero():
                if i > k:
                    xk, k = xk._x_step(i - k), i
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
        if self._den is not None:
            return self._right_pseudo_division(xg)
        lg = g.lc()
        r = self
        q = [ctx.ff.zero()] * (dr - dg + 1)
        while not r.is_zero() and r.degree >= dg:
            m = r.degree - dg
            c = r.lc() / ctx.sigma.apply(lg, m)
            q[m] = q[m] + c
            r = r - xg[m].scale_left(c)
        return OrePoly(ctx, q), r

    def _right_pseudo_division(self, xg):
        """right_quo_rem over k(t), given xg[k] = x^k g.

        q and r share one denominator.  Removing the leading term of r by
        c x^m g with c = (rt / den) / (gt / gd), where rt / den and
        gt / gd are the leading coefficients of r and x^m g, multiplies q
        and r by gt and adds rt gd to q's numerator at x^m: the steps
        stay polynomial, and each result is reduced once at the end.
        """
        p = _kernel(self.ctx).p
        dg = xg[0].degree
        den, rn = self._den, list(self._nums)
        qn = [[] for _ in xg]
        while len(rn) > dg:
            m = len(rn) - 1 - dg
            gd, gn = xg[m]._den, xg[m]._nums
            gt, rt = gn[-1], rn[-1]
            rn = _trim([_sub(_times(gt, a, p), _times(rt, b, p), p)
                        for a, b in zip(rn, gn)])
            qn = [_times(gt, a, p) for a in qn]
            qn[m] = _add(qn[m], _times(rt, gd, p), p)
            den = _times(den, gt, p)
        return (OrePoly._make(self.ctx, *_canon(den, qn, p)),
                OrePoly._make(self.ctx, *_canon(den, rn, p)))

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
        if self._den is not None:
            return self._left_division(g)
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

    def _left_division(self, g):
        """left_quo_rem over k(t).

        The leading coefficient of g c x^m is lc(g) sigma^dg(c), so the
        step that removes the leading term rt / den of r takes
        c = sigma^-dg((rt gd) / (den gt)), with gt / gd = lc(g): the
        Moebius images of the two products, reduced once.  q collects the
        terms c x^m over one denominator and is reduced at the end.
        """
        ctx = self.ctx
        kern = _kernel(ctx)
        p, dg = kern.p, g.degree
        gd, gt = g._den, g._nums[-1]
        r, qden, qn = self, [1], []
        while r.degree >= dg:
            m = r.degree - dg
            cn, cd = _times(r._nums[-1], gd, p), _times(r._den, gt, p)
            if dg and kern.kind in ("aut", "sd"):
                top = max(len(cn), len(cd)) - 1
                cn, cd = kern._sigma([cn, cd], top, -dg)
            mono = OrePoly._make(ctx, *_canon(cd, [[]] * m + [cn], p))
            qden, qn = _over_lcm(qden, qn, mono._den, mono._nums, p)
            r = r - g * mono
        return OrePoly._make(ctx, *_canon(qden, qn, p)), r

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
    if f._den is None:
        c = f.lc().inverse()
        return [h.scale_left(c) for h in (f,) + others]
    # lc(f) = N_n / D, so c f = (1 / N_n) sum N_j x^j
    p = _kernel(f.ctx).p
    an, ad = f._den, f._nums[-1]
    return [OrePoly._make(f.ctx, *_canon(ad, list(f._nums), p))] + [
        h._scale_ints(an, ad) if h else h for h in others]


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
    c = a.ctx.sigma.apply(a.lc().inverse(), -a.degree)
    return a * OrePoly.const(a.ctx, c)


def lclm(f, g):
    """(m, u, v) with m = u*f = v*g monic of minimal degree.

    Extended right Euclid on (f, g), tracking only the cofactor of f: when
    the remainder reaches zero, its row u gives the multiple m = u*f.
    Then v is the right quotient of m by g, and its zero remainder proves
    m = v*g.  When the first division, of the longer argument (f on a
    tie) by the other, leaves no remainder, the longer one made monic is
    the lclm, and Euclid stops there.  Requires f, g nonzero.
    """
    _same_ctx(f, g)
    if f.is_zero() or g.is_zero():
        raise DivisionByZero("lclm needs nonzero arguments")
    ctx = f.ctx
    one, zero = OrePoly.one(ctx), OrePoly.zero(ctx)
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
    m = u1 * f
    if m.is_zero():
        raise AssertionError("lclm: the cofactor row gave zero")
    m, u = left_monic(m, u1)
    if m.degree != f.degree + g.degree - last_nonzero.degree:
        raise AssertionError("lclm: degree law violated")
    v, r = m.right_quo_rem(g)
    if r:
        raise AssertionError("lclm: m != v * g")
    return m, u, v

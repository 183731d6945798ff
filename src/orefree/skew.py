"""Presentations of skew field structure: automorphisms and derivations.

A :class:`SkewEndo` is a k-automorphism of K = k(y1, ..., yn) given by
generator images together with inverse images; construction verifies both
round trips, so an instance that exists is genuinely invertible.  A
:class:`SkewDerivation` is a sigma-derivation, i.e. additive with

    delta(a*b) = sigma(a)*delta(b) + delta(a)*b,

presented by generator images.  For several generators the images cannot
be arbitrary: applying delta to y_i y_j = y_j y_i in both orders forces

    delta(y_i)*(sigma(y_j) - y_j) == delta(y_j)*(sigma(y_i) - y_i),

which construction checks pairwise (it is also sufficient, since the
relations above are the only ones among independent generators).

:class:`SkewPair` bundles (sigma, delta) acting on one field, the map
psi = (sigma - 1) + delta whose kernel is the constant subring, and any
declared constants (checked against psi).

Also here: orbit analysis of sigma on field elements (bounded iteration
plus exact closed forms for univariate affine maps) and delta-towers in
positive characteristic.
"""

import math
from dataclasses import dataclass, field as dc_field

from .errors import (
    CharacteristicMismatch,
    InconsistentDerivation,
    InvalidConstantDeclaration,
    ContextMismatch,
    DivisionByZero,
    NotAnAutomorphism,
    RequiresPureDerivation,
    UsageError,
    WrongCharacteristic,
    ZeroArgument,
)
from .field import RatFunc, _dense, _divisors, _from_dense
from .intpoly import _compose, _mul, _trim


def _mat_mul(x, y, p):
    """Product of 2x2 matrices stored row by row as 4-tuples; mod p when
    p."""
    a, b, c, d = x
    e, f, g, h = y
    out = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return tuple(v % p for v in out) if p else out


class SkewEndo:
    """k-automorphism of K with verified inverse.

    In several variables it is applied by substitution of the images of
    each power; over k(t) by the Moebius matrix of each power (see
    :meth:`moebius_table`), which orepoly and valuation read too.
    """

    # _moebius: power n -> moebius_table entry, in one variable
    __slots__ = ("ff", "images", "inverse_images", "_pow", "_moebius",
                 "_is_poly", "_is_identity")

    def __init__(self, ff, images, inverse_images):
        self.ff = ff
        self.images = self._as_image_list(ff, images)
        self.inverse_images = self._as_image_list(ff, inverse_images)
        gens = ff.gens()
        self._pow = {0: gens, 1: self.images, -1: self.inverse_images}
        self._moebius = {}
        # images are immutable, so this is decided once
        self._is_identity = self.images == gens
        # polynomial in both directions => restricts to an automorphism of
        # k[y], so substitution preserves coprimality and reduction can be
        # skipped when applying to reduced fractions (several variables)
        self._is_poly = (all(g.is_poly() for g in self.images)
                         and all(g.is_poly() for g in self.inverse_images))
        self._verify()

    @staticmethod
    def _as_image_list(ff, images):
        if isinstance(images, dict):
            out = []
            for i, name in enumerate(ff.names):
                img = images.get(name)
                out.append(ff.var(i) if img is None else img)
            extra = set(images) - set(ff.names)
            if extra:
                raise UsageError("images for unknown generators %s"
                                 % sorted(extra))
        else:
            out = list(images)
            if len(out) != ff.nvars:
                raise UsageError("expected %d generator images, got %d"
                                 % (ff.nvars, len(out)))
        for img in out:
            if not isinstance(img, RatFunc) or img.ff != ff:
                raise UsageError("generator image %r not in %r" % (img, ff))
        return out

    def _verify(self):
        for i in range(self.ff.nvars):
            y = self.ff.var(i)
            try:
                back = self.inverse_images[i].substitute(self.images)
                forth = self.images[i].substitute(self.inverse_images)
            except DivisionByZero as exc:
                raise NotAnAutomorphism(
                    "images of %r do not compose: %s"
                    % (self.ff.names[i], exc)) from None
            if back != y or forth != y:
                raise NotAnAutomorphism(
                    "round trip fails on generator %r" % self.ff.names[i])

    @classmethod
    def identity(cls, ff):
        gens = ff.gens()
        return cls(ff, gens, list(gens))

    def is_identity(self):
        return self._is_identity

    def _power_images(self, n):
        cache = self._pow
        if n in cache:
            return cache[n]
        if self.ff.nvars == 1:
            a, bpow = self.moebius_table(n)
            cache[n] = [RatFunc(_from_dense(self.ff, a),
                                _from_dense(self.ff, bpow[1]), reduce=False)]
            return cache[n]
        step = 1 if n > 0 else -1
        base = self._pow[step]
        m = max((k for k in cache if k * step > 0 and abs(k) < abs(n)),
                key=abs, default=0)
        imgs = cache[m]
        while m != n:
            imgs = [g.substitute(base) for g in imgs]
            m += step
            cache[m] = imgs
        return imgs

    def moebius_table(self, n, m=1):
        """(A, [B^0, ..., B^m]) with sigma^n(t) = A / B, for the one
        generator t: the entry of power n, its list of powers of B grown to
        at least m + 1 terms.  A and B are trimmed int lists, mod p over
        F_p.

        Every automorphism of k(t) is t -> (a t + b) / (c t + d) with
        ad - bc != 0, and composing two such maps multiplies their
        matrices [[a, b], [c, d]].  So sigma^n(t) is read off the |n|-th
        power of the matrix of sigma, or of its inverse for n < 0, with
        entries mod p over F_p and divided by their content over Q.  The
        determinant stays nonzero, so A and B are coprime.
        """
        p = self.ff.char
        entry = self._moebius.get(n)
        if entry is None:
            img = self.images[0] if n > 0 else self.inverse_images[0]
            num, sn = _dense(img.num.terms, p)
            den, sd = _dense(img.den.terms, p)
            b, a = num + [0] * (2 - len(num))
            d, c = den + [0] * (2 - len(den))
            x, r, k = (a * sd, b * sd, c * sn, d * sn), (1, 0, 0, 1), abs(n)
            while k:
                if k & 1:
                    r = _mat_mul(r, x, p)
                x, k = _mat_mul(x, x, p), k >> 1
            if not p:
                g = math.gcd(*r)
                r = tuple(v // g for v in r)
            entry = self._moebius[n] = (_trim([r[1], r[0]]),
                                        [[1], _trim([r[3], r[2]])])
        bpow = entry[1]
        while len(bpow) <= m:
            bpow.append(_mul(bpow[-1], bpow[1], p))
        return entry

    def apply(self, f, n=1):
        """sigma^n(f) for any integer n (negative powers use the inverse)."""
        if f.ff is not self.ff and f.ff != self.ff:
            raise CharacteristicMismatch(
                "sigma acts on %r, not on %r" % (self.ff, f.ff))
        if n == 0 or self.is_identity():
            return f
        if self.ff.nvars == 1:
            # sigma^n(N / D) = H(N) / H(D) with H(N) = N(A / B) B^m, m the
            # larger degree.  Coprime again: at a common root r, B(r) = 0
            # leaves lc A(r)^m != 0 in the H of degree m, and B(r) != 0
            # makes A(r) / B(r) a common root of N and D.
            p = self.ff.char
            num, sn = _dense(f.num.terms, p)
            den, sd = _dense(f.den.terms, p)
            m = max(len(num), len(den)) - 1
            a, bpow = self.moebius_table(n, m)
            return RatFunc(
                _from_dense(self.ff, _compose(num, a, bpow, m, p), sn),
                _from_dense(self.ff, _compose(den, a, bpow, m, p), sd),
                reduce=False)
        imgs = self._power_images(n)
        if self._is_poly:
            num = f.num.substitute_poly([g.num for g in imgs])
            den = f.den.substitute_poly([g.num for g in imgs])
            return RatFunc(num, den, reduce=False)
        return f.substitute(imgs)

    def fixed_power_check(self, n):
        """True when sigma^n is the identity on all generators."""
        if n < 1:
            raise UsageError("power must be >= 1")
        return self._power_images(n) == self.ff.gens()

    def order(self, bound):
        """Smallest n <= bound with sigma^n = id, or None."""
        for n in range(1, bound + 1):
            if self.fixed_power_check(n):
                return n
        return None

    def __eq__(self, other):
        return (isinstance(other, SkewEndo) and self.ff == other.ff
                and self.images == other.images)

    def __repr__(self):
        body = ", ".join("%s -> %s" % (nm, img)
                         for nm, img in zip(self.ff.names, self.images))
        return "SkewEndo(%s)" % body


class SkewDerivation:
    """sigma-derivation of K presented by generator images."""

    __slots__ = ("ff", "images", "twist", "_mono_cache", "_pow_cache")

    def __init__(self, ff, images, twist):
        if twist.ff != ff:
            raise ContextMismatch("twist acts on %r, images live in %r"
                                  % (twist.ff, ff))
        self.ff = ff
        self.images = SkewEndo._as_image_list(ff, images)
        self.twist = twist
        self._mono_cache = {}
        self._pow_cache = {}
        self._verify()

    def _verify(self):
        n = self.ff.nvars
        for i in range(n):
            yi = self.ff.var(i)
            si = self.twist.images[i] - yi
            for j in range(i + 1, n):
                yj = self.ff.var(j)
                sj = self.twist.images[j] - yj
                if self.images[i] * sj != self.images[j] * si:
                    raise InconsistentDerivation(
                        "images of %r and %r violate the twisted Leibniz "
                        "constraint delta(y_i)*(sigma(y_j) - y_j) == "
                        "delta(y_j)*(sigma(y_i) - y_i)"
                        % (self.ff.names[i], self.ff.names[j]))

    @classmethod
    def zero(cls, ff, twist=None):
        if twist is None:
            twist = SkewEndo.identity(ff)
        return cls(ff, [ff.zero()] * ff.nvars, twist)

    def is_zero(self):
        return all(g.is_zero() for g in self.images)

    # -- application -------------------------------------------------------

    def _var_power(self, i, k):
        """delta(y_i^k) by the twisted power rule, cached."""
        key = (i, k)
        out = self._pow_cache.get(key)
        if out is not None:
            return out
        ff = self.ff
        if k == 0:
            out = ff.zero()
        elif k == 1:
            out = self.images[i]
        else:
            s = self.twist.images[i]
            y = ff.var(i)
            out = s * self._var_power(i, k - 1) + self.images[i] * y ** (k - 1)
        self._pow_cache[key] = out
        return out

    def _monomial(self, e):
        out = self._mono_cache.get(e)
        if out is not None:
            return out
        ff = self.ff
        lead = None
        for i, k in enumerate(e):
            if k:
                lead = i
                break
        if lead is None:
            out = ff.zero()
        else:
            rest = list(e)
            rest[lead] = 0
            rest = tuple(rest)
            if not any(rest):
                out = self._var_power(lead, e[lead])
            else:
                # delta(A*B) = sigma(A)*delta(B) + delta(A)*B
                a_sig = self.twist.images[lead] ** e[lead]
                b_val = ff.one()
                for i, k in enumerate(rest):
                    if k:
                        b_val = b_val * ff.var(i) ** k
                out = (a_sig * self._monomial(rest)
                       + self._var_power(lead, e[lead]) * b_val)
        self._mono_cache[e] = out
        return out

    def _apply_poly(self, p):
        ff = self.ff
        if self.twist.is_identity():
            # ordinary derivation: chain rule through formal partials
            out = ff.zero()
            for i in range(ff.nvars):
                if not self.images[i].is_zero():
                    d = p.partial(i)
                    if not d.is_zero():
                        out = out + RatFunc(d, ff.poly_one(),
                                            reduce=False) * self.images[i]
            return out
        out = ff.zero()
        for e, c in p.terms.items():
            out = out + ff.const(c) * self._monomial(e)
        return out

    def apply(self, f):
        """delta(f) via the twisted quotient rule."""
        if self.is_zero():
            return self.ff.zero()
        dn = self._apply_poly(f.num)
        if f.den.is_const():
            c = f.den.const_value()
            if c == self.ff.base.one():
                return dn
            return dn / self.ff.const(c)
        dd = self._apply_poly(f.den)
        n = RatFunc(f.num, self.ff.poly_one(), reduce=False)
        d = RatFunc(f.den, self.ff.poly_one(), reduce=False)
        sn = self.twist.apply(n)
        sd = self.twist.apply(d)
        return (dn * sd - sn * dd) / (sd * d)

    def __eq__(self, other):
        return (isinstance(other, SkewDerivation) and self.ff == other.ff
                and self.images == other.images and self.twist == other.twist)

    def __repr__(self):
        body = ", ".join("%s -> %s" % (nm, img)
                         for nm, img in zip(self.ff.names, self.images))
        return "SkewDerivation(%s)" % body


class SkewPair:
    """(sigma, delta) on one field, plus declared constants.

    psi = (sigma - 1) + delta; its kernel is the subring of constants.
    Declared constant generators are verified against psi at construction.
    """

    # _kernel: the one-variable x-step data of orepoly, built on first use
    __slots__ = ("sigma", "delta", "e_generators", "_kernel")

    def __init__(self, sigma, delta, e_generators=()):
        if delta.ff != sigma.ff:
            raise ContextMismatch("sigma on %r but delta on %r"
                                  % (sigma.ff, delta.ff))
        if delta.twist != sigma:
            raise ContextMismatch("delta is twisted by a different sigma")
        self.sigma = sigma
        self.delta = delta
        self.e_generators = tuple(e_generators)
        self._kernel = None
        for g in self.e_generators:
            bad = self.psi(g)
            if not bad.is_zero():
                raise InvalidConstantDeclaration(
                    "declared constant %s has psi-image %s != 0" % (g, bad))

    @property
    def ff(self):
        return self.sigma.ff

    @classmethod
    def automorphism(cls, sigma):
        return cls(sigma, SkewDerivation.zero(sigma.ff, sigma))

    @classmethod
    def derivation(cls, delta):
        return cls(delta.twist, delta)

    @classmethod
    def commutative(cls, ff):
        return cls.automorphism(SkewEndo.identity(ff))

    def psi(self, f):
        return self.sigma.apply(f) - f + self.delta.apply(f)

    def is_pure_automorphism(self):
        return self.delta.is_zero()

    def is_pure_derivation(self):
        return self.sigma.is_identity()

    def is_commutative(self):
        return self.is_pure_automorphism() and self.is_pure_derivation()

    def __eq__(self, other):
        return (isinstance(other, SkewPair) and self.sigma == other.sigma
                and self.delta == other.delta)

    def __repr__(self):
        return "SkewPair(%r, %r)" % (self.sigma, self.delta)


# ---------------------------------------------------------------------------
# orbit analysis
# ---------------------------------------------------------------------------

@dataclass
class OrbitReport:
    kind: str                      # "finite" | "infinite" | "unknown"
    period: int = None
    reason: str = None
    iterates: list = dc_field(default_factory=list)

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.period is not None:
            out["period"] = self.period
        if self.reason is not None:
            out["reason"] = self.reason
        if self.kind == "unknown":
            out["iterates"] = list(self.iterates)
        return out


def _affine_parts(sigma):
    """(alpha, beta) scalars with sigma(y) = alpha*y + beta, else None."""
    ff = sigma.ff
    if ff.nvars != 1:
        return None
    img = sigma.images[0]
    if not img.den.is_const() or img.num.total_degree() > 1:
        return None
    base = ff.base
    alpha = base.zero()
    beta = base.zero()
    for e, c in img.num.terms.items():
        if e[0] == 1:
            alpha = c
        else:
            beta = c
    d = img.den.const_value()
    return base.div(alpha, d), base.div(beta, d)


def orbit_analyze(sigma, a, bound=64):
    """Orbit type of a under sigma: Finite(minimal period) / Infinite / Unknown.

    Iterates up to ``bound`` steps; if no return happens, exact closed
    forms decide univariate affine maps (shift with nonzero step, or
    scaling by an element that is not a root of unity, both give infinite
    orbits for every nonconstant element; in characteristic p the affine
    group is finite, so divisor probing of the group order settles small
    cases).  Everything else is reported Unknown, never guessed.
    """
    if bound < 1:
        raise UsageError("iteration bound must be >= 1")
    if a.is_const():
        return OrbitReport("finite", period=1,
                           reason="constants are fixed by sigma")
    cur = a
    seen = [str(a)]
    for n in range(1, bound + 1):
        cur = sigma.apply(cur)
        if cur == a:
            return OrbitReport("finite", period=n)
        seen.append(str(cur))
    parts = _affine_parts(sigma)
    if parts is not None:
        alpha, beta = parts
        base = sigma.ff.base
        one = base.one()
        if base.p == 0:
            if alpha == one and beta != base.zero():
                return OrbitReport(
                    "infinite",
                    reason="sigma is a shift by %s; only constants recur"
                           % beta)
            if alpha != one and alpha != base.neg(one):
                return OrbitReport(
                    "infinite",
                    reason="sigma scales by %s, not a root of unity; only "
                           "constants have finite orbit" % alpha)
        else:
            # affine over F_p: sigma lies in a group of order dividing
            # p*(p-1); probe divisors of the sigma-order above the bound
            d = sigma.order(base.p * max(base.p - 1, 1))
            if d is not None and d <= 4096:
                for m in _divisors(d):
                    if m > bound and sigma.apply(a, m) == a:
                        return OrbitReport("finite", period=m)
    return OrbitReport(
        "unknown",
        reason="no return within %d iterations and no closed form applies"
               % bound,
        iterates=seen)


# ---------------------------------------------------------------------------
# delta towers (characteristic p)
# ---------------------------------------------------------------------------

@dataclass
class TowerLevel:
    index: int
    status: str                    # "strict" | "stalled" | "undecided"
    value: str

    def to_json_dict(self):
        return {"index": self.index, "status": self.status,
                "value": self.value}


@dataclass
class TowerReport:
    element: str
    levels: list
    values: list                   # RatFunc iterates b_0..b_{depth-1}

    def all_strict(self):
        return bool(self.levels) and all(
            lv.status == "strict" for lv in self.levels)

    def to_json_dict(self):
        return {"element": self.element,
                "levels": [lv.to_json_dict() for lv in self.levels]}


def _scaled_generator_index(f):
    """Index i when f = c*y_i with c a nonzero scalar, else None."""
    if not f.den.is_const() or len(f.num.terms) != 1:
        return None
    (e, _), = f.num.terms.items()
    if sum(e) != 1:
        return None
    return e.index(1)


def delta_tower(delta, a, depth=5):
    """Strictness profile of the subfield tower F_i = k(a, ..., delta^{i-1}(a)).

    Only meaningful for an untwisted derivation in characteristic p > 0,
    where each F_i is closed under taking p-th powers of delta-images and
    strict growth for p steps yields the generating set for free
    subalgebras.  Level i is "strict" when b_0, ..., b_i are scalar
    multiples of pairwise distinct generators (then each step adds a fresh
    transcendental), "stalled" when b_i is constant or repeats an earlier
    iterate, and "undecided" otherwise; undecided is never upgraded.
    """
    ff = delta.ff
    if ff.char == 0:
        raise WrongCharacteristic("delta towers need characteristic p > 0")
    if not delta.twist.is_identity():
        raise RequiresPureDerivation("delta towers need sigma = identity")
    if depth < 2:
        raise UsageError("tower depth must be >= 2")
    if a.is_zero():
        raise ZeroArgument("tower base element must be nonzero")
    values = [a]
    for _ in range(depth - 1):
        values.append(delta.apply(values[-1]))
    levels = []
    gidx = [_scaled_generator_index(v) for v in values]
    for i in range(1, depth):
        b = values[i]
        if b.is_const() or any(b == values[j] for j in range(i)):
            status = "stalled"
        else:
            idx = gidx[: i + 1]
            if all(g is not None for g in idx) and len(set(idx)) == len(idx):
                status = "strict"
            else:
                status = "undecided"
        levels.append(TowerLevel(i, status, str(b)))
    return TowerReport(str(a), levels, values)

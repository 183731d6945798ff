"""Presentations of skew field structure: automorphisms and derivations.

A :class:`SkewEndo` is a k-automorphism of K = k(y1, ..., yn) given by
generator images together with inverse images; construction verifies both
round trips, so an instance that exists is genuinely invertible.  The
identity presentation, every image and inverse image its generator, is
accepted without substitution.  In one variable both maps must be
Moebius (below) and the product of their matrices a nonzero scalar,
which checks the round trips with no substitution; a presentation that
fails this, and every other presentation in several variables, is
checked by substituting the images into the inverse images and back,
which also names what fails.  A
:class:`SkewDerivation` is a sigma-derivation, i.e. additive with

    delta(a*b) = sigma(a)*delta(b) + delta(a)*b,

presented by generator images.  When sigma != id it is inner.  Take any
b with sigma(b) != b; expanding delta(a*b) = delta(b*a) by the rule above
gives

    delta(a)*(sigma(b) - b) == delta(b)*(sigma(a) - a),

so delta = c*(sigma - id) with c = delta(b) / (sigma(b) - b).
Conversely c*(sigma - id) is a sigma-derivation for every c, and a
sigma-derivation is fixed by its generator images.  Construction takes b
as the first generator y_j that sigma moves, keeps c, and checks
delta(y_i) == c*(sigma(y_i) - y_i) for every i.  These n checks are
equivalent to the constraint above over all pairs of generators: they
are its instances with b = y_j, and given them both sides of any pair
are c*(sigma(y_i) - y_i)*(sigma(y_k) - y_k).

Both act on the numerators and denominators of the field's ring
(``FunctionField.ring``: int lists over k(t), MPolys in several
variables), which a RatFunc holds and orepoly's kernel steps:
``SkewEndo.numerators`` maps them by sigma^k, and a SkewDerivation keeps
delta over one denominator, c = cn / cd or delta = D / cd with D =
sum_i cn_i d/dy_i on numerators (``derive``).  Each ``apply`` reads num
and den and forms one fraction from them, with no conversion.

:class:`SkewPair` bundles (sigma, delta) acting on one field, the map
psi = (sigma - 1) + delta whose kernel is the constant subring, and any
declared constants (checked against psi).

Also here: orbit analysis of sigma on field elements, and delta-towers in
positive characteristic.

Orbits in one variable are exact.  Every automorphism of k(t) is a
Moebius map t -> (a t + b) / (c t + d), and sigma^n = 1 exactly when the
n-th power of its matrix M is scalar, so the order of sigma is the order
of M in PGL_2(k).  Let zeta be the ratio of the eigenvalues of a
nonscalar M; then tr^2 / det = zeta + 1/zeta + 2.  When zeta != 1, M is
diagonalizable and M^n is scalar exactly when zeta^n = 1.  When zeta = 1
(tr^2 = 4 det), M is a scalar times I + N with N nonzero nilpotent, and
(I + N)^n = I + nN.

  Over Q, I + nN is never scalar, so a parabolic M has infinite order.  A
  root of unity zeta of order n > 2 makes zeta + 1/zeta generate a field
  of degree phi(n) / 2 over Q, so zeta + 1/zeta is rational only for
  n = 1, 2, 3, 4 or 6, where it is 2, -2, -1, 0 and 1.  Hence a nonscalar
  M has order 2, 3, 4 or 6 when tr^2 / det is 0, 1, 2 or 3, and infinite
  order otherwise.

  Over F_p, a unipotent M (tr^2 = 4 det, not scalar) has order p.
  Otherwise zeta lies in F_p^* or, conjugate to 1/zeta, in the norm-one
  subgroup of F_{p^2}^*; its order divides p - 1 or p + 1, so
  M^(p^2 - 1) is scalar and the order follows from the primes of
  p^2 - 1.

When sigma has order n, the powers m with sigma^m(a) = a form a subgroup
of Z that contains n, so the period of a is the least m | n with
sigma^m(a) = a.  When sigma has infinite order, every nonconstant a has
an infinite orbit: k(t) has degree max(deg num(a), deg den(a)) over k(a),
so Aut(k(t)/k(a)) is finite, and sigma^m(a) = a with m >= 1 would put
sigma^m in it and give sigma a finite order.  Several variables have no
such closed form and keep bounded iteration.
"""

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import (
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
from .field import RatFunc, _check_same_field, _common_denominator
from .intpoly import _compose, _derivative, _mul, _prime_factors, _trim


def _mat_mul(x, y, p):
    """Product of 2x2 matrices stored row by row as 4-tuples; mod p when
    p."""
    a, b, c, d = x
    e, f, g, h = y
    out = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return tuple(v % p for v in out) if p else out


def _mat_pow(x, k, p):
    """x^k for k >= 0, x a 2x2 matrix as in :func:`_mat_mul`."""
    r = (1, 0, 0, 1)
    while k:
        if k & 1:
            r = _mat_mul(r, x, p)
        x, k = _mat_mul(x, x, p), k >> 1
    return r


def _least_period(n, factors, returns):
    """(m, factors of m) for the least m | n with returns(m), where the
    m >= 1 with returns(m) are the multiples of one divisor of n and
    factors is {prime: exponent} of n.  Each prime is divided out of n
    while the quotient still returns."""
    out = {}
    for q, e in factors.items():
        k = 0
        while k < e and returns(n // q):
            n, k = n // q, k + 1
        if k < e:
            out[q] = e - k
    return n, out


class SkewEndo:
    """k-automorphism of K with verified inverse.

    Applied by substitution of each power's images in several variables,
    by each power's Moebius matrix over k(t) (:meth:`moebius_table`, read
    by valuation too); orepoly maps numerators by :meth:`numerators`.
    """

    # _moebius: power n -> moebius_table entry, in one variable;
    # _order: (order or None when infinite, its prime factors), on first use
    __slots__ = ("ff", "images", "inverse_images", "_pow", "_moebius",
                 "_order", "_is_poly", "_is_identity")

    def __init__(self, ff, images, inverse_images):
        self.ff = ff
        gens = ff.gens()
        self.images = self._as_image_list(ff, images, gens)
        self.inverse_images = self._as_image_list(ff, inverse_images, gens)
        self._pow = {0: gens, 1: self.images, -1: self.inverse_images}
        self._moebius = {}
        self._order = None
        # images are immutable, so this is decided once
        self._is_identity = self.images == gens
        # polynomial in both directions => restricts to an automorphism of
        # k[y], so substitution preserves coprimality and reduction can be
        # skipped when applying to reduced fractions (several variables)
        self._is_poly = (all(g.is_poly() for g in self.images)
                         and all(g.is_poly() for g in self.inverse_images))
        self._verify()

    @staticmethod
    def _as_image_list(ff, images, defaults):
        """The images as a list; a dict may omit a generator, whose image
        is then its entry of ``defaults`` (the generator for sigma, 0 for
        a derivation)."""
        if isinstance(images, dict):
            out = [images.get(name, d) for name, d in zip(ff.names, defaults)]
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
        """Raise NotAnAutomorphism unless the images and inverse images
        compose to the identity both ways.

        The identity presentation, images and inverse images both the
        generators, is accepted at once: each round trip is trivially the
        identity.  In one variable the presentation is accepted when both
        maps are Moebius and the product of their matrices is a nonzero
        scalar: then both determinants are nonzero and the maps are
        inverse, so each substitution below would give t back.  Anything
        else, and every other presentation in several variables, is
        decided by substitution, which names the failure."""
        if self._is_identity and self.inverse_images == self.images:
            return
        if self.ff.nvars == 1:
            m, n = self._matrix(), self._matrix(inverse=True)
            if m is not None and n is not None:
                a, b, c, d = _mat_mul(m, n, self.ff.char)
                if b == c == 0 and a == d != 0:
                    return
        self._verify_by_substitution()

    def _verify_by_substitution(self):
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
            cache[n] = [RatFunc(self.ff, a, bpow[1], coprime=True)]
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
            r = _mat_pow(self._matrix(n < 0), abs(n), p)
            if not p:
                g = math.gcd(*r)
                r = tuple(v // g for v in r)
            entry = self._moebius[n] = (_trim([r[1], r[0]]),
                                        [[1], _trim([r[3], r[2]])])
        bpow = entry[1]
        while len(bpow) <= m:
            bpow.append(_mul(bpow[-1], bpow[1], p))
        return entry

    def _matrix(self, inverse=False):
        """(a, b, c, d) with sigma(t) = (a t + b) / (c t + d), or with
        sigma^-1(t) when inverse, for the one generator t: ints, mod p
        over F_p; None when that image is not of this form.  They are
        read off the image's num and den, which over Q carry a positive
        scale that no reader sees: moebius_table divides it out, and the
        inverse check, the order test, the point map of the evaluated
        series and orbit_analyze's reason are homogeneous in the
        entries."""
        g = self.inverse_images[0] if inverse else self.images[0]
        num, den = g.num, g.den
        if len(num) > 2 or len(den) > 2:
            return None
        b, a = num + [0] * (2 - len(num))
        d, c = den + [0] * (2 - len(den))
        return a, b, c, d

    def _moebius_order(self):
        """(n, {prime: exponent} of n) for the order n of sigma on k(t),
        n None when it is infinite: the order of the matrix of sigma in
        PGL_2(k), decided as the module docstring proves."""
        if self._order is None:
            p = self.ff.char
            m = self._matrix()
            a, b, c, d = m
            tr2, det = (a + d) ** 2, a * d - b * c
            if self._is_identity:
                self._order = 1, {}
            elif not p:
                n = next((k for s, k in ((0, 2), (1, 3), (2, 4), (3, 6))
                          if tr2 == s * det), None)
                self._order = n, _prime_factors(n) if n else None
            elif (tr2 - 4 * det) % p == 0:
                self._order = p, {p: 1}
            else:
                factors = _prime_factors(p - 1)
                for q, e in _prime_factors(p + 1).items():
                    factors[q] = factors.get(q, 0) + e

                def scalar(k):
                    x = _mat_pow(m, k, p)
                    return x[1] == x[2] == 0 and x[0] == x[3]
                self._order = _least_period(p * p - 1, factors, scalar)
        return self._order

    def apply(self, f, n=1):
        """sigma^n(f) for any integer n (negative powers use the inverse)."""
        _check_same_field(self, f)
        if n == 0 or self.is_identity():
            return f
        num, den = self.numerators([f.num, f.den], n)
        return RatFunc(self.ff, num, den,
                       coprime=self.ff.nvars == 1 or self._is_poly)

    def numerators(self, polys, n):
        """[F_f for f in polys] with sigma^n(f / d) = F_f / F_d for any two
        of them: dense int lists over k(t), MPolys in several variables.

        Over k(t) F_f = f(A / B) B^m, m the largest degree, and coprime f, d
        stay coprime: at a common root r, B(r) = 0 leaves lc A(r)^m != 0 in
        the F of degree m, and B(r) != 0 makes A(r) / B(r) a common root of
        f and d.  In several variables so does a sigma polynomial both ways.
        """
        if n == 0 or self._is_identity:
            return polys
        if self.ff.nvars == 1:
            m = max(map(len, polys)) - 1
            a, bpow = self.moebius_table(n, m)
            return [_compose(f, a, bpow, m, self.ff.char) for f in polys]
        imgs = self._power_images(n)
        nums, dens, top = [g.num for g in imgs], None, None
        if not self._is_poly:
            dens = [g.den for g in imgs]
            top = [max(ks) for ks in zip(*(e for f in polys for e in f.terms))]
        return [f.substitute_poly(nums, dens, top) for f in polys]

    def fixed_power_check(self, n):
        """True when sigma^n is the identity on all generators."""
        if n < 1:
            raise UsageError("power must be >= 1")
        return self._power_images(n) == self.ff.gens()

    def order(self, bound):
        """Smallest n <= bound with sigma^n = id, or None: exact in one
        variable, n = 1, 2, ... tried in several."""
        if self.ff.nvars == 1:
            n = self._moebius_order()[0]
            return n if n is not None and n <= bound else None
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
        return "%s(%s)" % (type(self).__name__, body)


class SkewDerivation:
    """sigma-derivation of K presented by generator images.

    ``inner`` is c with delta = c*(sigma - id) when sigma != id, read off
    the first generator sigma moves and checked on every generator (module
    docstring), and None when sigma = id.

    ``cn`` and ``cd`` are delta over one denominator, formed once: cd the
    lcm of the images' denominators and cn[i] = delta(y_i) cd when sigma =
    id (cn = delta(t) cd over k(t)), c = cn / cd when twisted; apply and
    orepoly's x-step read them."""

    __slots__ = ("ff", "images", "twist", "inner", "cn", "cd")

    def __init__(self, ff, images, twist):
        if twist.ff != ff:
            raise ContextMismatch("twist acts on %r, images live in %r"
                                  % (twist.ff, ff))
        self.ff, self.twist = ff, twist
        self.images = SkewEndo._as_image_list(ff, images,
                                              [ff.zero()] * ff.nvars)
        self.inner = c = None
        moved = [s - y for s, y in zip(twist.images, ff.gens())]
        j = next((j for j, m in enumerate(moved) if not m.is_zero()), None)
        if j is not None:
            self.inner = c = self.images[j] / moved[j]
            for i, m in enumerate(moved):
                if self.images[i] != c * m:
                    raise InconsistentDerivation(
                        "delta(%s) != c*(sigma(%s) - %s) with "
                        "c = delta(%s) / (sigma(%s) - %s) = %s"
                        % ((ff.names[i],) * 3 + (ff.names[j],) * 3 + (c,)))
        if c is None and ff.nvars > 1:
            self.cd, self.cn = _common_denominator(self.images)
        else:
            g = self.images[0] if c is None else c
            self.cn, self.cd = g.num, g.den

    @classmethod
    def zero(cls, ff, twist=None):
        return cls(ff, [ff.zero()] * ff.nvars, twist or SkewEndo.identity(ff))

    def is_zero(self):
        return all(g.is_zero() for g in self.images)

    def derive(self, n):
        """D(n) = sum_i cn[i] dn/dy_i for a numerator n, sigma = id."""
        if self.ff.nvars == 1:
            return self.ff.ring.times(self.cn, _derivative(n, self.ff.char))
        parts = ((c, n.partial(i)) for i, c in enumerate(self.cn) if c)
        return sum((c * dn for c, dn in parts if dn), self.ff.poly_zero())

    def apply(self, f):
        """delta(f) for f = n / d as one fraction: (d D(n) - n D(d)) /
        (cd d^2) when sigma = id, cn (sigma(n) b - n a) / (cd a d) when
        twisted, a / b = sigma(d) / d in lowest terms.  Its numerator is
        cancelled against each factor of the denominator in turn."""
        _check_same_field(self, f)
        if f.is_const() or self.is_zero():
            return self.ff.zero()
        r, n, d = self.ff.ring, f.num, f.den
        if self.inner is None and f.is_poly():
            num, dens = self.derive(n), [self.cd, d]
        elif self.inner is None:
            num = r.sub(r.times(d, self.derive(n)), r.times(n, self.derive(d)))
            dens = [self.cd, d, d]
        else:
            sn, sd = self.twist.numerators([n, d], 1)
            a, b = r.cofactors([sd, d])
            num = r.times(self.cn, r.sub(r.times(sn, b), r.times(n, a)))
            dens = [self.cd, a, d]
        den = r.one
        for g in dens:
            g, num = r.cofactors([g, num])
            den = r.times(den, g)
        return RatFunc(self.ff, num, den, coprime=True)

    def __eq__(self, other):
        return (isinstance(other, SkewDerivation) and self.ff == other.ff
                and self.images == other.images and self.twist == other.twist)

    __repr__ = SkewEndo.__repr__


class SkewPair:
    """(sigma, delta) on one field, plus declared constants.

    psi = (sigma - 1) + delta; its kernel is the subring of constants.
    Declared constant generators are verified against psi at construction.
    """

    # _kernel: orepoly's polynomial ring and x-step, built on first use
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


def orbit_analyze(sigma, a, bound=64):
    """Orbit type of a under sigma: Finite(minimal period) / Infinite / Unknown.

    In one variable the answer is exact and ``bound`` is not used.  The
    order of sigma is that of its Moebius matrix M in PGL_2(k) (module
    docstring): over Q, tr^2/det = zeta + 1/zeta + 2 for the eigenvalue
    ratio zeta, and a root of unity with zeta + 1/zeta rational has order
    1, 2, 3, 4 or 6, so only tr^2/det in {0, 1, 2, 3} gives a finite
    order (2, 3, 4, 6); over F_p the order is p, or divides p - 1 or
    p + 1.  With finite order n the period is the least m | n with
    sigma^m(a) = a.  With infinite order only constants recur: k(t) is
    finite over k(a) for nonconstant a, so Aut(k(t)/k(a)) is finite, and
    sigma^m(a) = a with m >= 1 would put sigma^m in it and make the order
    of sigma finite.  In several variables sigma is applied up to
    ``bound`` times; no return is reported Unknown, never guessed, with
    the iterates.
    """
    if bound < 1:
        raise UsageError("iteration bound must be >= 1")
    if a.is_const():
        return OrbitReport("finite", period=1,
                           reason="constants are fixed by sigma")
    if sigma.ff.nvars == 1:
        n, factors = sigma._moebius_order()
        if n is None:
            x, y, z, w = sigma._matrix()
            return OrbitReport(
                "infinite",
                reason="tr^2/det = %s is not 0, 1, 2 or 3, so sigma has "
                       "infinite order; only constants have finite orbits"
                       % Fraction((x + w) ** 2, x * w - y * z))
        period, _ = _least_period(n, factors,
                                  lambda m: sigma.apply(a, m) == a)
        return OrbitReport("finite", period=period)
    cur = a
    seen = [a]
    for n in range(1, bound + 1):
        cur = sigma.apply(cur)
        if cur == a:
            return OrbitReport("finite", period=n)
        seen.append(cur)
    return OrbitReport(
        "unknown",
        reason="no return within %d iterations and no closed form applies"
               % bound,
        iterates=[str(f) for f in seen])


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
    terms = f.ff.ring.terms(f.num)
    if not f.is_poly() or len(terms) != 1:
        return None
    (e, _), = terms.items()
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

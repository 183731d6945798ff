"""Dense univariate polynomials on int lists, and primality and factoring
of ints.

A polynomial is a list of ints, constant term first; ``[]`` is zero and
a trimmed list has a nonzero last entry.  Over F_p (``p > 0``) entries are
reduced mod p by the functions that take ``p``; over Q (``p = 0``) they are
integers and a rational polynomial is an int list over one common
denominator, which the caller keeps.  Nothing here builds an object
per coefficient: a fraction of k(t) in :mod:`field` is two of these
lists, :mod:`skew` applies the Moebius maps of k(t) on them, and
:mod:`orepoly` keeps a whole Ore polynomial over k(t) as one denominator
plus numerator lists.

Every product of two lists is :func:`_conv`, which picks its method from
the length of the shorter operand.  One coefficient scales the other list
in one pass.  From ``_KRONECKER_FROM`` = 8 coefficients on, Kronecker
substitution packs each list into one int, one coefficient per slot
wider than the bits of the two max-norms plus the bits of the shorter
length (one sign bit more): a 64-bit word when that fits, else whole
bytes.  It multiplies once and reads the product's signed slots back.
In between, the schoolbook loop.  The crossover was measured on the
products of the benchmark's arith workload; it is a code constant, not a
``config`` bound.

The evaluated series of :mod:`freeness` take three more things from
here: Taylor jets of int lists mod q, rational reconstruction of a
residue, and the field F_p[y]/(f), f monic irreducible of degree k,
with each element one int that packs its k coordinates
(:class:`_Packed`), which Rabin's test in :mod:`valuation` powers too;
its relation proofs over F_p(t) run in F_p[y]/(y^k) on the same ints.

Primality is deterministic Miller-Rabin, exact below ``_MR_EXACT_BELOW``
(about 3.3e24); a larger n is refuted by a witness or refused with
ResourceBoundExceeded.  Factoring is trial division by small integers,
then Brent's variant of Pollard's rho, each factor proved prime.
"""

import itertools
import math
import struct
import sys
from array import array
from fractions import Fraction

from .errors import ResourceBoundExceeded


# Miller-Rabin with these bases is exact below this bound (Sorenson and
# Webster, Math. Comp. 86, 2017); above it a base can still prove n
# composite, but passing them all proves nothing
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981

# _prime_factors trial-divides by the integers below this, then runs rho
_TRIAL_BELOW = 1024

# _conv multiplies by Kronecker substitution once the shorter operand has
# this many coefficients.  On the products of the benchmark's arith
# workload (over Q(t), coefficients of up to about 150 bits) the
# schoolbook loop was faster up to 6 coefficients, even at 7 and slower
# from 8 on: per product 6.0 against 6.4 us at 6, 8.4 against 7.0 us at
# 8, 13.0 against 8.2 us at 10 and 31 against 15 us at 16 (CPython 3.11
# on a 2-vCPU Xeon VM)
_KRONECKER_FROM = 8


def _is_prime(n):
    """Exact primality by deterministic Miller-Rabin.

    A base that is a witness proves n composite at any size.  Below
    ``_MR_EXACT_BELOW`` an n that passes every base is prime; above it
    such an n is only a probable prime, and ResourceBoundExceeded is
    raised rather than a claim the test does not prove.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ResourceBoundExceeded(
            "%d passes Miller-Rabin to the bases 2..41, which proves "
            "primality only below %d" % (n, _MR_EXACT_BELOW))
    return True


def _rho_divisor(n):
    """A divisor 1 < d < n of the odd composite n.

    Brent's variant of Pollard's rho (BIT 20, 1980): y -> y^2 + c mod n
    with Brent's cycle detection, the differences multiplied mod n over
    batches of 64 steps so one gcd serves a batch.  A batch whose gcd is
    n is replayed one step at a time; if that still meets n, c + 1 is
    tried.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 64
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _prime_factors(n):
    """{q: e} with n the product of the q^e, for n >= 1, primes ascending.

    Trial division by the integers below ``_TRIAL_BELOW``, stopping once
    the cofactor left is 1 or prime; a composite cofactor is split by
    :func:`_rho_divisor` until every part passes :func:`_is_prime`, so the
    factorization is exact.
    """
    out = {}
    for q in itertools.chain([2], range(3, _TRIAL_BELOW, 2)):
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return dict(sorted(out.items()))


def _trim(xs):
    while xs and not xs[-1]:
        xs.pop()
    return xs


def _conv(a, b):
    """Product of dense int lists (all zeros when one is empty); a new list
    of length len(a) + len(b) - 1, never one of the inputs.

    The shorter operand picks the method.  One coefficient c scales the
    other list in one pass (a copy when c = 1).  From
    ``_KRONECKER_FROM`` coefficients on it is :func:`_kronecker`, one
    big-int product.  In between it is the schoolbook loop, one row per
    nonzero coefficient of the shorter operand.
    """
    if len(b) < len(a):
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return b[:] if c == 1 else [c * y for y in b]
    if len(a) >= _KRONECKER_FROM:
        return _kronecker(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _kronecker(a, b):
    """The product of the nonempty int lists a and b, len(a) <= len(b), by
    Kronecker substitution: one int multiplication, done by CPython in C.

    Coefficient k of the product is a sum of at most n = len(a) terms
    a_i b_j, so |c_k| <= n |a|_inf |b|_inf < 2^s with s = bits(n) +
    bits(|a|_inf) + bits(|b|_inf).  A slot of w > s bits holds every c_k
    as a signed digit, so the base-2^w digits of A B, for A = sum a_i
    2^(w i) and B alike, are the c_k.  For s < 64 the slot is a 64-bit
    machine word, which ``array`` packs and unpacks in C; otherwise it is
    the least number of whole bytes, packed entry by entry.

    Packing joins the two's-complement slots of the entries, slot i
    holding a_i mod 2^w.  XOR with H = sum_k 2^(w - 1) 2^(w k) flips the
    top bit of every slot, which turns a_i mod 2^w into a_i + 2^(w - 1),
    so subtracting H leaves A (slots past len(a) go from 0 to 2^(w - 1)
    and back).  Unpacking: A B + H has the digits c_k + 2^(w - 1), in
    [0, 2^w), and XOR with H leaves c_k mod 2^w in slot k, read back as a
    signed slot.
    """
    s = (max(max(a), -min(a)).bit_length()
         + max(max(b), -min(b)).bit_length() + len(a).bit_length())
    size = len(a) + len(b) - 1
    if s < 64:
        # native byte order throughout: a big-endian host reads A, B and
        # the product reversed alike, and rev(A) rev(B) = rev(A B)
        order = sys.byteorder
        bias = int.from_bytes(array("q", [-1 << 63]) * size, order)
        x, y = [(int.from_bytes(array("q", f), order) ^ bias) - bias
                for f in (a, b)]
        return memoryview(((x * y + bias) ^ bias).to_bytes(
            8 * size, order)).cast("q").tolist()
    nb = s // 8 + 1
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * size, "little")
    x, y = [(int.from_bytes(b"".join([c.to_bytes(nb, "little", signed=True)
                                      for c in f]), "little") ^ bias) - bias
            for f in (a, b)]
    m = ((x * y + bias) ^ bias).to_bytes(size * nb, "little")
    return [int.from_bytes(m[i:i + nb], "little", signed=True)
            for i in range(0, size * nb, nb)]


def _long_div(r, d, p):
    """(quo, rem) of the int lists r by d (trimmed), constant first.

    Over F_p (p > 0) mod p.  Over Q (p = 0) r is first scaled by
    lc(d)^(deg r - deg d + 1), so every quotient step is an exact //:
    this is pseudo-division, and rem the pseudo-remainder.  An exact
    quotient over Z is :func:`_exact_quo`.
    """
    m, lc = len(d) - 1, d[-1]
    top = len(r) - 1 - m
    s = 1 if p or top < 0 else lc ** (top + 1)
    r = [c * s for c in r]
    inv = pow(lc, -1, p) if p else None
    # r[k + m] is read once, at step k, so lc(d) never needs subtracting
    ds = [(j, c) for j, c in enumerate(d[:-1]) if c]
    quo = [0] * (top + 1)
    for k in range(top, -1, -1):
        c = quo[k] = r[k + m] * inv % p if p else r[k + m] // lc
        for j, x in ds:
            r[k + j] -= c * x
    return quo, _trim([c % p for c in r[:m]] if p else r[:m])


def _primitive_ints(xs):
    """(ints, scale): coprime integers ints[i] = scale * xs[i].

    xs holds ints or Fractions.  scale is the positive Fraction
    lcm(denominators) / content, so signs are kept; an all-zero xs gives
    zeros and scale 1.
    """
    d = math.lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (d // x.denominator) for x in xs]
    g = math.gcd(*ints)
    if g > 1:
        return [x // g for x in ints], Fraction(d, g)
    return ints, Fraction(d)


def _uni_gcd_p(a, b, p):
    """Euclid on dense int lists mod p; returns monic list."""
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _long_div(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pp(f):
    """Primitive part of a nonzero int list, leading coefficient > 0."""
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return [x // c for x in f]


def _exact_quo(d, r):
    """The quotient r / d in Z[t] of trimmed int lists, d primitive, or
    None when d does not divide r.

    Long division with ``divmod`` at every step: a nonzero remainder of
    a step or at the end refutes.  By Gauss's lemma divisibility in Q[t]
    by a primitive d is divisibility in Z[t], so nothing is scaled.
    """
    m, lc = len(d) - 1, d[-1]
    r = r[:]
    ds = [(j, c) for j, c in enumerate(d[:-1]) if c]
    quo = [0] * (len(r) - m)
    for k in range(len(r) - 1 - m, -1, -1):
        c, s = divmod(r[k + m], lc)
        if s:
            return None
        if c:
            quo[k] = c
            for j, x in ds:
                r[k + j] -= c * x
    return None if any(r[:m]) else quo


def _gcd_cofactors(polys, p):
    """(g, [f / g for f in polys]) for trimmed int lists, not all zero: g
    monic over F_p, primitive with lc(g) > 0 over Q.  When g = 1 the
    entries themselves come back.

    Over F_p this is Euclid, then long division.  Over Q it is the
    heuristic gcd (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput. 7,
    1989): the nonzero inputs f_1..f_k are evaluated at an integer xi, the
    integer gcd gamma of the values is read back as symmetric base-xi
    digits h (|h_i| <= xi/2), and pp(h) is the answer once it divides
    every input; the quotients of that check are the cofactors.  Else xi
    grows and the round repeats.

    Correctness.  Let f be an input of least |f|_inf and B = 1 +
    |f|_inf / |lc f|; xi starts at 2 |f|_inf + 2 >= 2B and only grows.
    By Cauchy's bound the roots z of a common factor k of the inputs have
    |z| < B, so a nonconstant k satisfies |k(xi)| >= prod |xi - z_i| >
    (xi/2)^deg k >= xi/2, and f(xi) != 0.  k(xi) divides every value, so
    once the values read so far have a gcd 0 < gamma <= xi/2 there is no
    such k, and g = 1.  Otherwise, with every value read, gamma = h(xi)
    != 0.  Let h' = pp(h) divide every input, so h'(xi) != 0, and let
    g = h' k be their primitive gcd.  g(xi) divides every value, hence
    h(xi) = cont(h) h'(xi), so k(xi) divides cont(h), which is at most
    any nonzero |h_i| <= xi/2.  Hence k is constant and h' = +-g.

    Termination.  Write f_i = g c_i.  The c_i are jointly coprime in
    Q[t], so the ideal they generate in Z[t] holds a nonzero integer R
    (clear the denominators of a Bezout identity), and the gcd c of the
    values c_i(xi) divides R; gamma = |g(xi)| c.  Once xi > 2 |R| |g|_inf,
    the digits c g_i (or -c g_i) are all below xi/2 and so are the unique
    symmetric digits of gamma: pp(h) = +-g divides every input, and xi
    grows without bound until then.
    """
    fs = [f for f in polys if f]
    least = min(map(len, fs))
    if least == 1:
        return [1], polys
    if p:
        # shortest first; gcd(g, []) makes a lone input monic
        g, *rest = sorted(fs, key=len)
        for f in rest or [[]]:
            g = _uni_gcd_p(g, f, p)
            if len(g) == 1:
                return g, polys
        return g, [_long_div(f, g, p)[0] for f in polys]
    xi = 2 * min(max(map(abs, f)) for f in fs) + 2
    while True:
        gamma, half = 0, xi // 2
        for f in fs:
            v = 0
            for c in reversed(f):
                v = v * xi + c
            gamma = math.gcd(gamma, v)
            if 0 < gamma <= half:
                return [1], polys
        h = []
        while gamma:
            gamma, d = divmod(gamma, xi)
            if d > half:
                gamma, d = gamma + 1, d - xi
            h.append(d)
        if len(h) <= least:
            h, qs = _pp(h), []
            for f in polys:
                q = _exact_quo(h, f)
                if q is None:
                    break
                qs.append(q)
            else:
                return h, qs
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011


def _uni_gcd_q(a, b):
    """Primitive gcd over Z of int lists, leading coefficient positive: the
    two-input case of :func:`_gcd_cofactors` on the primitive parts, the
    shorter checked first.  gcd(a, 0) is pp(a), and gcd(0, 0) is []."""
    fs = sorted([_pp(f) for f in (b, a) if f], key=len)
    return _gcd_cofactors(fs, 0)[0] if fs else []


def _add(a, b, p):
    """a + b, trimmed; mod p when p."""
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    if p:
        out = [x % p for x in out]
    return _trim(out)


def _sub(a, b, p):
    """a - b, trimmed; mod p when p."""
    out = a + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    if p:
        out = [x % p for x in out]
    return _trim(out)


def _mul(a, b, p):
    """a * b, trimmed (empty when either is zero); mod p when p."""
    if not a or not b:
        return []
    out = _conv(a, b)
    return _trim([x % p for x in out]) if p else out


def _power(a, n, mul):
    """a^n for n >= 1, by repeated squaring with the product mul."""
    out = a
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


def _derivative(a, p):
    out = [k * c for k, c in enumerate(a)][1:]
    return _trim([x % p for x in out]) if p else out


def _compose(n, a, bpow, m, p):
    """sum_k n[k] a^k b^(m-k) over the terms of n, with bpow[i] = b^i for
    a polynomial b and m >= deg n: the numerator of n(a/b) over b^m, by
    Horner's rule.  An int b is the table [[b^i]]; trimmed, mod p when p."""
    acc = []
    for k in range(len(n) - 1, -1, -1):
        if acc:
            acc = _conv(acc, a)
        if n[k]:
            term = [n[k] * x for x in bpow[m - k]]
            if len(acc) < len(term):
                acc += [0] * (len(term) - len(acc))
            for i, y in enumerate(term):
                acc[i] += y
        if p:
            acc = [x % p for x in acc]
    return _trim(acc)


def _poly_jet_mod(ints, c, n, q):
    """Coefficients 0..n-1 of p(c + eps) mod q, p given by its int list."""
    jet = [0] * n
    for a in reversed(ints):
        # Horner step: jet * (c + eps) + a
        jet = [(c * jet[0] + a) % q] + [
            (c * jet[i] + jet[i - 1]) % q for i in range(1, n)]
    return jet


# the least partial quotient that _rational_reconstruct accepts.  A residue
# mod p drawn at random has about 0.84 ln p quotients, each at least this
# large with probability about 1.44 / _RECONSTRUCT_MARGIN (Gauss-Kuzmin):
# about 6 * 10^-6 in all mod 2^61 - 1.  There every n/d with
# max(|n|, d) < 2^61 / (|n| d) - 1 and |n| d < 2.7 * 10^11 is recovered,
# each integer up to 1.5 * 10^9 among them
_RECONSTRUCT_MARGIN = 1 << 23


def _rational_reconstruct(a, p):
    """The fraction n/d = a mod p of the largest partial quotient, or None.

    Maximal-quotient rational reconstruction (Monagan, ISSAC 2004).  The
    remainders of the extended Euclidean algorithm on p and a are
    r_i = t_i a mod p.  Were a = n/d mod p with gcd(n, d) = 1 and
    2 |n| d < p, then a d - n = k p with |a/p - k/d| < 1 / (2 d^2), so
    k/d is a convergent of a/p (Legendre) and some (r_i, t_i) = +-(n, d).
    The quotients before it multiply to at most d, those after the next
    one to at most |n|, and the next one is at least p / (|n| d) - 1.  So
    the pair before the largest quotient is taken, only when that
    quotient exceeds ``_RECONSTRUCT_MARGIN`` and the pair is coprime: the
    residue of no small fraction rarely has a quotient that large.  0 is
    0.
    """
    r0, r1 = p, a % p
    if not r1:
        return Fraction(0)
    t0, t1 = 0, 1
    best, n, d = _RECONSTRUCT_MARGIN, 0, 0
    while r1 and r0 > best:
        quo = r0 // r1
        if quo > best:
            best, n, d = quo, r1, t1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if not d or math.gcd(n, d) != 1:
        return None
    return Fraction(n, d)


class _Packed:
    """F_p[y]/(f), f a monic mod-p list of degree k (irreducible for a
    field), each element one int: its coordinates c_i in [0, p) on y^i
    packed as sum_i c_i 2^(W i), in k slots of W bits.

    A product is one int multiplication, its 2k - 1 slots at most
    k (p-1)^2, then a fixed number of folds of the part from y^k down by
    y^k = -g, g = f - y^k (two for y^22 + 4y^2 + 1), each a product by
    the packed -g mod p that multiplies the slot bound by at most
    1 + t (p-1), t the terms of g.  For f = y^k, g = 0 and there is no
    fold: F_p[y]/(y^k) holds polynomials of degree below k, and a
    product that reaches y^k raises instead of losing its top part.
    reduce takes every slot s < 2^h mod
    p at once: with e = h + bits(p) and m = ceil(2^e / p),
    floor(s m / 2^e) = floor(s / p), as s (m p - 2^e) / (p 2^e) < 1/p,
    and s m < 2^(2h + 2) <= 2^W, so a product by m, a shift, a mask and
    a product by p carry nothing between slots.  Sums are int sums; h
    covers a folded product and a sum of ``terms`` reduced elements.  W
    is 8 to 64 bits where that fits, for struct to unpack in C, and
    whole bytes beyond.
    """

    def __init__(self, f, p, terms=2):
        k = len(f) - 1
        neg = [-c % p for c in f[:-1]]
        # each fold lowers the top degree, 2k - 2 at first, by k - deg g
        top = max((i for i, c in enumerate(neg) if c), default=None)
        folds = 0 if top is None else -(-(k - 1) // (k - top))
        bound = k * (p - 1) ** 2 * (1 + (k - neg.count(0)) * (p - 1)) ** folds
        h = max(bound, terms * (p - 1)).bit_length()
        nb = next((n for n in (1, 2, 4, 8) if 8 * n >= 2 * h + 2),
                  (2 * h + 9) // 8)
        self.f, self.p, self.nb, self.folds = f, p, nb, folds
        self.code = {1: "<%dB", 2: "<%dH", 4: "<%dI", 8: "<%dQ"}.get(nb)
        self.size, self.shift, self.e = k * nb, 8 * k * nb, h + p.bit_length()
        self.low = (1 << self.shift) - 1
        self.m = -(-(1 << self.e) // p)
        self.mask = ((1 << 8 * nb - self.e) - 1) * (self.low // (
            (1 << 8 * nb) - 1))
        self.minus_g, self.ps = self.pack(neg), self.pack([p] * k)

    def pack(self, coords):
        """The element with these coordinates, at most k of them."""
        return int.from_bytes(b"".join(
            [c.to_bytes(self.nb, "little") for c in coords]), "little")

    def unpack(self, xs):
        """The k coordinates of each element of xs in turn, in one list."""
        raw = b"".join([x.to_bytes(self.size, "little") for x in xs])
        if self.code:
            return list(struct.unpack(self.code % (len(raw) // self.nb), raw))
        return [int.from_bytes(raw[i:i + self.nb], "little")
                for i in range(0, len(raw), self.nb)]

    def scalar(self, c):
        return c % self.p

    def reduce(self, x):
        """x with every slot, below 2^h, taken mod p."""
        return x - (x * self.m >> self.e & self.mask) * self.p

    def neg(self, x):
        """-x, for x as reduce takes it: p - (x mod p) in every slot, then
        mod p."""
        return self.reduce(self.ps - self.reduce(x))

    def mul(self, a, b):
        x = a * b
        for _ in range(self.folds):
            x = (x & self.low) + (x >> self.shift) * self.minus_g
        if x >> self.shift:
            raise AssertionError("packed product not folded below y^k")
        return self.reduce(x)

    def power(self, a, n):
        return _power(a, n, self.mul)

    def inv(self, a):
        """a^{-1}, or None for 0: by pow for a scalar (below p), else by
        the extended Euclidean algorithm on f and the coordinates."""
        p = self.p
        if a < p:
            return pow(a, -1, p) if a else None
        r0, r1, s0, s1 = self.f, _trim(self.unpack([a])), [], [1]
        while len(r1) > 1:
            quo, r2 = _long_div(r0, r1, p)
            s2 = _trim([(x - y) % p for x, y in itertools.zip_longest(
                s0, _conv(quo, s1), fillvalue=0)])
            r0, r1, s0, s1 = r1, r2, s1, s2
        if not r1:
            return None
        c = pow(r1[0], -1, p)
        return self.pack([x * c % p for x in s1])

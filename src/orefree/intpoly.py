"""Dense univariate polynomials on int lists, and primality and factoring
of ints.

A polynomial is a list of ints, constant term first; ``[]`` is zero and
a trimmed list has a nonzero last entry.  Over F_p (``p > 0``) entries are
reduced mod p by the functions that take ``p``; over Q (``p = 0``) they are
integers and a rational polynomial is an int list over one common
denominator, which the caller keeps.  Nothing here builds an object
per coefficient: :mod:`field` moves its univariate products, divisions
and gcds onto these lists, :mod:`skew` applies the Moebius maps of k(t)
on them, and :mod:`orepoly` keeps a whole Ore polynomial over k(t) as one
denominator plus numerator lists.
"""

import math
from fractions import Fraction


# Miller-Rabin with these bases is exact below this bound (Sorenson and
# Webster, Math. Comp. 86, 2017); above it trial division decides
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    """Exact primality: deterministic Miller-Rabin, trial division past
    the bound where its bases are proved to suffice."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        return all(n % f for f in range(43, math.isqrt(n) + 1, 2))
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
    return True


def _prime_factors(n):
    """{q: e} with n the product of the q^e, for n >= 1, by trial division
    that stops once the cofactor left is 1 or prime."""
    out, q, prime = {}, 2, _is_prime(n)
    while n > 1 and not prime:
        if n % q:
            q += 1 if q == 2 else 2
            continue
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        prime = _is_prime(n)
    if n > 1:
        out[n] = 1
    return out


def _trim(xs):
    while xs and not xs[-1]:
        xs.pop()
    return xs


def _conv(a, b):
    """Product of dense int lists (all zeros when one is empty)."""
    out = [0] * (len(a) + len(b) - 1)
    bs = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in bs:
                out[i + j] += x * y
    return out


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

"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: textbook
Gaussian elimination over the fraction field, generic nullspace by
augmented elimination, and random element generators with caller-supplied
seeds.  None of it imports the fraction-free or PRS code paths under test
beyond the element arithmetic itself.
"""

import itertools
import math
from fractions import Fraction

from orefree.field import MPoly, _common_denominator, _from_dense
from orefree.intpoly import _conv, _is_prime, _long_div, _uni_gcd_p


def gauss_rank_fractions(rows):
    """Rank by plain Gaussian elimination over Fraction scalars."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def gauss_rank_modp(rows, p):
    m = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def generic_nullspace(rows, zero, one):
    """Row-space nullspace over any field whose elements support operators.

    Returns vectors lam with sum(lam[i] * rows[i]) == 0, computed by
    eliminating [M | I] and reading the identity part of zero rows.
    Entries must support +, -, *, /, ==.
    """
    n = len(rows)
    if n == 0:
        return []
    aug = [list(rows[i]) + [one if j == i else zero for j in range(n)]
           for i in range(n)]
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for r in range(pivot_row, n):
            if aug[r][col] != zero:
                piv = r
                break
        if piv is None:
            continue
        aug[pivot_row], aug[piv] = aug[piv], aug[pivot_row]
        pv = aug[pivot_row][col]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(n):
            if r != pivot_row and aug[r][col] != zero:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == n:
            break
    null = []
    for r in range(n):
        if all(aug[r][c] == zero for c in range(ncols)):
            null.append(aug[r][ncols:])
    return null


def random_poly(rng, ff, max_deg=3, max_terms=4):
    """Random sparse polynomial, possibly zero."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(ff.nvars))
        if ff.char:
            c = rng.randint(0, ff.char - 1)
        else:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            terms[e] = c
    out = ff.poly_zero()
    for e, c in terms.items():
        mono = ff.poly_const(c)
        for i, k in enumerate(e):
            mono = mono * ff.poly_var(i) ** k
        out = out + mono
    return out


def random_poly_nonzero(rng, ff, max_deg=3, max_terms=4):
    while True:
        p = random_poly(rng, ff, max_deg, max_terms)
        if not p.is_zero():
            return p


def ratfunc(num, den):
    """num / den in the field of the MPolys num and den."""
    one = num.ff.one()
    return (one * num) / (one * den)


def poly_parts(f):
    """(num, den) of a RatFunc as MPolys with den monic, in every field.

    Over k(t) a RatFunc holds int lists; their coefficients are read here
    as c / lc(den), mod p over F_p, apart from the library's own printer
    and flattening."""
    ff = f.ff
    if ff.nvars > 1:
        return f.num, f.den
    p, lc = ff.char, f.den[-1]

    def poly(ints):
        return MPoly(ff, {(k,): c * pow(lc, -1, p) % p if p
                          else Fraction(c, lc)
                          for k, c in enumerate(ints) if c})
    return poly(f.num), poly(f.den)


def random_ratfunc(rng, ff, max_deg=3, max_terms=3):
    return ratfunc(random_poly(rng, ff, max_deg, max_terms),
                   random_poly_nonzero(rng, ff, max_deg, max_terms))


def random_ratfunc_nonzero(rng, ff, max_deg=3, max_terms=3):
    while True:
        f = random_ratfunc(rng, ff, max_deg, max_terms)
        if not f.is_zero():
            return f


def bivariate_extension(ff, xname="X_"):
    """k(y1, ..., yn, x): the commutative model of K(x; 1, 0)."""
    from orefree.field import FunctionField

    return FunctionField(ff.char, list(ff.names) + [xname])


def ore_to_commutative(frac, biv):
    """Value of a sigma = 1, delta = 0 Ore fraction in the plain field.

    Coefficients lift by substituting the shared generators; the Ore
    indeterminate becomes the last generator of ``biv``.  This gives an
    independent route to fraction arithmetic over the commutative case.
    """
    gens = [biv.var(i) for i in range(biv.nvars - 1)]
    x = biv.var(biv.nvars - 1)

    def lift_mpoly(m):
        acc = biv.zero()
        for e, c in m.terms.items():
            term = biv.const(c)
            for g, k in zip(gens, e):
                term = term * g ** k
            acc = acc + term
        return acc

    def lift_poly(p):
        acc = biv.zero()
        for i, c in enumerate(p.coeffs):
            if c.is_zero():
                continue
            num, den = poly_parts(c)
            acc = acc + lift_mpoly(num) / lift_mpoly(den) * x ** i
        return acc

    return lift_poly(frac.num) / lift_poly(frac.den)


def series_xstep_sigma(ff, sigma, coeffs):
    """One left multiplication by x in K[[x; sigma]]: x c x^n = sigma(c) x^{n+1}."""
    out = [ff.zero()]
    for c in coeffs[:-1]:
        out.append(sigma.apply(c))
    return out


def _ref_delta_poly(delta, p):
    """delta(p) for a polynomial p, sigma = id: the chain rule through
    formal partials, one RatFunc product per generator."""
    out = delta.ff.zero()
    for i, img in enumerate(delta.images):
        if not img.is_zero():
            d = p.partial(i)
            if not d.is_zero():
                out = out + img * d
    return out


def ref_delta_apply(delta, f):
    """delta(f) on RatFuncs: c*(sigma(f) - f) when twisted, c =
    delta.inner, else the quotient rule over the chain rule above, which
    is the chain rule alone for a polynomial (den = 1).  The reference
    for ``SkewDerivation.apply``, which forms one fraction over numerators
    instead."""
    if delta.inner is not None:
        return delta.inner * (delta.twist.apply(f) - f)
    num, den = poly_parts(f)
    if f.is_poly():
        return _ref_delta_poly(delta, num)
    one = delta.ff.one()
    n, d = one * num, one * den
    return ((_ref_delta_poly(delta, num) * d
             - n * _ref_delta_poly(delta, den)) / (d * d))


def series_xstep_delta(ff, delta, coeffs):
    """One left multiplication by x when x c = c x + delta(c)."""
    out = []
    for s in range(len(coeffs)):
        v = ref_delta_apply(delta, coeffs[s])
        if s > 0:
            v = v + coeffs[s - 1]
        out.append(v)
    return out


def series_xinv_step_delta(ff, delta, coeffs):
    """One left multiplication by x^{-1} in K((x^{-1}; delta)), truncated.

    coeffs[n] is the coefficient of x^{-n}.  Each term x^{-1} c x^{-n} is
    rewritten by x^{-1} c = c x^{-1} - x^{-1} delta(c) x^{-1} until the
    leftover x^{-1} (...) x^{-k} falls past the truncation; no closed
    binomial formula is used.  Orders only move down, so the result is
    exact through the last order kept.
    """
    out = [ff.zero()] * len(coeffs)
    for n, c in enumerate(coeffs):
        k, sign = n, 1
        while k + 1 < len(coeffs) and not c.is_zero():
            out[k + 1] = out[k + 1] + c * sign
            c = ref_delta_apply(delta, c)
            k, sign = k + 1, -sign
    return out


def ref_relation_holds_fp(pair, words, exact, lam):
    """The exact proof of sum lam_i W_{words[i]} = 0 over F_p(t) on MPoly
    views: the series of the support's prefix closure C at orders
    0..|C| - 1, fraction-free on the values Delta v_j (exact is the
    library's _ExactValues), each word's coefficient weighted by
    Delta^(r - r_w), must vanish.  The series step is written out: a
    pointwise product and a prefix sum under sigma, the binomial dot
    product by math.comb and a negated shifted prefix sum under delta.
    """
    support = {w: c for w, c in zip(words, lam) if c}
    closure = sorted({w[:k] for w in support for k in range(len(w) + 1)},
                     key=lambda w: (len(w), w))
    e = len(closure) - 1
    r = max(map(sum, support))
    ff = pair.ff
    values = exact.prefix(e)
    delta, nums = _common_denominator(values, exact.lcm(len(values)))
    delta, *vals = (_from_dense(ff, h) for h in [delta] + nums)
    zero = ff.poly_zero()
    auto = pair.is_pure_automorphism()

    def times_b(a):
        if auto:
            return [x * v for x, v in zip(a, vals)]
        return [a[0] * vals[0]] + [
            sum(((-1) ** (n - m) * math.comb(n - 1, n - m) * a[m]
                 * vals[n - m] for m in range(1, n + 1) if n - m < len(vals)),
                zero) for n in range(1, e + 1)]

    def geometric(a):
        if auto:
            return list(itertools.accumulate(a))
        return [zero] + [-s for s in itertools.accumulate(a[:-1])]

    series = {(): [ff.poly_one()] + [zero] * e}
    for w in closure[1:]:
        prefix = series[w[:-1]]
        series[w] = geometric(times_b(prefix) if w[-1] else prefix)
    scales = [ff.poly_one()]
    while len(scales) <= r:
        scales.append(scales[-1] * delta)
    return not any(
        sum((c * scales[r - sum(w)] * series[w][m]
             for w, c in support.items()), zero)
        for m in range(e + 1))


def series_mul(ff, A, B, xstep):
    """Truncated series product as sum_m a_m * (x^m * B), one x at a time.

    No closed commutation formula: x^m B is reached by m applications of
    ``xstep``.  When x pushes coefficients downward (the delta case), the
    cut of the m-sum at the truncation order makes the top orders of the
    result stale, so callers must pad the working order beyond what they
    read off.
    """
    out = [ff.zero()] * len(A)
    cur = list(B)
    for m, am in enumerate(A):
        if not am.is_zero():
            out = [o + am * c for o, c in zip(out, cur)]
        if m + 1 < len(A):
            cur = xstep(ff, cur)
    return out


def word_series(ff, bits, b, order, xstep, geom=None):
    """Series of b^{i_1}(1-x)^{-1} ... b^{i_r}(1-x)^{-1} to the given order.

    In x, (1-x)^{-1} expands to the all-ones series in both commutation
    models (multiply it by 1 - x and everything telescopes); the default
    geom is that series.  In x^{-1} pass geom = [0, -1, -1, ...], since
    (1-x)^{-1} = -sum_{k>=1} x^{-k} there.  Factors fold right to left,
    the opposite association of the implementation under test.
    """
    if geom is None:
        geom = [ff.one()] * (order + 1)
    out = [ff.one()] + [ff.zero()] * order
    for i in reversed(bits):
        right = out
        left = [b * c for c in geom] if i else geom
        out = series_mul(ff, left, right, xstep)
    return out


def eval_poly(p, point):
    """Value of a multivariate polynomial at a tuple of scalars."""
    acc = 0 if p.ff.char else Fraction(0)
    for e, c in p.terms.items():
        term = c
        for v, k in enumerate(e):
            term = term * point[v] ** k
        acc = acc + term
    return acc % p.ff.char if p.ff.char else acc


def eval_ratfunc(f, point):
    """Value at a point, or None when the point meets the denominator."""
    num, den = poly_parts(f)
    den = eval_poly(den, point)
    if den == 0:
        return None
    num = eval_poly(num, point)
    if f.ff.char:
        return num * pow(den, f.ff.char - 2, f.ff.char) % f.ff.char
    return Fraction(num) / den


def nullspace_modp(rows, p):
    """Mod-p version of generic_nullspace on plain integer rows."""
    n = len(rows)
    aug = [[x % p for x in rows[i]] + [1 if j == i else 0 for j in range(n)]
           for i in range(n)]
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for r in range(pivot_row, n):
            if aug[r][col]:
                piv = r
                break
        if piv is None:
            continue
        aug[pivot_row], aug[piv] = aug[piv], aug[pivot_row]
        inv = pow(aug[pivot_row][col], p - 2, p)
        aug[pivot_row] = [x * inv % p for x in aug[pivot_row]]
        for r in range(n):
            if r != pivot_row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == n:
            break
    return [aug[r][ncols:] for r in range(n)
            if all(aug[r][c] == 0 for c in range(ncols))]


def k_rank_by_evaluation(rows, points):
    """Certified rank over the prime field of rows of rational functions.

    Evaluating at scalar points is k-linear, so every true k-relation
    survives into the stacked evaluated matrix and the evaluated rank is a
    lower bound.  The bound is tight exactly when every evaluated
    nullspace vector re-verifies symbolically; this function demands that
    and raises if the points were too few, so a returned answer is exact
    in both directions.  Points meeting any denominator are skipped.
    """
    ff = rows[0][0].ff
    p = ff.char
    stacked = [[] for _ in rows]
    for pt in points:
        cols = [[eval_ratfunc(f, pt) for f in row] for row in rows]
        if any(v is None for col in cols for v in col):
            continue
        for i, col in enumerate(cols):
            stacked[i].extend(col)
    assert stacked[0], "every point met a denominator"
    if p:
        null = nullspace_modp(stacked, p)
    else:
        null = generic_nullspace(stacked, Fraction(0), Fraction(1))
    for lam in null:
        for j in range(len(rows[0])):
            acc = ff.zero()
            for c, row in zip(lam, rows):
                acc = acc + row[j] * c
            assert acc.is_zero(), (
                "evaluated nullspace vector fails symbolically; add points")
    return len(rows) - len(null), null


def brute_force_lclm(f, g):
    """Least common left multiple by linear algebra over K.

    For each candidate degree d from max(deg f, deg g) upward, look for a
    K-linear combination sum u_k (x^k f) - sum v_k (x^k g) = 0 among the
    coefficient vectors; the first degree admitting one is the lclm degree
    and the monic multiple of that degree is unique.  Independent of the
    extended-Euclid route under test.
    """
    from orefree.orepoly import OrePoly

    ctx = f.ctx
    ff = ctx.ff
    df, dg = f.degree, g.degree
    x = OrePoly.x(ctx)
    xkf = [f]
    for _ in range(dg):
        xkf.append(x * xkf[-1])
    xkg = [g]
    for _ in range(df):
        xkg.append(x * xkg[-1])
    for d in range(max(df, dg), df + dg + 1):
        nu = d - df + 1
        nv = d - dg + 1
        rows = [[xkf[k].coeff(i) for i in range(d + 1)] for k in range(nu)]
        rows += [[-(xkg[k].coeff(i)) for i in range(d + 1)]
                 for k in range(nv)]
        null = generic_nullspace(rows, ff.zero(), ff.one())
        if null:
            u = OrePoly(ctx, null[0][:nu])
            m = u * f
            assert not m.is_zero()
            return m.monic()
    raise AssertionError("no common left multiple up to deg f + deg g")


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_ore_add(a, b):
    """Sum of two coefficient lists, coefficient by coefficient."""
    if len(a) < len(b):
        a, b = b, a
    return _ref_trim([c + b[i] if i < len(b) else c for i, c in enumerate(a)])


def ref_ore_scale(c, a):
    """c * a for a RatFunc c on the left of a coefficient list."""
    return _ref_trim([c * y for y in a])


def ref_ore_xstep(pair, cs):
    """x * sum cs[j] x^j by x c = sigma(c) x + delta(c), per coefficient."""
    out = [pair.ff.zero()] * (len(cs) + 1)
    for j, c in enumerate(cs):
        out[j + 1] = out[j + 1] + pair.sigma.apply(c)
        out[j] = out[j] + ref_delta_apply(pair.delta, c)
    return _ref_trim(out)


def ref_ore_mul(pair, a, b):
    """Product of coefficient lists: sum_i a_i (x^i b)."""
    acc, xk = [], _ref_trim(b)
    for i, c in enumerate(a):
        if i:
            xk = ref_ore_xstep(pair, xk)
        acc = ref_ore_add(acc, ref_ore_scale(c, xk))
    return acc


def ref_ore_right_quo_rem(pair, a, g):
    """(q, r) with a = q g + r, by long division on RatFunc coefficients."""
    r, g = _ref_trim(a), _ref_trim(g)
    q = [pair.ff.zero()] * max(0, len(r) - len(g) + 1)
    while len(r) >= len(g):
        m = len(r) - len(g)
        xg = g
        for _ in range(m):
            xg = ref_ore_xstep(pair, xg)
        c = r[-1] / xg[-1]
        q[m] = q[m] + c
        r = ref_ore_add(r, ref_ore_scale(-c, xg))
    return _ref_trim(q), r


def ref_ore_left_quo_rem(pair, a, g):
    """(q, r) with a = g q + r: lc(g c x^m) = lc(g) sigma^deg(g)(c)."""
    r, g = _ref_trim(a), _ref_trim(g)
    zero = pair.ff.zero()
    q = [zero] * max(0, len(r) - len(g) + 1)
    while len(r) >= len(g):
        m = len(r) - len(g)
        c = pair.sigma.apply(r[-1] / g[-1], -(len(g) - 1))
        q[m] = q[m] + c
        r = ref_ore_add(r, ref_ore_scale(
            pair.ff.const(-1), ref_ore_mul(pair, g, [zero] * m + [c])))
    return _ref_trim(q), r


def ref_ore_gcrd_degree(pair, a, b):
    """Degree of the greatest common right divisor, by reference Euclid."""
    a, b = _ref_trim(a), _ref_trim(b)
    while b:
        a, b = b, ref_ore_right_quo_rem(pair, a, b)[1]
    return len(a) - 1


def reducible_monic_modp(p, n):
    """Every reducible monic degree-n polynomial over F_p, as a tuple of
    coefficients, constant first: all products of two monic factors."""
    def monic(d):
        return [c + (1,) for c in itertools.product(range(p), repeat=d)]
    out = set()
    for d in range(1, n // 2 + 1):
        for g in monic(d):
            for h in monic(n - d):
                prod = [0] * (n + 1)
                for i, a in enumerate(g):
                    for j, b in enumerate(h):
                        prod[i + j] = (prod[i + j] + a * b) % p
                out.add(tuple(prod))
    return out



def ref_rabin_irreducible(f, p):
    """Rabin's test (SIAM J. Comput. 9, 1980) for the monic mod-p list f,
    one Euclid per step on dense lists: the reference for the batched
    test on packed ints.

    f of degree n >= 2 is irreducible over F_p exactly when x^(p^n) = x
    mod f and gcd(x^(p^(n/r)) - x, f) = 1 for every prime r dividing n.
    The gcd is also taken for every k <= n/2: an irreducible f has no
    factor of degree dividing k < n, so it stays 1 there, and a reducible
    f is rejected at the degree of its smallest factor.
    """
    n = len(f) - 1
    h = x = [0, 1]
    for k in range(1, n + 1):
        acc = [1]
        for bit in bin(p)[2:]:  # h^p mod f, square and multiply
            acc = _long_div(_conv(acc, acc), f, p)[1]
            if bit == "1":
                acc = _long_div(_conv(acc, h), f, p)[1]
        h = acc
        if 2 * k <= n or (n % k == 0 and _is_prime(n // k)):
            d = h + [0] * (2 - len(h))
            d[1] -= 1
            if len(_uni_gcd_p([c % p for c in d], f, p)) > 1:
                return False
    return h == x

# Sparse univariate kernels on term dicts {(k,): c}, one scalar pair at a
# time through BaseField: the reference for the dense integer kernels of
# MPoly.__mul__ and divide_exact, and for MPoly.substitute_poly.

def _sparse_axpy(base, out, c, terms, shift=0):
    """out += c * y^shift * terms, in place, zeros dropped."""
    for (j,), x in terms.items():
        k = (j + shift,)
        s = base.add(out.get(k, base.zero()), base.mul(c, x))
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def sparse_uni_mul(base, a, b):
    """Product of univariate term dicts."""
    out = {}
    for (i,), c in a.items():
        _sparse_axpy(base, out, c, b, i)
    return out


def sparse_uni_divmod(base, a, g):
    """(quotient, remainder) of univariate term dicts by long division."""
    (dg,) = max(g)
    inv = base.inv(g[(dg,)])
    rem, quo = dict(a), {}
    while rem and max(rem)[0] >= dg:
        (dr,) = max(rem)
        c = base.mul(rem[(dr,)], inv)
        quo[(dr - dg,)] = c
        _sparse_axpy(base, rem, base.neg(c), g, dr - dg)
    return quo, rem


def sparse_uni_substitute(base, a, s):
    """P(s) for univariate term dicts from a table of the powers of s."""
    top = max((k for (k,) in a), default=0)
    pows = [{(0,): base.one()}]
    for _ in range(top):
        pows.append(sparse_uni_mul(base, pows[-1], s))
    out = {}
    for (k,), c in a.items():
        _sparse_axpy(base, out, c, pows[k])
    return out


def ref_divide_exact(f, g):
    """The term dict of f / g when g divides f exactly, else None, by long
    division in graded-lex order that scans the remainder for its leading
    term at every step: the reference for MPoly.divide_exact."""
    base = f.ff.base
    ge = max(g.terms, key=lambda e: (sum(e), e))
    inv = base.inv(g.terms[ge])
    rem, quo = dict(f.terms), {}
    while rem:
        re = max(rem, key=lambda e: (sum(e), e))
        qe = tuple(i - j for i, j in zip(re, ge))
        if min(qe) < 0:
            return None
        c = quo[qe] = base.mul(rem[re], inv)
        for e, x in g.terms.items():
            k = tuple(i + j for i, j in zip(qe, e))
            v = base.sub(rem.get(k, base.zero()), base.mul(c, x))
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quo


# The primitive polynomial remainder sequence over Z: the reference for the
# heuristic gcd of intpoly._uni_gcd_q.

def _prem(a, b):
    """Pseudo-remainder of int lists, constant first: the remainder of
    lc(b)^(deg a - deg b + 1) a by b, trimmed."""
    m, lc = len(b) - 1, b[-1]
    r = [x * lc ** (len(a) - m) for x in a]
    while len(r) > m:
        c = r[-1] // lc
        for j, x in enumerate(b):
            r[len(r) - 1 - m + j] -= c * x
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r


def prs_gcd_ints(a, b):
    """Primitive gcd of trimmed int lists with positive leading coefficient,
    by the primitive remainder sequence; [] when both are zero."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        g = math.gcd(*b)
        b = [x // g for x in b]
        a, b = b, _prem(a, b)
    if b:
        return [1]
    if not a:
        return []
    g = math.gcd(*a) * (1 if a[-1] > 0 else -1)
    return [x // g for x in a]


# The eager elimination over F_p and Z: every pivot reduces the whole rest
# of the block and every later row's transform at once.  The reference
# for the panel elimination of linalg._Echelon, which must give the same
# rank after every block and the same nullspace.

class EagerEchelon:
    """Row echelon form of an n-row matrix over F_p, or over Z for p = 0,
    by the eager elimination: the reference for ``linalg._Echelon``.

    The matrix is fed in column blocks.  Each row not yet taken as a
    pivot keeps its transform: the combination of the original rows that
    it now holds, of length r + 1 for row r.  A pivot row is never read
    again, so a new block B only needs the products of the remaining
    transforms with B, and then its own elimination: each block costs only
    its own columns, and the state after any sequence of blocks is the
    state after one block of all their columns side by side.
    """

    def __init__(self, n, p):
        self.n, self.p, self.rank, self.prev = n, p, 0, 1
        self.free = [(r, [0] * r + [1]) for r in range(n)]

    def add(self, block):
        """Append the columns of block (one row per matrix row); the rank.

        Over F_p the remaining rows are reduced mod p only where they are
        read: each update adds less than p^2 to an entry, so they stay
        small.
        """
        p, prev = self.p, self.prev
        ncols = len(block[0]) if block else 0
        rows = []
        for r, lam in self.free:
            acc = [0] * ncols
            for i, c in enumerate(lam):
                if c:
                    acc = [a + c * x for a, x in zip(acc, block[i])]
            rows.append((r, acc, lam))
        for col in range(ncols):
            piv = next((k for k, (_, v, _) in enumerate(rows)
                        if (v[col] % p if p else v[col])), -1)
            if piv < 0:
                continue
            _, vp, tp = rows.pop(piv)
            if p:
                vp = [x % p for x in vp[col:]]
                tp = [x % p for x in tp]
                inv = pow(vp[0], -1, p)
                for _, v, t in rows[piv:]:
                    f = v[col] * inv % p
                    if f:
                        v[col:] = [x - f * y for x, y in zip(v[col:], vp)]
                        t[:len(tp)] = [x - f * y for x, y in zip(t, tp)]
            else:
                pv, vp = vp[col], vp[col:]
                for _, v, t in rows:
                    vr = v[col]
                    if vr:
                        v[col:] = [(pv * x - vr * y) // prev
                                   for x, y in zip(v[col:], vp)]
                        t[:] = [(pv * x - vr * y) // prev for x, y in
                                itertools.zip_longest(t, tp, fillvalue=0)]
                    elif pv != prev:
                        v[col:] = [pv * x // prev for x in v[col:]]
                        t[:] = [pv * x // prev for x in t]
                prev = pv
            self.rank += 1
            if not rows:
                break
        if any((x % p if p else x) for _, v, _ in rows for x in v):
            raise AssertionError("nullspace row not eliminated")
        self.prev = prev
        self.free = [(r, [x % p for x in t] if p else t) for r, _, t in rows]
        return self.rank

    def nullspace(self):
        """The canonical relation basis, in row order: each vector scaled
        to a leading 1 over F_p, to coprime integers with the first entry
        positive over Z."""
        out = []
        for r, t in self.free:
            lam = t + [0] * (self.n - r - 1)
            lead = next(x for x in lam if x)
            if self.p:
                inv = pow(lead, -1, self.p)
                out.append([x * inv % self.p for x in lam])
            else:
                g = math.gcd(*lam) * (1 if lead > 0 else -1)
                out.append([x // g for x in lam])
        return out

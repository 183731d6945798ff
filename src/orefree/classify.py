"""Verdict pipelines: normalize a presentation, then decide what K(x) contains.

A presentation (K, sigma, delta) over a rational function field is routed
by shape.  Mixed inputs are rewritten first: over a field, a nonzero
delta alongside sigma != 1 is forced to be inner, delta = c(sigma - id),
and :class:`~orefree.skew.SkewDerivation` keeps c as ``delta.inner``.
Substituting x' = x + c, verified by Ore multiplication on every
generator, turns the ring into a pure automorphism one.  Pure shapes
then get one of four verdicts:

  Free         carries constructive evidence: a verified Weyl pair (xz -
               zx = 1 by exact arithmetic), or a growth tower, or a
               valuation-selected witness; plus, whenever one exists, a
               bounded word-independence certificate at the largest
               length up to the configured one that comes out Independent.
  PI           carries n with sigma^n = 1 and x^n verified central, the
               two checks running on different machinery.
  Commutative  sigma = 1 and delta = 0.
  Unknown      anything the evidence cannot settle; diagnostics say what
               was tried and what came back.

Verdicts never assert more than their attached evidence re-verifies.
"""

import math
from dataclasses import dataclass, field as dc_field

from . import orefrac
from .errors import (
    RequiresPureAutomorphism, RequiresPureDerivation, ResourceBoundExceeded,
)
from .field import RatFunc, _rational_roots
from .freeness import freeness_certify, valuation_witness, \
    weyl_pair_from_additive, word_key
from .orefrac import OreFraction, central_power_check
from .orepoly import OrePoly
from .skew import SkewPair, delta_tower, orbit_analyze
from .valuation import Place


@dataclass
class ClassifyOptions:
    """Budgets and optional hints for the classification pipelines."""

    orbit_bound: int = 64           # sigma steps, in several variables only
    window: int = 16
    word_length: int = 3
    tower_depth: int = 5
    witness: RatFunc = None


@dataclass
class ProblemSpec:
    pair: SkewPair
    options: ClassifyOptions = dc_field(default_factory=ClassifyOptions)
    name: str = None


@dataclass
class Verdict:
    kind: str                       # "Free" | "PI" | "Commutative" | "Unknown"
    theorem_tag: str = None
    witness: RatFunc = None
    certificate: object = None      # FreenessCertificate
    central_power: int = None
    diagnostics: list = dc_field(default_factory=list)

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.theorem_tag is not None:
            out["theorem_tag"] = self.theorem_tag
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        if self.central_power is not None:
            out["central_power"] = self.central_power
        out["diagnostics"] = list(self.diagnostics)
        return out


# ---------------------------------------------------------------------------
# presentation normalization
# ---------------------------------------------------------------------------

def normalize_presentation(pair):
    """Rewrite mixed (sigma, delta) to a pure automorphism presentation.

    Returns (pair', shift, report).  Pure inputs pass through with shift
    None.  For mixed ones the shift is c = ``delta.inner``, delta =
    c*(sigma - id), so x' = x + c gives x' a = sigma(a) x + delta(a) + c a
    = sigma(a) x'; that identity is then verified by Ore multiplication
    on every generator rather than trusted.
    """
    if pair.is_commutative():
        return pair, None, "commutative type"
    if pair.is_pure_automorphism():
        return pair, None, "pure automorphism type"
    if pair.is_pure_derivation():
        return pair, None, "pure derivation type"
    ff, sigma = pair.ff, pair.sigma
    shift = pair.delta.inner
    xp = OrePoly(pair, [shift, ff.one()])
    for y in ff.gens():
        if (xp * OrePoly.const(pair, y)
                != OrePoly.const(pair, sigma.apply(y)) * xp):
            raise AssertionError(
                "x' = x + (%s) does not satisfy x' %s = sigma(%s) x'"
                % (shift, y, y))
    pure = SkewPair.automorphism(sigma)
    report = ("pure automorphism type after x' = x + (%s); "
              "x' a = sigma(a) x' verified on all generators" % shift)
    return pure, shift, report


# ---------------------------------------------------------------------------
# witness discovery for the automorphism case
# ---------------------------------------------------------------------------

def _witness_candidates(pair):
    """Places and pool from linear factors around the generators.

    Univariate only: numerators and denominators of each y and sigma(y)
    contribute their prime-field roots r; each gives the place at t - r
    and the pool element 1/(t - r).  The place at infinity is probed
    last.  Nonlinear irreducible factors are not chased, the pool is a
    heuristic and missing it only means the caller must supply a witness.
    """
    ff = pair.ff
    if ff.nvars != 1:
        return [], []
    roots = []
    t = ff.var(0)
    for f in (t, pair.sigma.apply(t)):
        for part in (f.num, f.den):
            if len(part) < 2:
                continue
            for r in _rational_roots(part, ff.char):
                if r not in roots:
                    roots.append(r)
    pool = [(t - ff.const(r)).inverse() for r in roots]
    return _places_at(ff, roots) + [Place.infinity(ff)], pool


def _places_at(ff, roots):
    """The places t - r of k(t) at the given prime-field roots r."""
    tp = ff.poly_var(0)
    return [Place.finite(tp - ff.poly_const(r)) for r in roots]


def _best_bounded_certificate(pair, b, max_len, diagnostics):
    """(certificate, related): the largest length <= max_len that stays
    Independent, and whether some length up to max_len found a relation.

    Lengths go up one at a time; by row-subset monotonicity the first
    Dependent length settles all longer ones, and its relation is worth
    reporting even though the verdict machinery then discards the
    certificate itself.
    """
    best = None
    related = False
    for L in range(1, max_len + 1):
        try:
            cert = freeness_certify(pair, b, L)
        except ResourceBoundExceeded as exc:
            diagnostics.append(
                "word check stopped before length %d: %s" % (L, exc))
            break
        if not cert.independent:
            rel = " ".join("%+d*W_%s" % (c, word_key(w) or "()")
                           for w, c in sorted(cert.relation.items()))
            diagnostics.append(
                "bounded relation at length %d: %s = 0" % (L, rel))
            related = True
            break
        best = cert
    if best is not None:
        diagnostics.append(
            "words of length <= %d are k-independent (rank %d)"
            % (best.max_length, best.rank))
    return best, related


def _free_verdict(pair, b, theorem_tag, opts, diagnostics):
    """The Free verdict of a route whose theorem settles freeness, with
    the best bounded certificate of its witness b as evidence."""
    cert, _ = _best_bounded_certificate(pair, b, opts.word_length,
                                        diagnostics)
    return Verdict("Free", theorem_tag=theorem_tag, witness=b,
                   certificate=cert, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# the two pure pipelines
# ---------------------------------------------------------------------------

def classify_automorphism(spec):
    """Verdict for K(x; sigma): PI via finite order, Free via evidence.

    Finite orbits on every generator give sigma^n = 1 and, for n <= 4096,
    a verified central x^n.  An infinite orbit opens two constructive
    routes: an additive eigenvector sigma(g) = g + alpha (alpha a nonzero
    fixed element) builds a Weyl pair directly; otherwise a
    valuation-selected witness plus a bounded word certificate carries the
    freeness claim.
    Whatever remains is Unknown with the orbit evidence.
    """
    pair = spec.pair
    if not pair.is_pure_automorphism():
        raise RequiresPureAutomorphism(
            "automorphism classification needs delta = 0")
    opts = spec.options
    ff = pair.ff
    sigma = pair.sigma
    diags = []
    reports = []
    for i in range(ff.nvars):
        rep = orbit_analyze(sigma, ff.var(i), opts.orbit_bound)
        reports.append(rep)
        diags.append("orbit(%s): %s%s" % (
            ff.names[i], rep.kind,
            " period %d" % rep.period if rep.period else ""))
    if all(r.kind == "finite" for r in reports):
        n = 1
        for r in reports:
            n = n * r.period // math.gcd(n, r.period)
        # exact periods over F_p reach p + 1, and x^n has n + 1 terms
        if n > 4096:
            diags.append("period %d is past the central-power ceiling "
                         "4096; x^%d is not checked" % (n, n))
            return Verdict("Unknown", diagnostics=diags)
        if sigma.fixed_power_check(n) and central_power_check(pair, n):
            diags.append("sigma^%d = 1 and x^%d is central, both verified"
                         % (n, n))
            return Verdict("PI", theorem_tag="finite-order-central-power",
                           central_power=n, diagnostics=diags)
        diags.append("periods suggest %d but the power checks failed" % n)
        return Verdict("Unknown", diagnostics=diags)
    if ff.char:
        for i in range(ff.nvars):
            y = ff.var(i)
            if sigma.apply(y, ff.char) == y and sigma.apply(y) != y:
                diags.append(
                    "sigma^p fixes %s but sigma does not; the char-p side "
                    "condition fails on a generator" % ff.names[i])
                return Verdict("Unknown", diagnostics=diags)
    if not any(r.kind == "infinite" for r in reports):
        diags.append("no orbit certified infinite within bound %d"
                     % opts.orbit_bound)
        return Verdict("Unknown", diagnostics=diags)
    # additive eigenvector route: sigma(g) - g a nonzero fixed element
    if ff.char == 0:
        for i in range(ff.nvars):
            g = ff.var(i)
            alpha = sigma.apply(g) - g
            if alpha.is_zero() or sigma.apply(alpha) != alpha:
                continue
            y, z, ok = weyl_pair_from_additive(pair, g, alpha)
            if not ok:
                continue
            diags.append("Weyl pair verified: y = %s, z = y x^{-1}, "
                         "x z - z x = 1" % (g / alpha))
            return _free_verdict(pair, (g / alpha).inverse(),
                                 "weyl-pair-embedding", opts, diags)
    # valuation witness route
    if opts.witness is not None:
        pool = [opts.witness]
        places, _ = _witness_candidates(pair)
        places = _places_of(opts.witness) + places
    else:
        places, pool = _witness_candidates(pair)
    # a witness whose own words carry a relation up to word_length cannot
    # carry the freeness claim: it is rejected and the next place tried
    rejected = []
    for place in places:
        b = valuation_witness(sigma, place, opts.window, pool)
        if b is None or b in rejected:
            continue
        diags.append("witness %s has finite support at place %s"
                     % (b, place))
        cert, related = _best_bounded_certificate(pair, b, opts.word_length,
                                                  diags)
        if related:
            diags.append("witness %s rejected: its words carry a relation"
                         % b)
            rejected.append(b)
            continue
        if cert is not None:
            return Verdict("Free",
                           theorem_tag="infinite-orbit-valuation-witness",
                           witness=b, certificate=cert, diagnostics=diags)
        diags.append("witness found but no independent bounded certificate")
        return Verdict("Unknown", diagnostics=diags)
    if rejected:
        diags.append("every witness with finite valuation support carries "
                     "a bounded relation")
    else:
        diags.append("no witness with finite valuation support in the pool")
    return Verdict("Unknown", diagnostics=diags)


def _places_of(witness):
    """Places at the prime-field roots of a supplied witness denominator."""
    ff = witness.ff
    if ff.nvars != 1 or witness.is_poly():
        return []
    return _places_at(ff, _rational_roots(witness.den, ff.char))


def classify_derivation(spec):
    """Verdict for K(x; delta): Weyl pair in char 0, towers in char p.

    delta = 0 degenerates to the commutative field.  In characteristic 0
    any generator a with delta(a) != 0 yields the verified pair y = a,
    z = x delta(a)^{-1}.  In characteristic p the p-th power of delta and
    of x obstruct that argument, and the evidence is a strictly growing
    subfield tower from some generator instead.
    """
    pair = spec.pair
    if not pair.is_pure_derivation():
        raise RequiresPureDerivation(
            "derivation classification needs sigma = 1")
    opts = spec.options
    ff = pair.ff
    delta = pair.delta
    diags = []
    if delta.is_zero():
        return Verdict("Commutative",
                       diagnostics=["delta = 0: plain rational functions"])
    if ff.char == 0:
        a = next(ff.var(i) for i in range(ff.nvars)
                 if not delta.apply(ff.var(i)).is_zero())
        y = OreFraction.from_ratfunc(pair, a)
        da = delta.apply(a)
        z = OreFraction.from_poly(OrePoly.x(pair)) * \
            OreFraction.from_ratfunc(pair, da).inverse()
        # looked up at the call, so a replaced orefrac.weyl_check is run
        outcome = orefrac.weyl_check(y, z)
        if not outcome:
            raise AssertionError("x delta(a)^{-1} failed the Weyl relation")
        diags.append("Weyl pair verified: y = %s, z = x (%s)^{-1}"
                     % (a, da))
        return _free_verdict(pair, a, "weyl-pair-embedding", opts, diags)
    for i in range(ff.nvars):
        a = ff.var(i)
        if delta.apply(a).is_zero():
            continue
        report = delta_tower(delta, a, opts.tower_depth)
        statuses = [lv.status for lv in report.levels]
        diags.append("tower(%s): %s" % (ff.names[i], ", ".join(statuses)))
        if report.all_strict():
            # the iterates start at a itself
            touched = set().union(*(f.vars_used() for f in report.values))
            clash = [g for g in pair.e_generators if g.vars_used() & touched]
            if clash:
                # a declared constant built from the same generators can
                # collapse the growth the per-level test certifies
                diags.append(
                    "tower(%s) strict, but declared constant %s involves "
                    "its generators; growth not certified" %
                    (ff.names[i], clash[0]))
                continue
            diags.append(
                "delta iterates of %s generate a strictly growing tower "
                "to depth %d" % (ff.names[i], opts.tower_depth - 1))
            return _free_verdict(pair, a, "derivation-tower-growth", opts,
                                 diags)
    diags.append("no generator produced a strict tower; growth undecided")
    return Verdict("Unknown", diagnostics=diags)


def classify_problem(spec):
    """Dispatch on the presentation shape, normalizing mixed inputs first."""
    pair = spec.pair
    if pair.is_commutative():
        return Verdict("Commutative",
                       diagnostics=["sigma = 1 and delta = 0"])
    if not pair.is_pure_automorphism() and not pair.is_pure_derivation():
        pure, shift, report = normalize_presentation(pair)
        sub = ProblemSpec(pure, spec.options, spec.name)
        verdict = classify_automorphism(sub)
        verdict.diagnostics.insert(0, report)
        return verdict
    if pair.is_pure_automorphism():
        return classify_automorphism(spec)
    return classify_derivation(spec)

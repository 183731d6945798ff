"""The three benchmark workloads: inputs, cases and known answers.

Each ``setup_<workload>(mods, rng, root)`` draws the workload's inputs
from the seeded generator ``rng`` and returns a list of :class:`Case`.
``Case.make`` builds the library objects one execution needs (fields,
contexts, witnesses) afresh, so no object carries memoised state from
one execution into the next; the runner calls it outside the timed
region.  ``Case.run(*inputs)`` is the timed call into the library and
returns a JSON-able answer; ``Case.check`` runs afterwards, also untimed,
and returns ``None`` when the answer matches the known-answer table or a
one-line reason when it does not.  ``Case.samples`` is how many times a
run times the case.

Cases look library functions up through their module at call time
(``mods.freeness.freeness_certify``, not a name bound at setup), so the
traced run sees the wrappers it installs after setup.

Certificate digests are not compared: a change of coordinatization
changes them legitimately.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from functools import partial


@dataclass
class Case:
    name: str
    part: str
    make: object        # () -> fresh inputs for run
    run: object
    check: object
    samples: int        # timed executions per run; the least is reported


# ---------------------------------------------------------------------------
# classify: the CLI on every bundled fixture
# ---------------------------------------------------------------------------

# seven cases are few for a steady median per-case time, so each fixture
# runs five times and its least time counts
CLASSIFY_SAMPLES = 5

# fixture -> (kind, theorem_tag, central_power, least certificate length).
# The lengths are what each fixture reaches with the default word_length;
# a Free certificate must also be Independent with full rank.  The two PI
# fixtures cost almost nothing and keep the central-power route measured.
FIXTURES = {
    "shift": ("Free", "weyl-pair-embedding", None, 2),
    "ddt": ("Free", "weyl-pair-embedding", None, 2),
    "mixed": ("Free", "weyl-pair-embedding", None, 2),
    "double": ("Free", "infinite-orbit-valuation-witness", None, 3),
    "tower5": ("Free", "derivation-tower-growth", None, 3),
    "negation": ("PI", "finite-order-central-power", 2, None),
    "diag7": ("PI", "finite-order-central-power", 6, None),
}


def _run_cli(cli, path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["classify", path])
    doc = json.loads(out.getvalue())
    cert = doc.get("certificate") or {}
    return {"rc": rc, "kind": doc.get("kind"),
            "theorem_tag": doc.get("theorem_tag"),
            "central_power": doc.get("central_power"),
            "L": cert.get("L"), "rank": cert.get("rank"),
            "word_count": cert.get("word_count"),
            "verdict": cert.get("verdict")}


def _check_classify(expect, ans):
    kind, tag, power, least_L = expect
    if ans["rc"] != 0:
        return "exit code %s" % ans["rc"]
    got = (ans["kind"], ans["theorem_tag"], ans["central_power"])
    if got != (kind, tag, power):
        return "verdict %r, expected %r" % (got, (kind, tag, power))
    if kind != "Free":
        return None
    L = ans["L"]
    if L is None or L < least_L:
        return "certificate length %s, expected >= %d" % (L, least_L)
    words = 2 ** (L + 1) - 1
    if (ans["verdict"], ans["rank"], ans["word_count"]) != (
            "Independent", words, words):
        return "certificate %s rank %s of %s, expected Independent %d/%d" % (
            ans["verdict"], ans["rank"], ans["word_count"], words, words)
    return None


def setup_classify(mods, rng, root):
    """``orefree classify`` in-process per fixture; the seed orders them."""
    names = sorted(FIXTURES)
    rng.shuffle(names)
    cases = []
    for name in names:
        path = os.path.join(root, "demos", "problems", name + ".ore")
        with open(path, encoding="utf-8") as fh:
            mods.problems.parse_problem(fh.read())
        # the CLI reads and parses the fixture itself on every call
        cases.append(Case(name, "cli", partial(tuple, [path]),
                          partial(_run_cli, mods.cli),
                          partial(_check_classify, FIXTURES[name]),
                          CLASSIFY_SAMPLES))
    return cases


# ---------------------------------------------------------------------------
# certify: freeness_certify on a fixed panel
# ---------------------------------------------------------------------------

def _certify(freeness, L, pair, b):
    cert = freeness.freeness_certify(pair, b, L)
    rel = None
    if cert.relation is not None:
        rel = {freeness.word_key(w): c for w, c in cert.relation.items()}
    return {"verdict": cert.verdict, "rank": cert.rank,
            "word_count": cert.word_count, "relation": rel}


def _check_certify(mods, make, expect, ans):
    got = (ans["verdict"], ans["rank"], ans["word_count"])
    if got != expect:
        return "got %s %s/%s, expected %s %s/%s" % (got + expect)
    rel = ans["relation"]
    if expect[0] == "Independent":
        return None if rel is None else "Independent with a relation"
    if not rel:
        return "Dependent without a relation"
    # re-evaluate sum c * W_w from the words alone, not through the
    # certifier's expansion or its own verification
    pair, b = make()
    OreFraction = mods.orefrac.OreFraction
    acc = OreFraction.zero(pair)
    for key, c in rel.items():
        word = tuple(int(ch) for ch in key)
        scalar = OreFraction.from_ratfunc(pair, pair.ff.from_int(c))
        acc = acc + scalar * mods.freeness.build_word_W(pair, word, b)
    return None if acc.is_zero() else "relation does not vanish"


def _context(mods, name):
    """A fresh skew context of the certify panel and its generators."""
    FunctionField = mods.field.FunctionField
    SkewEndo, SkewPair = mods.skew.SkewEndo, mods.skew.SkewPair
    SkewDerivation = mods.skew.SkewDerivation
    if name == "tower-F5":
        ff = FunctionField(5, ["x%d" % i for i in range(5)])
        gens = [ff.var(i) for i in range(5)]
        return SkewPair.derivation(SkewDerivation(
            ff, gens[1:] + [ff.zero()], SkewEndo.identity(ff))), gens
    ff = FunctionField(5 if name == "shift-F5" else 0,
                       ["t" if name in ("double-Q", "ddt-Q") else "u"])
    g = ff.var(0)
    if name == "ddt-Q":
        pair = SkewPair.derivation(
            SkewDerivation(ff, [ff.one()], SkewEndo.identity(ff)))
    elif name == "double-Q":
        pair = SkewPair.automorphism(SkewEndo(ff, [2 * g], [g / 2]))
    else:
        pair = SkewPair.automorphism(SkewEndo(ff, [g + 1], [g - 1]))
    return pair, [g]


def _certify_inputs(mods, context, witness):
    pair, gens = _context(mods, context)
    return pair, witness(gens[0])


def setup_certify(mods, rng, root):
    """Word certificates at the largest L each entry reaches in seconds.

    L = 5..6 is left out: at the parent commit 1/u^2 at L = 4 does not
    finish in 9 minutes.
    """
    # name, context, witness of the first generator, L,
    # expected (verdict, rank, words), samples.
    # Entries that took 3 s or more at the parent commit run once per run,
    # the others twice, which keeps a run inside the benchmark's time budget.
    panel = [
        # the length-3 relation W_01 - W_10 + W_101 - W_11 that AC2's
        # expected answer misses; lclm fold over Q
        ("shift-Q:1/u:L4", "shift-Q", lambda u: u.inverse(), 4,
         ("Dependent", 25, 31), 1),
        # the lclm wall: the fold is nearly all of this case's time
        ("shift-Q:1/u^2:L3", "shift-Q", lambda u: (u * u).inverse(), 3,
         ("Independent", 15, 15), 1),
        # valuation-witness route of double.ore, fold over Q
        ("double-Q:1/(t-1):L3", "double-Q", lambda t: (t - 1).inverse(), 3,
         ("Independent", 15, 15), 2),
        ("double-Q:1/t:L4", "double-Q", lambda t: t.inverse(), 4,
         ("Dependent", 25, 31), 2),
        # the same fold over F_5: a Q-only field core leaves it flat
        ("shift-F5:1/u:L4", "shift-F5", lambda u: u.inverse(), 4,
         ("Dependent", 25, 31), 2),
        # polynomial witness under d/dt: the nilpotent series route
        ("ddt-Q:t:L3", "ddt-Q", lambda t: t, 3, ("Dependent", 13, 15), 2),
        # non-polynomial witness under d/dt: the fold with delta
        ("ddt-Q:1/t:L4", "ddt-Q", lambda t: t.inverse(), 4,
         ("Dependent", 25, 31), 1),
        # series route over F_5 in five variables
        ("tower-F5:x0:L3", "tower-F5", lambda x0: x0, 3,
         ("Independent", 15, 15), 2),
    ]
    rng.shuffle(panel)
    cases = []
    for name, context, witness, L, expect, samples in panel:
        make = partial(_certify_inputs, mods, context, witness)
        cases.append(Case(name, "certify", make,
                          partial(_certify, mods.freeness, L),
                          partial(_check_certify, mods, make, expect),
                          samples))
    return cases


# ---------------------------------------------------------------------------
# arith: Ore-fraction identities and valuation profiles
# ---------------------------------------------------------------------------

PROFILE_COUNT = 32
# the 104 arith cases average each other's noise, so two samples suffice
ARITH_SAMPLES = 2


def _identities(mods, word, pair, b, x, one):
    """Both rewriting identities for one word; the answers are booleans."""
    freeness = mods.freeness
    v = freeness.build_word_V(pair, word, b)
    if word:
        tail = freeness.build_word_V(pair, word[1:], b)
        head = mods.orefrac.OreFraction.from_ratfunc(pair, b) \
            if word[0] else one
    else:
        tail, head = one, one
    return {"x_rule": x * v == v - head * tail,
            "one_minus_x_rule": (one - x) * v
            == freeness.build_word_W(pair, word, b)}


def _check_identities(ans):
    if ans["x_rule"] is True and ans["one_minus_x_rule"] is True:
        return None
    return "identity failed: %r" % ans


def _profiles(mods, sigma, place, u):
    length_profile = mods.valuation.length_profile
    return {"ell_u": length_profile(sigma, place, u).length,
            "ell_diff": length_profile(sigma, place,
                                       u - sigma.apply(u)).length}


def _check_profiles(support, ans):
    # u has simple-or-double poles exactly at t = m, m in support, so
    # sigma^n(u) has a pole at t = 0 iff n is in support; u - sigma(u)
    # adds the poles at m - 1.  The extremes cannot cancel.
    ell = max(support) - min(support)
    want = {"ell_u": ell, "ell_diff": ell + 1}
    return None if ans == want else "lengths %r, expected %r" % (ans, want)


def profile_inputs(rng, count):
    """(support, exponents, coefficients) for u = sum c / (t - m)^e.

    Pole count and exponents follow the case index, so every seed draws
    the same denominator degrees; only pole positions and coefficients
    are random.  That keeps a run's cost steady across seeds.
    """
    out = []
    for i in range(count):
        npoles = 1 + i % 4
        support = rng.sample(range(-8, 9), npoles)
        exps = [1 + (i // 4 + j) % 2 for j in range(npoles)]
        coeffs = [rng.randint(1, 5) for _ in support]
        out.append((support, exps, coeffs))
    return out


# the fixed witness panel: (name, witness of t, longest word)
WITNESSES = [
    ("1/t", lambda t: t.inverse(), 3),
    ("8/t^2", lambda t: 8 / (t * t), 2),
    ("t/(2t+1)", lambda t: t / (2 * t + 1), 2),
    ("(t^2-3t)/(t^2+2)", lambda t: (t * t - 3 * t) / (t * t + 2), 2),
]


def _arith_context(mods, name):
    """A fresh Q(t) with the shift or d/dt context, and t."""
    skew = mods.skew
    qt = mods.field.FunctionField(0, ["t"])
    t = qt.var(0)
    if name == "shift":
        return skew.SkewPair.automorphism(
            skew.SkewEndo(qt, [t + 1], [t - 1])), t
    return skew.SkewPair.derivation(skew.SkewDerivation(
        qt, [qt.one()], skew.SkewEndo.identity(qt))), t


def _identity_inputs(mods, context, witness):
    OreFraction, OrePoly = mods.orefrac.OreFraction, mods.orepoly.OrePoly
    pair, t = _arith_context(mods, context)
    return (pair, witness(t), OreFraction.from_poly(OrePoly.x(pair)),
            OreFraction.one(pair))


def _profile_inputs(mods, support, exps, coeffs):
    pair, t = _arith_context(mods, "shift")
    qt = pair.ff
    u = qt.zero()
    for m, e, c in zip(support, exps, coeffs):
        u = u + qt.from_int(c) / (t - m) ** e
    return pair.sigma, mods.valuation.Place.finite(qt.poly_var(0)), u


def setup_arith(mods, rng, root):
    """Rewriting identities on a fixed witness panel plus seeded profiles.

    The witness panel is fixed because random witnesses have a heavy
    tail: one quadratic-denominator draw took a minute for one word.
    (t^2 - 3t)/(t^2 + 2) keeps that mechanism in the workload.  Words go
    to length 3 for 1/t and to length 2 for the others, whose length-3
    words would triple the pass and leave no room for repeated samples
    within the run time the benchmark is allowed.
    """
    cases = []
    for context in ("shift", "ddt"):
        for bname, witness, L in WITNESSES:
            make = partial(_identity_inputs, mods, context, witness)
            for word in mods.freeness.words_up_to(L):
                name = "%s:%s:W_%s" % (context, bname,
                                       "".join(map(str, word)) or "()")
                cases.append(Case(name, "identities", make,
                                  partial(_identities, mods, word),
                                  _check_identities, ARITH_SAMPLES))
    for i, (support, exps, coeffs) in enumerate(
            profile_inputs(rng, PROFILE_COUNT)):
        cases.append(Case(
            "profile-%02d:%d-poles" % (i, len(support)), "profiles",
            partial(_profile_inputs, mods, support, exps, coeffs),
            partial(_profiles, mods), partial(_check_profiles, support),
            ARITH_SAMPLES))
    return cases


SETUPS = {"classify": setup_classify, "certify": setup_certify,
          "arith": setup_arith}

"""Per-layer spans for orefree, recorded from outside the library.

:meth:`Tracer.install` replaces chosen functions and methods of each
``orefree`` module with timing wrappers.  A module-level function is
replaced under every name that refers to it in any loaded ``orefree``
module, so ``freeness.flatten_to_k`` and ``orefrac.lclm`` (imported
names) are traced as well as the definitions.  A method is replaced on
its class, together with its aliases such as ``__radd__ = __add__``.
:meth:`Tracer.uninstall` puts the originals back, so untraced executions
run the library as it is.

Each wrapper keeps the call count and the self time of its layer: the
span's duration minus the time of the wrapped spans it caused.  Spans are
aggregated as they close, not stored.  ``BaseField`` scalar operations
are not wrapped: they run millions of times per case and a wrapper would
swamp them.

Every workload reports every metric of :func:`per_layer_names`, as the
benchmark's one list of per-layer metrics asks.  A layer the workload
never reaches reports 0 calls and 0 s: on ``arith`` that is the certifier,
linalg and the CLI.  ``freeness.fold.probe_hit_ratio`` is read together
with its base ``freeness.fold.probes``: with no fold the base is 0 and
the ratio is reported as 0, a placeholder and not a measured hit rate.
"""

import sys
import time

# module -> wrapped names; the metric drops dunder underscores
# (MPoly.__mul__ reports as field.MPoly.mul)
LAYERS = {
    "field": ["MPoly.__mul__", "MPoly.divide_exact", "MPoly.substitute_poly",
              "RatFunc.__init__", "RatFunc.__add__", "RatFunc.__mul__",
              "poly_gcd"],
    "skew": ["SkewEndo.apply", "SkewDerivation.apply", "orbit_analyze",
             "delta_tower"],
    "orepoly": ["OrePoly.__mul__", "OrePoly.right_quo_rem",
                "OrePoly.left_quo_rem", "lclm", "gcld"],
    "orefrac": ["OreFraction.__add__", "OreFraction.__mul__",
                "OreFraction.__eq__"],
    "freeness": ["freeness_certify", "common_left_denominator",
                 "build_word_W", "build_word_V"],
    "linalg": ["flatten_to_k", "rank_over_k"],
    "valuation": ["Place.finite", "Place.valuation", "length_profile"],
    "classify": ["classify_problem", "normalize_presentation"],
    "problems": ["parse_problem"],
    "cli": ["main"],
}

FOLD = "freeness.common_left_denominator"
LCLM = "orepoly.lclm"
RANK = "linalg.rank_over_k"


def metric_stem(module, qualname):
    return "%s.%s" % (module, qualname.replace("__", ""))


def per_layer_names():
    """Every metric a traced run reports, with its unit."""
    out = []
    for module, names in LAYERS.items():
        for q in names:
            stem = metric_stem(module, q)
            out += [(stem + ".calls", "count"), (stem + ".self_s", "s")]
    return out + [
        (FOLD + ".den_degree", "count"),
        ("freeness.fold.probes", "count"),
        ("freeness.fold.lclm_calls", "count"),
        ("freeness.fold.probe_hit_ratio", "ratio"),
        (RANK + ".cells", "count"),
        ("trace.overhead", "ratio"),
    ]


class Tracer:
    """Wrappers plus their counters, which outlive :meth:`uninstall`."""

    def __init__(self):
        self.patched = []        # (owner, name, original) per replacement
        self.stack = []          # open spans: [stem, child seconds]
        self.stats = {}          # stem -> [calls, self seconds]
        self.den_degree = 0      # sum of common-denominator degrees
        self.fold_probes = 0     # fractions - 1, summed over folds
        self.fold_lclm = 0       # lclm calls made directly by a fold
        self.rank_cells = 0      # rows * cols, summed over rank_over_k

    def _after(self, stem, args, result):
        if stem == FOLD:
            self.den_degree += result[0].degree
            self.fold_probes += len(args[0]) - 1
        elif stem == LCLM:
            if self.stack and self.stack[-1][0] == FOLD:
                self.fold_lclm += 1
        elif stem == RANK:
            rows = args[0]
            self.rank_cells += len(rows) * (len(rows[0]) if rows else 0)

    def _wrap(self, fn, stem):
        st = self.stats.setdefault(stem, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        hooked = stem in (FOLD, LCLM, RANK)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [stem, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[0] += 1
                st[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if hooked:
                tracer._after(stem, args, result)
            return result

        return wrapper

    def install(self, package):
        """Wrap every name in LAYERS inside the loaded ``package``."""
        loaded = [m for name, m in sys.modules.items()
                  if name == package.__name__
                  or name.startswith(package.__name__ + ".")]
        for module, names in LAYERS.items():
            mod = sys.modules[package.__name__ + "." + module]
            for qual in names:
                stem = metric_stem(module, qual)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, stem))
                    else:
                        new = self._wrap(raw, stem)
                    for key, val in list(cls.__dict__.items()):
                        if val is raw:
                            self._patch(cls, key, new)
                else:
                    fn = getattr(mod, qual)
                    new = self._wrap(fn, stem)
                    for m in loaded:
                        for key, val in list(vars(m).items()):
                            if val is fn:
                                self._patch(m, key, new)

    def _patch(self, owner, key, new):
        self.patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def uninstall(self):
        """Put back every original that :meth:`install` replaced."""
        while self.patched:
            owner, key, old = self.patched.pop()
            setattr(owner, key, old)

    def metrics(self, overhead):
        out = {}
        for stem, (calls, self_s) in self.stats.items():
            out[stem + ".calls"] = calls
            out[stem + ".self_s"] = self_s
        out[FOLD + ".den_degree"] = self.den_degree
        out["freeness.fold.probes"] = self.fold_probes
        out["freeness.fold.lclm_calls"] = self.fold_lclm
        # a placeholder 0 when no fold ran, i.e. when its base is 0
        out["freeness.fold.probe_hit_ratio"] = (
            1 - self.fold_lclm / self.fold_probes if self.fold_probes else 0.0)
        out[RANK + ".cells"] = self.rank_cells
        out["trace.overhead"] = overhead
        return out

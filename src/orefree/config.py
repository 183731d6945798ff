"""Fixed resource bounds.

All potentially explosive computations (multivariate gcd, fraction folds in
the word pipeline, word enumeration) check these bounds cooperatively and
raise :class:`~orefree.errors.ResourceBoundExceeded` rather than thrash.
They are generous enough for every bundled fixture.  Each is read as
``config.NAME`` at the check, so patching the module attribute is the one
way to change it; no parameter, option or problem-file line sets them.
No bound trades exactness for speed: a place's polynomial, for one, is
proved irreducible or refused (:meth:`~orefree.valuation.Place.finite`).
"""

# hard cap on the 2^(L+1) - 1 words enumerated by a freeness run
MAX_WORDS = 4096
# cap on the common-denominator degree accumulated while folding words
MAX_DEN_DEGREE = 512
# total term-operations budget for one gcd computation, including the
# recursive content gcds of the multivariate PRS; crossing it abandons the
# reduction and keeps the fraction unreduced (equality stays exact)
GCD_WORK_BOUND = 100_000
# term count of a single fraction (num + den) above which we refuse
MAX_FRACTION_TERMS = 500_000
# total stored term weight of an Ore fraction above which a lazy
# left-factor cancellation is attempted
SIMPLIFY_WEIGHT_TRIGGER = 25_000

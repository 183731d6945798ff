"""Tunable resource bounds.

All potentially explosive computations (multivariate gcd, fraction folds in
the word pipeline, word enumeration) check these limits cooperatively and
raise :class:`~orefree.errors.ResourceBoundExceeded` rather than thrash.
The defaults are generous enough for every bundled fixture.  Problem files
cannot change them: their ``option.<name>`` lines set classification
options only, and any other name is a parse error.  No limit trades
exactness for speed: a place's polynomial, for one, is proved
irreducible or refused (:meth:`~orefree.valuation.Place.finite`).
"""

from dataclasses import dataclass


@dataclass
class Limits:
    # hard cap on 2^(L+1) - 1 words enumerated by a freeness run
    max_words: int = 4096
    # cap on the common-denominator degree accumulated while folding words
    max_den_degree: int = 512
    # per-polynomial term count above which a gcd attempt is abandoned
    # and fractions are kept unreduced (equality stays exact)
    gcd_term_bound: int = 200_000
    # total term-operations budget for one gcd computation, including the
    # recursive content gcds of the multivariate PRS; crossing it abandons
    # the reduction the same way the term bound does
    gcd_work_bound: int = 100_000
    # term count of a single fraction (num + den) above which we refuse
    max_fraction_terms: int = 500_000
    # total stored term weight of an Ore fraction above which a lazy
    # left-factor cancellation is attempted
    simplify_weight_trigger: int = 25_000


DEFAULT_LIMITS = Limits()

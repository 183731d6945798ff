"""Fixed resource bounds.

The computations that can explode (word enumeration, fraction folds in
the word pipeline, fraction growth) check these bounds cooperatively and
raise :class:`~orefree.errors.ResourceBoundExceeded` rather than thrash.
They are generous enough for every bundled fixture.  Each is read as
``config.NAME`` at the check, so patching the module attribute is the one
way to change it; no parameter, option or problem-file line sets them.
A crossed bound raises; none skips a reduction or trades exactness for
speed.
"""

# hard cap on the 2^(L+1) - 1 words enumerated by a freeness run
MAX_WORDS = 4096
# cap on x-degrees: an Ore fraction's denominator, the common denominator
# accumulated while folding words, a word series' order, and n times the
# degree of an Ore power, refused before its first product
MAX_DEN_DEGREE = 512
# term count of a single fraction (num + den) above which we refuse
MAX_FRACTION_TERMS = 500_000

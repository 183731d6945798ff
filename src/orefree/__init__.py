"""Exact arithmetic in Ore extensions and their quotient division rings.

The package builds rational function fields K = k(y_1, ..., y_n) over Q
or F_p, Ore extensions K[x; sigma, delta] with the twisted rule
x a = sigma(a) x + delta(a), and left fractions over them, all with
exact arithmetic.  On top of that sit constructive certificates: bounded
word-independence proofs for candidate free subalgebras, central-power
witnesses for polynomial identities, and a classification pipeline that
routes a presentation to a verdict backed by re-verified evidence.
"""

from .errors import (
    BadCharacteristic, CharacteristicMismatch, ContextMismatch,
    DivisionByZero, InconsistentDerivation, InvalidConstantDeclaration,
    NotAdditiveEigen, NotAnAutomorphism, OreError, ParseError,
    PresentationError, RequiresPureAutomorphism, RequiresPureDerivation,
    ResourceBoundExceeded, UndeclaredVariable, UsageError,
    WrongCharacteristic, ZeroArgument,
)
from .field import FunctionField, MPoly, RatFunc
from .skew import (
    OrbitReport, SkewDerivation, SkewEndo, SkewPair, TowerReport,
    delta_tower, orbit_analyze,
)
from .orepoly import OrePoly, gcrd, gcld, lclm
from .orefrac import OreFraction, central_power_check, weyl_check
from .valuation import LengthProfile, Place, length_profile
from .freeness import (
    FreenessCertificate, build_word_V, build_word_W, freeness_certify,
    independence_check, monomial_products_check, valuation_witness,
    weyl_pair_from_additive, word_key, words_up_to,
)
from .classify import (
    ClassifyOptions, ProblemSpec, Verdict, classify_automorphism,
    classify_derivation, classify_problem, normalize_presentation,
)
from .problems import (
    parse_field_expr, parse_ore_expr, parse_problem, print_problem,
    problem_equal,
)

__version__ = "0.1.0"

__all__ = [
    "OreError", "UsageError", "PresentationError", "ResourceBoundExceeded",
    "DivisionByZero", "ZeroArgument", "WrongCharacteristic",
    "BadCharacteristic", "RequiresPureAutomorphism",
    "RequiresPureDerivation", "NotAdditiveEigen", "NotAnAutomorphism",
    "InconsistentDerivation", "InvalidConstantDeclaration",
    "CharacteristicMismatch", "ContextMismatch", "ParseError",
    "UndeclaredVariable",
    "FunctionField", "MPoly", "RatFunc",
    "SkewEndo", "SkewDerivation", "SkewPair", "OrbitReport", "TowerReport",
    "orbit_analyze", "delta_tower",
    "OrePoly", "gcrd", "gcld", "lclm",
    "OreFraction", "weyl_check", "central_power_check",
    "Place", "LengthProfile", "length_profile",
    "FreenessCertificate", "word_key", "words_up_to", "build_word_W",
    "build_word_V",
    "freeness_certify", "independence_check", "monomial_products_check",
    "valuation_witness", "weyl_pair_from_additive",
    "ClassifyOptions", "ProblemSpec", "Verdict", "classify_problem",
    "classify_automorphism", "classify_derivation",
    "normalize_presentation",
    "parse_problem", "print_problem", "problem_equal", "parse_field_expr",
    "parse_ore_expr",
]

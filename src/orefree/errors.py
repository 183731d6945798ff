"""Exception hierarchy for the orefree package.

Three broad classes matter to callers (and to the CLI exit-code mapping):

* usage errors -- malformed input, wrong characteristic, zero where nonzero
  is required.  These subclass :class:`UsageError`.
* presentation errors -- input that parses but describes an inconsistent
  structure (a sigma that is not an automorphism, a delta violating the
  twisted Leibniz constraint, mismatched contexts).  These subclass
  :class:`PresentationError`.
* resource errors -- a computation that exceeded a configured bound.

Everything derives from :class:`OreError` so library users can catch one
type.  Internal invariant violations use plain ``AssertionError`` and are
never part of the public contract.
"""


class OreError(Exception):
    """Base class for all errors raised deliberately by this package."""


class UsageError(OreError):
    """Bad argument: wrong type of object, out-of-range parameter."""


class DivisionByZero(UsageError, ZeroDivisionError):
    """Division or inversion with a zero denominator."""


class ZeroArgument(UsageError):
    """An argument that must be nonzero was zero (valuations, witnesses)."""


class WrongCharacteristic(UsageError):
    """Operation requires a specific characteristic (0 or a prime p)."""


class BadCharacteristic(UsageError):
    """Field declaration with a modulus that is not prime."""


class RequiresPureAutomorphism(UsageError):
    """Operation is defined only when the derivation part is zero."""


class RequiresPureDerivation(UsageError):
    """Operation is defined only when the endomorphism part is identity."""


class NotAdditiveEigen(UsageError):
    """Supplied u, alpha fail sigma(u) - u = alpha, so no Weyl pair arises."""


class PresentationError(OreError):
    """Structurally inconsistent presentation of a field with operators."""


class NotAnAutomorphism(PresentationError):
    """Generator images fail the round-trip check against inverse images."""


class InconsistentDerivation(PresentationError):
    """Derivation images are not c*(sigma(y) - y) for one c, sigma != id."""


class InvalidConstantDeclaration(PresentationError):
    """A declared constant is not annihilated by psi = (sigma - 1) + delta."""


class CharacteristicMismatch(PresentationError):
    """Operands come from different base fields."""


class ContextMismatch(PresentationError):
    """Operands come from different operator contexts (sigma, delta)."""


class ResourceBoundExceeded(OreError):
    """A configured degree/term/word bound was crossed; partial state in msg."""


class ParseError(UsageError, ValueError):
    """Syntax error with 1-based line/column position information."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


class UndeclaredVariable(ParseError):
    """Expression uses an identifier that is not a declared generator."""

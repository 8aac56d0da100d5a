"""Exception types raised by the toolkit.

Every error is a subclass of BentError so callers (and the CLI) can catch
one type.  Verification *outcomes* are values, not exceptions; these classes
cover precondition violations and internal-consistency failures only.
"""


class BentError(Exception):
    pass


# field -----------------------------------------------------------------
class InverseOfZero(BentError, ZeroDivisionError):
    pass


class NotADivisor(BentError):
    pass


class ZeroArgument(BentError):
    pass


class ZeroBeta(BentError):
    pass


class ReducibleModulus(BentError):
    pass


# cyclo -----------------------------------------------------------------
class MixedPrime(BentError):
    pass


# spectral --------------------------------------------------------------
class SizeGuard(BentError):
    pass


class ZeroComponent(BentError):
    pass


class MatchFailure(BentError):
    """A bent spectrum value matched no ±u·ζ^j candidate.

    Mathematically impossible for a true bent function; signals an
    arithmetic bug in the caller's tables or in this library.
    """


class NotBent(BentError):
    pass


class PreconditionF0(BentError):
    pass


# constructions ---------------------------------------------------------
class BadExponent(BentError):
    pass


class NotPermutation(BentError):
    pass


class UnbalancedLabeling(BentError):
    pass


class ZeroCoefficient(BentError):
    pass


# pds -------------------------------------------------------------------
class NotBijection(BentError):
    pass


class NotSemiprimitive(BentError):
    pass


class FormulaMismatch(BentError):
    """Closed formula and direct computation disagree (implementation bug)."""


class HypothesisViolation(BentError):
    pass


class NotSymmetric(BentError):
    pass


class ContainsZero(BentError):
    pass


class NonIntegralParameter(BentError):
    pass

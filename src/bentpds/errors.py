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


# spectral --------------------------------------------------------------
class SizeGuard(BentError):
    pass


class ZeroComponent(BentError):
    pass


class MatchFailure(BentError):
    """Two of the 2p candidates ±u·ζ^j got the same matching key.

    The keys come from fixed weights, so this signals a bug in this library;
    a value that matches no candidate means "not bent" and raises nothing.
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


"""Exception hierarchy.

Everything raised on purpose derives from HypercountError so callers (and the
CLI) can tell expected failure modes from genuine bugs.
"""


class HypercountError(Exception):
    """Base class for all deliberate failures."""


# --- field construction ---

class NotPrime(HypercountError):
    pass


class EvenCharacteristic(HypercountError):
    pass


class DivisionByZero(HypercountError):
    pass


class ZeroRadicand(HypercountError):
    # sqrt(0) is 0; this is for callers that demanded a nonzero root context
    pass


class NoRootInField(HypercountError):
    pass


class RootUnavailable(HypercountError):
    pass


class NotPrimeField(HypercountError):
    pass


# --- polynomial layer ---

class ZeroPolynomial(HypercountError):
    pass


# --- curve layer ---

class SingularCurve(HypercountError):
    pass


class BadGenus(HypercountError):
    pass


class CharacteristicDividesGenus(HypercountError):
    pass


class UnsupportedGenus(HypercountError):
    pass


class EvenGenus(HypercountError):
    pass


class IndexTooLargeForCharacteristic(HypercountError):
    pass


# --- counting / search ---

class BudgetExceeded(HypercountError):
    pass


class RowNotApplicable(HypercountError):
    pass


class SingularSpecialization(HypercountError):
    pass


class NoCandidateSurvives(HypercountError):
    pass


class AmbiguousResult(HypercountError):
    """Several coefficient tuples survive every filter (split Jacobian).

    carries .candidates, the full surviving list, so callers can inspect it.
    """

    def __init__(self, candidates, message="multiple candidates survive"):
        super().__init__(message)
        self.candidates = list(candidates)


class NonResidueDiscriminant(HypercountError):
    pass


class MismatchDetected(HypercountError):
    pass


class InternalError(HypercountError):
    pass

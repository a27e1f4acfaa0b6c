"""Exception types shared across the package.

Every mathematically meaningful failure gets its own class so callers can
distinguish "the input violates a precondition" from "a structural identity
that should hold computationally did not" (the latter usually means a bug
upstream, and is worth surfacing loudly rather than masking).
"""


class FglabError(Exception):
    """Base class for all package-specific errors."""


class NotPIntegral(FglabError):
    """A rational value has p in its denominator where p-integrality is required."""


class PrecisionMismatch(FglabError):
    """Two truncated objects with different precisions were combined."""


class VariableMismatch(FglabError):
    """Two series with different variable lists or caps were combined."""


class NonzeroConstantTerm(FglabError):
    """A substituted series has a nonzero constant term; composition would not
    converge under truncation semantics."""


class NonUnitLinearCoefficient(FglabError):
    """Compositional reversion was requested but the linear coefficient is not
    an invertible scalar."""


class IntegralityFailure(FglabError):
    """A coefficient that must lie in the p-local integers does not."""


class OffGrading(FglabError):
    """A large-degree series term lies off the weight grading its grid is
    stored on; the construction is broken."""


class NegativePower(FglabError):
    """A negative power was asked of a value that has no inverse by that
    route (series and ring elements are inverted explicitly)."""


class PrimeMismatch(FglabError):
    """Two values over different primes were combined."""


class NotPreparable(FglabError):
    """The input to Weierstrass preparation does not have the distinguished
    coefficient pattern (lower coefficients in (u), pivot a unit)."""


class InexactDivision(FglabError):
    """An exact division in a valuation ring was requested but does not exist."""


class ResidualMismatch(FglabError):
    """Back-substitution of a solved series left a nonzero defect below the cap."""


class PrerequisiteVanishingFailed(FglabError):
    """A coefficient that must vanish before a later extraction is legal did not."""


class DescentInputError(FglabError):
    """Weight descent was asked of an input outside its domain: a zero start,
    a step from a unit, or a series over a different prime than the ring."""


class WeightNotReduced(FglabError):
    """A descent step failed to strictly reduce the weight."""


class PrecisionExhausted(FglabError):
    """A value is indistinguishable from zero at the working precision, so the
    requested conclusion cannot be certified.  Never silently treated as zero."""


class NeitherSignHolds(FglabError):
    """Neither sign choice satisfies the product identity being tested."""


class DeskScaleExceeded(FglabError):
    """The requested configuration exceeds the desk-scale cost guard."""

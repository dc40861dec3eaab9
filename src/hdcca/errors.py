"""Exception and warning types shared across the package."""


class HdccaError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(HdccaError):
    """Dimensions (K, M, S) violate the requirements of the asymptotic regime."""


class BelowCutoff(HdccaError):
    """Requested a spike quantity for a signal strength at or below the detection cutoff."""


class BelowEdge(HdccaError):
    """Requested an inversion for a correlation at or below the noise bulk edge."""


class OnSupport(HdccaError):
    """Evaluation point is on (or too close to) the support of the bulk distribution."""


class RankDeficient(HdccaError):
    """Data matrix rows are numerically collinear."""


class ZeroVector(HdccaError):
    """An angle was requested against a zero vector."""


class PoleProximity(HdccaError):
    """Evaluation point is too close to a pole of a resolvent-type sum."""


class DegenerateQ(HdccaError):
    """The denominator of a vector-statistics ratio vanishes."""


class DenominatorVanishes(HdccaError):
    """A closed-form relation cannot be evaluated because its denominator vanishes."""


class GateFailed(HdccaError):
    """The eigenvalue gap is too small for the empirical estimator to be trusted."""


class SpecError(HdccaError):
    """A simulation specification is invalid."""


class ParseError(HdccaError):
    """CSV input could not be parsed.

    Carries 1-based ``row`` and ``column`` locations when known.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class MissingValue(ParseError):
    """CSV input contains an empty or missing cell."""


class ShapeMismatch(HdccaError):
    """Two data matrices do not share a common sample dimension."""


class RepeatedCosine(UserWarning):
    """Two noise canonical cosines coincide; the degenerate root is reported directly."""


class GateWarning(UserWarning):
    """A correlation sits above the bulk edge but fails the eigenvalue-gap gate."""


class RegimeWarning(UserWarning):
    """Inputs are usable but outside the recommended dimension regime."""

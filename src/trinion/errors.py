"""Exception types shared across the library."""


class TrinionError(Exception):
    """Base class for all library errors."""


class InvalidRank(TrinionError):
    """Matrix size below 2."""


class InvalidSpectrum(TrinionError):
    """Spectrum vector has fewer than two entries or does not sum to zero."""


class BoundaryOrbit(TrinionError):
    """Spectrum has repeated entries; the orbit is not of maximal dimension."""


class InvalidTwist(TrinionError):
    """Twist matrix is not antisymmetric."""


class InvalidSK(TrinionError):
    """Matrix is not Hermitian positive definite with unit determinant."""


class NonRegular(TrinionError):
    """Solution has a positive-dimensional stabilizer."""


class IllConditioned(TrinionError):
    """Singular values cluster at the rank threshold."""


class ConstraintViolated(TrinionError):
    """Residue triple does not satisfy the zero-sum constraint."""


class PoleTooClose(TrinionError):
    """Contour enters the exclusion margin around a pole."""


class ToleranceNotMet(TrinionError):
    """Adaptive integrator could not reach the requested tolerance."""


class ToleranceTooLoose(TrinionError):
    """Tolerance so loose that every input would pass: the verdict would say nothing."""


class EvaluationError(TrinionError):
    """Test function returned a non-finite value."""


class MissingIntersectionData(TrinionError):
    """Contour pair carries no intersection records."""


class SchemaError(TrinionError):
    """Catalogue or graph file does not match the expected schema."""


class GeometryError(TrinionError):
    """Contour geometry violates the pole margin or continuity."""

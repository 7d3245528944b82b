"""Exception hierarchy shared across the package."""


class FactorGofError(Exception):
    """Base class for all package-specific errors."""


class SpecificationError(FactorGofError):
    """Invalid model specification or inadmissible parameter values."""


class DegenerateCovarianceError(FactorGofError):
    """A covariance matrix that must be positive definite is not."""


class DataError(FactorGofError):
    """Malformed or degenerate input data."""


class NotConvergedError(FactorGofError):
    """An operation requiring a converged fit received a non-converged one."""


class IdentificationError(FactorGofError):
    """Near-singular information matrix; parameters not locally identified."""


class RankError(FactorGofError):
    """Requested degrees of freedom exceed the numerically positive rank."""


class ConfigurationError(FactorGofError):
    """Invalid run configuration (missing budget, bad option value)."""


class ItemIndexError(FactorGofError, IndexError):
    """An item index outside the model's items; also an ``IndexError``."""

"""Exception types shared across the toolkit."""


class RbxError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(RbxError, ValueError):
    """Parameter vector has the wrong length or lies outside the box."""


class ConfigurationError(RbxError, ValueError):
    """Invalid problem size, mesh alignment, or experiment configuration."""


class ResourceError(RbxError, RuntimeError):
    """A requested allocation exceeds a configured cap or the memory available."""


class NumericalFailureError(RbxError, RuntimeError):
    """A linear solve failed or missed its residual tolerance."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class BasisRejectionError(RbxError, RuntimeError):
    """Snapshot is numerically dependent on the current reduced basis."""


class BoundStrategyError(RbxError, RuntimeError):
    """Coercivity bound strategy is not applicable at the requested parameter."""

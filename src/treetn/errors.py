"""Exception types shared across the package."""


class TreetnError(Exception):
    """Base class for all package-specific errors."""


class LoadError(TreetnError):
    """Raised when a configuration or data file cannot be parsed."""


class InvariantViolation(TreetnError):
    """Raised when an internal structural contract is broken; ``tensor``
    names the index of the network tensor at fault, if there is one."""

    def __init__(self, message: str, tensor: int | None = None):
        super().__init__(message)
        self.tensor = tensor


class NumericalError(TreetnError):
    """Raised when a computation produces non-finite or invalid values."""

"""Exception types shared across the package."""


class TreetnError(Exception):
    """Base class for all package-specific errors."""


class LoadError(TreetnError):
    """Raised when a configuration or data file cannot be parsed."""


class ConfigError(ValueError):
    """Raised by a settings record (``Stage``, ``GssConfig``,
    ``FactorizeConfig``) whose field breaks a rule: ``field`` names the field
    at fault, or is None for a rule on a whole schedule, and ``problem`` says
    what is wrong."""

    def __init__(self, field: str | None, problem: str):
        super().__init__(problem if field is None else f"{field} {problem}")
        self.field = field
        self.problem = problem


class InvariantViolation(TreetnError):
    """Raised when an internal structural contract is broken; ``tensor``
    names the index of the network tensor at fault, if there is one."""

    def __init__(self, message: str, tensor: int | None = None):
        super().__init__(message)
        self.tensor = tensor


class NumericalError(TreetnError):
    """Raised when a computation produces non-finite or invalid values."""

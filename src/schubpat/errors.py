"""Exception types shared across the package."""


class SchubpatError(Exception):
    """Base class for all package-specific errors."""


class PatternViolationError(SchubpatError):
    """Raised when an operation requires a 1432- and 1423-avoiding permutation."""


class BudgetExceededError(SchubpatError):
    """Raised when an enumeration would exceed the configured budget."""


class UsageError(SchubpatError):
    """Raised for command-line input that the parser or a command rejects."""

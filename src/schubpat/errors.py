"""Exception types shared across the package."""


class SchubpatError(Exception):
    """Base class for all package-specific errors."""


class NotASubwordError(SchubpatError):
    """Raised when an operation requires u <= v in the subword order."""


class LetterNotInWordError(SchubpatError):
    """Raised when a word contains a letter that is not a value of the permutation."""


class PatternViolationError(SchubpatError):
    """Raised when an operation requires a 1432- and 1423-avoiding permutation."""


class BudgetExceededError(SchubpatError):
    """Raised when an enumeration would exceed the configured budget."""


class LengthGuardError(SchubpatError):
    """Raised when a reduced-word enumeration is refused as too long."""


class UnmappedVariableError(SchubpatError):
    """Raised when a variable substitution does not cover every variable present."""


class UsageError(SchubpatError):
    """Raised for command-line input that the parser or a command rejects."""

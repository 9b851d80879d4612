"""Exception types shared across the package."""


class CircdomError(Exception):
    """Base class for all package-specific errors."""


class InvalidChord(CircdomError):
    """Raised for chord values outside [1, n-1]."""


class ChordFileError(CircdomError):
    """Raised for malformed chord files; message names the offending line."""


class EmptyPrimeWindow(CircdomError):
    """Raised by construct_universal_2dom when [L+1, 2L] has no prime coprime to n."""


class DegenerateInstance(CircdomError):
    """Raised for instances too small for the asymptotic construction (n < 16)."""


class HypothesisNotMet(CircdomError):
    """Raised when a theorem-level hypothesis or runtime check fails."""


class AuditTooLarge(CircdomError):
    """Raised when an audit request exceeds the scan cap, expsum.AUDIT_CAP."""


class InexactCounts(CircdomError):
    """Raised when transform-based counts stray too far from integers."""


class TooLarge(CircdomError):
    """Raised when a size guard rejects the instance."""

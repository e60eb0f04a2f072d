"""Shared exception and warning types.

Exit-code mapping used by the command line front end: ValidationError
(and subclasses) and MemoryError -> 2, NumericalError -> 3.
"""


class ValidationError(ValueError):
    """Input or configuration outside the documented domain."""


class StructuralError(ValidationError):
    """Grid or object structure violates a structural precondition,
    e.g. an asymmetric frequency grid where a mirror-symmetric one is
    required, or unpaired modes where +/- pairing is required."""


class UnsupportedConfigurationError(ValidationError):
    """Combination of state and trajectory is not jointly stationary."""


class ResolutionError(ValidationError):
    """Requested analysis cannot be resolved with the given span/grid.

    Carries a hint with the minimum adequate value when known.
    """

    def __init__(self, message, required_span=None):
        super().__init__(message)
        self.required_span = required_span


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class ResonanceWarning(UserWarning):
    """Mode grid supports exact (or near-exact) energy collisions
    among occupation sums and the detector gap."""


class AmbiguousThresholdWarning(UserWarning):
    """Numerical-kernel threshold falls inside an eigenvalue cluster."""


class TruncationWarning(UserWarning):
    """Requested operation pushes weight outside the truncated space."""

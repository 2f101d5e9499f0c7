"""Exception types shared across the library."""


class ProjdynError(Exception):
    """Base class for all library-specific errors."""


class NonFiniteInputError(ProjdynError):
    """A matrix or vector argument contained NaN or Inf entries."""


class AdmissibilityError(ProjdynError):
    """range(P B) is not the admissible velocity space: rank(P B) != rank(P)."""


class InvalidTargetError(ProjdynError):
    """A requested constraint-force target has a component in the motion space."""


class InconsistentStateError(ProjdynError):
    """A configuration could not be made consistent with the position constraints."""


class DivergenceError(ProjdynError):
    """The integrated state became non-finite; carries the last good state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state

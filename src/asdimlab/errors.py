"""Exception types shared across the package.

Exit-code mapping used by the CLI (`cli.main`): ResourceCapError -> 3;
InputError (with UnsupportedBackendError), OutOfBallError, PreconditionError,
SchedulingError and every other AsdimlabError -> 2; verification failures
-> 1 (no exception; reported in verdicts); an AssertionError, the failure of
an internal invariant, -> 4.
"""


class AsdimlabError(Exception):
    """Base class for all package errors."""


class InputError(AsdimlabError):
    """Malformed or semantically invalid input (unknown point id, bad matrix, ...)."""


class UnsupportedBackendError(InputError):
    """Input is valid but outside the supported fragment (e.g. non-right-angled matrix)."""


class PreconditionError(AsdimlabError):
    """An operation's documented precondition fails; carries a witness when available."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OutOfBallError(AsdimlabError):
    """A query or construction needs elements beyond the enumerated radius."""

    def __init__(self, message, needed_radius=None):
        super().__init__(message)
        self.needed_radius = needed_radius


class ResourceCapError(AsdimlabError):
    """An enumeration exceeded its configured cap."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class SchedulingError(AsdimlabError):
    """An inner-scale certificate required by a construction could not be produced."""

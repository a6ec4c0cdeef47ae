"""Exception types shared across the package."""


class ConeIdealError(Exception):
    """Base class for all package errors."""


class InvalidWalk(ConeIdealError):
    """A corner sequence violates the walk step rules."""


class NotAnIdeal(ConeIdealError):
    """A point set is not downward closed in its host rectangle."""


class HostMismatch(ConeIdealError):
    """Two walks that must share a host rectangle do not."""


class BoundsInverted(ConeIdealError):
    """An interval enumeration was asked for with lower > upper."""


class NoSuchWalk(ConeIdealError):
    """An extremal-walk family is empty for the requested anchor."""


class InconsistentInput(ConeIdealError):
    """A layer sequence failed its consistency precondition."""


class CapExceeded(ConeIdealError):
    """A requested computation exceeds the configured size cap."""


class NotInvariant(ConeIdealError):
    """A point set is not an invariant ideal where one is required."""


class OutOfRange(ConeIdealError):
    """A scalar argument lies outside its documented range."""

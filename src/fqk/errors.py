"""Exception types shared across the toolkit."""


class FQKError(Exception):
    """Base class for all toolkit errors."""


class InvalidDimension(FQKError):
    """A real dimension < 2 that does not match 2*cos(pi/m) for any integer m."""


class NonConvergence(FQKError):
    """Power iteration failed to converge; the input data is likely invalid."""


class NotReflectable(FQKError):
    """Quiver reflection requested at a vertex that is neither sink nor source."""


class MissingAction(FQKError):
    """An edge label cannot be resolved to an action matrix on the module."""


class SignCoherenceViolation(FQKError):
    """Quantum numbers violate the sign-coherence pattern; the ring data is
    corrupted."""


class InconsistentVerdict(FQKError):
    """Two independent computations of the same invariant disagree."""


class InfiniteType(FQKError):
    """Enumeration requested for a quiver of infinite representation type."""


class InfiniteComponent(FQKError):
    """Root closure requested on a component that is not finite ADE."""


class OutOfRange(FQKError):
    """An index or length parameter outside its legal range."""

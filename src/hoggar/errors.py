"""Exception types shared across the package."""


class HoggarError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(HoggarError, ValueError):
    """An argument violates a documented precondition."""


class UnsupportedError(HoggarError):
    """The request is well-formed but outside what the implementation covers."""


class InvalidPovmError(InvalidArgumentError):
    """Effects that do not resolve the identity or are not Hermitian positive semidefinite."""


class NotADesignError(HoggarError):
    """Measured block data is not a symmetric design; carries the offending item."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending

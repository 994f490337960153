"""Exception hierarchy shared by all qfsplit modules.

Three error classes, matching the three nonzero CLI exit codes:
usage errors (bad arguments, violated preconditions), domain errors
(mathematically undefined requests) and resource errors (a computation
that would exceed a documented cap).
"""


class QfsplitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(QfsplitError):
    """A caller violated an interface precondition (exit code 1)."""


class DomainError(QfsplitError):
    """The requested value is mathematically undefined (exit code 2)."""


class ResourceError(QfsplitError):
    """The computation would exceed a documented resource cap (exit code 3)."""


class ParseError(UsageError):
    """Syntax error in a polynomial expression; carries the UTF-8 byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset

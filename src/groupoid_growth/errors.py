"""The package's two exception classes, one per exit code of the CLI.

A resource cap reached before a result is certified raises
:class:`ResourceError` (exit 3), and a violated identity raises
:class:`IdentityError` (exit 4).  Every other error is a ``ValueError``
(exit 2, a usage error).
"""


class ResourceError(RuntimeError):
    """A cap was reached before the result was certified."""


class IdentityError(AssertionError):
    """A computed identity that the theory guarantees failed."""

"""Error types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
the CLI can map error classes to distinct exit codes.
"""

from __future__ import annotations


class LagtraceError(Exception):
    """Base class for all package errors."""


class AmbientMismatch(LagtraceError):
    """Two values from different ambient groups (or different genus) were mixed."""


class ParseError(LagtraceError):
    """Malformed word, automorphism file or bracket expression."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class CertificationError(LagtraceError):
    """Supplied inverse images do not invert the forward map."""


class NotMonomial(LagtraceError):
    """Group-ring element is not plus or minus a single group element."""


class NotInFiltration(LagtraceError):
    """Element has a nonzero part below the requested augmentation power."""


class NotInGamma(LagtraceError):
    """Group word is not in the requested lower-central-series term."""


class NotLieElement(LagtraceError):
    """Tensor is not a homogeneous Lie element: it fails the Dynkin criterion
    or the Lyndon peel."""


class NotSymplectic(LagtraceError):
    """Derivation does not annihilate the symplectic bivector."""


class NotInG(LagtraceError):
    """Derivation is symplectic but does not vanish under the handlebody projection."""


class RouteMismatch(LagtraceError):
    """The two independent trace routes disagree; signals a convention bug."""


class DegreeTooLow(LagtraceError):
    """Automorphism does not lie deep enough in the filtration for the request."""


class NotInHandlebodyGroup(LagtraceError):
    """Automorphism does not preserve the handlebody kernel."""


class BudgetExceeded(LagtraceError):
    """A word-length or sampling budget was exhausted."""

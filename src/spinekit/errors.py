"""Exception types shared across the package."""

from __future__ import annotations


class SpineKitError(Exception):
    """Base class for all errors raised by this package."""


class TargetMismatch(SpineKitError):
    """Composition was requested for maps whose endpoints do not line up."""


class InvalidSpine(SpineKitError):
    """An operation required a spine that passes validation.

    Carries the offending ValidationReport as `.report`.
    """

    def __init__(self, report, message: str = "spine fails validation"):
        super().__init__(message)
        self.report = report


class NotRegular(SpineKitError):
    """An operation required a regular spine.

    Carries the offending RegularityReport as `.report`.
    """

    def __init__(self, report, message: str = "spine is not regular"):
        super().__init__(message)
        self.report = report


class TheoremViolation(SpineKitError):
    """Internal consistency failure.

    Raised when a mathematically guaranteed outcome fails to hold; this is
    always an implementation bug, never a legal result.
    """


class UnknownObject(SpineKitError):
    """An object label is not part of the spine."""


class UnknownElement(SpineKitError):
    """An element label is not part of the carrier or group."""


class TooLarge(SpineKitError):
    """The input exceeds the supported size for this operation."""


class NotPrime(SpineKitError):
    """A parameter that must be prime is not."""


class SearchExhausted(SpineKitError):
    """A seeded search ended without finding a witness."""


class EmptySet(SpineKitError):
    """A non-empty set was required."""


class NotACoset(SpineKitError):
    """The operation's precondition requires a coset and the input is not one."""


class DocumentError(SpineKitError):
    """Base class for document parsing problems; `.path` locates the issue."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class DocumentSyntaxError(DocumentError):
    """The input is not well-formed JSON."""


class SchemaError(DocumentError):
    """The document does not match the spine document schema."""


class ValidationError(DocumentError):
    """The document parsed but the spine fails validation.

    Carries the ValidationReport as `.report`.
    """

    def __init__(self, report, message: str = "spine fails validation"):
        super().__init__(message)
        self.report = report

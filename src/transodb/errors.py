"""Shared exception base for the transodb package, and the translation of
expat parse failures into positioned messages."""

from xml.parsers import expat

# What expat's Parse can raise for bad input: ExpatError for markup, and
# LookupError/ValueError for unknown or invalid encoding declarations.
EXPAT_FAILURES = (expat.ExpatError, LookupError, ValueError)


class TransodbError(Exception):
    """Base class for every error raised by this package."""


class ModelMismatchError(TransodbError):
    """Two components were handed models whose dumps disagree."""


def describe_expat_failure(exc: Exception, data: bytes) -> tuple[str, int, int]:
    """Message and 1-based (line, column) for one of EXPAT_FAILURES raised
    while parsing data; the line is clamped to the lines data holds."""
    if not isinstance(exc, expat.ExpatError):
        return f"malformed XML: {exc}", 1, 1
    lines = data.count(b"\n") + (0 if data.endswith(b"\n") else 1)
    line = min(max(exc.lineno, 1), lines)
    return f"malformed XML: {expat.errors.messages[exc.code]}", line, exc.offset + 1

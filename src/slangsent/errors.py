"""Exception types shared across the toolkit.

The two mid-level families map onto CLI exit codes: ConfigError (1) and
DataError (2). A subclass exists only where some caller catches it by name.
"""

from __future__ import annotations


class SlangSentError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SlangSentError):
    """Unusable configuration or invocation."""


class DataError(SlangSentError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """A record of an input file is malformed; the file and line are in the
    message (`records.Lines` puts them there)."""

"""Exception types shared across the toolkit.

The three mid-level families map onto CLI exit codes: ConfigError (1),
DataError (2), ProviderError (3).
"""

from __future__ import annotations


class SlangSentError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SlangSentError):
    """Unusable configuration or invocation."""


class DataError(SlangSentError):
    """Malformed or inconsistent input data."""


class ProviderError(SlangSentError):
    """A pluggable provider (corpus, entry fetcher) failed."""


class RecordError(DataError):
    """Data error tied to a 1-based line of an input stream."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class NormalizationError(DataError):
    """A term was empty after normalization."""


class ScaleError(DataError):
    """A seed-lexicon scale map produced a value outside the strength scale."""


class ParseError(RecordError):
    """A lexicon or corpus file could not be parsed."""


class IngestError(RecordError):
    """A dictionary-entry record could not be ingested."""


class MissingTermError(DataError):
    """A document was expected to contain a query term but does not."""


class EmptyEvaluationError(DataError):
    """No documents were left to evaluate after subset filtering."""

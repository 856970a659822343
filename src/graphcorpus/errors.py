"""Exception types shared across the package."""


class GraphCorpusError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(GraphCorpusError, ValueError):
    """A parameter is outside its documented domain (n <= 0, p not in [0,1], ...)."""


class GraphInvalidError(GraphCorpusError, ValueError):
    """A Graph violates a structural invariant."""


class GraphKindError(GraphCorpusError, ValueError):
    """A solver was handed the wrong kind of graph (directedness, weights)."""


class InvalidQueryError(GraphCorpusError, ValueError):
    """A query references missing nodes or is otherwise ill-formed."""


class BackendError(GraphCorpusError, RuntimeError):
    """A sampling backend failed (auth, transport, request budget)."""


class TransientError(BackendError):
    """A request failed in a way a retry may mend (a 503, a lost connection)."""


class CacheError(GraphCorpusError, RuntimeError):
    """The completion cache file is corrupt."""


class RecordError(GraphCorpusError, ValueError):
    """A corpus record failed validation; names the offending record."""


class SchemaError(GraphCorpusError, ValueError):
    """A JSONL line is malformed; the message names its 1-based line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StageError(GraphCorpusError, RuntimeError):
    """A pipeline stage could not satisfy its contract (balance, retries)."""

"""Exception types shared across the memgrep pipeline."""

from __future__ import annotations


class MemgrepError(Exception):
    """Base class for all memgrep errors."""


class MalformedDocumentError(MemgrepError):
    """Input document does not parse under the declared format."""


class EmptyCorpusError(MemgrepError):
    """Ingestion produced zero passages."""


class DuplicateTurnError(MalformedDocumentError):
    """Two passages share an id (the same session_id and turn_index)."""


class DanglingGoldError(MemgrepError):
    """Gold annotation references passage ids absent from the corpus."""

    def __init__(self, missing: list[str]):
        self.missing = list(missing)
        super().__init__(f"gold references unknown passage ids: {', '.join(self.missing)}")


class EmptyTermSetError(MemgrepError):
    """Query parsing yielded zero weighted terms."""


class ScorerUnavailableError(MemgrepError):
    """A scorer backend is disabled, unreachable, or failed to respond."""


class PartialResponseError(MemgrepError):
    """A scoring service returned fewer (or malformed) results than requested."""


class UnknownScorerError(MemgrepError):
    """A ranking names a scorer missing from the fusion weight table."""


class IncompleteMatrixError(MemgrepError):
    """A score matrix record lacks data the simulator needs."""


class ConfigError(MemgrepError):
    """Run configuration file or flags are invalid."""

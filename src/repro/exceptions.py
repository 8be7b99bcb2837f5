"""Exception hierarchy for the MultiEM reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to distinguish configuration mistakes from data
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, out of range, or inconsistent."""


class SchemaError(ReproError):
    """Tables with incompatible schemas were combined, or an attribute is unknown."""


class DataError(ReproError):
    """Input data is malformed (empty tables, duplicate identifiers, bad files)."""


class IndexError_(ReproError):
    """An ANN index was queried before being built, or with bad parameters."""


class StoreError(ReproError):
    """A snapshot could not be written, parsed, or restored (bad magic,
    unsupported format version, truncated buffer, or unsupported object)."""


class StoreLockedError(StoreError):
    """Another live writer holds the store directory's ``.lock`` file;
    concurrent ``save``/``append``/``compact`` calls fail fast instead of
    interleaving their temp files and chain links."""


class ServeError(ReproError):
    """The match-serving plane failed (no healthy workers, malformed frame,
    worker protocol violation); HTTP-level misuse is reported to the client
    as a status code instead and never raises this."""


class EvaluationError(ReproError):
    """Ground truth and predictions cannot be compared (e.g. unknown entity refs)."""


class BaselineUnsupportedError(ReproError):
    """A baseline declines to run (dataset too large, as in the paper's '-' cells)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason

"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidSeriesError(ReproError):
    """A time series violates a structural requirement.

    Raised when timestamps are not strictly increasing, lengths of the
    time/value arrays disagree, or a series is too short for the requested
    operation.
    """


class InvalidParameterError(ReproError):
    """A user-supplied parameter is out of its legal domain.

    Examples: a negative error tolerance ``epsilon``, a non-positive window
    width ``w``, a drop threshold ``V >= 0``, or a time-span threshold
    ``T > w`` that the index was not built to support.
    """


class InvalidSegmentError(ReproError):
    """A data segment is malformed (zero or negative duration, NaN values)."""


class StorageError(ReproError):
    """A feature store could not complete an operation.

    Wraps lower-level ``sqlite3`` errors so callers are not coupled to the
    backend in use.
    """


class CorruptionError(StorageError):
    """Stored bytes fail an integrity check.

    Raised when a page's CRC32 trailer does not match its contents, when a
    write-ahead-log frame is torn, or when ``MiniDatabase.check()`` finds a
    structural inconsistency (broken heap chain, unsorted B+tree leaves,
    dangling rids).  Corrupt data is *never* silently returned.
    """


class RecoveryError(StorageError):
    """Crash recovery could not restore a consistent database.

    Raised when the write-ahead log itself is unusable (bad magic, wrong
    page size) or when replaying committed frames fails.  Distinct from
    :class:`CorruptionError` so callers can tell "the main file is bad"
    from "the recovery protocol failed".
    """


class QueryError(ReproError):
    """A search request could not be answered.

    Raised, for instance, when a drop search is issued with ``T`` larger
    than the window ``w`` the index was built with, or against an index
    that holds no features yet.
    """


class ResilienceError(QueryError):
    """Base class for a query that deliberately did not run to completion.

    Today that is :class:`QueryTimeout` (a missed deadline); callers can
    tell it from a malformed request while still catching both as
    :class:`QueryError`.
    """


class QueryTimeout(ResilienceError):
    """A query exceeded its deadline and was cooperatively cancelled.

    Carries whatever partial state existed at the moment the deadline
    fired: ``partial_pairs`` (candidate pairs from the operators that
    *did* finish — possibly incomplete, never trustworthy as a full
    answer) and ``completeness`` (a
    :class:`repro.engine.resilience.CompletenessReport` naming the
    operators that did not finish).
    """

    def __init__(self, message: str, partial_pairs=None, completeness=None):
        super().__init__(message)
        self.partial_pairs = partial_pairs if partial_pairs is not None else []
        self.completeness = completeness

    def attach(self, partial_pairs=None, completeness=None) -> None:
        """Enrich the in-flight exception with partial state (executor)."""
        if partial_pairs is not None and not self.partial_pairs:
            self.partial_pairs = partial_pairs
        if completeness is not None and self.completeness is None:
            self.completeness = completeness

"""Query deadlines, result verdicts and the shared retry loop.

The query path above the crash-safe storage layer keeps each search
bounded in time and says honestly how complete its answer is
(docs/resilience.md has the walkthrough):

* **Deadlines & cooperative cancellation** — a :class:`Deadline` wrapped
  in a :class:`QueryGuard` that executor operators and the stores' scan
  and probe loops check periodically (``tick()``); an expired deadline
  raises :class:`~repro.errors.QueryTimeout` carrying whatever partial
  state exists.  A refine pass that runs out of time leaves with the
  full candidate set in ``partial_pairs`` — by Theorem 1 a superset of
  the refined answer.
* **Verdicts** — every :class:`QueryOutcome` (the one result type:
  the answer's ident matrix, pairs built from it on first read) carries a
  :class:`ResultStatus`: COMPLETE, DEGRADED (a partitioned or sharded
  answer lost some of its parts; the :class:`CompletenessReport` names
  them) or FAILED (a batch cell whose store group failed).

:class:`RetryPolicy` is the shared transient-failure retry loop
(exponential backoff) that the SQLite store's busy/locked handling and
the MiniDB open path both use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Type

import numpy as np

from ..errors import InvalidParameterError, QueryTimeout, StorageError
from ..obs import context as obs_context
from ..obs import recorder as flight
from ..obs.metrics import REGISTRY
from ..types import SegmentPair, pairs_of

__all__ = [
    "Deadline",
    "QueryGuard",
    "RetryPolicy",
    "ResultStatus",
    "CompletenessReport",
    "QueryOutcome",
]

_TIMEOUTS = REGISTRY.counter(
    "repro_query_timeouts_total",
    "Queries that exceeded their deadline and raised QueryTimeout",
)
_DEGRADED = REGISTRY.counter(
    "repro_queries_degraded_total",
    "Queries answered DEGRADED (some partitions or shards lost)",
)


def _retry_counter(policy_name: str):
    return REGISTRY.counter(
        "repro_retry_attempts_total",
        "Transient failures retried by a RetryPolicy",
        {"policy": policy_name},
    )


# ---------------------------------------------------------------------- #
# deadlines and guards
# ---------------------------------------------------------------------- #


class Deadline:
    """A wall-clock budget measured on a monotonic clock.

    ``clock`` is injectable so tests can drive the state machine without
    sleeping.
    """

    __slots__ = ("budget_s", "_t0", "_clock")

    def __init__(
        self, budget_s: float, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if budget_s <= 0:
            raise InvalidParameterError(
                f"deadline budget must be positive, got {budget_s}"
            )
        self.budget_s = float(budget_s)
        self._clock = clock
        self._t0 = clock()

    @classmethod
    def from_timeout_ms(
        cls, timeout_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(timeout_ms / 1000.0, clock=clock)

    def elapsed(self) -> float:
        return self._clock() - self._t0

    def remaining(self) -> float:
        """Seconds left; negative once the deadline has passed."""
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0


class QueryGuard:
    """The per-query deadline carried through the engine.

    A guard travels from :class:`~repro.engine.session.QuerySession`
    through the executor's operators down into the stores' scan/probe
    loops, which call :meth:`tick` periodically (directly, or via
    :meth:`wrap_iter` around a row iterator).  ``tick()`` raises
    :class:`~repro.errors.QueryTimeout` once the deadline passes — the
    cooperative-cancellation contract: no store call runs more than one
    scan chunk past the deadline.

    The guard also records operator progress (``start_op``/``finish_op``)
    so a timeout can report exactly which operators did not finish.
    """

    __slots__ = ("deadline", "check_every", "_finished_ops", "_current_op")

    def __init__(self, deadline: Deadline, check_every: int = 256) -> None:
        if check_every < 1:
            raise InvalidParameterError("check_every must be >= 1")
        self.deadline = deadline
        self.check_every = int(check_every)
        self._finished_ops: List[str] = []
        self._current_op: Optional[str] = None

    def tick(self) -> None:
        """The cooperative checkpoint scan/probe loops call periodically."""
        if self.deadline.expired():
            raise QueryTimeout(
                f"deadline of {self.deadline.budget_s * 1000:.0f} ms "
                f"exceeded after {self.deadline.elapsed() * 1000:.0f} ms"
                + (
                    f" (operator {self._current_op} unfinished)"
                    if self._current_op
                    else ""
                ),
                completeness=self.report(),
            )

    def wrap_iter(self, rows: Iterable, every: Optional[int] = None) -> Iterator:
        """Yield from ``rows``, ticking every ``every`` items.

        The helper stores use to make long row loops cooperative without
        duplicating the loop per guarded/unguarded path.
        """
        step = every if every is not None else self.check_every
        tick = self.tick
        for i, row in enumerate(rows):
            if i % step == 0:
                tick()
            yield row

    # -- operator progress (completeness reporting) --------------------- #

    def start_op(self, name: str) -> None:
        self._current_op = name

    def finish_op(self, name: str) -> None:
        self._finished_ops.append(name)
        if self._current_op == name:
            self._current_op = None

    def report(self, reason: str = "") -> "CompletenessReport":
        """What finished and what did not, as of right now."""
        unfinished: Tuple[str, ...] = (
            (self._current_op,) if self._current_op else ()
        )
        return CompletenessReport(
            finished=tuple(self._finished_ops),
            unfinished=unfinished,
            reason=reason,
        )


# ---------------------------------------------------------------------- #
# result status / completeness
# ---------------------------------------------------------------------- #


class ResultStatus(str, Enum):
    """How much of the full pipeline a result reflects."""

    #: The full plan ran; the result is the exact §4.4 answer.
    COMPLETE = "complete"
    #: A partitioned or sharded answer lost some of its parts: the
    #: union of the survivors, honest but incomplete (the completeness
    #: report names the lost parts).
    DEGRADED = "degraded"
    #: The backing store failed for this cell; no result is available.
    FAILED = "failed"


@dataclass(frozen=True)
class CompletenessReport:
    """Which operators (or partitions, or shards) finished — attached
    to timed-out and degraded results."""

    finished: Tuple[str, ...] = ()
    unfinished: Tuple[str, ...] = ()
    reason: str = ""

    def describe(self) -> str:
        parts = []
        if self.unfinished:
            parts.append("unfinished: " + ", ".join(self.unfinished))
        if self.finished:
            parts.append("finished: " + ", ".join(self.finished))
        if self.reason:
            parts.append(self.reason)
        return "; ".join(parts) or "complete"


@dataclass(eq=False)
class QueryOutcome:
    """One query's answer, its verdict and its diagnostics — the one
    result type of every execute and search entry point.

    ``rows`` *is* the answer: the §4.4 union as a sorted, deduplicated
    ``(n, 4)`` float64 ident matrix ``(t_d, t_c, t_b, t_a)``.  Merges,
    counts and telemetry read it; :attr:`pairs` builds the
    :class:`~repro.types.SegmentPair` list from it on first read and
    caches it.  ``hits`` is set when the plan refined against raw data.
    ``status`` is :attr:`ResultStatus.COMPLETE` on the healthy path,
    :attr:`ResultStatus.DEGRADED` when a partitioned or sharded answer
    lost some of its parts (``completeness`` names them), and
    :attr:`ResultStatus.FAILED` for batch cells whose store group failed
    (``error`` carries the cause).
    """

    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    hits: Optional[List] = None
    status: ResultStatus = ResultStatus.COMPLETE
    completeness: Optional[CompletenessReport] = None
    error: Optional[BaseException] = None
    #: What each physical operator did (``OperatorStats``), summed over
    #: the partitions that answered on the partitioned entry points.
    op_stats: List = field(default_factory=list)
    #: Set by the partitioned entry points; None elsewhere.
    partitions_scanned: Optional[int] = None
    partitions_pruned: Optional[int] = None
    #: Diagnostics: the query's id, its resource accounting
    #: (:class:`~repro.obs.context.ResourceAccounting`), and — on
    #: DEGRADED/FAILED outcomes — the flight recorder's recent tail
    #: (event dicts), so a failing answer ships its own postmortem.
    query_id: Optional[str] = None
    accounting: Optional[object] = None
    recorder_tail: Optional[List] = None
    #: Builds :attr:`pairs` when the cells of one grid share pair
    #: objects (the batch executors set it); None builds them from
    #: ``rows``.
    pairs_from: Optional[Callable[[], List[SegmentPair]]] = field(
        default=None, repr=False
    )
    _pairs: Optional[List[SegmentPair]] = field(
        default=None, init=False, repr=False
    )

    @property
    def pairs(self) -> List[SegmentPair]:
        """The answer as a list of segment pairs, built once."""
        if self._pairs is None:
            self._pairs = (
                self.pairs_from() if self.pairs_from is not None
                else pairs_of(self.rows)
            )
        return self._pairs

    @property
    def results(self) -> List:
        """Hits when the plan refined, else the candidate pairs."""
        return self.hits if self.hits is not None else self.pairs


# ---------------------------------------------------------------------- #
# shared retry policy
# ---------------------------------------------------------------------- #


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff for transient failures.

    The single retry loop shared across the system: the SQLite store's
    busy/locked handling and the MiniDB open path both run through it.
    ``sleep`` is injectable so tests never actually wait.
    """

    max_attempts: int = 5
    base_delay: float = 0.02
    multiplier: float = 2.0
    name: str = "default"
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            self.max_attempts = 1
        self._attempts_metric = _retry_counter(self.name)

    def run(
        self,
        fn: Callable,
        catch: Tuple[Type[BaseException], ...] = (StorageError, OSError),
        transient: Optional[Callable[[BaseException], bool]] = None,
        wrap: Optional[Callable[[BaseException, int], BaseException]] = None,
        on_retry: Optional[Callable[[BaseException], None]] = None,
    ):
        """Run ``fn``, retrying transient failures with backoff.

        ``catch`` limits which exception types are handled at all;
        ``transient(exc)`` (default: everything caught) decides whether a
        caught failure is worth retrying; ``wrap(exc, attempts)`` maps
        the final failure into the caller's error type; ``on_retry`` is
        invoked before each backoff sleep (extra per-caller metrics).
        """
        delay = self.base_delay
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except catch as exc:
                retryable = transient is None or transient(exc)
                if not retryable or attempt == self.max_attempts - 1:
                    if wrap is not None:
                        raise wrap(exc, attempt + 1) from exc
                    raise
                self._attempts_metric.inc()
                obs_context.account(retries=1)
                if on_retry is not None:
                    on_retry(exc)
                self.sleep(delay)
                delay *= self.multiplier


def record_timeout() -> None:
    """Count one deadline miss (called where QueryTimeout surfaces)."""
    _TIMEOUTS.inc()
    flight.record("timeout", "deadline")


def record_degraded(noun: str) -> None:
    """Count one degraded answer (``noun``: what was lost — a partition
    or a shard)."""
    _DEGRADED.inc()
    flight.record("degraded", noun)

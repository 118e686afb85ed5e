"""Resilient query serving: deadlines, admission control, breakers.

The query path above the crash-safe storage layer must keep its latency
bounded and degrade gracefully when a backend misbehaves — the "heavy
traffic" north star (ROADMAP.md) and the serving regime the paper's
ad-hoc historical searches imply (§4.4).  This module supplies the four
mechanisms the engine threads through every search
(docs/resilience.md has the full walkthrough):

* **Deadlines & cooperative cancellation** — a :class:`Deadline` wrapped
  in a :class:`QueryGuard` that executor operators and the stores' scan
  and probe loops check periodically (``tick()``); an expired deadline
  raises :class:`~repro.errors.QueryTimeout` carrying whatever partial
  state exists.
* **Admission control** — an :class:`AdmissionController` caps in-flight
  queries per session (``max_concurrency``) with a bounded wait queue;
  load beyond the queue is *shed* with
  :class:`~repro.errors.QueryRejected` instead of piling up.
* **Circuit breakers** — a :class:`CircuitBreaker` wraps the four
  physical store primitives; after ``failure_threshold`` consecutive
  backend failures it opens and fails fast
  (:class:`~repro.errors.CircuitOpenError`), then half-opens after a
  cool-down and lets one probe through.
* **Degraded modes** — ``degrade="candidates"`` skips the witness-refine
  pass near the deadline and returns the candidate pairs flagged
  :attr:`ResultStatus.DEGRADED`.  Theorem 1 guarantees the candidate set
  has zero false negatives, so a degraded answer is a *superset* of the
  refined answer — a principled fallback, not a truncation.

:class:`RetryPolicy` is the shared transient-failure retry loop
(exponential backoff) that the SQLite store's busy/locked handling and
the MiniDB open path both use.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Type

from ..errors import (
    CircuitOpenError,
    InvalidParameterError,
    QueryCancelled,
    QueryRejected,
    QueryTimeout,
    StorageError,
)
from ..obs import context as obs_context
from ..obs import recorder as flight
from ..obs.metrics import REGISTRY

__all__ = [
    "Deadline",
    "QueryGuard",
    "AdmissionController",
    "CircuitBreaker",
    "RetryPolicy",
    "ResiliencePolicy",
    "ResultStatus",
    "CompletenessReport",
    "QueryOutcome",
]

_TIMEOUTS = REGISTRY.counter(
    "repro_query_timeouts_total",
    "Queries that exceeded their deadline and raised QueryTimeout",
)
_SHED = REGISTRY.counter(
    "repro_queries_shed_total",
    "Queries rejected by admission control (saturated + queue full)",
)
_DEGRADED = REGISTRY.counter(
    "repro_queries_degraded_total",
    "Queries answered in a degraded mode (refine pass skipped)",
)

#: Gauge values for ``repro_breaker_state``.
_BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


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
    """The per-query resilience context carried through the engine.

    A guard travels from :class:`~repro.engine.session.QuerySession`
    through the executor's operators down into the stores' scan/probe
    loops, which call :meth:`tick` periodically (directly, or via
    :meth:`wrap_iter` around a row iterator).  ``tick()`` raises
    :class:`~repro.errors.QueryTimeout` once the deadline passes and
    :class:`~repro.errors.QueryCancelled` after :meth:`cancel` — the
    cooperative-cancellation contract: no store call runs more than one
    scan chunk past the deadline.

    The guard also records operator progress (``start_op``/``finish_op``)
    so a timeout can report exactly which operators did not finish, and
    carries the session's :class:`CircuitBreaker` for the executor to
    route physical fetches through.
    """

    __slots__ = (
        "deadline",
        "degrade",
        "breaker",
        "check_every",
        "degrade_fraction",
        "degrade_margin_s",
        "_cancelled",
        "_finished_ops",
        "_current_op",
    )

    def __init__(
        self,
        deadline: Optional[Deadline] = None,
        degrade: Optional[str] = None,
        breaker: Optional["CircuitBreaker"] = None,
        check_every: int = 256,
        degrade_fraction: float = 0.25,
        degrade_margin_s: Optional[float] = None,
    ) -> None:
        if degrade not in (None, "candidates"):
            raise InvalidParameterError(
                f"degrade must be None or 'candidates', got {degrade!r}"
            )
        if check_every < 1:
            raise InvalidParameterError("check_every must be >= 1")
        self.deadline = deadline
        self.degrade = degrade
        self.breaker = breaker
        self.check_every = int(check_every)
        self.degrade_fraction = float(degrade_fraction)
        self.degrade_margin_s = degrade_margin_s
        self._cancelled = False
        self._finished_ops: List[str] = []
        self._current_op: Optional[str] = None

    # -- cancellation and deadline checks ------------------------------- #

    def cancel(self) -> None:
        """Request cooperative cancellation; the next ``tick()`` raises."""
        self._cancelled = True

    def tick(self) -> None:
        """The cooperative checkpoint scan/probe loops call periodically."""
        if self._cancelled:
            raise QueryCancelled("query cancelled")
        if self.deadline is not None and self.deadline.expired():
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

    # -- degraded-mode decision ----------------------------------------- #

    def near_deadline(self) -> bool:
        """True when the remaining budget is inside the degrade margin.

        The margin is ``degrade_margin_s`` when set, else
        ``degrade_fraction`` of the total budget.  With no deadline at
        all there is nothing to be near.
        """
        if self.deadline is None:
            return False
        margin = (
            self.degrade_margin_s
            if self.degrade_margin_s is not None
            else self.degrade_fraction * self.deadline.budget_s
        )
        return self.deadline.remaining() <= margin

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

    # -- physical-call wrapper ------------------------------------------ #

    def call(self, fn: Callable):
        """Run one physical store call under the breaker (if any)."""
        if self.breaker is not None:
            return self.breaker.call(fn)
        return fn()


# ---------------------------------------------------------------------- #
# result status / completeness
# ---------------------------------------------------------------------- #


class ResultStatus(str, Enum):
    """How much of the full pipeline a result reflects."""

    #: The full plan ran; the result is the exact §4.4 answer.
    COMPLETE = "complete"
    #: Candidates only: the refine pass was skipped near the deadline.
    #: Zero false negatives (Theorem 1) — a superset of the full answer.
    DEGRADED = "degraded"
    #: The backing store failed for this cell; no result is available.
    FAILED = "failed"


@dataclass(frozen=True)
class CompletenessReport:
    """Which operators finished — attached to partial/degraded results."""

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


@dataclass
class QueryOutcome:
    """One query's answer plus its resilience verdict.

    ``pairs`` holds the candidate segment pairs; ``hits`` is set when
    the plan refined against raw data.  ``status`` is
    :attr:`ResultStatus.COMPLETE` on the healthy path,
    :attr:`ResultStatus.DEGRADED` when the refine pass was skipped
    (pairs are then a superset of the full answer), and
    :attr:`ResultStatus.FAILED` for batch cells whose store group failed
    (``error`` carries the cause).
    """

    pairs: List = field(default_factory=list)
    hits: Optional[List] = None
    status: ResultStatus = ResultStatus.COMPLETE
    completeness: Optional[CompletenessReport] = None
    error: Optional[BaseException] = None
    #: The deduped ``(len(pairs), 4)`` ident matrix behind ``pairs`` —
    #: what a scatter-gather merge unions instead of tuple sets.
    ident_rows: Optional[object] = field(
        default=None, compare=False, repr=False
    )
    #: Diagnostics: the query's id, its resource accounting
    #: (:class:`~repro.obs.context.ResourceAccounting`), and — on
    #: DEGRADED/FAILED outcomes — the flight recorder's recent tail
    #: (event dicts), so a failing answer ships its own postmortem.
    query_id: Optional[str] = None
    accounting: Optional[object] = field(default=None, compare=False)
    recorder_tail: Optional[List] = field(default=None, compare=False)

    @property
    def degraded(self) -> bool:
        return self.status is ResultStatus.DEGRADED

    @property
    def failed(self) -> bool:
        return self.status is ResultStatus.FAILED

    @property
    def results(self) -> List:
        """Hits when the plan refined, else the candidate pairs."""
        return self.hits if self.hits is not None else self.pairs


# ---------------------------------------------------------------------- #
# admission control
# ---------------------------------------------------------------------- #


class AdmissionController:
    """Bounded concurrency with a bounded wait queue and load shedding.

    At most ``max_concurrency`` queries run at once; up to ``max_queue``
    more may wait, each for at most ``queue_timeout_s`` (further capped
    by the query's own deadline).  Anything beyond that is shed
    immediately with :class:`~repro.errors.QueryRejected` — under
    saturation the session's latency stays bounded instead of growing an
    unbounded convoy.
    """

    def __init__(
        self,
        max_concurrency: int,
        max_queue: int = 0,
        queue_timeout_s: float = 1.0,
    ) -> None:
        if max_concurrency < 1:
            raise InvalidParameterError("max_concurrency must be >= 1")
        if max_queue < 0:
            raise InvalidParameterError("max_queue must be >= 0")
        if queue_timeout_s < 0:
            raise InvalidParameterError("queue_timeout_s must be >= 0")
        self.max_concurrency = int(max_concurrency)
        self.max_queue = int(max_queue)
        self.queue_timeout_s = float(queue_timeout_s)
        self._cond = threading.Condition()
        self._active = 0
        self._waiting = 0
        self.shed_count = 0

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

    @property
    def waiting(self) -> int:
        with self._cond:
            return self._waiting

    def _shed(self, why: str) -> None:
        self.shed_count += 1
        _SHED.inc()
        ctx = obs_context.current_context()
        flight.record(
            "shed", "admission",
            reason=why, active=self._active, waiting=self._waiting,
            query_id=ctx.query_id if ctx is not None else None,
        )
        raise QueryRejected(
            f"query shed: {why} "
            f"({self._active} active, {self._waiting} queued, "
            f"max_concurrency={self.max_concurrency}, "
            f"max_queue={self.max_queue})"
        )

    def acquire(self, deadline: Optional[Deadline] = None) -> None:
        with self._cond:
            if self._active < self.max_concurrency:
                self._active += 1
                return
            if self._waiting >= self.max_queue:
                self._shed("session saturated and wait queue full")
            budget = self.queue_timeout_s
            if deadline is not None:
                budget = min(budget, max(deadline.remaining(), 0.0))
            end = time.monotonic() + budget
            self._waiting += 1
            try:
                while self._active >= self.max_concurrency:
                    left = end - time.monotonic()
                    if left <= 0:
                        self._shed("queue wait timed out")
                    self._cond.wait(left)
                self._active += 1
            finally:
                self._waiting -= 1

    def release(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify()

    @contextmanager
    def admit(self, deadline: Optional[Deadline] = None):
        self.acquire(deadline)
        try:
            yield
        finally:
            self.release()


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one backend.

    ``failure_threshold`` *consecutive* failures (of ``failure_types``)
    open the circuit: every call fails fast with
    :class:`~repro.errors.CircuitOpenError` for ``cooldown_s`` seconds.
    The first call after the cool-down is the half-open *probe*; its
    success closes the circuit, its failure reopens it (and restarts the
    cool-down).  State is exported as the ``repro_breaker_state`` gauge
    (0 closed, 1 half-open, 2 open) labelled by backend **and** breaker
    ``name`` — the name (a shard id, an index name; defaults to the
    backend) keeps the gauges of a multi-index process distinct instead
    of every breaker overwriting one time series.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        failure_types: Tuple[Type[BaseException], ...] = (
            StorageError,
            OSError,
        ),
        backend: str = "unknown",
        name: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise InvalidParameterError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise InvalidParameterError("cooldown_s must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.failure_types = failure_types
        self.backend = backend
        self.name = name if name is not None else backend
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probing = False
        self._gauge = REGISTRY.gauge(
            "repro_breaker_state",
            "Circuit-breaker state per backend and breaker name "
            "(0 closed, 1 half-open, 2 open)",
            {"backend": backend, "name": self.name},
        )
        self._set_state("closed")

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # an open breaker whose cool-down elapsed reads as half-open
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._set_state("half_open")
        return self._state

    def _set_state(self, state: str) -> None:
        if state != self._state:
            flight.record(
                "breaker", self.name,
                backend=self.backend, state=state,
                consecutive_failures=self._consecutive_failures,
            )
        self._state = state
        self._gauge.set(_BREAKER_STATE_VALUES[state])

    def call(self, fn: Callable):
        """Run ``fn`` through the breaker (see class docstring)."""
        with self._lock:
            state = self._effective_state()
            if state == "open":
                raise CircuitOpenError(
                    f"circuit open for backend {self.backend!r}: "
                    f"{self._consecutive_failures} consecutive failures; "
                    f"retrying in "
                    f"{self.cooldown_s - (self._clock() - self._opened_at):.2f}s"
                )
            if state == "half_open":
                if self._probing:
                    raise CircuitOpenError(
                        f"circuit half-open for backend {self.backend!r}: "
                        "probe already in flight"
                    )
                self._probing = True
        try:
            result = fn()
        except self.failure_types:
            self._on_failure()
            raise
        else:
            self._on_success()
            return result

    def _on_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half_open":
                # failed probe: reopen and restart the cool-down
                self._probing = False
                self._opened_at = self._clock()
                self._set_state("open")
            elif (
                self._state == "closed"
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._set_state("open")

    def _on_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probing = False
            if self._state != "closed":
                self._set_state("closed")


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


# ---------------------------------------------------------------------- #
# session-level policy
# ---------------------------------------------------------------------- #


@dataclass
class ResiliencePolicy:
    """Per-session resilience configuration (all features opt-in).

    ``timeout_ms``/``degrade`` are session-wide defaults each query may
    override; ``max_concurrency`` enables admission control;
    ``breaker_failures`` enables a per-backend circuit breaker around the
    physical primitives.  A default-constructed policy is inert.
    """

    #: Default per-query deadline; ``None`` disables deadlines.
    timeout_ms: Optional[float] = None
    #: Default degraded mode (``None`` or ``"candidates"``).
    degrade: Optional[str] = None
    #: Skip refine when remaining budget < this (ms); default: a
    #: ``degrade_fraction`` share of the budget.
    degrade_margin_ms: Optional[float] = None
    degrade_fraction: float = 0.25
    #: Queries allowed in flight at once; ``None`` disables admission.
    max_concurrency: Optional[int] = None
    max_queue: int = 0
    queue_timeout_ms: float = 1000.0
    #: Consecutive failures that open the breaker; ``None`` disables it.
    breaker_failures: Optional[int] = None
    breaker_cooldown_ms: float = 1000.0
    #: Rows between cooperative deadline checks inside store loops.
    check_every: int = 256

    def __post_init__(self) -> None:
        if self.degrade not in (None, "candidates"):
            raise InvalidParameterError(
                f"degrade must be None or 'candidates', got {self.degrade!r}"
            )

    def admission(self) -> Optional[AdmissionController]:
        if self.max_concurrency is None:
            return None
        return AdmissionController(
            self.max_concurrency,
            max_queue=self.max_queue,
            queue_timeout_s=self.queue_timeout_ms / 1000.0,
        )

    def breaker(
        self, backend: str, name: Optional[str] = None
    ) -> Optional[CircuitBreaker]:
        if self.breaker_failures is None:
            return None
        return CircuitBreaker(
            failure_threshold=self.breaker_failures,
            cooldown_s=self.breaker_cooldown_ms / 1000.0,
            backend=backend,
            name=name,
        )


def record_timeout() -> None:
    """Count one deadline miss (called where QueryTimeout surfaces)."""
    _TIMEOUTS.inc()
    ctx = obs_context.current_context()
    flight.record(
        "timeout", "deadline",
        query_id=ctx.query_id if ctx is not None else None,
    )


def record_degraded() -> None:
    """Count one degraded answer."""
    _DEGRADED.inc()
    ctx = obs_context.current_context()
    flight.record(
        "degraded", "refine_skipped",
        query_id=ctx.query_id if ctx is not None else None,
    )

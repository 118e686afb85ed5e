"""Algorithm 1: online, windowed feature extraction.

For every data segment ``AB`` arriving from the segmenter, features are
computed between ``AB`` and every previous segment ``CD`` whose extent
reaches into the time window ``(win.start, win.end)`` where::

    win.end   = t_A
    win.start = win.end - (t_A - t_B) - w  = t_B - w

A previous segment straddling ``win.start`` is truncated to start at
``win.start`` (Algorithm 1 line 4), so every event that *ends* during
``AB`` and spans at most ``w`` is captured by some parallelogram.

In addition to the paper's pairs, the degenerate self-pair of ``AB`` is
emitted so events strictly inside the newest segment are reported without
waiting for a successor segment (DESIGN.md §5.1).

The extractor is fully streaming: segments may be pushed as the segmenter
produces them, and the history is pruned to the segments a future window
could still reach.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Optional, Sequence

import numpy as np

from ..errors import InvalidParameterError, InvalidSeriesError
from ..obs.metrics import REGISTRY, ROWS_BUCKETS
from ..storage.base import FeatureStore
from ..types import DataSegment
from .corners import (
    FeatureBatch,
    FeatureSet,
    SlopeCase,
    collect_features,
    collect_features_batch,
)
from .parallelogram import Parallelogram

__all__ = ["FeatureExtractor", "ExtractionStats"]

_PAIRS = REGISTRY.counter(
    "repro_extractor_pairs_total",
    "Cross-segment parallelogram pairs analyzed (Algorithm 1)",
)
_SELF_PAIRS = REGISTRY.counter(
    "repro_extractor_self_pairs_total",
    "Degenerate self-pairs emitted (DESIGN.md §5.1 extension)",
)
_TRUNCATED = REGISTRY.counter(
    "repro_extractor_truncated_total",
    "History segments truncated at the window start (Alg. 1 line 4)",
)
_BATCH_SECONDS = REGISTRY.histogram(
    "repro_extractor_batch_seconds",
    "Wall time of FeatureExtractor.add_segments_batch calls",
)
_BATCH_PAIRS = REGISTRY.histogram(
    "repro_extractor_batch_pairs",
    "Pairs analyzed per add_segments_batch call",
    buckets=ROWS_BUCKETS,
)


@dataclass
class ExtractionStats:
    """Counters maintained while features are extracted.

    ``corner_histogram`` maps a corner count (1, 2 or 3) to how many
    collection events (a parallelogram × search type that passed its
    guard) kept that many corners — the paper's Table 4.  Self-pairs are
    excluded from the histogram because they are this implementation's
    addition, not part of the paper's case analysis.
    """

    n_segments: int = 0
    n_pairs: int = 0
    n_self_pairs: int = 0
    n_truncated: int = 0
    n_drop_points: int = 0
    n_drop_lines: int = 0
    n_jump_points: int = 0
    n_jump_lines: int = 0
    corner_histogram: Dict[int, int] = field(
        default_factory=lambda: {1: 0, 2: 0, 3: 0}
    )
    case_histogram: Dict[SlopeCase, int] = field(default_factory=dict)

    def effective_corner_count(self) -> float:
        """Weighted mean corners per collection event (paper: ~2.1)."""
        total = sum(self.corner_histogram.values())
        if total == 0:
            return 0.0
        return (
            sum(k * n for k, n in self.corner_histogram.items()) / total
        )

    def corner_percentages(self) -> Dict[int, float]:
        """Table 4's percentage split across 1/2/3-corner cases."""
        total = sum(self.corner_histogram.values())
        if total == 0:
            return {1: 0.0, 2: 0.0, 3: 0.0}
        return {
            k: 100.0 * n / total for k, n in self.corner_histogram.items()
        }

    def _absorb(self, features: FeatureSet) -> None:
        self.n_drop_points += len(features.drop_points)
        self.n_drop_lines += len(features.drop_lines)
        self.n_jump_points += len(features.jump_points)
        self.n_jump_lines += len(features.jump_lines)
        self.case_histogram[features.case] = (
            self.case_histogram.get(features.case, 0) + 1
        )
        if features.case is not SlopeCase.SELF:
            for corners in (
                features.drop_corner_count,
                features.jump_corner_count,
            ):
                if corners:
                    self.corner_histogram[corners] += 1

    def absorb_batch(self, batch: FeatureBatch) -> None:
        """Vectorized :meth:`_absorb` over one :class:`FeatureBatch`."""
        self.n_drop_points += int(batch.drop_points.shape[0])
        self.n_drop_lines += int(batch.drop_lines.shape[0])
        self.n_jump_points += int(batch.jump_points.shape[0])
        self.n_jump_lines += int(batch.jump_lines.shape[0])
        if not batch.case_ids.size:
            return
        for cid, n in enumerate(np.bincount(batch.case_ids, minlength=7)):
            if n:
                case = SlopeCase(cid)
                self.case_histogram[case] = (
                    self.case_histogram.get(case, 0) + int(n)
                )
        not_self = batch.case_ids != 0
        for counts in (batch.drop_corner_counts, batch.jump_corner_counts):
            hist = np.bincount(counts[not_self], minlength=4)
            for k in (1, 2, 3):
                if hist[k]:
                    self.corner_histogram[k] += int(hist[k])


class FeatureExtractor:
    """Streaming implementation of Algorithm 1.

    Parameters
    ----------
    epsilon:
        The segmentation error tolerance ε; features are shifted by ±ε per
        Lemma 4.
    window:
        The paper's ``w`` — the longest time span any future query may use
        (queries require ``T <= w``).
    store:
        Destination :class:`~repro.storage.base.FeatureStore`.
    emit_self_pairs:
        Emit degenerate self-pair features (on by default; switch off to
        run the paper's literal Algorithm 1 in ablations).
    """

    def __init__(
        self,
        epsilon: float,
        window: float,
        store: FeatureStore,
        emit_self_pairs: bool = True,
    ) -> None:
        if epsilon < 0:
            raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
        if window <= 0:
            raise InvalidParameterError(f"window must be positive, got {window}")
        self.epsilon = float(epsilon)
        self.window = float(window)
        self.store = store
        self.emit_self_pairs = emit_self_pairs
        self.stats = ExtractionStats()
        self._history: Deque[DataSegment] = deque()
        self._last: Optional[DataSegment] = None

    def add_segment(self, segment: DataSegment) -> None:
        """Consume one newly produced data segment (temporal order)."""
        if self._last is not None and segment.t_start != self._last.t_end:
            raise InvalidSeriesError(
                "segments must be contiguous: got start "
                f"{segment.t_start}, expected {self._last.t_end}"
            )
        self.stats.n_segments += 1

        if self.emit_self_pairs:
            self._emit(collect_features(Parallelogram.self_pair(segment), self.epsilon))
            self.stats.n_self_pairs += 1
            _SELF_PAIRS.inc()

        n_pairs = 0
        n_truncated = 0
        win_start = segment.t_start - self.window
        for prev in self._history:
            if prev.t_end <= win_start:
                continue  # entirely before the window
            cd = prev
            if prev.t_start < win_start:
                cd = prev.truncated_to_start(win_start)
                n_truncated += 1
            para = Parallelogram.from_segments(cd, segment)
            self._emit(collect_features(para, self.epsilon))
            n_pairs += 1
        self.stats.n_pairs += n_pairs
        self.stats.n_truncated += n_truncated
        _PAIRS.inc(n_pairs)
        if n_truncated:
            _TRUNCATED.inc(n_truncated)

        self._history.append(segment)
        self._last = segment
        # prune history: future windows start at or after t_end - w
        horizon = segment.t_end - self.window
        while self._history and self._history[0].t_end <= horizon:
            self._history.popleft()

    def add_segments_batch(self, segments: Sequence[DataSegment]) -> None:
        """Consume a run of contiguous segments through the fast path.

        Bit-for-bit equivalent to calling :meth:`add_segment` on each
        segment in order — pair selection, truncation arithmetic, corner
        math and emission order are identical — but the Table 2 analysis
        runs vectorized over all pairs of the batch at once and features
        reach the store through
        :meth:`~repro.storage.base.FeatureStore.add_features_bulk`.
        Contiguity is validated up front, before any pair is emitted.
        """
        if not segments:
            return
        last = self._last
        for segment in segments:
            if last is not None and segment.t_start != last.t_end:
                raise InvalidSeriesError(
                    "segments must be contiguous: got start "
                    f"{segment.t_start}, expected {last.t_end}"
                )
            last = segment

        # assemble one (cd, ab) row pair per parallelogram, in the exact
        # scalar emission order: per segment, self-pair first, then
        # history pairs oldest -> newest
        history = list(self._history)
        h0 = len(history)
        timeline = history + list(segments)
        cd_rows: list = []
        ab_rows: list = []
        self_flags: list = []
        n_truncated = 0
        n_self = 0
        emit_self = self.emit_self_pairs
        window = self.window
        j = 0  # two-pointer: window starts are non-decreasing
        for i, segment in enumerate(segments):
            ab_row = (
                segment.t_start,
                segment.v_start,
                segment.t_end,
                segment.v_end,
            )
            if emit_self:
                cd_rows.append(ab_row)
                ab_rows.append(ab_row)
                self_flags.append(True)
                n_self += 1
            win_start = segment.t_start - window
            while j < h0 + i and timeline[j].t_end <= win_start:
                j += 1
            for k in range(j, h0 + i):
                prev = timeline[k]
                if prev.t_start < win_start:
                    prev = prev.truncated_to_start(win_start)
                    n_truncated += 1
                cd_rows.append(
                    (prev.t_start, prev.v_start, prev.t_end, prev.v_end)
                )
                ab_rows.append(ab_row)
                self_flags.append(False)

        with _BATCH_SECONDS.time():
            batch = collect_features_batch(
                cd_rows, ab_rows, self_flags, self.epsilon
            )
            self.stats.n_segments += len(segments)
            self.stats.n_self_pairs += n_self
            self.stats.n_pairs += len(cd_rows) - n_self
            self.stats.n_truncated += n_truncated
            self.stats.absorb_batch(batch)
            self.store.add_features_bulk(batch)
        _PAIRS.inc(len(cd_rows) - n_self)
        _SELF_PAIRS.inc(n_self)
        if n_truncated:
            _TRUNCATED.inc(n_truncated)
        _BATCH_PAIRS.observe(len(cd_rows))

        self._history.extend(segments)
        self._last = segments[-1]
        horizon = self._last.t_end - self.window
        while self._history and self._history[0].t_end <= horizon:
            self._history.popleft()

    def reset_history(self) -> None:
        """Forget all previous segments (start of a new episode).

        Used for data gaps where interpolating across the outage is not
        wanted: subsequent segments pair only among themselves, so no
        reported event ever spans the gap.
        """
        self._history.clear()
        self._last = None

    def prime_history(self, segments: Iterable[DataSegment]) -> None:
        """Seed the pairing history without emitting any features.

        Used when resuming a crashed/stopped stream from a checkpoint:
        ``segments`` are segments *already stored* (in temporal order)
        whose features were extracted in the previous run.  They must
        still be pairable against future segments, but re-emitting them
        would duplicate stored features.
        """
        self._history.clear()
        self._last = None
        for segment in segments:
            if self._last is not None and segment.t_start != self._last.t_end:
                raise InvalidSeriesError(
                    "primed segments must be contiguous: got start "
                    f"{segment.t_start}, expected {self._last.t_end}"
                )
            self._history.append(segment)
            self._last = segment
        if self._last is not None:
            horizon = self._last.t_end - self.window
            while self._history and self._history[0].t_end <= horizon:
                self._history.popleft()

    def _emit(self, features: FeatureSet) -> None:
        self.stats._absorb(features)
        self.store.add(features)

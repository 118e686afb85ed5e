"""The one online write pass: segmenter → extractor → sink.

The paper's write side is a single streaming pass (§1, steps 1–3): the
sliding-window segmenter closes a segment as soon as an observation
leaves its funnel, and Algorithm 1 pairs that segment with its window
history right away.  :class:`StreamWriter` is that pass, shared by
:class:`~repro.core.index.SegDiffIndex` (sink: its feature store) and
:class:`~repro.core.live.LiveIndex` (sink: the current hot partition).
A sink takes ``add_segments_bulk``, ``add`` (scalar path) and
``add_features_bulk`` (array path), the write half of a
:class:`~repro.storage.base.FeatureStore`.

Validation is split from the write: :meth:`~StreamWriter.admit_one` /
:meth:`~StreamWriter.admit` raise or drop the already-covered prefix
with no side effect, so an owner can log what was admitted before
:meth:`~StreamWriter.push` / :meth:`~StreamWriter.push_array` change
any state.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidSeriesError
from ..segmentation.sliding_window import SlidingWindowSegmenter
from ..types import DataSegment
from .extraction import FeatureExtractor

__all__ = ["StreamWriter"]


class StreamWriter:
    """Segmentation, extraction and the stream's bookkeeping.

    ``n_observations`` counts accepted observations; ``n_obs_covered``
    those inside *closed* segments (what a checkpoint can claim — the
    open tail is memory-only).  Observations at or before ``resume_t``
    are skipped silently; the next one must come after ``last_t``.
    ``break_t`` is the last observation time before a :meth:`gap` until
    the next segment closes: while set, the stored segments end an
    episode.
    """

    def __init__(self, epsilon: float, window: float, sink,
                 emit_self_pairs: bool = True) -> None:
        self.sink = sink
        self.segmenter = SlidingWindowSegmenter(epsilon)
        self.extractor = FeatureExtractor(
            epsilon, window, sink, emit_self_pairs=emit_self_pairs
        )
        self.n_observations = 0
        self.n_obs_covered = 0
        self.resume_t: Optional[float] = None
        self.last_t: Optional[float] = None
        self.break_t: Optional[float] = None

    # ------------------------------------------------------------------ #
    # validation (no side effects)
    # ------------------------------------------------------------------ #

    def admit_one(self, t: float, v: float) -> bool:
        """Whether :meth:`push` may take ``(t, v)``: ``False`` at or
        before the resume point.  Raises :class:`InvalidSeriesError` on
        a non-finite value or a time not after the last observation."""
        if not (math.isfinite(t) and math.isfinite(v)):
            raise InvalidSeriesError(f"non-finite observation ({t!r}, {v!r})")
        if self.resume_t is not None and t <= self.resume_t:
            return False
        self._check_after_last(t)
        return True

    def admit(self, ts, vs) -> Tuple[np.ndarray, np.ndarray]:
        """The part of ``ts``/``vs`` after the resume point.  Raises
        :class:`InvalidSeriesError` unless they are matching 1-D arrays
        of finite values with strictly increasing times, all after the
        last observation."""
        ts = np.ascontiguousarray(ts, dtype=float)
        vs = np.ascontiguousarray(vs, dtype=float)
        if ts.ndim != 1 or vs.shape != ts.shape:
            raise InvalidSeriesError(
                "need matching 1-D time and value arrays, got shapes "
                f"{ts.shape} and {vs.shape}"
            )
        if not (np.isfinite(ts).all() and np.isfinite(vs).all()):
            raise InvalidSeriesError("observations must be finite")
        bad = np.flatnonzero(np.diff(ts) <= 0)
        if bad.size:
            i = int(bad[0])
            raise InvalidSeriesError(
                f"timestamps must be strictly increasing "
                f"(got {ts[i + 1]} after {ts[i]})"
            )
        if self.resume_t is not None:
            # timestamps are strictly increasing, so the skip is a prefix
            start = int(np.searchsorted(ts, self.resume_t, side="right"))
            ts, vs = ts[start:], vs[start:]
        if ts.shape[0]:
            self._check_after_last(float(ts[0]))
        return ts, vs

    def _check_after_last(self, t: float) -> None:
        if self.last_t is not None and t <= self.last_t:
            raise InvalidSeriesError(
                f"timestamps must be strictly increasing "
                f"(got {t} after {self.last_t})"
            )

    # ------------------------------------------------------------------ #
    # writes (admitted input only); each returns the segments it closed
    # ------------------------------------------------------------------ #

    def push(self, t: float, v: float) -> List[DataSegment]:
        """One admitted observation, through the scalar reference path."""
        closed = self.segmenter.push(t, v)
        self.n_observations += 1
        self.last_t = t
        if closed:
            self._emit(closed, batched=False)
            # every observation before the current one lies at or before
            # the newest closed segment's end
            self.n_obs_covered = self.n_observations - 1
        return closed

    def push_array(
        self, ts: np.ndarray, vs: np.ndarray, batch_size: int
    ) -> Iterator[List[DataSegment]]:
        """Admitted arrays through the vectorized path, ``batch_size``
        observations per round; yields each round's closed segments
        once their features reached the sink."""
        for i in range(0, ts.shape[0], batch_size):
            chunk_t = ts[i : i + batch_size]
            n_before = self.n_observations
            closed = self.segmenter.push_batch(chunk_t, vs[i : i + batch_size])
            self.n_observations += chunk_t.shape[0]
            self.last_t = float(chunk_t[-1])
            if closed:
                self._emit(closed, batched=True)
                # the round's last segment was closed by the observation
                # at offset last_close_offset; everything before is covered
                self.n_obs_covered = (
                    n_before + self.segmenter.last_close_offset
                )
            yield closed

    def gap(self) -> List[DataSegment]:
        """Start a new episode: flush the open segment and forget the
        pairing history, so no later pair spans the gap."""
        closed = self.finish()
        self.extractor.reset_history()
        self.break_t = self.last_t
        return closed

    def finish(self) -> List[DataSegment]:
        """Flush the open segment (end of stream)."""
        closed = self.segmenter.finish()
        self._emit(closed, batched=False)
        self.n_obs_covered = self.n_observations
        return closed

    def _emit(self, segments: List[DataSegment], batched: bool) -> None:
        self.break_t = None
        if batched:
            self.sink.add_segments_bulk(segments)
            self.extractor.add_segments_batch(segments)
            return
        for segment in segments:
            self.sink.add_segments_bulk([segment])
            self.extractor.add_segment(segment)

    # ------------------------------------------------------------------ #
    # resume
    # ------------------------------------------------------------------ #

    def resume(
        self,
        segments: Sequence[DataSegment],
        n_observations: int,
        watermark: Optional[float] = None,
        break_t: Optional[float] = None,
    ) -> None:
        """Continue a stream whose stored segments end with ``segments``
        and cover ``n_observations``.

        A stored episode break ``break_t`` counts while no stored
        segment ends after it (a later checkpoint may leave a stale
        one); the stream then starts a fresh episode after it.
        Otherwise the extractor's history is re-primed with the
        contiguous suffix a future window can still reach (no feature
        is re-emitted) and the segmenter re-anchored at the last
        segment's endpoint.  ``watermark`` is the resume point when no
        segment is given.
        """
        self.n_observations = self.n_obs_covered = int(n_observations)
        last = segments[-1] if segments else None
        if break_t is not None and (last is None or last.t_end <= break_t):
            self.resume_t = self.break_t = break_t
        elif last is not None:
            horizon = last.t_end - self.extractor.window
            recent: List[DataSegment] = []
            for seg in reversed(segments):
                if seg.t_end <= horizon or recent and (
                    seg.t_end != recent[-1].t_start
                    or seg.v_end != recent[-1].v_start
                ):
                    break  # out of reach, or an earlier episode
                recent.append(seg)
            self.extractor.prime_history(reversed(recent))
            self.segmenter.push(last.t_end, last.v_end)
            self.resume_t = last.t_end
        else:
            self.resume_t = watermark
        # the resume point is itself an observation time: a gap marked
        # before any later append must record it, not "no obs yet"
        self.last_t = self.resume_t

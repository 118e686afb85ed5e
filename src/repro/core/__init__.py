"""The paper's primary contribution: the SegDiff framework.

* :mod:`feature_space` — feature points/segments, query regions, polygon
  clipping (Section 3's feature space).
* :mod:`parallelogram` — the Lemma 3 parallelogram summarizing all events
  across two data segments, with exact intersection tests.
* :mod:`corners` — the Table 2 / appendix six-case corner reduction and
  the ε-shifted feature-collection rules (Lemma 4).
* :mod:`extraction` — Algorithm 1 (windowed online feature extraction).
* :mod:`queries` — the point and line range queries of Section 4.4.
* :mod:`index` — :class:`SegDiffIndex`, the user-facing API.
* :mod:`results` — search hits and witness-event refinement.
* :mod:`guarantees` — Theorem 1 audits against brute-force ground truth.
"""

from .feature_space import FeaturePoint, FeatureSegment, QueryRegion
from .parallelogram import Parallelogram
from .corners import SlopeCase, classify_case, collect_features, FeatureSet
from .extraction import FeatureExtractor, ExtractionStats
from .index import SegDiffIndex, IndexStats
from .live import LiveIndex, LiveSnapshot
from .tiered import TieredIndex, LiveTieredIndex
from .transect import CorroboratedEvent
from .reporting import HitSummary, render_summary, summarize_hits
from .results import SearchHit, witness_event
from .guarantees import (
    audit_completeness,
    audit_soundness,
    true_event_witnesses,
    deepest_drop_between,
)

__all__ = [
    "FeaturePoint",
    "FeatureSegment",
    "QueryRegion",
    "Parallelogram",
    "SlopeCase",
    "classify_case",
    "collect_features",
    "FeatureSet",
    "FeatureExtractor",
    "ExtractionStats",
    "SegDiffIndex",
    "IndexStats",
    "LiveIndex",
    "LiveSnapshot",
    "TieredIndex",
    "LiveTieredIndex",
    "CorroboratedEvent",
    "SearchHit",
    "witness_event",
    "HitSummary",
    "summarize_hits",
    "render_summary",
    "audit_completeness",
    "audit_soundness",
    "true_event_witnesses",
    "deepest_drop_between",
]

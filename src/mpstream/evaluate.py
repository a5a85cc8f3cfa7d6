"""Detection scoring: segment-level and point-level reports.

Anomalies are rare, so a single point-wise score can be misleading; every
report therefore carries both views.  Segment scoring uses any-overlap
matching, with signed boundary latencies for matched pairs: positive means
the prediction is late, negative early.  Point counts come from segment
bounds, never from an array of the stream's length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpstream.detect import AnomalySegment

__all__ = [
    "ConfusionCounts",
    "Metrics",
    "SegmentMatch",
    "SegmentReport",
    "point_confusion",
    "classification_metrics",
    "segment_score",
    "metrics_table",
]

METRIC_COLUMNS = ("Fault", "Accuracy", "Precision", "Recall", "F-score")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    """Derived classification metrics; None marks an undefined 0/0 ratio."""

    accuracy: float
    precision: float | None
    recall: float | None
    f_score: float | None


@dataclass(frozen=True)
class SegmentMatch:
    truth_index: int
    pred_index: int
    start_latency: int   # positive = late, negative = early
    end_latency: int


@dataclass
class SegmentReport:
    detected: int
    missed: int
    false_segments: int
    matches: list[SegmentMatch] = field(default_factory=list)


def _covered(segments, n: int) -> int:
    """Samples of ``0..n`` covered by ``segments``, overlaps counted once."""
    covered = reach = 0
    for seg in sorted(segments, key=lambda s: s.start):
        if seg.start < 0 or seg.end > n:
            raise ValueError(f"segment [{seg.start}, {seg.end}) out of range 0..{n}")
        covered += max(0, seg.end - max(seg.start, reach))
        reach = max(reach, seg.end)
    return covered


def point_confusion(pred, truth, n: int) -> ConfusionCounts:
    """Per-sample confusion counts over ``n`` samples, from segment bounds."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    pred, truth = list(pred), list(truth)
    p, t = _covered(pred, n), _covered(truth, n)
    tp = p + t - _covered(pred + truth, n)
    return ConfusionCounts(tp=tp, fp=p - tp, fn=t - tp, tn=n - p - t + tp)


def classification_metrics(c: ConfusionCounts) -> Metrics:
    """Accuracy, precision, recall and F-score from confusion counts.

    A 0/0 ratio is reported as None rather than silently as zero.
    """
    if c.total == 0:
        raise ValueError("cannot compute metrics over zero samples")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f_score = None
    else:
        f_score = 2 * precision * recall / (precision + recall)
    return Metrics(accuracy=accuracy, precision=precision, recall=recall,
                   f_score=f_score)


def _overlap(a: AnomalySegment, b: AnomalySegment) -> int:
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def segment_score(pred, truth) -> SegmentReport:
    """Overlap-based segment matching.

    A truth segment counts as detected when at least one predicted segment
    overlaps it.  A predicted segment overlapping no truth segment is a
    false segment.  For latency each overlapping prediction is matched to the
    truth segment it overlaps most, ties to the earlier truth segment.
    """
    pred = list(pred)
    truth = list(truth)
    detected_idx = set()
    false_segments = 0
    matches: list[SegmentMatch] = []
    for j, p in enumerate(pred):
        candidates = [i for i, t in enumerate(truth) if _overlap(p, t) > 0]
        if not candidates:
            false_segments += 1
            continue
        detected_idx.update(candidates)
        best = max(candidates, key=lambda i: (_overlap(p, truth[i]), -i))
        matches.append(SegmentMatch(
            truth_index=best, pred_index=j,
            start_latency=p.start - truth[best].start,
            end_latency=p.end - truth[best].end))
    return SegmentReport(detected=len(detected_idx),
                         missed=len(truth) - len(detected_idx),
                         false_segments=false_segments,
                         matches=matches)


def _fmt_metric(v: float | None) -> str:
    return "-" if v is None else f"{v:.3f}"


def metrics_table(rows: list[tuple[str, ConfusionCounts]]) -> str:
    """Aligned per-fault metrics table (Fault / Accuracy / Precision /
    Recall / F-score columns)."""
    rendered = []
    for name, counts in rows:
        m = classification_metrics(counts)
        rendered.append((name, _fmt_metric(m.accuracy), _fmt_metric(m.precision),
                         _fmt_metric(m.recall), _fmt_metric(m.f_score)))
    widths = [max(len(METRIC_COLUMNS[k]), *(len(r[k]) for r in rendered)) if rendered
              else len(METRIC_COLUMNS[k]) for k in range(5)]
    lines = ["  ".join(METRIC_COLUMNS[k].ljust(widths[k]) for k in range(5))]
    for r in rendered:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in range(5)))
    return "\n".join(lines)

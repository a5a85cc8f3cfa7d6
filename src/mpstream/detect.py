"""Anomaly start/end detection on streaming profile values.

A detector wraps a :class:`~mpstream.stream.StreamingProfile` and passes each
new profile value through a chain of four composable filters that set its
sensitivity:

* threshold calibration — a quantile of profile values collected during
  warm-up (or a fixed value),
* hysteresis — separate enter/exit ratios applied to the threshold,
* debounce — a run of ``min_event_len`` consecutive qualifying values is
  required before an event fires,
* cooldown — after an event ends, no new start may fire for a while.

Events are positioned at the subsequence start of the first value of the
triggering run, which maps naturally onto sample segments.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from mpstream.stream import StreamingProfile

__all__ = [
    "EventKind",
    "DetectionEvent",
    "AnomalySegment",
    "DetectorConfig",
    "FilterChain",
    "AnomalyDetector",
    "calibrate_threshold",
    "events_to_segments",
]


class EventKind(enum.Enum):
    START = "start"
    END = "end"


@dataclass(frozen=True)
class DetectionEvent:
    kind: EventKind
    position: int          # stream sample index (subsequence start)
    profile_value: float   # value at the trigger step


@dataclass(frozen=True)
class AnomalySegment:
    """Half-open sample interval [start, end) with an optional fault label."""

    start: int
    end: int
    label: str | None = None

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"segment start {self.start} must precede end {self.end}")


@dataclass
class DetectorConfig:
    """Tunables of the detection filter chain.

    A finite ``threshold_value`` is used as the threshold directly; None
    (the default) calibrates it as the ``quantile_q`` quantile of profile
    values.  The first ``warmup`` samples are ignored outright; this hides
    the stream's own warm-up transient, where the window holds few candidate
    subsequences and even normal profile values run high.  When calibrating,
    the next ``calibration_len`` profile values are then collected, and
    detection begins once calibration completes.
    """

    threshold_value: float | None = None
    quantile_q: float = 0.999
    calibration_len: int = 2000
    enter_ratio: float = 1.0
    exit_ratio: float = 0.9
    min_event_len: int = 3
    cooldown: int = 64
    warmup: int = 2000

    def __post_init__(self):
        if self.threshold_value is not None and not math.isfinite(self.threshold_value):
            raise ValueError("threshold_value must be finite, or None to calibrate")
        if not 0.0 < self.quantile_q < 1.0:
            raise ValueError("quantile_q must lie in (0, 1)")
        if self.calibration_len < 1:
            raise ValueError("calibration_len must be >= 1")
        if not (self.exit_ratio <= 1.0 <= self.enter_ratio):
            raise ValueError("need exit_ratio <= 1 <= enter_ratio")
        if self.min_event_len < 1:
            raise ValueError("min_event_len must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")


def calibrate_threshold(values, q: float) -> float:
    """q-quantile (linear interpolation) of the finite calibration values."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot calibrate on empty values")
    v = v[np.isfinite(v)]
    if v.size == 0:
        raise ValueError("cannot calibrate: all values non-finite")
    return float(np.quantile(v, q))


class FilterChain:
    """Hysteresis + debounce + cooldown state machine over profile values.

    Applies the ``enter_ratio``, ``exit_ratio``, ``min_event_len`` and
    ``cooldown`` of a :class:`DetectorConfig` to ``threshold``.  Consumes
    ``(position, value)`` pairs in increasing position order and emits
    strictly alternating start/end events.  Stateless with respect to the
    profile source, so it can be driven directly in tests.
    """

    def __init__(self, threshold: float, config: DetectorConfig):
        self.enter_level = threshold * config.enter_ratio
        self.exit_level = threshold * config.exit_ratio
        self.min_event_len = config.min_event_len
        self.cooldown = config.cooldown
        self.in_anomaly = False
        self._run = 0
        self._run_start = 0
        self._cooldown_until = -1

    def push(self, position: int, value: float) -> list[DetectionEvent]:
        """Feed the profile value of the subsequence starting at
        ``position``; returns the event it completes, if any.  After an
        end, starts are held off for ``cooldown`` positions."""
        if self.in_anomaly:
            qualifies = value < self.exit_level
        else:
            # During cooldown above-threshold values do not accumulate.
            qualifies = value > self.enter_level and position >= self._cooldown_until
        if not qualifies:
            self._run = 0
            return []
        if self._run == 0:
            self._run_start = position
        self._run += 1
        if self._run < self.min_event_len:
            return []
        self._run = 0
        self.in_anomaly = not self.in_anomaly
        if self.in_anomaly:
            kind = EventKind.START
        else:
            kind = EventKind.END
            self._cooldown_until = position + self.cooldown
        return [DetectionEvent(kind, self._run_start, float(value))]


class AnomalyDetector:
    """Streaming detector: profile stream plus the filter chain.

    Feed samples one at a time through :meth:`step`; each call returns the
    events (possibly none) emitted by that sample.  ``last_profile`` holds
    the profile value produced by the most recent step, or None while the
    underlying stream is warming up.

    Single-writer like the stream it wraps; independent detectors on
    distinct channels share no state and may run concurrently.
    """

    def __init__(self, m: int = 64, config: DetectorConfig | None = None,
                 capacity: int = 8192, exclusion_radius: int | None = None):
        self.m = int(m)
        self.config = config if config is not None else DetectorConfig()
        self.stream = StreamingProfile(self.m, capacity=capacity,
                                       exclusion_radius=exclusion_radius)
        self.threshold: float | None = self.config.threshold_value
        self.last_profile: float | None = None
        self._calibration: list[float] = []
        self._chain: FilterChain | None = (
            None if self.threshold is None else FilterChain(self.threshold, self.config))

    def step(self, sample: float) -> list[DetectionEvent]:
        """Ingest one sample and return any events it produced."""
        sample_index = self.stream.count
        result = self.stream.append(sample)
        if result is None:
            self.last_profile = None
            return []
        value, _ = result
        self.last_profile = value

        if sample_index < self.config.warmup:
            return []

        if self.threshold is None:
            # No fixed threshold: consume post-warmup values as calibration
            # until enough are collected, then detect from the next value on.
            self._calibration.append(value)
            if len(self._calibration) >= self.config.calibration_len:
                self.threshold = calibrate_threshold(self._calibration,
                                                     self.config.quantile_q)
                self._chain = FilterChain(self.threshold, self.config)
                self._calibration = []
            return []
        return self._chain.push(sample_index - self.m + 1, value)

    def process(self, samples) -> list[DetectionEvent]:
        """Run a whole sample sequence through :meth:`step`."""
        events: list[DetectionEvent] = []
        for x in samples:
            events.extend(self.step(x))
        return events


def events_to_segments(events, stream_len: int) -> list[AnomalySegment]:
    """Pair alternating start/end events into sample segments.

    A trailing unmatched start closes at ``stream_len``.  Raises on
    malformed sequences (wrong alternation or non-increasing positions).
    """
    segments: list[AnomalySegment] = []
    open_start: int | None = None
    prev_pos: int | None = None
    for ev in events:
        if prev_pos is not None and ev.position <= prev_pos:
            raise ValueError("event positions must strictly increase")
        prev_pos = ev.position
        if ev.kind is EventKind.START:
            if open_start is not None:
                raise ValueError("two starts without an end")
            open_start = ev.position
        elif ev.kind is EventKind.END:
            if open_start is None:
                raise ValueError("end without a preceding start")
            segments.append(AnomalySegment(open_start, ev.position))
            open_start = None
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")
    if open_start is not None:
        if open_start >= stream_len:
            raise ValueError("trailing start lies beyond the stream length")
        segments.append(AnomalySegment(open_start, stream_len))
    return segments

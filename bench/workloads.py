"""The benchmark's workloads, driven only through mpstream's public API.

Every call into a layer goes through a module or class attribute
(``mio.write_dataset``, ``detector.step``, ...), so that the tracer can
install spans around exactly these calls by patching the attributes.

Building a workload object is its set-up: it generates the inputs from the
seed.  ``new_state`` constructs the detectors for one pass, and ``run_pass``
is the timed phase.  A pass is timed in segments (I/O, blocks of
``BLOCK_STEPS`` decisions, scoring); a ``benchlib.Calibrator`` probes the
host's speed between segments and scales each segment to the reference
speed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mpstream.core as core
import mpstream.detect as detect
import mpstream.evaluate as evaluate
import mpstream.generate as generate
import mpstream.io as mio
import mpstream.stream as stream
from benchlib import (Calibrator, batch_profile_error, candidate_pairs, derive_seed,
                      left_profile_error)

M = 64
MAX_DISTANCE = 2.0 * math.sqrt(M)
ORACLE_POSITIONS = 256
SWEEP_CAPACITIES = (1024, 2048, 4096, 8192)
SWEEP_TIMED_APPENDS = 2048
# Detector steps timed between two speed probes, and kernel runs per probe
# (about 3 ms against about 70 ms of steps at capacity 8192).
BLOCK_STEPS = 1000
BLOCK_PROBE_RUNS = 3
# Kernel runs per probe around one batch pass (about 120 ms against 3-4 s).
BATCH_PROBE_RUNS = 150

# Keys that separate the seed streams derived from one benchmark seed.
KEY_TAXONOMY = 2
KEY_ORACLE = 3

IO_OPS = ("write_dataset", "read_dataset", "write_events", "write_profile_trace",
          "read_events", "read_truth")
SCORE_SPANS = ("evaluate.events_to_segments", "evaluate.segment_score",
               "evaluate.point_confusion")
GENERATE_SPANS = ("generate.four_fault_dataset", "generate.generate_base",
                  "generate.inject_fault")

# (span name, owner, attribute) of every public call the traced run wraps.
GENERATE_TARGETS = [(name, generate, name.split(".", 1)[1]) for name in GENERATE_SPANS]
TRACE_TARGETS = [
    ("detect.step", detect.AnomalyDetector, "step"),
    ("stream.append", stream.StreamingProfile, "append"),
    ("detect.push", detect.FilterChain, "push"),
    ("detect.calibrate", detect, "calibrate_threshold"),
    *((f"io.{op}", mio, op) for op in IO_OPS),
    ("evaluate.events_to_segments", detect, "events_to_segments"),
    ("evaluate.segment_score", evaluate, "segment_score"),
    ("evaluate.point_confusion", evaluate, "point_confusion"),
    ("core.rolling_stats", core, "rolling_stats"),
    ("core.matrix_profile", core, "matrix_profile"),
    ("core.discords", core, "discords"),
]


@dataclass
class PassResult:
    """What one timed pass produced, and what the checks found."""

    wall_s: float           # calibrated to the reference speed
    raw_wall_s: float       # as measured
    n_samples: int          # input samples through the pass
    latencies_ns: np.ndarray  # per-sample decision latency, calibrated
    raw_latencies_ns: np.ndarray
    attempted: int
    failed: int
    signature: tuple        # must repeat exactly across passes of one seed
    detected: int
    n_truth: int
    false_segments: int
    start_latency_max: int
    end_latency_max: int
    point_f_score: float
    n_events: int = 0
    armed_at: int = -1
    bytes_written: int = 0
    state_bytes: int = 0
    errors: list = field(default_factory=list)
    outputs: object = None  # kept for the oracle, dropped after the checks
    speed: list = field(default_factory=list)  # probe factors of the pass


def _quality(reports, confusions, n_truth) -> dict:
    counts = [sum(c.tp for c in confusions), sum(c.fp for c in confusions),
              sum(c.fn for c in confusions), sum(c.tn for c in confusions)]
    f = evaluate.classification_metrics(evaluate.ConfusionCounts(*counts)).f_score
    matches = [mt for r in reports for mt in r.matches]
    return dict(detected=sum(r.detected for r in reports), n_truth=n_truth,
                false_segments=sum(r.false_segments for r in reports),
                start_latency_max=max((mt.start_latency for mt in matches), default=0),
                end_latency_max=max((mt.end_latency for mt in matches), default=0),
                point_f_score=0.0 if f is None else f)


def check_events(events) -> str | None:
    """Events must alternate START/END, starting with START, at strictly
    increasing positions."""
    expect, prev = detect.EventKind.START, None
    for ev in events:
        if ev.kind is not expect:
            return f"event at {ev.position}: expected {expect.value}, got {ev.kind.value}"
        if prev is not None and ev.position <= prev:
            return f"event positions not increasing at {ev.position}"
        expect = detect.EventKind.END if expect is detect.EventKind.START else detect.EventKind.START
        prev = ev.position
    return None


def bad_trace_values(trace) -> int:
    """Profile values that are not finite or lie outside [0, 2 sqrt(m)]."""
    v = np.array([np.nan if t is None else t for t in trace], dtype=np.float64)
    v = v[~np.isnan(v)]
    return int(np.count_nonzero(~np.isfinite(v) | (v < 0.0) | (v > MAX_DISTANCE)))


def _signature(events) -> tuple:
    return tuple((ev.kind.value, ev.position, ev.profile_value) for ev in events)


class FourFaultPipeline:
    """W1: the CLI's generate -> detect -> evaluate pipeline, through the
    functions the CLI calls, on the default four-fault dataset and the
    default detector (m=64, capacity=8192)."""

    name = "four_fault_pipeline"
    layers = frozenset({"generate", "io", "stream", "detect", "evaluate"})
    capacity = 8192

    def __init__(self, seed: int):
        self.seed = seed
        self.dataset = generate.four_fault_dataset(generate.GeneratorConfig(seed=seed))

    def new_state(self):
        return detect.AnomalyDetector(m=M, capacity=self.capacity)

    def run_pass(self, detector, workdir: Path, probe) -> PassResult:
        data, truth_path = workdir / "data.csv", workdir / "data.truth.csv"
        events_path, profile_path = workdir / "events.csv", workdir / "events.profile.csv"
        n = len(self.dataset.channel)
        lat = [0] * n
        scale = np.empty(n)
        clock, wall = time.perf_counter_ns, time.perf_counter
        failed, armed_at = 0, -1
        events, trace = [], []
        cal = Calibrator(probe, BLOCK_PROBE_RUNS)

        t0 = wall()
        mio.write_dataset(data, self.dataset)
        mio.write_truth(truth_path, self.dataset.truth)
        times, values, labels = mio.read_dataset(data)
        cal.lap(wall() - t0)
        step = detector.step
        for lo in range(0, n, BLOCK_STEPS):
            hi = min(n, lo + BLOCK_STEPS)
            t0 = wall()
            for i in range(lo, hi):
                t = clock()
                try:
                    emitted = step(float(values[i]))
                except ValueError:
                    failed += 1
                    emitted = []
                lat[i] = clock() - t
                if emitted:
                    events.extend(emitted)
                trace.append(detector.last_profile)
                if armed_at < 0 and detector.threshold is not None:
                    armed_at = i
            scale[lo:hi] = cal.lap(wall() - t0)
        t0 = wall()
        mio.write_events(events_path, events)
        mio.write_profile_trace(profile_path, times, values, labels, trace)
        read_back = mio.read_events(events_path)
        truth = mio.read_truth(truth_path)
        pred = detect.events_to_segments(read_back, n)
        report = evaluate.segment_score(pred, truth)
        confusion = evaluate.point_confusion(pred, truth, n)
        cal.lap(wall() - t0)

        errors = [e for e in (check_events(events),) if e]
        failed += bad_trace_values(trace)
        written = sum(p.stat().st_size for p in (data, truth_path, events_path, profile_path))
        raw_lat = np.asarray(lat, dtype=np.int64)
        return PassResult(
            wall_s=cal.calibrated_s, raw_wall_s=cal.raw_s, n_samples=n,
            latencies_ns=raw_lat * scale, raw_latencies_ns=raw_lat, speed=cal.factors,
            attempted=n, failed=failed, signature=_signature(events),
            n_events=len(events), armed_at=armed_at, bytes_written=written,
            errors=errors, outputs=trace,
            **_quality([report], [confusion], len(truth)))

    def profile_error(self, result: PassResult) -> float:
        """Oracle error of the stream's trace at seeded sample positions."""
        trace = result.outputs
        valid = np.flatnonzero([v is not None for v in trace])
        rng = np.random.default_rng(derive_seed(self.seed, KEY_ORACLE))
        picks = np.sort(rng.choice(valid, size=min(ORACLE_POSITIONS, valid.size), replace=False))
        return left_profile_error(self.dataset.channel.samples, M,
                                  core.default_exclusion_radius(M), self.capacity,
                                  trace, picks)


class TaxonomyInterleaved:
    """W2: one channel per fault kind, each with its own small detector,
    stepped round-robin one sample per channel per tick."""

    name = "taxonomy_interleaved"
    layers = frozenset({"generate", "stream", "detect", "evaluate"})
    capacity = 1024
    duration_s = 4.0
    fault_start_s = 2.0
    fault_duration_s = 0.05

    def __init__(self, seed: int):
        self.seed = seed
        self.channels, self.truths = [], []
        for k, kind in enumerate(generate.FaultKind):
            s = derive_seed(seed, KEY_TAXONOMY, k)
            cfg = generate.GeneratorConfig(duration_s=self.duration_s, seed=s)
            spec = generate.FaultSpec(kind, self.fault_start_s, self.fault_duration_s)
            ds = generate.inject_fault(generate.generate_base(cfg), spec, cfg, seed=s)
            self.channels.append(ds.channel.samples.tolist())
            self.truths.append(ds.truth)

    def new_state(self):
        return [detect.AnomalyDetector(m=M, capacity=self.capacity) for _ in self.channels]

    def run_pass(self, detectors, workdir: Path, probe) -> PassResult:
        k, n = len(self.channels), len(self.channels[0])
        lat = [0] * (n * k)
        scale = np.empty(n * k)
        clock, wall = time.perf_counter_ns, time.perf_counter
        failed, idx = 0, 0
        armed = [-1] * k
        events = [[] for _ in range(k)]
        traces = [[] for _ in range(k)]
        rows = list(zip(*self.channels))
        cal = Calibrator(probe, BLOCK_PROBE_RUNS)

        steps = [d.step for d in detectors]
        ticks = BLOCK_STEPS // k
        for lo in range(0, n, ticks):
            first = idx
            t0 = wall()
            for i in range(lo, min(n, lo + ticks)):
                for c, x in enumerate(rows[i]):
                    t = clock()
                    try:
                        emitted = steps[c](x)
                    except ValueError:
                        failed += 1
                        emitted = []
                    lat[idx] = clock() - t
                    idx += 1
                    if emitted:
                        events[c].extend(emitted)
                    det = detectors[c]
                    traces[c].append(det.last_profile)
                    if armed[c] < 0 and det.threshold is not None:
                        armed[c] = i
            scale[first:idx] = cal.lap(wall() - t0)
        t0 = wall()
        reports, confusions = [], []
        for c in range(k):
            pred = detect.events_to_segments(events[c], n)
            reports.append(evaluate.segment_score(pred, self.truths[c]))
            confusions.append(evaluate.point_confusion(pred, self.truths[c], n))
        cal.lap(wall() - t0)

        errors = [f"channel {c}: {e}" for c in range(k) if (e := check_events(events[c]))]
        failed += sum(bad_trace_values(t) for t in traces)
        raw_lat = np.asarray(lat, dtype=np.int64)
        return PassResult(
            wall_s=cal.calibrated_s, raw_wall_s=cal.raw_s, n_samples=n * k,
            latencies_ns=raw_lat * scale, raw_latencies_ns=raw_lat, speed=cal.factors,
            attempted=n * k, failed=failed,
            signature=tuple(_signature(e) for e in events),
            n_events=sum(len(e) for e in events), armed_at=max(armed),
            errors=errors, outputs=traces,
            **_quality(reports, confusions, sum(len(t) for t in self.truths)))

    def profile_error(self, result: PassResult) -> float:
        traces = result.outputs
        pairs = [(c, t) for c, tr in enumerate(traces) for t, v in enumerate(tr) if v is not None]
        rng = np.random.default_rng(derive_seed(self.seed, KEY_ORACLE))
        picks = rng.choice(len(pairs), size=min(ORACLE_POSITIONS, len(pairs)), replace=False)
        err = 0.0
        r = core.default_exclusion_radius(M)
        for c in range(len(traces)):
            ts = sorted(pairs[p][1] for p in picks if pairs[p][0] == c)
            if ts:
                err = max(err, left_profile_error(self.channels[c], M, r, self.capacity,
                                                  traces[c], ts))
        return err


class BatchProfile:
    """W3: the offline batch path on 20,000 samples of the W1 channel around
    the sensor-fault plateau, scored by its top discords."""

    name = "batch_profile"
    layers = frozenset({"generate", "core", "evaluate"})
    lo, hi = 30000, 50000
    k = 4

    def __init__(self, seed: int):
        self.seed = seed
        ds = generate.four_fault_dataset(generate.GeneratorConfig(seed=seed))
        self.x = ds.channel.samples[self.lo:self.hi].copy()
        self.truth = [detect.AnomalySegment(s.start - self.lo, s.end - self.lo, s.label)
                      for s in ds.truth if s.start >= self.lo and s.end <= self.hi]

    def new_state(self):
        return None

    def run_pass(self, _state, workdir: Path, probe) -> PassResult:
        x, n = self.x, self.x.size
        cal = Calibrator(probe, BATCH_PROBE_RUNS)
        t0 = time.perf_counter_ns()
        stats = core.rolling_stats(x, M)
        profile = core.matrix_profile(x, M)
        top = core.discords(profile, self.k)
        pred = [detect.AnomalySegment(i, i + M) for i, _ in top]
        report = evaluate.segment_score(pred, self.truth)
        confusion = evaluate.point_confusion(pred, self.truth, n)
        wall_ns = time.perf_counter_ns() - t0
        factor = cal.lap(wall_ns / 1e9)

        d = profile.distances
        failed = int(np.count_nonzero(~np.isfinite(d) | (d < 0.0) | (d > MAX_DISTANCE)))
        errors = []
        if not (np.isfinite(stats.means).all() and (stats.stds >= 0.0).all()):
            errors.append("rolling_stats returned invalid statistics")
        if len(top) != self.k:
            errors.append(f"discords returned {len(top)} of {self.k}")
        return PassResult(
            wall_s=cal.calibrated_s, raw_wall_s=cal.raw_s, n_samples=n,
            # Every sample's profile value is ready when the pass ends.
            latencies_ns=np.array([wall_ns * factor]),
            raw_latencies_ns=np.array([wall_ns], dtype=np.int64), speed=cal.factors,
            attempted=d.size, failed=failed, signature=tuple(top),
            n_events=len(top), errors=errors, outputs=d,
            **_quality([report], [confusion], len(self.truth)))

    def profile_error(self, result: PassResult) -> float:
        d = result.outputs
        rng = np.random.default_rng(derive_seed(self.seed, KEY_ORACLE))
        picks = rng.choice(d.size, size=min(ORACLE_POSITIONS // 2, d.size), replace=False)
        return batch_profile_error(self.x, M, core.default_exclusion_radius(M), d, picks)

    def pair_evals(self) -> int:
        return candidate_pairs(self.x.size - M + 1, core.default_exclusion_radius(M))


WORKLOADS = {w.name: w for w in (FourFaultPipeline, TaxonomyInterleaved, BatchProfile)}

# The workload whose traced pass supplies a layer's metrics when the
# requested workload does not run that layer.
LAYER_OWNERS = (FourFaultPipeline, BatchProfile)


def append_sweep(seed: int) -> dict[int, float]:
    """Median microseconds per ``StreamingProfile.append`` at each sweep
    capacity, on a fixed prefix of the W1 channel, with the window full."""
    n = max(SWEEP_CAPACITIES) + SWEEP_TIMED_APPENDS
    prefix = generate.four_fault_dataset(
        generate.GeneratorConfig(seed=seed)).channel.samples[:n].tolist()
    clock = time.perf_counter_ns
    out = {}
    for cap in SWEEP_CAPACITIES:
        sp = stream.StreamingProfile(M, capacity=cap)
        for v in prefix[:cap]:
            sp.append(v)
        append = sp.append
        lat = []
        for v in prefix[cap:cap + SWEEP_TIMED_APPENDS]:
            t = clock()
            append(v)
            lat.append(clock() - t)
        out[cap] = float(np.median(lat)) / 1e3
    return out

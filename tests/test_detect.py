import math

import numpy as np
import pytest

from mpstream.detect import (
    AnomalyDetector,
    AnomalySegment,
    DetectionEvent,
    DetectorConfig,
    EventKind,
    FilterChain,
    calibrate_threshold,
    events_to_segments,
)

from oracles import naive_left_profile

rng = np.random.default_rng


class TestDetectorConfig:
    def test_defaults_valid(self):
        DetectorConfig()

    def test_hysteresis_ordering(self):
        with pytest.raises(ValueError):
            DetectorConfig(enter_ratio=0.8)
        with pytest.raises(ValueError):
            DetectorConfig(exit_ratio=1.2)

    def test_quantile_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(quantile_q=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(quantile_q=1.0)

    def test_fixed_requires_value(self):
        # A fixed threshold must be finite; None calibrates one instead.
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                DetectorConfig(threshold_value=bad)
        assert AnomalyDetector(config=DetectorConfig()).threshold is None
        det = AnomalyDetector(config=DetectorConfig(threshold_value=3.0))
        assert det.threshold == 3.0


class TestCalibrateThreshold:
    def test_median_interpolation(self):
        assert calibrate_threshold([1, 2, 3, 4], 0.5) == 2.5

    def test_constant_values(self):
        for q in (0.01, 0.5, 0.999):
            assert calibrate_threshold([5, 5, 5], q) == 5.0

    def test_ignores_non_finite(self):
        assert calibrate_threshold([1.0, np.inf, 2.0, np.nan, 3.0, 4.0], 0.5) == 2.5

    def test_all_non_finite_errors(self):
        with pytest.raises(ValueError):
            calibrate_threshold([np.inf, np.nan], 0.5)
        with pytest.raises(ValueError):
            calibrate_threshold([], 0.5)


def run_reference_chain(values, positions, sample_indices, threshold,
                        enter_ratio, exit_ratio, min_event_len, cooldown):
    """Literal transcription of the filter rules, used as the oracle."""
    events = []
    in_anomaly = False
    run = 0
    run_start = None
    cooldown_until = -1
    for pos, val, si in zip(positions, values, sample_indices):
        if not in_anomaly:
            if val > threshold * enter_ratio and si >= cooldown_until:
                if run == 0:
                    run_start = pos
                run += 1
                if run >= min_event_len:
                    events.append(("start", run_start))
                    in_anomaly = True
                    run = 0
            else:
                run = 0
        else:
            if val < threshold * exit_ratio:
                if run == 0:
                    run_start = pos
                run += 1
                if run >= min_event_len:
                    events.append(("end", run_start))
                    in_anomaly = False
                    run = 0
                    cooldown_until = si + cooldown
            else:
                run = 0
    return events


class TestFilterChain:
    def drive(self, values, threshold, **kw):
        chain = FilterChain(threshold, DetectorConfig(**kw))
        events = []
        for i, v in enumerate(values):
            events.extend(chain.push(i, v))
        return events

    def test_quiet_input_no_events(self):
        assert self.drive([1.0] * 50, threshold=2.0) == []

    def test_simple_start_end(self):
        vals = [1, 1, 5, 5, 5, 1, 1, 1, 1]
        ev = self.drive(vals, threshold=2.0, min_event_len=3, cooldown=0)
        assert [(e.kind, e.position) for e in ev] == [
            (EventKind.START, 2), (EventKind.END, 5)]

    def test_run_interrupted_resets_debounce(self):
        vals = [5, 5, 1, 5, 5, 5, 1, 1, 1]
        ev = self.drive(vals, threshold=2.0, min_event_len=3, cooldown=0)
        assert [(e.kind, e.position) for e in ev] == [
            (EventKind.START, 3), (EventKind.END, 6)]

    def test_cooldown_suppresses_restart(self):
        vals = [5, 1, 5, 1] * 6
        ev = self.drive(vals, threshold=2.0, min_event_len=1, cooldown=100)
        kinds = [e.kind for e in ev]
        assert kinds == [EventKind.START, EventKind.END]

    def test_matches_reference_on_random_inputs(self):
        # The chain counts cooldown in positions; the reference counts it in
        # sample indices, m - 1 past the positions as in AnomalyDetector.step.
        r = rng(51)
        for _ in range(50):
            n = int(r.integers(20, 200))
            vals = r.exponential(1.0, size=n)
            kw = dict(threshold=float(r.uniform(0.5, 2.0)),
                      enter_ratio=float(r.uniform(1.0, 1.5)),
                      exit_ratio=float(r.uniform(0.5, 1.0)),
                      min_event_len=int(r.integers(1, 5)),
                      cooldown=int(r.integers(0, 20)))
            got = [(e.kind.value, e.position) for e in self.drive(vals, **kw)]
            for offset in (0, int(r.integers(1, 64))):
                want = run_reference_chain(vals, range(n), range(offset, n + offset),
                                           kw["threshold"], kw["enter_ratio"],
                                           kw["exit_ratio"], kw["min_event_len"],
                                           kw["cooldown"])
                assert got == want

    def test_alternation_property(self):
        r = rng(52)
        for _ in range(40):
            vals = r.exponential(1.0, size=300)
            ev = self.drive(vals, threshold=1.0,
                            min_event_len=int(r.integers(1, 4)),
                            cooldown=int(r.integers(0, 10)))
            kinds = [e.kind for e in ev]
            for a, b in zip(kinds, kinds[1:]):
                assert a != b
            if kinds:
                assert kinds[0] is EventKind.START
            positions = [e.position for e in ev]
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)

    def test_hysteresis_monotonicity(self):
        # Raising enter_ratio never yields more starts.
        r = rng(53)
        for _ in range(20):
            vals = r.exponential(1.0, size=400)
            counts = []
            for enter in (1.0, 1.2, 1.5, 2.0):
                ev = self.drive(vals, threshold=1.0, enter_ratio=enter,
                                exit_ratio=0.8, min_event_len=2, cooldown=5)
                counts.append(sum(e.kind is EventKind.START for e in ev))
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_debounce_minimum_separation(self):
        # End trigger-run start comes at least min_event_len values after
        # the start trigger-run start.
        r = rng(54)
        for mel in (1, 2, 4):
            vals = r.exponential(1.0, size=500)
            ev = self.drive(vals, threshold=1.0, min_event_len=mel, cooldown=0)
            for a, b in zip(ev, ev[1:]):
                if a.kind is EventKind.START and b.kind is EventKind.END:
                    assert b.position - a.position >= mel


def sine_with_spike(n=400, spike_at=250, spike=6.0, seed=1):
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / 20) + rng(seed).normal(0, 0.02, n)
    x[spike_at] += spike
    return x


class TestAnomalyDetector:
    def test_all_normal_stream_quantile_mode(self):
        n = 3000
        x = np.sin(2 * np.pi * np.arange(n) / 20) + rng(2).normal(0, 0.02, n)
        det = AnomalyDetector(m=16, config=DetectorConfig(warmup=500, calibration_len=500))
        events = det.process(x)
        assert events == []
        assert det.threshold is not None

    def test_spike_bracketed_by_one_pair(self):
        # Fixed threshold between normal and spike profile levels, chosen
        # from the oracle trace; min_event_len=1.
        m, r = 16, 4
        warmup = 100
        x = sine_with_spike()
        nd, _ = naive_left_profile(list(x), m, r)
        # Only values the detector will act on (past warmup).
        acted = [(p, d) for p, d in enumerate(nd)
                 if math.isfinite(d) and p + m - 1 >= warmup]
        spike_core = [d for p, d in acted if 250 - m + 1 <= p <= 250]
        normal = [d for p, d in acted if not (250 - 2 * m <= p <= 250 + m)]
        assert min(spike_core) > max(normal)
        thr = (max(normal) + min(spike_core)) / 2
        cfg = DetectorConfig(threshold_value=thr,
                             min_event_len=1, cooldown=0, warmup=warmup)
        det = AnomalyDetector(m=m, config=cfg, capacity=1024, exclusion_radius=r)
        events = det.process(x)
        kinds = [e.kind for e in events]
        assert kinds == [EventKind.START, EventKind.END]
        start, end = events[0].position, events[1].position
        # The pair brackets the subsequences overlapping the spike.
        assert start <= 250 <= end + m
        # Reference walk over the oracle trace agrees.
        want = run_reference_chain([d for _, d in acted],
                                   [p for p, _ in acted],
                                   [p + m - 1 for p, _ in acted],
                                   thr, 1.0, 0.9, 1, 0)
        got = [(e.kind.value, e.position) for e in events]
        assert got == want

    def test_positions_are_subsequence_starts(self):
        m = 16
        x = sine_with_spike()
        cfg = DetectorConfig(threshold_value=3.0,
                             min_event_len=1, cooldown=0, warmup=30)
        det = AnomalyDetector(m=m, config=cfg, capacity=1024, exclusion_radius=4)
        seen = []
        for i, v in enumerate(x):
            for e in det.step(v):
                seen.append((e, i))
        assert seen, "spike must trigger"
        for e, i in seen:
            assert e.position <= i  # causality
            assert e.position >= 0

    def test_non_finite_sample_rejected_state_unchanged(self):
        det = AnomalyDetector(m=8, config=DetectorConfig(warmup=50), capacity=64)
        det.process(rng(3).normal(size=20))
        count = det.stream.count
        with pytest.raises(ValueError):
            det.step(float("nan"))
        assert det.stream.count == count

    def test_calibration_consumes_post_warmup_values(self):
        # Detection cannot begin until calibration_len values were seen
        # after warmup; an anomaly inside that region goes undetected.
        n = 1200
        x = np.sin(2 * np.pi * np.arange(n) / 20) + rng(9).normal(0, 0.02, n)
        x[500] += 8.0
        cfg = DetectorConfig(warmup=200, calibration_len=600, min_event_len=1)
        det = AnomalyDetector(m=16, config=cfg, capacity=2048, exclusion_radius=4)
        events = det.process(x)
        assert events == []
        assert det.threshold is not None

    def test_warmup_emits_nothing_fixed_mode(self):
        x = sine_with_spike(n=300, spike_at=100)
        cfg = DetectorConfig(threshold_value=0.01,
                             min_event_len=1, cooldown=0, warmup=150)
        det = AnomalyDetector(m=16, config=cfg, capacity=512, exclusion_radius=4)
        events = []
        for i, v in enumerate(x):
            for e in det.step(v):
                events.append((i, e))
        assert all(i >= 150 for i, _ in events)


class TestEventsToSegments:
    def ev(self, kind, pos):
        return DetectionEvent(kind, pos, 1.0)

    def test_empty(self):
        assert events_to_segments([], 100) == []

    def test_single_pair(self):
        segs = events_to_segments(
            [self.ev(EventKind.START, 10), self.ev(EventKind.END, 20)], 100)
        assert segs == [AnomalySegment(10, 20)]

    def test_trailing_open_segment(self):
        segs = events_to_segments(
            [self.ev(EventKind.START, 10), self.ev(EventKind.END, 20),
             self.ev(EventKind.START, 30)], 50)
        assert segs == [AnomalySegment(10, 20), AnomalySegment(30, 50)]

    def test_malformed_alternation(self):
        with pytest.raises(ValueError):
            events_to_segments(
                [self.ev(EventKind.START, 10), self.ev(EventKind.START, 20)], 100)
        with pytest.raises(ValueError):
            events_to_segments([self.ev(EventKind.END, 10)], 100)
        with pytest.raises(ValueError):
            events_to_segments(
                [self.ev(EventKind.START, 10), self.ev(EventKind.END, 10)], 100)


class TestTaxonomyIntegration:
    def test_seasonal_outlier_detected(self):
        # A tripled ripple frequency is a strong shape change for the
        # profile; robust across seeds with the hysteresis margin raised.
        from mpstream.evaluate import segment_score
        from mpstream.generate import (FaultKind, FaultSpec, GeneratorConfig,
                                       generate_base, inject_fault)

        for seed in (0, 1, 2):
            cfg = GeneratorConfig(duration_s=4.0, seed=seed)
            base = generate_base(cfg)
            ds = inject_fault(base, FaultSpec(FaultKind.SEASONAL_OUTLIER, 2.0, 0.05),
                              cfg, seed=seed)
            det = AnomalyDetector(m=64, config=DetectorConfig(enter_ratio=1.5))
            pred = events_to_segments(det.process(ds.channel.samples),
                                      len(ds.channel.samples))
            report = segment_score(pred, ds.truth)
            assert report.detected == 1, seed
            assert report.false_segments == 0, seed

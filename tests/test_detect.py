import copy
import math

import numpy as np
import pytest

import mpstream.stream
from mpstream.core import znorm_distance
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
from mpstream.generate import (FaultKind, FaultSpec, GeneratorConfig,
                               four_fault_dataset, generate_base, inject_fault)
from mpstream.io import write_events
from mpstream.stream import StreamingProfile

from oracles import chain_settles, naive_left_profile

rng = np.random.default_rng


class TestDetectorConfig:
    def test_defaults_valid(self):
        DetectorConfig()

    def test_hysteresis_ordering(self):
        with pytest.raises(ValueError):
            DetectorConfig(enter_ratio=0.8)
        with pytest.raises(ValueError):
            DetectorConfig(exit_ratio=1.2)
        DetectorConfig(enter_ratio=1.0, exit_ratio=1.0)
        DetectorConfig(exit_ratio=1e-9)

    @pytest.mark.parametrize("kw", [
        {"exit_ratio": 0.0}, {"exit_ratio": -0.5}, {"exit_ratio": -math.inf},
        {"exit_ratio": math.nan}, {"enter_ratio": math.inf}, {"enter_ratio": math.nan}])
    def test_ratios_must_be_finite_and_exit_positive(self, kw):
        # Profile values are >= 0: an exit level of 0 ends no event, and an
        # infinite enter level starts none.
        with pytest.raises(ValueError, match="0 < exit_ratio <= 1 <= enter_ratio"):
            DetectorConfig(**kw)

    def test_quantile_range(self):
        with pytest.raises(ValueError):
            DetectorConfig(quantile_q=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(quantile_q=1.0)

    @pytest.mark.parametrize("key, low", [
        ("calibration_len", 1), ("min_event_len", 1), ("cooldown", 0), ("warmup", 0)])
    def test_count_lower_bounds(self, key, low):
        DetectorConfig(**{key: low})
        with pytest.raises(ValueError, match=f"{key} must be >= {low}"):
            DetectorConfig(**{key: low - 1})

    def test_fixed_requires_value(self):
        # A fixed threshold must be finite and positive; None calibrates
        # one instead.
        for bad in (float("nan"), float("inf"), -float("inf"), -1.0, 0.0):
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

    def test_q_outside_unit_interval(self):
        for q in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"q must lie in \(0, 1\)"):
                calibrate_threshold([1, 2, 3], q)
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

    def test_last_neighbor_is_the_trigger_of_last_profile(self):
        # The neighbour position reproduces the reported value, lies outside
        # the exclusion zone, and is None exactly when the value is.
        m, r = 16, 4
        x = sine_with_spike()
        det = AnomalyDetector(m=m, config=DetectorConfig(threshold_value=3.0),
                              capacity=256, exclusion_radius=r)
        for k, v in enumerate(x):
            det.step(v)
            assert (det.last_neighbor is None) == (det.last_profile is None)
            if det.last_neighbor is None:
                assert k < m + r
                continue
            i, j = k - m + 1, det.last_neighbor
            assert k + 1 - 256 <= j <= i - r - 1
            assert znorm_distance(x[i:i + m], x[j:j + m]) == pytest.approx(
                det.last_profile, abs=1e-9)

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

    def test_flat_calibration_stretch_is_an_error(self):
        # Every calibration subsequence is flat, so the quantile is 0; a
        # chain at threshold 0 would open an event that never closes.
        x = np.concatenate([np.full(600, 50.0),
                            50.0 + rng(1).normal(0, 0.01, 300)])
        cfg = DetectorConfig(warmup=0, calibration_len=300)
        det = AnomalyDetector(m=16, config=cfg, capacity=256)
        with pytest.raises(ValueError, match="threshold_value") as exc:
            det.process(x)
        for way_out in ("warmup", "calibration_len"):
            assert way_out in str(exc.value)
        assert det.threshold is None and det._chain is None

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
        with pytest.raises(ValueError, match="beyond the stream length"):
            events_to_segments([self.ev(EventKind.START, 50)], 50)

    def test_malformed_alternation(self):
        with pytest.raises(ValueError):
            events_to_segments(
                [self.ev(EventKind.START, 10), self.ev(EventKind.START, 20)], 100)
        with pytest.raises(ValueError):
            events_to_segments([self.ev(EventKind.END, 10)], 100)
        with pytest.raises(ValueError):
            events_to_segments(
                [self.ev(EventKind.START, 10), self.ev(EventKind.END, 10)], 100)
        with pytest.raises(ValueError, match="unknown event kind"):
            events_to_segments([self.ev("start", 10)], 100)


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


def random_chain(r_):
    """A FilterChain at a random threshold, configuration and state."""
    cfg = DetectorConfig(enter_ratio=float(r_.uniform(1.0, 1.5)),
                         exit_ratio=float(r_.uniform(0.5, 1.0)),
                         min_event_len=int(r_.integers(1, 5)),
                         cooldown=int(r_.integers(0, 50)))
    chain = FilterChain(float(r_.uniform(0.5, 5.0)), cfg)
    chain.in_anomaly = bool(r_.integers(2))
    chain._run = int(r_.integers(0, cfg.min_event_len))
    chain._run_start = int(r_.integers(0, 100))
    chain._cooldown_until = int(r_.integers(-1, 200))
    return chain


def chain_state(chain):
    return (chain.in_anomaly, chain._run, chain._run_start, chain._cooldown_until)


def settles(chain, position, bound):
    """What ``chain.settle`` answers, asked of a copy: the chain is left as
    it was."""
    return copy.deepcopy(chain).settle(position, bound)


class TestSettles:
    def test_a_settled_bound_pushes_like_any_value_below_it(self):
        r_ = rng(21)
        settled = 0
        for _ in range(3000):
            chain = random_chain(r_)
            position = int(r_.integers(100, 200))
            bound = float(r_.uniform(0.0, 8.0))
            if not settles(chain, position, bound):
                continue
            settled += 1
            via_bound = copy.deepcopy(chain)
            assert via_bound.push(position, bound) == []
            for value in (bound, 0.0, bound * float(r_.uniform()), math.nextafter(bound, 0)):
                other = copy.deepcopy(chain)
                assert other.push(position, value) == [], (chain_state(chain), value)
                assert chain_state(other) == chain_state(via_bound)
        assert 500 < settled < 2500

    def test_unsettled_cases(self):
        chain = FilterChain(2.0, DetectorConfig(min_event_len=2, cooldown=10))
        assert not settles(chain, 0, 2.5)  # may start a run
        chain.push(0, 3.0)
        chain.push(1, 3.0)  # start fires
        assert chain.in_anomaly
        assert not settles(chain, 2, 1.9)   # may not qualify to end
        assert settles(chain, 2, 1.7)       # qualifies, run stays short
        chain.push(2, 1.0)
        assert not settles(chain, 3, 1.7)   # would fire the end
        chain.push(3, 1.0)
        assert settles(chain, 12, 100.0)    # cooldown until 3 + 10
        assert not settles(chain, 13, 2.5)

    @pytest.mark.parametrize("min_event_len", [1, 2, 4])
    def test_settle_is_the_predicate_and_push_in_one_call(self, min_event_len):
        # Every chain state: outside an event with each run length, in
        # cooldown, and inside an event with each run length; a grid of
        # bounds around both levels.  settle answers what the rule it
        # replaces answered and, when it settles, leaves the chain as push
        # leaves it, without an event; otherwise it changes nothing.
        cfg = DetectorConfig(enter_ratio=1.25, exit_ratio=0.75,
                             min_event_len=min_event_len, cooldown=20)
        chain = FilterChain(2.0, cfg)
        levels = (chain.enter_level, chain.exit_level)
        bounds = [0.0, 1.0, 2.0, 4.0, math.inf, math.nan]
        bounds += [b for v in levels
                   for b in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]
        states = [(inside, run, until)
                  for inside in (False, True) for run in range(min_event_len)
                  for until in (-1, 150, 200)]
        answers = set()
        for inside, run, until in states:
            for position in (100, 149, 150, 199, 200):
                for bound in bounds:
                    chain.in_anomaly, chain._run = inside, run
                    chain._run_start, chain._cooldown_until = 7, until
                    before = chain_state(chain)
                    want = chain_settles(chain, position, bound)
                    via_push = copy.deepcopy(chain)
                    pushed = via_push.push(position, bound)
                    got = chain.settle(position, bound)
                    answers.add(got)
                    assert got is want, (before, position, bound)
                    if got:
                        assert pushed == []
                        assert chain_state(chain) == chain_state(via_push)
                    else:
                        assert chain_state(chain) == before
        assert answers == {False, True}


def small_stream(seed):
    """A random chain config and a 4000-sample signal with spikes, a plateau
    and a level shift, for a capacity-256 detector with m = 16 and r = 4."""
    from test_stream import shifted_signal

    r_ = rng(300 + seed)
    cfg = DetectorConfig(quantile_q=float(r_.uniform(0.9, 0.995)),
                         calibration_len=int(r_.integers(100, 400)),
                         enter_ratio=float(r_.uniform(1.0, 1.5)),
                         exit_ratio=float(r_.uniform(0.5, 1.0)),
                         min_event_len=int(r_.integers(1, 5)),
                         cooldown=int(r_.integers(0, 100)),
                         warmup=int(r_.integers(0, 300)))
    return shifted_signal(4000, seed), cfg


def channel(name, key):
    """The four-fault dataset at seed ``key``, or a 4 s channel with a fault
    of kind ``key`` at 2.0 s."""
    if name == "four_fault":
        return four_fault_dataset(GeneratorConfig(seed=key)).channel.samples
    gen = GeneratorConfig(duration_s=4.0, seed=1)
    return inject_fault(generate_base(gen), FaultSpec(FaultKind(key), 2.0, 0.05),
                        gen, seed=1).channel.samples


class TestArmedStep:
    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed-warmup-0", "calibrated"])
    def test_steps_match_a_reference_loop(self, fixed):
        # Once warm with a chain, a step that a bound settles makes one call
        # into the chain and skips push.  A fixed threshold with warmup 0 is
        # armed from the first step, while append still returns None.  Two
        # reference loops run alongside.  One pushes every exact value of a
        # plain stream into its chain: each step's events must agree.  The
        # other gives its stream the chain's rule as a pure predicate and
        # pushes whatever it returns: the events, and every value and
        # neighbor the detector reports (None on a settled step), must be
        # bitwise its.
        if fixed:
            x, m, cap, r = small_stream(3)[0], 16, 2048, 4
        else:
            x, m, cap, r = channel("fault", "ll_fault"), 64, 2048, None
        plain = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        exact = [plain.append(v) for v in x.tolist()]
        if fixed:
            values = [res[0] for res in exact if res is not None]
            cfg = DetectorConfig(threshold_value=float(np.quantile(values, 0.995)), warmup=0)
            chains = [FilterChain(cfg.threshold_value, cfg) for _ in range(2)]
        else:
            cfg, chains = DetectorConfig(), None
        det = AnomalyDetector(m, cfg, capacity=cap, exclusion_radius=r)
        bounded = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        calibration, settled, n_events = [], 0, 0
        for i, (v, res) in enumerate(zip(x.tolist(), exact)):
            got = det.step(v)
            armed = chains is not None and i >= cfg.warmup
            ref = bounded.append(v, (lambda p, b: chain_settles(chains[1], p, b)) if armed
                                 else None)
            assert (res is None) == (ref is None)
            want = [[], []]
            if res is not None and i >= cfg.warmup:
                if armed:
                    want = [chain.push(i - m + 1, out[0])
                            for chain, out in zip(chains, (res, ref))]
                else:
                    calibration.append(res[0])
                    if len(calibration) == cfg.calibration_len:
                        q = float(np.quantile(calibration, cfg.quantile_q))
                        chains = [FilterChain(q, cfg) for _ in range(2)]
                        assert det.threshold == q
            assert got == want[1], i
            # The exact values come from covariances kept in another order.
            assert [(e.kind, e.position) for e in got] == \
                   [(e.kind, e.position) for e in want[0]], i
            assert [e.profile_value for e in got] == \
                   pytest.approx([e.profile_value for e in want[0]], abs=1e-9)
            n_events += len(got)
            if ref is None or ref[1] is None:
                assert det.last_profile is det.last_neighbor is None, i
                settled += ref is not None
            else:
                assert (det.last_profile, det.last_neighbor) == ref, i
        assert det.stream.settled_steps == bounded.settled_steps == settled > len(x) // 2
        assert n_events >= 2


class TestHotModeDecisions:
    @staticmethod
    def run(x, m, capacity, r, cfg, carry=True):
        """The detector after ``x``, its events, its trace (nan where the
        field is empty) and the steps at which its stream rebuilt.  With
        ``carry`` false every append starts as if the last one settled, so
        no older covariance is carried past an exact step."""
        det = AnomalyDetector(m, cfg, capacity=capacity, exclusion_radius=r)
        events, trace, rebuild_steps = [], [], []
        for k, v in enumerate(x.tolist()):
            before = det.stream.rebuilds
            if not carry:  # at most the hot covariances are current
                det.stream._lags = min(det.stream._lags,
                                       1 + r + mpstream.stream.HOT_CANDIDATES)
            events += det.step(v)
            trace.append(np.nan if det.last_profile is None else det.last_profile)
            if det.stream.rebuilds > before:
                rebuild_steps.append(k)
        return det, events, np.array(trace), rebuild_steps

    def check_pair(self, monkeypatch, x, m, capacity, r, cfg, hot, oracle_steps):
        """Runs the exact detector, whose stream has every candidate hot,
        and the hot-mode one, and holds the second to the first."""
        from oracles import windowed_left_profile

        runs = []
        for c in (capacity, hot):
            monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", c)
            runs.append(self.run(x, m, capacity, r, cfg))
        (exact, want, exact_trace, _), (det, got, trace, rebuild_steps) = runs
        s = det.stream
        assert exact.stream.settled_steps == exact.stream.hot_rebuilds == 0
        assert s.settled_steps > 0 and s.rebuilds > 0
        # Every settled step is settled by one tier, most by the successor.
        assert s.successor_steps + s.probe_steps + s.search_steps == s.settled_steps
        assert s.successor_steps > s.settled_steps // 2
        # The hot covariances are rebuilt only by a step that searches them.
        assert s.hot_rebuilds <= s.search_steps + s.rebuilds
        # Both count the armed steps: those after warm-up and calibration.
        assert det.stream.settled_steps + det.stream.exact_steps == \
            exact.stream.exact_steps == len(x) - max(cfg.warmup, m + r) - cfg.calibration_len
        assert len(rebuild_steps) == det.stream.rebuilds
        assert det.threshold == exact.threshold
        assert [(e.kind, e.position) for e in got] == [(e.kind, e.position) for e in want]
        for a, b in zip(got, want):
            assert a.profile_value == pytest.approx(b.profile_value, abs=1e-9)
        shown = ~np.isnan(trace)
        assert np.isnan(exact_trace[~shown]).sum() == m + r  # the stream's warm-up
        assert np.abs(trace[shown] - exact_trace[shown]).max() <= 1e-9
        # An exact step rebuilds exactly when the step before it settled and
        # the window holds older candidates than the hot ones.
        settled = ~shown
        settled[:m + r] = False  # the stream's warm-up
        after = np.arange(1, len(x))  # the steps with a step before them
        older = np.minimum(after + 1, capacity) > hot + m + r
        assert rebuild_steps == after[shown[1:] & settled[:-1] & older].tolist()
        # The oracle at the first step after each of the first oracle_steps
        # rebuilds, and at oracle_steps randomly drawn exact steps.
        steps = rebuild_steps[:oracle_steps] + [
            int(k) for k in rng(7).choice(np.flatnonzero(shown), oracle_steps)]
        for k in steps:
            assert shown[k]
            oracle = windowed_left_profile(x[max(0, k + 1 - capacity):k + 1], m, r,
                                           capacity, [min(k, capacity - 1) - m + 1])
            assert trace[k] == pytest.approx(oracle[0], abs=1e-9), k
        return got, want

    @pytest.mark.parametrize("seed", range(6))
    def test_random_small_streams(self, monkeypatch, seed):
        x, cfg = small_stream(seed)
        got, _ = self.check_pair(monkeypatch, x, 16, 256, 4, cfg, 32, oracle_steps=20)
        assert got  # the spikes and the level shift give events

    @pytest.mark.parametrize("dataset", [
        *(("four_fault", seed, 8192) for seed in (1, 2, 3, 4, 42, 4242)),
        *(("taxonomy", kind.value, 8192) for kind in FaultKind),
        *(("four_fault", 1, capacity) for capacity in (16384, 32768)),
        *(("taxonomy", kind.value, 16384) for kind in FaultKind)],
        ids=lambda d: "-".join(str(v) for v in d if v != 8192))
    def test_default_detector_events_byte_identical(self, monkeypatch, tmp_path, dataset):
        # The default chain with its 1024 hot candidates writes the exact
        # search's events.csv byte for byte, also in larger windows, which
        # leave more older candidates behind each bound.  The 20000-sample
        # taxonomy channels fill a 16384-sample window and slide.
        name, key, capacity = dataset
        got, want = self.check_pair(monkeypatch, channel(name, key), 64, capacity, 16,
                                    DetectorConfig(), 1024, oracle_steps=3)
        write_events(tmp_path / "hot.csv", got)
        write_events(tmp_path / "exact.csv", want)
        assert (tmp_path / "hot.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()

    @pytest.mark.parametrize("dataset", [*(("small", seed) for seed in range(6)),
                                         ("four_fault", 1)],
                             ids=lambda d: f"{d[0]}-{d[1]}")
    def test_output_does_not_depend_on_carrying_older_covariances(self, monkeypatch,
                                                                  dataset):
        # An exact append advances the older covariances by the recurrence,
        # so the next exact one needs no rebuild.  A stream that instead
        # rebuilds them at every exact step with older candidates reports
        # the same steps, settled or exact, and the same values.
        name, seed = dataset
        if name == "small":
            x, cfg = small_stream(seed)
            m, capacity, r, hot = 16, 256, 4, 32
        else:
            x, cfg = channel(name, seed), DetectorConfig()
            m, capacity, r, hot = 64, 8192, 16, 1024
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", hot)
        det, want, trace, _ = self.run(x, m, capacity, r, cfg)
        other, got, other_trace, rebuild_steps = self.run(x, m, capacity, r, cfg,
                                                          carry=False)
        assert [(e.kind, e.position) for e in got] == [(e.kind, e.position) for e in want]
        for a, b in zip(got, want):
            assert a.profile_value == pytest.approx(b.profile_value, abs=1e-9)
        shown = ~np.isnan(trace)
        assert (np.isnan(other_trace) == ~shown).all()
        assert np.abs(other_trace[shown] - trace[shown]).max() <= 1e-9
        assert (other.stream.settled_steps, other.stream.exact_steps) == \
            (det.stream.settled_steps, det.stream.exact_steps)
        steps = np.arange(len(x))
        older = np.minimum(steps + 1, capacity) > hot + m + r
        assert rebuild_steps == steps[shown & older].tolist()
        assert other.stream.rebuilds > det.stream.rebuilds > 0

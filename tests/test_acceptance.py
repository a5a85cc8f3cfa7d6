"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import numpy as np
import pytest

from mpstream.core import SENTINEL_INDEX, matrix_profile, matrix_profile_brute, znorm_distance
from mpstream.detect import AnomalyDetector, DetectorConfig, events_to_segments
from mpstream.evaluate import ConfusionCounts, classification_metrics, metrics_table, segment_score
from mpstream.generate import (FaultKind, FaultSpec, GeneratorConfig,
                               four_fault_dataset, generate_base, inject_fault)
from mpstream.stream import StreamingProfile
from mpstream.cli import main

from oracles import batch_left_profile, naive_znorm_distance

rng = np.random.default_rng


def ok(n, msg):
    print(f"ACCEPTANCE {n} PASS: {msg}")


def test_criterion_1_four_fault_reproduction():
    """Default dataset (5 kHz, 20 s, seed 42), default detector: 4/4 faults,
    0 false segments, latency bounds, < 10 s."""
    t0 = time.perf_counter()
    ds = four_fault_dataset(GeneratorConfig())
    assert len(ds.channel) == 100_000
    det = AnomalyDetector()
    events = det.process(ds.channel.samples)
    pred = events_to_segments(events, len(ds.channel.samples))
    report = segment_score(pred, ds.truth)
    elapsed = time.perf_counter() - t0

    m = det.m
    min_event_len = det.config.min_event_len
    assert report.detected == 4, f"detected {report.detected}/4"
    assert report.false_segments == 0
    assert len(events) == 8, f"expected 4 start/end pairs, got {len(events)} events"
    assert len(pred) == 4
    matched_truth = set()
    for match in report.matches:
        matched_truth.add(match.truth_index)
        assert match.start_latency <= 2 * m, match
        assert match.end_latency <= m + min_event_len, match
    assert matched_truth == {0, 1, 2, 3}
    assert elapsed < 10.0, f"pipeline took {elapsed:.1f}s"
    ok(1, f"4/4 faults, 0 false segments, latencies in bounds, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    """>= 100 random series: batch vs brute within 1e-6; < 60 s."""
    t0 = time.perf_counter()
    r = rng(20240)
    n_series = 100
    for k in range(n_series):
        n = int(r.integers(64, 2001))
        m = int(r.integers(4, 65))
        ez = int(r.integers(0, max(1, m // 2) + 1))
        x = r.normal(size=n)
        brute = matrix_profile_brute(x, m, exclusion_radius=ez)
        fast = matrix_profile(x, m, exclusion_radius=ez)
        finite = np.isfinite(brute.distances)
        assert np.array_equal(finite, np.isfinite(fast.distances))
        err = np.abs(fast.distances[finite] - brute.distances[finite])
        assert err.size == 0 or err.max() <= 1e-6, (n, m, ez, err.max())
        # Indices agree except across distance ties.
        differs = np.flatnonzero(finite & (fast.indices != brute.indices))
        for i in differs:
            d_alt = znorm_distance(x[i:i + m], x[fast.indices[i]:fast.indices[i] + m])
            assert abs(d_alt - brute.distances[i]) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    ok(2, f"{n_series} random series equivalent within 1e-6 in {elapsed:.1f}s")


def test_criterion_3_streaming_batch_equivalence():
    """>= 50 random streams below capacity match the batch left profile to
    1e-9; with eviction, neighbors stay in-window and values match a fresh
    batch run on the retained window."""
    r = rng(777)
    for k in range(50):
        m = int(r.integers(4, 16))
        ez = int(r.integers(0, m))
        n = int(r.integers(2 * m + 2, 400))
        x = r.normal(size=n)
        sp = StreamingProfile(m, capacity=1024, exclusion_radius=ez)
        for v in x:
            sp.append(v)
        snap = sp.profile()
        nd, ni = batch_left_profile(x, m, ez)
        assert np.allclose(snap.distances, nd, atol=1e-9, equal_nan=False)

    # Eviction runs: stream 4x capacity, compare against the retained window.
    for k in range(10):
        m = int(r.integers(4, 12))
        ez = int(r.integers(0, m))
        cap = int(r.integers(2 * m, 80))
        n = 4 * cap
        x = r.normal(size=n)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=ez)
        for v in x:
            sp.append(v)
        snap = sp.profile()
        window = x[-cap:]
        nd, ni = batch_left_profile(window, m, ez)
        assert np.allclose(snap.distances, nd, atol=1e-9)
        valid = snap.indices != SENTINEL_INDEX
        assert (snap.indices[valid] >= 0).all()
        assert (snap.indices[valid] < len(snap)).all()
        for i in np.flatnonzero(valid):
            if snap.indices[i] != ni[i]:  # distance tie
                j = int(snap.indices[i])
                alt = naive_znorm_distance(list(window[i:i + m]),
                                           list(window[j:j + m]))
                assert abs(alt - nd[i]) <= 1e-9
    ok(3, "50 no-eviction streams + 10 eviction streams match batch left profile (1e-9)")


def test_criterion_4_znorm_property_suite():
    """Scale/offset invariance (1e-9), symmetry (exact), bound (exact after
    clamping), degenerate conventions."""
    r = rng(4242)
    for _ in range(500):
        m = int(r.integers(2, 64))
        a = r.normal(size=m) * r.uniform(0.5, 3.0)
        b = r.normal(size=m) * r.uniform(0.5, 3.0)
        d = znorm_distance(a, b)
        assert d == znorm_distance(b, a)                      # symmetry, exact
        assert 0.0 <= d <= 2.0 * math.sqrt(m)                 # bound, exact
        alpha = r.uniform(0.05, 20.0)
        beta = r.uniform(-50.0, 50.0)
        assert abs(znorm_distance(alpha * a + beta, b) - d) <= 1e-9
        assert abs(znorm_distance(a, alpha * b + beta) - d) <= 1e-9
    for m in (2, 5, 17):
        flat = np.full(m, 3.25)
        other = rng(m).normal(size=m)
        assert znorm_distance(flat, 2.0 * flat) == 0.0
        assert znorm_distance(flat, other) == math.sqrt(2 * m)
        assert znorm_distance(other, flat) == math.sqrt(2 * m)
    ok(4, "z-norm invariance/symmetry/bound/degenerate conventions hold (500 draws)")


def test_criterion_5_metric_arithmetic():
    """Exact metric values on fixed confusion tables and Table-layout
    rendering."""
    tables = [
        (3, 1, 0, 96), (0, 0, 0, 100), (1, 0, 0, 0), (0, 1, 0, 7),
        (0, 0, 1, 7), (5, 5, 5, 85), (10, 0, 10, 80), (8, 2, 0, 90),
        (1, 1, 1, 1), (50, 25, 25, 900), (43, 7, 0, 650), (2, 6, 2, 90),
    ]
    assert len(tables) >= 10
    for tp, fp, fn, tn in tables:
        mt = classification_metrics(ConfusionCounts(tp, fp, fn, tn))
        total = tp + fp + fn + tn
        assert mt.accuracy == (tp + tn) / total
        assert mt.precision == (tp / (tp + fp) if tp + fp else None)
        assert mt.recall == (tp / (tp + fn) if tp + fn else None)
        if tp + fp and tp + fn and tp:
            p, rc = tp / (tp + fp), tp / (tp + fn)
            assert mt.f_score == 2 * p * rc / (p + rc)
        else:
            assert mt.f_score is None
    table = metrics_table([("LL fault", ConfusionCounts(43, 7, 0, 650))])
    header, row = table.splitlines()
    assert header.split() == ["Fault", "Accuracy", "Precision", "Recall", "F-score"]
    assert row.split()[-4:] == ["0.990", "0.860", "1.000", "0.925"]
    ok(5, "12 confusion tables exact; Table-layout header and LL row render correctly")


# Documented taxonomy settings: both outlier families are detected with a
# 64-sample window.  Smaller windows make single-sample spikes inseparable
# from the normal noise tail on this channel (measured: fault peak below the
# normal maximum at m=16).  enter_ratio 1.5 sits centrally in the measured
# margin gap (normal max <= 1.08x threshold, fault peaks >= 2.3x across
# seeds), giving seed-robust zero false positives.
TAXONOMY_WINDOW = {FaultKind.POINT_OUTLIER: 64, FaultKind.SHAPELET_OUTLIER: 64}
TAXONOMY_ENTER_RATIO = 1.5


@pytest.mark.parametrize("kind", [FaultKind.POINT_OUTLIER, FaultKind.SHAPELET_OUTLIER])
def test_criterion_6_taxonomy_sensitivity(kind):
    """Point and shapelet outliers detected with zero false segments across
    random seeds."""
    seeds = range(8)
    for seed in seeds:
        cfg = GeneratorConfig(duration_s=4.0, seed=seed)
        base = generate_base(cfg)
        spec = FaultSpec(kind, 2.0, 0.05, severity=1.0)
        ds = inject_fault(base, spec, cfg, seed=seed)
        det = AnomalyDetector(m=TAXONOMY_WINDOW[kind],
                              config=DetectorConfig(enter_ratio=TAXONOMY_ENTER_RATIO))
        events = det.process(ds.channel.samples)
        pred = events_to_segments(events, len(ds.channel.samples))
        report = segment_score(pred, ds.truth)
        assert report.detected >= 1, f"{kind.value} seed {seed}: not detected"
        assert report.false_segments == 0, f"{kind.value} seed {seed}"
    ok(6, f"{kind.value} detected with 0 false segments across {len(list(seeds))} seeds")


REDUCED = dict(duration_s=6.0, ll_start_s=4.0, sensor_start_s=4.5,
               sag_start_s=5.0, grid_start_s=5.5)


def test_criterion_7_determinism_and_memory(tmp_path, capsys):
    """Byte-identical pipeline across runs; bounded stream memory at 10x
    capacity."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(REDUCED))

    outputs = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        data = d / "data.csv"
        events = d / "events.csv"
        report = d / "report.csv"
        assert main(["generate", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert main(["detect", "--config", str(cfg_path), "--out", str(events),
                     str(data)]) == 0
        assert main(["evaluate", str(events), str(d / "data.truth.csv"), "30000",
                     "--out", str(report)]) == 0
        assert "4/4 segments detected" in capsys.readouterr().out
        outputs.append([p.read_bytes() for p in
                        (data, d / "data.truth.csv", events,
                         d / "events.profile.csv", report)])
    assert outputs[0] == outputs[1], "pipeline outputs differ between runs"

    cap = 512
    sp = StreamingProfile(16, capacity=cap, exclusion_radius=4)
    peak = 0
    for v in rng(99).normal(size=10 * cap):
        sp.append(v)
        peak = max(peak, sp.n_retained)
    assert sp.count == 10 * cap
    assert peak <= cap, f"retained {peak} > capacity {cap}"
    ok(7, "byte-identical across runs; 10x-capacity stream bounded")

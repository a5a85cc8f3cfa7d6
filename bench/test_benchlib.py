"""Tests of the benchmark's own helpers.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for p in (BENCH, BENCH.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import benchlib  # noqa: E402
from benchlib import (Calibrator, SpeedProbe, Tracer,  # noqa: E402
                      batch_profile_error, candidate_pairs, derive_seed,
                      exact_distances, left_profile_error, percentile,
                      summarize, znorm_windows)
from mpstream import (StreamingProfile, matrix_profile_brute,  # noqa: E402
                      znorm_distance)


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile(range(101), 99) == pytest.approx(99.0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summarize_uses_exclusive_quartiles():
    s = summarize(range(1, 11))
    assert s["median"] == 5.5
    assert (s["q1"], s["q3"]) == (2.75, 8.25)
    assert s["iqr_frac"] == pytest.approx(1.0)
    assert s["n"] == 10
    one = summarize([3.0])
    assert one["q1"] == one["q3"] == 3.0 and one["iqr_frac"] == 0.0
    with pytest.raises(ValueError):
        summarize([])


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: float(next(it))


def test_self_time_subtracts_covered_children():
    # outer [0, 10] holds inner [2, 5] and inner [6, 7]: self time 10 - 4.
    tr = Tracer(clock=_fake_clock([0, 2, 5, 6, 7, 10]))
    inner = tr.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
        return 1

    outer = tr.wrap("outer", body)
    assert outer() == 1
    assert tr.count("inner") == 2
    assert list(tr.durations("inner")) == [3.0, 1.0]
    assert list(tr.self_times("outer")) == [6.0]
    assert list(tr.self_times("outer", children={"other"})) == [10.0]
    assert list(tr.self_times("inner")) == [3.0, 1.0]
    assert tr.busy("inner", roots_only=True) == 0.0
    assert tr.busy("outer", roots_only=True) == 10.0
    assert tr.none_results == {"inner": 2, "outer": 0}
    arrays = tr.to_arrays()
    assert list(arrays["parent"]) == [-1, 0, 0]


def test_calibrator_scales_each_segment_by_its_neighbouring_probes():
    probes = iter([2.0, 2.0, 4.0, 1.0])
    cal = Calibrator(lambda runs: next(probes), runs=3, reference_s=2.0)
    assert cal.lap(10.0) == 1.0         # host at reference speed
    assert cal.lap(10.0) == 2.0 / 3.0   # probes 2 and 4: host slowed
    assert cal.lap(5.0) == 0.8          # probes 4 and 1
    assert cal.raw_s == 25.0
    assert cal.calibrated_s == pytest.approx(10.0 + 20.0 / 3.0 + 4.0)
    assert cal.factors == [1.0, 2.0 / 3.0, 0.8]


def test_speed_probe_returns_mean_time_per_kernel_run():
    ticks = iter([1.0, 7.0])
    probe = SpeedProbe(size=16, rounds=2, clock=lambda: next(ticks))
    assert probe(3) == 2.0
    assert SpeedProbe(size=16, rounds=2).kernel() == SpeedProbe(size=16, rounds=2).kernel()


def test_install_patches_and_restores():
    class Thing:
        def f(self, x):
            return x + 1

    mod = types.SimpleNamespace(g=lambda: None)
    original_f, original_g = Thing.__dict__["f"], mod.g
    with Tracer() as tr:
        tr.install([("thing.f", Thing, "f"), ("mod.g", mod, "g")])
        assert Thing().f(1) == 2
        mod.g()
        assert tr.count("thing.f") == 1 and tr.none_results["mod.g"] == 1
    assert Thing.__dict__["f"] is original_f and mod.g is original_g


@pytest.mark.parametrize("offset", [0.0, 50.0, 1e3])
def test_oracle_matches_znorm_distance(offset):
    rng = np.random.default_rng(7)
    m = 8
    x = offset + rng.normal(size=60)
    x[20:32] = x[19]  # a plateau gives flat windows
    z, flat = znorm_windows(x, m)
    assert flat.any()
    for i in range(z.shape[0]):
        js = np.arange(z.shape[0])
        d = exact_distances(z, flat, i, js)
        want = [znorm_distance(x[i:i + m], x[j:j + m]) for j in js]
        np.testing.assert_allclose(d, want, rtol=0, atol=1e-9)


def test_left_profile_error_on_stream_trace():
    rng = np.random.default_rng(3)
    m, r, cap = 8, 2, 40
    x = rng.normal(size=200)
    sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
    trace = []
    for v in x:
        out = sp.append(v)
        trace.append(None if out is None else out[0])
    positions = [t for t, v in enumerate(trace) if v is not None]
    assert left_profile_error(x, m, r, cap, trace, positions) < 1e-8
    trace[positions[50]] += 0.5
    assert left_profile_error(x, m, r, cap, trace, positions) == pytest.approx(0.5, abs=1e-8)


def test_batch_profile_error_against_brute():
    rng = np.random.default_rng(4)
    m, r = 8, 2
    x = rng.normal(size=120)
    d = matrix_profile_brute(x, m, exclusion_radius=r).distances.copy()
    positions = range(d.size)
    assert batch_profile_error(x, m, r, d, positions) < 1e-9
    d[10] -= 0.25
    assert batch_profile_error(x, m, r, d, positions) == pytest.approx(0.25, abs=1e-9)


def test_candidate_pairs_counts_pairs_outside_exclusion():
    for p, r in [(1, 0), (5, 0), (10, 2), (30, 7)]:
        want = sum(1 for i in range(p) for j in range(p) if abs(i - j) > r)
        assert candidate_pairs(p, r) == want


def test_derive_seed_is_stable_and_separates_keys():
    assert derive_seed(5, 2, 0) == derive_seed(5, 2, 0)
    seeds = {derive_seed(5, 2, k) for k in range(8)}
    assert len(seeds) == 8
    assert derive_seed(5, 2, 0) != derive_seed(6, 2, 0)
    assert derive_seed(5, 2, 0) != derive_seed(5, 3, 0)
    assert all(0 <= s < 2 ** 32 for s in seeds)


def test_taxonomy_channels_follow_the_benchmark_seed():
    import workloads
    from mpstream import FaultKind

    a, b, c = (workloads.TaxonomyInterleaved(s) for s in (11, 11, 12))
    assert len(a.channels) == len(FaultKind)
    assert a.channels == b.channels
    assert all(ca != cc for ca, cc in zip(a.channels, c.channels))
    assert len({tuple(ch[:16]) for ch in a.channels}) == len(FaultKind)
    assert [t[0].label for t in a.truths] == [k.value for k in FaultKind]


def test_benchmark_json_matches_the_metrics_printed():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    import workloads
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    assert len(names) >= 2
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_machine_info_has_run_settings_fields():
    info = benchlib.machine_info()
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(info)
    assert info["nproc"] >= 1

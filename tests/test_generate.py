import numpy as np
import pytest

from mpstream.detect import AnomalySegment
from mpstream.generate import (
    DEFAULT_LAYOUT,
    LL_AMPLITUDE_HZ,
    FaultKind,
    FaultSpec,
    FourFaultLayout,
    GeneratorConfig,
    LabeledDataset,
    four_fault_dataset,
    generate_base,
    inject_fault,
)

SMALL = GeneratorConfig(sample_rate_hz=2000.0, duration_s=2.0, nominal_freq_hz=50.0,
                        noise_std=0.005, seed=7)


class TestGeneratorConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.n_samples == 100_000

    def test_rate_must_resolve_ripple(self):
        with pytest.raises(ValueError):
            GeneratorConfig(sample_rate_hz=500.0, nominal_freq_hz=50.0)

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            GeneratorConfig(duration_s=0.0)

    @pytest.mark.parametrize("key, value, message", [
        ("nominal_freq_hz", 0.0, "nominal_freq_hz must be positive"),
        ("noise_std", -0.001, "noise_std and ripple_amplitude_hz must be >= 0"),
        ("seed", -1, "seed must be >= 0")])
    def test_out_of_range_value(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            GeneratorConfig(**{key: value})


class TestGenerateBase:
    def test_constant_when_clean(self):
        cfg = GeneratorConfig(sample_rate_hz=2000, duration_s=0.5, noise_std=0.0,
                              ripple_amplitude_hz=0.0, seed=1)
        ts = generate_base(cfg)
        assert np.array_equal(ts.samples, np.full(1000, 50.0))

    def test_deterministic_per_seed(self):
        a = generate_base(SMALL)
        b = generate_base(SMALL)
        assert np.array_equal(a.samples, b.samples)
        c = generate_base(GeneratorConfig(**{**SMALL.__dict__, "seed": 8}))
        assert not np.array_equal(a.samples, c.samples)

    def test_mean_near_nominal(self):
        ts = generate_base(GeneratorConfig())
        assert abs(ts.samples.mean() - 50.0) < 0.01


class TestInjectFault:
    def test_zero_severity_identity(self):
        base = generate_base(SMALL)
        spec = FaultSpec(FaultKind.LL_FAULT, 1.0, 0.05, severity=0.0)
        ds = inject_fault(base, spec, SMALL)
        assert np.array_equal(ds.channel.samples, base.samples)
        assert len(ds.truth) == 1
        assert ds.truth[0].start == 2000

    def test_sensor_hold_is_exactly_constant(self):
        cfg = GeneratorConfig(sample_rate_hz=2000, duration_s=1.0, noise_std=0.0,
                              ripple_amplitude_hz=0.02, seed=3)
        base = generate_base(cfg)
        spec = FaultSpec(FaultKind.THREE_PHASE_SENSOR_FAULT, 0.4, 0.1)
        ds = inject_fault(base, spec, cfg)
        s, e = ds.truth[0].start, ds.truth[0].end
        seg = ds.channel.samples[s:e]
        assert np.ptp(seg) == 0.0
        assert seg[0] == base.samples[s - 1]

    def test_ll_envelope_peak(self):
        # Closed-form check: the decaying oscillation peaks in [0.9A, A].
        # Requires tau = duration/4 large enough that the envelope has not
        # decayed before the first oscillation peak at 1/(4*f_osc).
        base = generate_base(SMALL)
        spec = FaultSpec(FaultKind.LL_FAULT, 0.5, 0.05)
        ds = inject_fault(base, spec, SMALL)
        delta = np.abs(ds.channel.samples - base.samples)
        peak = delta.max()
        assert 0.9 * LL_AMPLITUDE_HZ <= peak <= LL_AMPLITUDE_HZ

    def test_locality_outside_segment(self):
        base = generate_base(SMALL)
        for kind in (FaultKind.LL_FAULT, FaultKind.SINGLE_PHASE_VOLTAGE_SAG,
                     FaultKind.THREE_PHASE_GRID_FAULT,
                     FaultKind.THREE_PHASE_SENSOR_FAULT,
                     FaultKind.SHAPELET_OUTLIER, FaultKind.SEASONAL_OUTLIER,
                     FaultKind.POINT_OUTLIER):
            spec = FaultSpec(kind, 0.8, 0.1)
            ds = inject_fault(base, spec, SMALL, seed=5)
            s, e = ds.truth[0].start, ds.truth[0].end
            out = ds.channel.samples
            assert np.array_equal(out[:s], base.samples[:s]), kind
            assert np.array_equal(out[e:], base.samples[e:]), kind

    def test_trend_persists_downstream(self):
        base = generate_base(SMALL)
        spec = FaultSpec(FaultKind.TREND_OUTLIER, 0.8, 0.2, severity=1.0)
        ds = inject_fault(base, spec, SMALL)
        s, e = ds.truth[0].start, ds.truth[0].end
        out = ds.channel.samples
        assert np.array_equal(out[:s], base.samples[:s])
        assert np.allclose(out[e:] - base.samples[e:], 1.0, atol=1e-12)
        # Ramp reaches the full drift by the end of the interval.
        assert out[e - 1] - base.samples[e - 1] == pytest.approx(1.0, abs=1e-12)

    def test_point_outlier_single_sample(self):
        base = generate_base(SMALL)
        spec = FaultSpec(FaultKind.POINT_OUTLIER, 1.0, 0.1, severity=0.5)
        ds = inject_fault(base, spec, SMALL, seed=9)
        s, e = ds.truth[0].start, ds.truth[0].end
        assert e - s == 1
        diff = ds.channel.samples - base.samples
        assert np.count_nonzero(diff) == 1
        assert abs(diff[s]) == pytest.approx(0.5, abs=1e-12)

    def test_shapelet_equal_mean(self):
        base = generate_base(SMALL)
        spec = FaultSpec(FaultKind.SHAPELET_OUTLIER, 0.5, 0.2)
        ds = inject_fault(base, spec, SMALL)
        s, e = ds.truth[0].start, ds.truth[0].end
        assert ds.channel.samples[s:e].mean() == pytest.approx(
            base.samples[s:e].mean(), abs=1e-9)

    def test_severity_monotonicity(self):
        base = generate_base(SMALL)
        for kind in FaultKind:
            peaks = []
            for sev in (0.0, 0.25, 0.5, 0.75, 1.0):
                spec = FaultSpec(kind, 0.8, 0.1, severity=sev)
                ds = inject_fault(base, spec, SMALL, seed=11)
                s, e = ds.truth[0].start, ds.truth[0].end
                peaks.append(np.abs(ds.channel.samples[s:e] - base.samples[s:e]).max())
            assert all(a <= b + 1e-12 for a, b in zip(peaks, peaks[1:])), kind

    def test_interval_outside_signal(self):
        base = generate_base(SMALL)
        with pytest.raises(ValueError):
            inject_fault(base, FaultSpec(FaultKind.LL_FAULT, 1.95, 0.2), SMALL)

    def test_invalid_fault_rejected(self):
        base = generate_base(SMALL)
        with pytest.raises(ValueError, match=r"severity must lie in \[0, 1\]"):
            FaultSpec(FaultKind.LL_FAULT, 1.0, 0.05, severity=1.5)
        with pytest.raises(ValueError, match="pre-fault sample"):
            inject_fault(base, FaultSpec(FaultKind.THREE_PHASE_SENSOR_FAULT, 0.0, 0.05),
                         SMALL)
        with pytest.raises(ValueError, match="unknown fault kind"):
            inject_fault(base, FaultSpec("ll_fault", 1.0, 0.05), SMALL)

    def test_determinism(self):
        base = generate_base(SMALL)
        spec = FaultSpec(FaultKind.THREE_PHASE_GRID_FAULT, 0.5, 0.2)
        a = inject_fault(base, spec, SMALL, seed=4)
        b = inject_fault(base, spec, SMALL, seed=4)
        assert np.array_equal(a.channel.samples, b.channel.samples)


class TestFourFaultDataset:
    def test_default_layout_labels_in_order(self):
        ds = four_fault_dataset(GeneratorConfig())
        assert len(ds.truth) == 4
        assert [seg.label for seg in ds.truth] == [
            "ll_fault", "three_phase_sensor_fault",
            "single_phase_voltage_sag", "three_phase_grid_fault"]
        for a, b in zip(ds.truth, ds.truth[1:]):
            assert b.start - a.end >= 320

    def test_truth_is_seed_independent(self):
        a = four_fault_dataset(GeneratorConfig(seed=1))
        b = four_fault_dataset(GeneratorConfig(seed=2))
        assert a.truth == b.truth
        assert not np.array_equal(a.channel.samples, b.channel.samples)

    def test_concatenation_property(self):
        # Each fault segment of the combined dataset equals the single-fault
        # injection on the same base with the aligned per-fault seed.
        from mpstream.generate import _fault_seed
        cfg = GeneratorConfig()
        combined = four_fault_dataset(cfg)
        base = generate_base(cfg)
        for i, fault in enumerate(DEFAULT_LAYOUT.faults()):
            single = inject_fault(base, fault, cfg, seed=_fault_seed(cfg.seed, i))
            s, e = single.truth[0].start, single.truth[0].end
            assert np.array_equal(combined.channel.samples[s:e],
                                  single.channel.samples[s:e]), fault.kind

    def test_overlapping_truth_rejected(self):
        base = generate_base(SMALL)
        with pytest.raises(ValueError, match="sorted and disjoint"):
            LabeledDataset(base, [AnomalySegment(0, 10), AnomalySegment(5, 15)])

    def test_layout_must_fit(self):
        with pytest.raises(ValueError):
            four_fault_dataset(GeneratorConfig(duration_s=10.0))

    def test_dense_layout_rejected(self):
        layout = FourFaultLayout(ll_start_s=1.0, sensor_start_s=1.01,
                                 sag_start_s=1.02, grid_start_s=1.03)
        with pytest.raises(ValueError):
            four_fault_dataset(GeneratorConfig(), layout)

    def test_determinism_bitwise(self):
        a = four_fault_dataset(GeneratorConfig())
        b = four_fault_dataset(GeneratorConfig())
        assert np.array_equal(a.channel.samples, b.channel.samples)

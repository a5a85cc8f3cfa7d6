"""Synthetic PEC frequency-channel generator with labeled fault injection.

Produces the converter frequency channel directly as a parametric surrogate:
a nominal value plus a small switching-residue ripple and Gaussian
measurement noise.  Faults are injected as closed-form disturbances on that
channel, each paired with a ground-truth segment, so a generated dataset is
fully labeled and exactly reproducible from its seed.

Fault amplitudes are surrogate magnitudes that preserve the qualitative
severity ordering of the real fault classes; they are not measured values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from mpstream.core import TimeSeries
from mpstream.detect import AnomalySegment

__all__ = [
    "FaultKind",
    "GeneratorConfig",
    "FaultSpec",
    "FourFaultLayout",
    "LabeledDataset",
    "DEFAULT_LAYOUT",
    "generate_base",
    "inject_fault",
    "four_fault_dataset",
]

# Ripple surrogate: twice the nominal frequency (dominant converter residue).
RIPPLE_FREQ_FACTOR = 2.0

# Surrogate fault magnitudes in Hz at severity 1.0.
LL_AMPLITUDE_HZ = 1.5
LL_OSC_FREQ_FACTOR = 5.0       # oscillation frequency = 5 x nominal
SAG_DEPTH_HZ = 0.5
GRID_STEP_HZ = 2.0
GRID_NOISE_FACTOR = 2.0        # noise std doubles during a grid fault
POINT_AMPLITUDE_HZ = 1.0
TREND_DRIFT_HZ = 1.0
SHAPELET_AMPLITUDE_HZ = 0.5
SHAPELET_PERIOD_S = 0.02
SEASONAL_FREQ_FACTOR = 3.0     # ripple frequency multiplier inside the interval


class FaultKind(enum.Enum):
    LL_FAULT = "ll_fault"
    THREE_PHASE_SENSOR_FAULT = "three_phase_sensor_fault"
    SINGLE_PHASE_VOLTAGE_SAG = "single_phase_voltage_sag"
    THREE_PHASE_GRID_FAULT = "three_phase_grid_fault"
    POINT_OUTLIER = "point_outlier"
    SHAPELET_OUTLIER = "shapelet_outlier"
    SEASONAL_OUTLIER = "seasonal_outlier"
    TREND_OUTLIER = "trend_outlier"


def _check_finite(config, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class GeneratorConfig:
    sample_rate_hz: float = 5000.0
    duration_s: float = 20.0
    nominal_freq_hz: float = 50.0
    noise_std: float = 0.005
    ripple_amplitude_hz: float = 0.02
    seed: int = 42

    def __post_init__(self):
        _check_finite(self, "sample_rate_hz", "duration_s", "nominal_freq_hz",
                      "noise_std", "ripple_amplitude_hz")
        if not self.sample_rate_hz > 0 or not self.duration_s > 0:
            raise ValueError("sample_rate_hz and duration_s must be positive")
        if not self.nominal_freq_hz > 0:
            raise ValueError("nominal_freq_hz must be positive")
        if self.sample_rate_hz < 20.0 * self.nominal_freq_hz:
            raise ValueError("sample_rate_hz must be at least 20x nominal_freq_hz "
                             "to resolve the ripple component")
        if self.noise_std < 0 or self.ripple_amplitude_hz < 0:
            raise ValueError("noise_std and ripple_amplitude_hz must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.duration_s))


@dataclass(frozen=True)
class FaultSpec:
    kind: FaultKind
    start_s: float
    duration_s: float
    severity: float = 1.0

    def __post_init__(self):
        _check_finite(self, "start_s", "duration_s", "severity")
        # Severity 0 is allowed as the degenerate no-op injection.
        if not 0.0 <= self.severity <= 1.0:
            raise ValueError("severity must lie in [0, 1]")
        if self.start_s < 0 or self.duration_s <= 0:
            raise ValueError("fault interval must have positive duration and start >= 0")

    def sample_bounds(self, config: GeneratorConfig) -> tuple[int, int]:
        """Half-open [start, end) sample indices of the injected interval."""
        s = int(round(self.start_s * config.sample_rate_hz))
        if self.kind is FaultKind.POINT_OUTLIER:
            e = s + 1
        else:
            e = s + int(round(self.duration_s * config.sample_rate_hz))
        return s, e


@dataclass
class LabeledDataset:
    """Generated channel plus its ground-truth anomaly segments."""

    channel: TimeSeries
    truth: list[AnomalySegment]

    def __post_init__(self):
        segs = self.truth
        for a, b in zip(segs, segs[1:]):
            if a.end > b.start:
                raise ValueError("truth segments must be sorted and disjoint")


def _ripple(config: GeneratorConfig, t: np.ndarray) -> np.ndarray:
    f_ripple = RIPPLE_FREQ_FACTOR * config.nominal_freq_hz
    return config.ripple_amplitude_hz * np.sin(2.0 * np.pi * f_ripple * t)


def generate_base(config: GeneratorConfig) -> TimeSeries:
    """Normal-operation frequency channel: nominal + ripple + noise."""
    t = np.arange(config.n_samples) / config.sample_rate_hz
    rng = np.random.default_rng(config.seed)
    samples = (config.nominal_freq_hz + _ripple(config, t)
               + rng.normal(0.0, config.noise_std, config.n_samples))
    return TimeSeries(samples=samples, sample_rate_hz=config.sample_rate_hz)


def inject_fault(base: TimeSeries, fault: FaultSpec, config: GeneratorConfig,
                 seed: int = 0) -> LabeledDataset:
    """Inject one fault into ``base`` and return the labeled result.

    Outside the truth segment the output equals ``base`` exactly; the
    documented exception is TREND_OUTLIER, whose drift offset persists past
    the segment end.  ``severity`` scales every disturbance amplitude, so
    severity 0 returns the base unchanged with the segment still recorded.
    """
    s, e = fault.sample_bounds(config)
    n = len(base)
    if s < 0 or e > n or s >= e:
        raise ValueError(f"fault interval [{s}, {e}) outside signal of length {n}")
    if fault.kind is FaultKind.THREE_PHASE_SENSOR_FAULT and s == 0:
        raise ValueError("sensor fault needs at least one pre-fault sample to hold")
    x = base.samples.copy()
    sev = float(fault.severity)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
    t = base.times_s
    t_rel = t[s:e] - t[s]
    kind = fault.kind

    if sev > 0.0:
        if kind is FaultKind.LL_FAULT:
            tau = fault.duration_s / 4.0
            f_osc = LL_OSC_FREQ_FACTOR * config.nominal_freq_hz
            x[s:e] += (LL_AMPLITUDE_HZ * sev * np.exp(-t_rel / tau)
                       * np.sin(2.0 * np.pi * f_osc * t_rel))
        elif kind is FaultKind.SINGLE_PHASE_VOLTAGE_SAG:
            window = 0.5 * (1.0 - np.cos(2.0 * np.pi * t_rel / fault.duration_s))
            x[s:e] -= SAG_DEPTH_HZ * sev * window
        elif kind is FaultKind.THREE_PHASE_GRID_FAULT:
            # Step excursion with extra measurement noise on top of the base
            # noise; the combined std reaches GRID_NOISE_FACTOR * noise_std
            # at severity 1.
            delta = np.full(e - s, -GRID_STEP_HZ * sev)
            extra = config.noise_std * np.sqrt(GRID_NOISE_FACTOR ** 2 - 1.0) * sev
            if extra > 0:
                delta += rng.normal(0.0, extra, e - s)
            x[s:e] += delta
        elif kind is FaultKind.THREE_PHASE_SENSOR_FAULT:
            x[s:e] = x[s - 1]
        elif kind is FaultKind.POINT_OUTLIER:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            x[s] += sign * POINT_AMPLITUDE_HZ * sev
        elif kind is FaultKind.SHAPELET_OUTLIER:
            # Replace the interval with a square wave of the same mean.
            square = np.sign(np.sin(2.0 * np.pi * t_rel / SHAPELET_PERIOD_S))
            square[square == 0] = 1.0
            pattern = SHAPELET_AMPLITUDE_HZ * sev * square
            x[s:e] = np.mean(x[s:e]) + pattern - np.mean(pattern)
        elif kind is FaultKind.SEASONAL_OUTLIER:
            # Swap the ripple for one at a multiple of its frequency; the
            # interval blends old ripple out by severity.
            f_r = RIPPLE_FREQ_FACTOR * config.nominal_freq_hz
            old = _ripple(config, t[s:e])
            new = config.ripple_amplitude_hz * np.sin(
                2.0 * np.pi * SEASONAL_FREQ_FACTOR * f_r * t[s:e])
            x[s:e] += sev * (new - old)
        elif kind is FaultKind.TREND_OUTLIER:
            drift = TREND_DRIFT_HZ * sev
            ramp = drift * (t_rel / t_rel[-1] if t_rel.size > 1 else np.ones(1))
            x[s:e] += ramp
            x[e:] += drift
        else:
            raise ValueError(f"unknown fault kind {kind!r}")

    truth = [AnomalySegment(s, e, label=kind.value)]
    channel = TimeSeries(samples=x, sample_rate_hz=base.sample_rate_hz)
    return LabeledDataset(channel=channel, truth=truth)


@dataclass(frozen=True)
class FourFaultLayout:
    """Placement of the four fault segments on the default dataset.

    Durations are deliberately of the same order as the detection window:
    the causal profile of a long homogeneous fault collapses once the fault
    pattern starts matching itself inside the window, which would split a
    single physical fault into several detected events.
    """

    ll_start_s: float = 4.0
    ll_duration_s: float = 0.014
    sensor_start_s: float = 8.0
    sensor_duration_s: float = 0.014
    sag_start_s: float = 12.0
    sag_duration_s: float = 0.022
    grid_start_s: float = 16.0
    grid_duration_s: float = 0.1

    def faults(self, severity: float = 1.0) -> list[FaultSpec]:
        """The four faults in order; an error names the fault's config keys."""
        specs = []
        for kind, key in ((FaultKind.LL_FAULT, "ll"),
                          (FaultKind.THREE_PHASE_SENSOR_FAULT, "sensor"),
                          (FaultKind.SINGLE_PHASE_VOLTAGE_SAG, "sag"),
                          (FaultKind.THREE_PHASE_GRID_FAULT, "grid")):
            start_key, duration_key = f"{key}_start_s", f"{key}_duration_s"
            try:
                specs.append(FaultSpec(kind, getattr(self, start_key),
                                       getattr(self, duration_key), severity))
            except ValueError as exc:
                raise ValueError(f"{kind.value} (config keys {start_key}, "
                                 f"{duration_key}, severity): {exc}") from None
        return specs


DEFAULT_LAYOUT = FourFaultLayout()

# Minimum normal samples required between fault segments (5x the default
# detection window).
_MIN_GAP_SAMPLES = 320


def four_fault_dataset(config: GeneratorConfig | None = None,
                       layout: FourFaultLayout | None = None,
                       severity: float = 1.0) -> LabeledDataset:
    """One channel with all four converter faults in sequence.

    Fault order is fixed (LL, sensor, sag, grid); segments are disjoint with
    generous normal stretches between them.  The layout is independent of
    the seed, so different seeds share identical truth segments.
    """
    config = config if config is not None else GeneratorConfig()
    layout = layout if layout is not None else DEFAULT_LAYOUT
    faults = layout.faults(severity)
    n = config.n_samples
    bounds = [f.sample_bounds(config) for f in faults]
    prev_end = None
    for f, (s, e) in zip(faults, bounds):
        if prev_end is not None and s < prev_end + _MIN_GAP_SAMPLES:
            raise ValueError(
                f"layout too dense near {f.kind.value}: need {_MIN_GAP_SAMPLES} "
                "normal samples between segments")
        if s < 1 or e > n:
            raise ValueError(f"duration too short to fit {f.kind.value} segment")
        prev_end = e

    base = generate_base(config)
    signal = base
    truth: list[AnomalySegment] = []
    for i, f in enumerate(faults):
        injected = inject_fault(signal, f, config, seed=_fault_seed(config.seed, i))
        signal = injected.channel
        truth.extend(injected.truth)
    return LabeledDataset(channel=signal, truth=truth)


def _fault_seed(seed: int, ordinal: int) -> int:
    """Per-fault RNG seed; stable so single-fault injections reproduce the
    corresponding segment of the four-fault dataset bit for bit."""
    return int(np.random.SeedSequence([int(seed), 1000 + ordinal]).generate_state(1)[0])

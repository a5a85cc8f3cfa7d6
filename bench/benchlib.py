"""Helpers of the benchmark that do not depend on mpstream.

* summary statistics (percentiles, quartiles, IQR as a share of the median),
* an in-memory span tracer installed by patching attributes of modules and
  classes, with per-span self time,
* an independent nearest-neighbour oracle for z-normalized profiles, built
  on ``sliding_window_view`` and two-pass window statistics rather than on
  mpstream's dot-product kernel,
* speed calibration: a fixed reference kernel timed between the timed
  segments, so that a shared host that slows down for a while does not read
  as a slower program,
* seed derivation and a description of the machine.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import statistics
import time
from array import array

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------- statistics

def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("percentile of no values")
    return float(np.percentile(v, q))


def summarize(values) -> dict:
    """Median, quartiles and IQR as a share of the median.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); a single value is its own quartiles.
    """
    v = [float(x) for x in values]
    if not v:
        raise ValueError("summary of no values")
    med = statistics.median(v)
    if len(v) == 1:
        q1 = q3 = v[0]
    else:
        q1, _, q3 = statistics.quantiles(v, n=4)
    iqr_frac = (q3 - q1) / abs(med) if med != 0 else (0.0 if q3 == q1 else math.inf)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": iqr_frac, "n": len(v)}


# ------------------------------------------------------------------- tracing

class Tracer:
    """Records a span (name, start, end, parent) around each wrapped call.

    Spans are kept in flat arrays in memory.  Calls are assumed to come from
    one thread, so the open spans form a stack and the innermost open span
    is the parent of a new one.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.none_results: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.none_results[name] = 0
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        clock, stack = self._clock, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        nones = self.none_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if result is None:
                nones[name] += 1
            return result

        return traced

    def install(self, targets) -> None:
        """Replace ``owner.attr`` by a traced wrapper for each
        ``(span_name, owner, attr)``; :meth:`uninstall` restores them."""
        for name, owner, attr in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- queries ------------------------------------------------------------

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.empty(0, np.int32)
        par = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.empty(0, np.int64)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if len(self.start) else np.empty(0)
        return ids, par, dur

    def _mask(self, name: str, ids, par, roots_only: bool):
        if name not in self._ids:
            return np.zeros(ids.size, dtype=bool)
        mask = ids == self._ids[name]
        if roots_only:
            mask &= par == -1
        return mask

    def count(self, name: str) -> int:
        ids, par, _ = self._arrays()
        return int(np.count_nonzero(self._mask(name, ids, par, False)))

    def durations(self, name: str, roots_only: bool = False) -> np.ndarray:
        """Wall time of every span called ``name``, in seconds."""
        ids, par, dur = self._arrays()
        return dur[self._mask(name, ids, par, roots_only)]

    def busy(self, name: str, roots_only: bool = False) -> float:
        return float(self.durations(name, roots_only).sum())

    def self_times(self, name: str, children=None) -> np.ndarray:
        """Duration of each ``name`` span minus the time its direct child
        spans cover (only children named in ``children``, if given)."""
        ids, par, dur = self._arrays()
        child = par >= 0
        if children is not None:
            wanted = [self._ids[c] for c in children if c in self._ids]
            child &= np.isin(ids, wanted)
        covered = np.bincount(par[child], weights=dur[child], minlength=ids.size)
        mask = self._mask(name, ids, par, False)
        return dur[mask] - covered[mask]

    def to_arrays(self) -> dict:
        """Spans as arrays, for writing out when the run ends."""
        ids, par, _ = self._arrays()
        return {"names": np.array(self.names), "name_id": ids.copy(),
                "parent": par.copy(), "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}


# --------------------------------------------------------------- calibration

class SpeedProbe:
    """Times a fixed reference kernel: numpy passes over 8192 doubles mixed
    with interpreter arithmetic, the mix of work of one streaming append at
    capacity 8192.  ``probe(runs)`` returns the mean seconds per kernel run
    over ``runs`` runs; the host currently runs at
    ``reference_s / probe(runs)`` of the reference speed.

    ``reference_s`` is a fixed scale, close to the kernel's time on a quiet
    core of an "Intel(R) Xeon(R) Processor" KVM guest with Python 3.11 and
    numpy 2.4.  Calibrated times are wall times at that speed.
    """

    reference_s = 0.75e-3

    def __init__(self, size: int = 8192, rounds: int = 24, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self._a = rng.random(size) + 1.0
        self._b = rng.random(size) + 1.0
        self._c = np.empty(size)
        self.rounds, self._clock = rounds, clock

    def kernel(self) -> float:
        a, b, c = self._a, self._b, self._c
        acc = 0.0
        for _ in range(self.rounds):
            np.multiply(a, b, out=c)
            np.add(c, a, out=c)
            np.sqrt(c, out=c)
            acc += float(c.min()) + float(np.dot(a, c))
            for k in range(100):
                acc += k * 0.5
        return acc

    def __call__(self, runs: int) -> float:
        t = self._clock()
        for _ in range(runs):
            self.kernel()
        return (self._clock() - t) / runs


class Calibrator:
    """Scales the wall times of timed segments to the reference speed.

    Call :meth:`lap` right after each timed segment with its wall time.  It
    probes the host for ``runs`` kernel runs (outside the segment) and
    scales the segment by ``reference_s`` over the mean of the probes taken
    just before and just after it.  Probes should last long enough to
    average over the host's short stalls; a few percent of the segment.
    Raw and calibrated totals accumulate over the laps.
    """

    def __init__(self, probe, runs: int, reference_s: float | None = None):
        self._probe = probe
        self._runs = runs
        self._reference_s = probe.reference_s if reference_s is None else reference_s
        self._prev = probe(runs)
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.factors: list[float] = []

    def lap(self, seconds: float) -> float:
        """Account for a segment of ``seconds`` that has just ended; return
        the factor that calibrates it."""
        now = self._probe(self._runs)
        factor = 2.0 * self._reference_s / (self._prev + now)
        self._prev = now
        self.raw_s += seconds
        self.calibrated_s += seconds * factor
        self.factors.append(factor)
        return factor


# -------------------------------------------------------------------- oracle

def znorm_windows(x, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every length-``m`` window of ``x`` z-normalized with two-pass
    statistics.  Windows whose samples are all bitwise equal are flat and
    become zero rows."""
    w = sliding_window_view(np.asarray(x, dtype=np.float64), m)
    flat = np.ptp(w, axis=1) == 0.0
    sd = w.std(axis=1)
    sd[flat] = 1.0
    z = (w - w.mean(axis=1, keepdims=True)) / sd[:, None]
    z[flat] = 0.0
    return z, flat


def exact_distances(z: np.ndarray, flat: np.ndarray, i: int, js) -> np.ndarray:
    """Z-normalized distances from window ``i`` to windows ``js``.

    Flat conventions as documented by mpstream: flat against flat is 0,
    flat against non-flat is sqrt(2m); values are clamped to [0, 2 sqrt(m)].
    """
    js = np.asarray(js, dtype=np.int64)
    m = z.shape[1]
    diff = z[js] - z[i]
    d = np.sqrt(np.minimum(np.einsum("ij,ij->i", diff, diff), 4.0 * m))
    if flat[i]:
        return np.where(flat[js], 0.0, math.sqrt(2.0 * m))
    d[flat[js]] = math.sqrt(2.0 * m)
    return d


def left_profile_error(x, m: int, r: int, capacity: int, trace, positions) -> float:
    """Largest |trace[t] - exact| over sample indices ``positions``.

    ``trace[t]`` is a streaming left-profile value emitted when sample ``t``
    arrived: the nearest neighbour of the subsequence ending at ``t`` among
    the subsequences that start at least ``r + 1`` samples earlier and lie
    within the newest ``capacity`` samples.
    """
    x = np.asarray(x, dtype=np.float64)
    err = 0.0
    for t in positions:
        t = int(t)
        p = t - m + 1
        lo = max(0, t + 1 - capacity)
        z, flat = znorm_windows(x[lo:t + 1], m)
        q = p - lo
        d = exact_distances(z, flat, q, np.arange(0, q - r))
        err = max(err, abs(float(trace[t]) - float(d.min())))
    return err


def batch_profile_error(x, m: int, r: int, distances, positions) -> float:
    """Largest |distances[i] - exact| over subsequences ``positions`` of a
    two-sided profile with exclusion radius ``r``."""
    z, flat = znorm_windows(x, m)
    p = z.shape[0]
    err = 0.0
    for i in positions:
        i = int(i)
        js = np.concatenate((np.arange(0, max(0, i - r)), np.arange(min(p, i + r + 1), p)))
        d = exact_distances(z, flat, i, js)
        err = max(err, abs(float(distances[i]) - float(d.min())))
    return err


def candidate_pairs(p: int, r: int) -> int:
    """Ordered pairs (i, j) of ``p`` subsequences with |i - j| > r: the
    distance evaluations an exact two-sided profile needs."""
    inside = sum(min(p, i + r + 1) - max(0, i - r) for i in range(p))
    return p * p - inside


# --------------------------------------------------------------------- misc

def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the benchmark seed and integer keys.

    Distinct key tuples give independent streams; the same arguments always
    give the same value.
    """
    return int(np.random.SeedSequence([int(seed), *map(int, keys)]).generate_state(1)[0])


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": usable, "cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}

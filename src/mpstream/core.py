"""Batch Matrix Profile computation with z-normalized Euclidean distances.

The profile of a series is, for every length-``m`` subsequence, the distance
to its nearest neighbor elsewhere in the series, excluding trivial
self-matches around the subsequence's own position.  Two implementations are
provided: :func:`matrix_profile_brute`, a direct all-pairs reference, and
:func:`matrix_profile`, an O(n^2)-time / O(n)-space sweep over the buffers,
carry and kernel of a stream that holds the whole series, not its tiers
(see :mod:`mpstream.stream`).  Both share the same degenerate conventions
for zero-variance (flat) subsequences.

:func:`covariance_step`, :func:`correlation_scores` and
:func:`match_distance`, the stream's distance kernel (the brute force uses
none of it), run SCAMP's centred covariance recurrence (Zimmerman et al.,
"Matrix Profile XIV", SoCC 2019): the first advances the covariances of one
subsequence with every candidate to the next, the second scores every
candidate, the third turns the winner's score into its distance.

Apart from the buffers the kernel fills, everything here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "SENTINEL_INDEX",
    "TimeSeries",
    "RollingStats",
    "MatrixProfile",
    "default_exclusion_radius",
    "rolling_stats",
    "znorm_distance",
    "covariance_step",
    "correlation_scores",
    "match_distance",
    "matrix_profile_brute",
    "matrix_profile",
    "discords",
]

# Index stored when a subsequence has no valid neighbor; the paired distance
# is +inf.  Serialized as an empty CSV field.
SENTINEL_INDEX = -1

# The identity d^2 = 2m(1 - rho) loses absolute precision only where the
# distance is near zero; matches at least this correlated get their distance
# re-evaluated directly from the samples.
REFINE_RHO = 0.99


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar channel.

    All samples must be finite and the sample rate positive.
    """

    samples: np.ndarray
    sample_rate_hz: float = 1.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size < 1:
            raise ValueError("series must contain at least one sample")
        if not np.isfinite(samples).all():
            raise ValueError("samples must all be finite")
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def times_s(self) -> np.ndarray:
        """Sample timestamps in seconds."""
        return np.arange(self.samples.size) / self.sample_rate_hz


@dataclass(frozen=True)
class RollingStats:
    """Per-subsequence mean and population standard deviation."""

    means: np.ndarray
    stds: np.ndarray


@dataclass
class MatrixProfile:
    """Nearest-neighbor distance and index per subsequence.

    ``distances[i]`` is +inf and ``indices[i]`` is :data:`SENTINEL_INDEX`
    when subsequence ``i`` has no valid neighbor.
    """

    distances: np.ndarray
    indices: np.ndarray
    m: int

    def __len__(self) -> int:
        return self.distances.size


def _as_samples(series) -> np.ndarray:
    """Validated float64 samples of a TimeSeries or array-like."""
    return (series if isinstance(series, TimeSeries) else TimeSeries(series)).samples


def _validate_window(m: int, n: int) -> int:
    m = int(m)
    if m < 2:
        raise ValueError(f"window size must be >= 2, got {m}")
    if m > n:
        raise ValueError(f"window size {m} exceeds series length {n}")
    return m


def default_exclusion_radius(m: int) -> int:
    """Trivial-match exclusion radius used when none is given: ceil(m/4)."""
    return math.ceil(m / 4)


def _validate_radius(exclusion_radius: int | None, m: int) -> int:
    """The given trivial-match radius, or the default; must be >= 0."""
    r = default_exclusion_radius(m) if exclusion_radius is None else int(exclusion_radius)
    if r < 0:
        raise ValueError("exclusion radius must be >= 0")
    return r


def _constant_windows(x: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of windows whose samples are all bitwise equal."""
    changes = (x[1:] != x[:-1]).astype(np.int64)
    csum = np.concatenate(([0], np.cumsum(changes)))
    # Window i is constant iff no change point falls in [i, i+m-2].
    return (csum[m - 1:] - csum[:-(m - 1)]) == 0


def rolling_stats(series, m: int) -> RollingStats:
    """Mean and population std of every length-``m`` window, in O(n).

    Uses one cumulative-sum pass over the samples minus the first, so a
    large common offset (a 50 Hz level) cannot cancel the variance away.
    Negative variances from cancellation are clamped at zero, and
    exactly-constant windows are forced to zero std so the
    degenerate-distance conventions trigger reliably.
    """
    x = _as_samples(series)
    m = _validate_window(m, x.size)
    c = x - x[0]
    csum = np.concatenate(([0.0], np.cumsum(c)))
    csq = np.concatenate(([0.0], np.cumsum(c * c)))
    sums = csum[m:] - csum[:-m]
    sqsums = csq[m:] - csq[:-m]
    means = sums / m
    variances = sqsums / m - means * means
    np.maximum(variances, 0.0, out=variances)
    variances[_constant_windows(x, m)] = 0.0
    return RollingStats(means=means + x[0], stds=np.sqrt(variances))


def znorm_distance(a, b) -> float:
    """Z-normalized Euclidean distance between two equal-length subsequences.

    Degenerate convention: two flat (zero-variance) subsequences are
    identical (distance 0); a flat against a non-flat subsequence is
    maximally dissimilar (sqrt(2m)).  The result is clamped into
    [0, 2*sqrt(m)].
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise ValueError("subsequences must be one-dimensional and equal length")
    m = a.size
    if m < 2:
        raise ValueError("subsequences must have length >= 2")
    # _pair_distance counts bitwise-constant inputs as flat even when the
    # float mean is not exactly representable and std() leaves a residue.
    return _pair_distance(a, b, m)


def _znorm_windows(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """All windows z-normalized row-wise with two-pass statistics of their
    own; flat rows (all samples equal) become zero vectors."""
    windows = sliding_window_view(x, m)
    means = windows.mean(axis=1)
    stds = windows.std(axis=1)
    flat = (stds == 0.0) | (np.ptp(windows, axis=1) == 0.0)
    denom = np.where(flat, 1.0, stds)
    z = (windows - means[:, None]) / denom[:, None]
    z[flat] = 0.0
    return z, flat


def _pair_distance(a: np.ndarray, b: np.ndarray, m: int) -> float:
    """Distance between two windows computed directly from their samples."""
    sa = a.std()
    sb = b.std()
    flat_a = sa == 0.0 or np.ptp(a) == 0.0
    flat_b = sb == 0.0 or np.ptp(b) == 0.0
    if flat_a and flat_b:
        return 0.0
    if flat_a or flat_b:
        return math.sqrt(2.0 * m)
    z = (a - a.mean()) / sa - (b - b.mean()) / sb
    d2 = float(np.dot(z, z))
    return math.sqrt(min(max(d2, 0.0), 4.0 * m))


def covariance_step(prev, df, dg, df_i, dg_i, out, t1):
    """Centred covariances of subsequence ``i`` from those of ``i - 1``.

    ``prev[j]`` is the covariance of subsequence ``i - 1`` with candidate
    ``j - 1``, ``sum_k (x[i-1+k] - mu_{i-1}) * (x[j-1+k] - mu_{j-1})``;
    ``out[j]`` receives that of ``i`` with ``j``:
    ``prev[j] + df_i * dg[j] + dg_i * df[j]``, where a subsequence ``j``
    caches ``df[j] = (x[j+m-1] - x[j-1]) / 2`` and
    ``dg[j] = (x[j+m-1] - mu_j) + (x[j-1] - mu_{j-1})``.  ``out`` may
    overlap ``prev`` (the stream shifts one buffer by one): ``prev`` goes
    into the scratch ``t1``, of the same length, before ``out`` is written.
    """
    np.multiply(dg, df_i, out=t1)
    np.add(t1, prev, out=t1)
    np.multiply(df, dg_i, out=out)
    return np.add(t1, out, out=out)


def correlation_scores(cov, isig, inv_stds, out):
    """Scores of every candidate against one subsequence; the nearest
    neighbor is their argmax.

    ``cov[j]`` is the centred covariance of the subsequence with candidate
    ``j`` (see :func:`covariance_step`), ``isig`` the subsequence's cached
    ``1/std`` and ``inv_stds[j]`` the candidate's; a flat subsequence
    caches 0.  For a non-flat subsequence ``out[j]`` is ``m * std`` times
    the Pearson correlation, so a flat candidate scores 0 (uncorrelated)
    without any mask.  A flat subsequence scores 1 against flat candidates
    (distance 0) and 0 against the rest (sqrt(2m)).
    """
    if isig == 0.0:
        return np.equal(inv_stds, 0.0, out=out)
    return np.multiply(cov, inv_stds, out=out)


def match_distance(x: np.ndarray, m: int, i: int, j: int, score: float,
                   isig: float) -> float:
    """Distance between subsequences ``i`` and ``j`` of ``x``, where
    ``score`` is what :func:`correlation_scores` gave ``j`` against ``i``
    and ``isig`` is ``1/std`` of ``i`` (0 when flat).

    The correlation is ``score * isig / m``, or ``score`` itself for a flat
    ``i``.  The identity ``d^2 = 2m(1 - rho)`` loses absolute precision
    near zero, so matches correlated at least :data:`REFINE_RHO` (a rounded
    correlation above 1 included) are re-evaluated directly from the
    samples: every reported profile value then reproduces from its neighbor
    via :func:`znorm_distance` to 1e-9, even on exact repeats.
    """
    rho = float(score) * isig / m if isig else float(score)
    two_m = 2.0 * m
    d2 = two_m * (1.0 - rho)
    if d2 <= (1.0 - REFINE_RHO) * two_m:
        return _pair_distance(x[i:i + m], x[j:j + m], m)
    return math.sqrt(min(d2, 4.0 * m))


def _match_distances(x, m, i, j, score, isig):
    """:func:`match_distance` of every pair ``(i[k], j[k])`` in its operation
    order, so bitwise equal; ``i`` may be a ``range``.  The root is taken only
    above the refine cut."""
    d2 = np.multiply(score, isig)
    d2 /= m
    np.copyto(d2, score, where=isig == 0.0)
    np.subtract(1.0, d2, out=d2)
    d2 *= 2.0 * m
    refine = d2 <= (1.0 - REFINE_RHO) * (2.0 * m)
    np.minimum(d2, 4.0 * m, out=d2)
    np.sqrt(d2, out=d2, where=~refine)
    for k in refine.nonzero()[0].tolist():
        d2[k] = _pair_distance(x[i[k]:i[k] + m], x[j[k]:j[k] + m], m)
    return d2


def matrix_profile_brute(series, m: int, exclusion_radius: int | None = None) -> MatrixProfile:
    """All-pairs reference Matrix Profile.

    For every subsequence the distance to each other subsequence outside the
    exclusion zone is evaluated directly on explicitly normalized windows;
    the minimum (ties to the lowest index) becomes the profile entry.  Serves
    as the correctness oracle for :func:`matrix_profile` and shares neither
    its window statistics nor its correlation kernel.
    """
    x = _as_samples(series)
    m = _validate_window(m, x.size)
    r = _validate_radius(exclusion_radius, m)
    p = x.size - m + 1

    rows, flat = _znorm_windows(x, m)
    sqnorms = np.einsum("ij,ij->i", rows, rows)

    distances = np.full(p, np.inf)
    indices = np.full(p, SENTINEL_INDEX, dtype=np.int64)
    d2 = np.empty(p)
    for i in range(p):
        np.matmul(rows, rows[i], out=d2)
        d2 *= -2.0
        d2 += sqnorms
        d2 += sqnorms[i]
        if flat[i]:
            d2[:] = 2.0 * m
            d2[flat] = 0.0
        else:
            d2[flat] = 2.0 * m
        np.clip(d2, 0.0, 4.0 * m, out=d2)
        lo = max(0, i - r)
        hi = min(p, i + r + 1)
        d2[lo:hi] = np.inf
        j = int(np.argmin(d2))
        if np.isfinite(d2[j]):
            # The reference path always re-evaluates the winner directly.
            distances[i] = _pair_distance(x[i:i + m], x[j:j + m], m)
            indices[i] = j
    return MatrixProfile(distances=distances, indices=indices, m=m)


def matrix_profile(series, m: int, exclusion_radius: int | None = None) -> MatrixProfile:
    """Matrix Profile in O(n^2) time and O(n) auxiliary space.

    Equivalent to :func:`matrix_profile_brute` within 1e-6 per element
    (indices up to distance ties).  It sweeps the buffers, carry and kernel
    of a :class:`~mpstream.stream.StreamingProfile` that holds the whole
    series, without the tiers of its appends.

    Parameters
    ----------
    series : TimeSeries or array-like
        Input samples.
    m : int
        Subsequence length, ``2 <= m <= len(series)``.
    exclusion_radius : int, optional
        Trivial-match half-width; defaults to ``ceil(m/4)``.
    """
    x = _as_samples(series)
    m = _validate_window(m, x.size)
    r = _validate_radius(exclusion_radius, m)
    p = x.size - m + 1
    if r >= p - 1:  # every pair is a trivial match
        return MatrixProfile(distances=np.full(p, np.inf),
                             indices=np.full(p, SENTINEL_INDEX, dtype=np.int64), m=m)
    from mpstream.stream import StreamingProfile  # stream imports this module

    return StreamingProfile(m, max(x.size, 2 * m), r)._sweep(x)


def discords(profile: MatrixProfile, k: int, exclusion_radius: int | None = None) -> list[tuple[int, float]]:
    """Top-``k`` discord positions in decreasing profile-distance order.

    Each selected position is at least ``exclusion_radius + 1`` away from
    every previously selected one; sentinel entries are never returned.  Ties
    break toward the lowest index.  Fewer than ``k`` valid discords yield a
    shorter list.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    r = _validate_radius(exclusion_radius, profile.m)
    d = profile.distances
    order = np.argsort(-d, kind="stable")
    picked: list[tuple[int, float]] = []
    for idx in order:
        if not np.isfinite(d[idx]):
            continue
        if any(abs(int(idx) - pos) <= r for pos, _ in picked):
            continue
        picked.append((int(idx), float(d[idx])))
        if len(picked) == k:
            break
    return picked

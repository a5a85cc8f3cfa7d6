import functools
import math
import os
import time

import numpy as np
import pytest

import mpstream.core as core
from mpstream.core import (
    REFINE_RHO,
    SENTINEL_INDEX,
    TimeSeries,
    _match_distances,
    _pair_distance,
    correlation_scores,
    covariance_step,
    default_exclusion_radius,
    discords,
    match_distance,
    matrix_profile,
    matrix_profile_brute,
    rolling_stats,
    znorm_distance,
)

from mpstream.generate import GeneratorConfig, four_fault_dataset
from mpstream.stream import StreamingProfile

from oracles import (
    naive_left_profile,
    naive_matrix_profile,
    naive_rolling_stats,
    naive_znorm_distance,
    numpy_pair_distance,
    profile_at,
    stream_sweep_profile,
    windowed_left_profile,
)

rng = np.random.default_rng


@functools.cache
def default_channel(noise_std=None):
    """The default four-fault channel: a 50 Hz level, a flat sensor-fault
    plateau near sample 40000, and 100000 samples; regenerated with another
    ``noise_std`` when one is given."""
    config = None if noise_std is None else GeneratorConfig(noise_std=noise_std)
    return four_fault_dataset(config).channel.samples


def stream_trace(x, m, capacity, radius=None):
    """Profile value emitted on each sample, None while warming up."""
    sp = StreamingProfile(m, capacity=capacity, exclusion_radius=radius)
    return [None if (res := sp.append(v)) is None else res[0] for v in x]


def stream_error(x, m, capacity, positions, radius=None):
    """Largest stream-vs-oracle difference over subsequence ``positions``."""
    trace = stream_trace(x, m, capacity, radius)
    r = default_exclusion_radius(m) if radius is None else radius
    want = windowed_left_profile(x, m, r, capacity, positions)
    got = np.array([trace[i + m - 1] for i in positions])
    return np.abs(got - want).max()


class TestTimeSeries:
    def test_validates_finite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.nan]), 1.0)
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.inf]), 1.0)

    def test_validates_rate_and_length(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            TimeSeries(np.array([]), 1.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            TimeSeries(np.zeros((2, 2)), 1.0)

    def test_times(self):
        ts = TimeSeries(np.zeros(4), 2.0)
        assert np.array_equal(ts.times_s, [0.0, 0.5, 1.0, 1.5])


class TestRollingStats:
    def test_constant_signal(self):
        st = rolling_stats([1, 1, 1, 1], 2)
        assert np.array_equal(st.means, [1, 1, 1])
        assert np.array_equal(st.stds, [0, 0, 0])

    def test_two_point_windows(self):
        st = rolling_stats([0, 2, 0, 2], 2)
        assert np.array_equal(st.means, [1, 1, 1])
        assert np.array_equal(st.stds, [1, 1, 1])

    def test_ramp_against_naive(self):
        st = rolling_stats([0, 1, 2, 3, 4], 3)
        means, stds = naive_rolling_stats([0, 1, 2, 3, 4], 3)
        assert np.allclose(st.means, means, atol=1e-12)
        assert np.allclose(st.stds, stds, atol=1e-12)
        assert np.allclose(st.stds, math.sqrt(2.0 / 3.0), atol=1e-12)

    def test_window_larger_than_series(self):
        with pytest.raises(ValueError):
            rolling_stats([1, 2, 3], 4)

    def test_cancellation_clamps_to_zero(self):
        # Large offset makes naive cumsum variance go slightly negative.
        x = np.full(64, 1e8)
        st = rolling_stats(x, 8)
        assert (st.stds >= 0).all()
        assert np.array_equal(st.stds, np.zeros(57))

    def test_random_against_naive(self):
        x = rng(7).normal(size=200)
        st = rolling_stats(x, 16)
        means, stds = naive_rolling_stats(list(x), 16)
        assert np.allclose(st.means, means, atol=1e-10)
        assert np.allclose(st.stds, stds, atol=1e-10)


class TestZnormDistance:
    def test_identity(self):
        assert znorm_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_scale_invariance(self):
        assert znorm_distance([1, 2, 3], [10, 20, 30]) == pytest.approx(0.0, abs=1e-9)

    def test_anticorrelated_saturates_bound(self):
        # Exact: z-scores are +-1, so d = sqrt(16) = 2*sqrt(m).
        assert znorm_distance([0, 1, 0, 1], [1, 0, 1, 0]) == 4.0

    def test_degenerate_conventions(self):
        m = 5
        assert znorm_distance([3] * m, [7] * m) == 0.0
        assert znorm_distance([3] * m, [1, 2, 3, 4, 5]) == math.sqrt(2 * m)
        assert znorm_distance([1, 2, 3, 4, 5], [3] * m) == math.sqrt(2 * m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            znorm_distance([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            znorm_distance([1], [2])

    def test_randomized_properties(self):
        # Scale/offset invariance, symmetry, bound, naive agreement.
        r = rng(11)
        for _ in range(300):
            m = int(r.integers(2, 40))
            a = r.normal(size=m) * r.uniform(0.5, 5)
            b = r.normal(size=m) * r.uniform(0.5, 5)
            d = znorm_distance(a, b)
            assert 0.0 <= d <= 2.0 * math.sqrt(m)
            assert d == znorm_distance(b, a)
            alpha = r.uniform(0.1, 50)
            beta = r.uniform(-100, 100)
            assert znorm_distance(alpha * a + beta, b) == pytest.approx(d, abs=1e-9)
            assert znorm_distance(a, alpha * b + beta) == pytest.approx(d, abs=1e-9)
            assert d == pytest.approx(naive_znorm_distance(list(a), list(b)), abs=1e-9)

    def test_centred_once_equals_numpy_statistics(self):
        # _pair_distance centres each window once; numpy's std, ptp and mean
        # of each must give the same bits, flat decisions included.  Windows
        # are random, offset by 1e6, near-constant (a few ulps apart) or
        # flat, whose float mean often leaves a std residue; m reaches past
        # numpy's 8-wide and 128-wide pairwise summation blocks.
        r = rng(12)

        def window(m, kind):
            v = float(r.normal()) * 10.0
            if kind == 0:
                return r.normal(size=m)
            if kind == 1:
                return r.normal(size=m) + 1e6
            if kind == 2:
                return v + r.integers(0, 3, size=m) * np.spacing(v)
            return np.full(m, v)

        residues = 0
        for _ in range(4000):
            m = int(r.integers(2, 300))
            a, b = window(m, r.integers(4)), window(m, r.integers(4))
            assert _pair_distance(a, b, m).hex() == numpy_pair_distance(a, b, m).hex()
            residues += np.ptp(a) == 0.0 and a.std() != 0.0
        assert residues > 50


class TestCorrelationKernel:
    """The shared kernel against the direct distance, on a DC-offset channel
    whose windows mix two flat plateaus at different levels with noise."""

    M = 8

    @classmethod
    def channel(cls):
        r = rng(17)
        return 50.0 + np.concatenate([r.normal(size=40), np.zeros(12),
                                      r.normal(size=30), np.full(12, 0.25),
                                      r.normal(size=30)])

    @classmethod
    def window_stats(cls, x):
        # Two-pass statistics, independent of rolling_stats, and the
        # centred covariances of every pair of windows.
        w = np.lib.stride_tricks.sliding_window_view(x, cls.M)
        flat = np.ptp(w, axis=1) == 0.0
        stds = np.where(flat, 0.0, w.std(axis=1))
        inv = np.where(flat, 0.0, 1.0 / np.where(flat, 1.0, stds))
        centred = w - w.mean(axis=1, keepdims=True)
        return w, stds, flat, inv, centred @ centred.T

    def test_all_flat_pairings_match_znorm_distance(self):
        m = self.M
        x = self.channel()
        w, stds, flat, inv, cov = self.window_stats(x)
        p = stds.size
        score = np.empty(p)
        seen = set()
        for i in range(p):
            with np.errstate(all="raise"):  # flat pairs never divide by 0
                correlation_scores(cov[i], inv[i], inv, score)
                d = np.array([match_distance(x, m, i, j, score[j], inv[i])
                              for j in range(p)])
            for j in range(p):
                seen.add((bool(flat[i]), bool(flat[j])))
                direct = znorm_distance(w[i], w[j])
                if flat[i] and flat[j]:
                    assert d[j] == 0.0 and direct == 0.0 and score[j] == 1.0
                elif flat[i] or flat[j]:
                    assert d[j] == direct == math.sqrt(2.0 * m)
                    assert score[j] == 0.0
                else:
                    assert d[j] ** 2 == pytest.approx(direct ** 2, abs=1e-8), (i, j)
                    assert d[j] == pytest.approx(direct, abs=1e-8), (i, j)
                    # The score is the correlation scaled by m * sigma_i.
                    rho = 1.0 - direct ** 2 / (2.0 * m)
                    assert score[j] / (m * stds[i]) == pytest.approx(rho, abs=1e-8)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_argmax_of_scores_is_the_nearest_neighbor(self):
        # Flat candidates need no mask: the zero caches alone keep them from
        # winning against a correlated non-flat candidate, and a flat query
        # finds a flat candidate.
        m, r = self.M, 2
        x = self.channel()
        w, stds, flat, inv, cov = self.window_stats(x)
        p = stds.size
        score = np.empty(p)
        for i in range(p):
            correlation_scores(cov[i], inv[i], inv, score)
            score[max(0, i - r):i + r + 1] = -np.inf
            j = int(score.argmax())
            direct = [znorm_distance(w[i], w[k]) if abs(i - k) > r else np.inf
                      for k in range(p)]
            assert direct[j] == pytest.approx(min(direct), abs=1e-8), (i, j)

    def test_covariance_recurrence_along_long_diagonals(self):
        # Rows advanced from row 0 by covariance_step, as the batch profile
        # does, against centred dot products computed directly: entry (i, j)
        # has run i steps down its diagonal.  The grid slice holds the
        # -2 Hz level shift.
        m = 64
        x = default_channel()[79000:81500]
        w = np.lib.stride_tricks.sliding_window_view(x, m)
        mu = w.mean(axis=1)
        centred = w - mu[:, None]
        p = mu.size
        df = np.zeros(p)
        dg = np.zeros(p)
        df[1:] = 0.5 * (x[m:] - x[:p - 1])
        dg[1:] = (x[m:] - mu[1:]) + (x[:p - 1] - mu[:-1])
        scale = m * w.std(axis=1)
        row = centred @ centred[0]
        t1 = np.empty(p - 1)
        worst = 0.0
        for i in range(1, p):
            covariance_step(row[:-1], df[1:], dg[1:], df[i], dg[i], row[1:], t1)
            row[0] = centred[0] @ centred[i]
            if i % 100 == 0 or i == p - 1:
                direct = centred @ centred[i]
                # Relative to m * sigma_i * sigma_j: an error in the correlation.
                worst = max(worst, (np.abs(row - direct) / (scale * scale[i])).max())
        assert worst <= 1e-11

    def test_match_distance_refines_at_and_below_the_cut(self):
        m = 16
        x = rng(18).normal(size=64)
        i, j = 0, 40
        direct = znorm_distance(x[i:i + m], x[j:j + m])
        cut = math.sqrt(2.0 * m * (1.0 - REFINE_RHO))
        assert abs(direct - cut) > 0.1  # the two answers are distinguishable
        # The correlation is score * isig / m (exact here: m is a power of
        # two), or the score itself when the query is flat (isig == 0).
        for isig, scale in ((0.25, 4.0 * m), (0.0, 1.0)):
            for rho in (REFINE_RHO, 0.995, 1.0, 1.0 + 1e-12):
                assert match_distance(x, m, i, j, rho * scale, isig) == direct
            for rho in (float(np.nextafter(REFINE_RHO, 0.0)), 0.5, -1.0):
                assert (match_distance(x, m, i, j, rho * scale, isig)
                        == math.sqrt(2.0 * m * (1.0 - rho)))
            # A rounded correlation below -1 is clipped to the maximum distance.
            assert match_distance(x, m, i, j, -1.5 * scale, isig) == 2.0 * math.sqrt(m)


    def test_vectorised_distances_equal_match_distance(self):
        # _match_distances against match_distance, element by element: flat
        # queries scoring 0 and 1, correlations at and above the cut, a
        # rounded one above 1 and one below -1, and far pairs.  m is not a
        # power of two, so a reordered division shows; a root taken below
        # the cut would warn (an error here) on the correlations above 1.
        m, n = 12, 600
        x = self.channel()
        w = np.lib.stride_tricks.sliding_window_view(x, m)
        r = rng(19)
        i, j = r.integers(0, w.shape[0], size=(2, n))
        isig = 1.0 / np.maximum(w[i].std(axis=1), 1e-3)
        rhos = (REFINE_RHO, 0.995, 1.0, 1.0 + 1e-12, 1.5,
                float(np.nextafter(REFINE_RHO, 0.0)), 0.5, 0.0, -1.0, -1.5)
        score = r.choice(rhos, size=n) * m / isig
        flat = np.arange(n) % 5 == 0
        isig[flat] = 0.0
        score[flat] = np.arange(flat.sum()) % 2
        got = _match_distances(x, m, i, j, score, isig)
        want = [match_distance(x, m, *args) for args in
                zip(i.tolist(), j.tolist(), score.tolist(), isig.tolist())]
        assert got.tolist() == want
        rho = np.where(flat, score, score * isig / m)
        assert (rho >= REFINE_RHO).sum() > 100 and (rho > 1.0).any()
        assert (rho < REFINE_RHO).sum() > 100

SPIKE_SERIES = [0, 1, 0, 1, 0, 1, 0, 8, 0, 1, 0, 1]


class TestBruteProfile:
    def test_exact_periodicity(self):
        mp = matrix_profile_brute([0, 1, 0, 1, 0, 1, 0, 1], 4, exclusion_radius=1)
        assert np.allclose(mp.distances, 0.0, atol=1e-9)

    def test_single_subsequence_sentinel(self):
        mp = matrix_profile_brute([1, 2, 3, 4], 4, exclusion_radius=0)
        assert mp.distances.tolist() == [np.inf]
        assert mp.indices.tolist() == [SENTINEL_INDEX]

    def test_spike_discord(self):
        mp = matrix_profile_brute(SPIKE_SERIES, 4, exclusion_radius=1)
        # The most anomalous window must overlap the spike at index 7.
        top = int(np.argmax(mp.distances))
        assert 4 <= top <= 7

    def test_matches_naive(self):
        x = rng(5).normal(size=80)
        for m, r in [(4, 0), (6, 2), (10, 3)]:
            mp = matrix_profile_brute(x, m, exclusion_radius=r)
            nd, ni = naive_matrix_profile(list(x), m, r)
            assert np.allclose(mp.distances, nd, atol=1e-9)
            assert np.array_equal(mp.indices, ni)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            matrix_profile_brute([1, 2, 3], 1)
        with pytest.raises(ValueError):
            matrix_profile_brute([1, 2, 3], 5)


class TestBatchProfile:
    def test_equivalent_to_brute_on_examples(self):
        for series, m, r in [
            ([0, 1, 0, 1, 0, 1, 0, 1], 4, 1),
            (SPIKE_SERIES, 4, 1),
            (list(rng(1).normal(size=100)), 8, 2),
        ]:
            brute = matrix_profile_brute(series, m, exclusion_radius=r)
            fast = matrix_profile(series, m, exclusion_radius=r)
            assert np.allclose(fast.distances, brute.distances, atol=1e-6)

    def test_white_noise_equivalence(self):
        x = rng(42).normal(size=512)
        brute = matrix_profile_brute(x, 16)
        fast = matrix_profile(x, 16)
        assert np.abs(fast.distances - brute.distances).max() <= 1e-6

    def test_constant_series_all_zero(self):
        mp = matrix_profile(np.full(32, 2.5), 4)
        assert np.array_equal(mp.distances, np.zeros(29))

    def test_flat_regions_match_brute(self):
        # Mixed flat/non-flat windows exercise both degenerate conventions.
        x = np.concatenate([rng(2).normal(size=40), np.full(20, 1.0),
                            rng(3).normal(size=40)])
        brute = matrix_profile_brute(x, 8, exclusion_radius=2)
        fast = matrix_profile(x, 8, exclusion_radius=2)
        assert np.allclose(fast.distances, brute.distances, atol=1e-6)

    def test_self_consistency(self):
        # Profile entries are reproducible from their reported neighbor.
        x = rng(8).normal(size=300)
        mp = matrix_profile(x, 12)
        for i in range(0, len(mp), 17):
            j = mp.indices[i]
            if j == SENTINEL_INDEX:
                continue
            d = znorm_distance(x[i:i + 12], x[j:j + 12])
            assert d == pytest.approx(mp.distances[i], abs=1e-9)

    def test_exclusion_respected(self):
        x = rng(9).normal(size=200)
        for r in [0, 1, 5]:
            mp = matrix_profile(x, 8, exclusion_radius=r)
            valid = mp.indices != SENTINEL_INDEX
            gaps = np.abs(np.flatnonzero(valid) - mp.indices[valid])
            assert (gaps > r).all()

    def test_bound(self):
        x = rng(10).normal(size=400)
        mp = matrix_profile(x, 16)
        finite = np.isfinite(mp.distances)
        assert (mp.distances[finite] >= 0).all()
        assert (mp.distances[finite] <= 2 * math.sqrt(16)).all()

    def test_default_exclusion_radius(self):
        assert default_exclusion_radius(64) == 16
        assert default_exclusion_radius(5) == 2
        assert default_exclusion_radius(4) == 1

    @staticmethod
    def assert_equals_brute(x, m, r):
        brute = matrix_profile_brute(x, m, exclusion_radius=r)
        fast = matrix_profile(x, m, exclusion_radius=r)
        assert np.array_equal(fast.indices, brute.indices)
        assert np.array_equal(np.isfinite(fast.distances), np.isfinite(brute.distances))
        finite = np.isfinite(brute.distances)
        assert np.abs(fast.distances[finite] - brute.distances[finite]).max(initial=0.0) <= 1e-9
        return fast

    def test_shorter_than_two_windows(self):
        # One subsequence, then m <= n < 2m: the stream holds 2m samples.
        x = rng(11).normal(size=31)
        for n, r in [(16, 0), (20, 0), (24, 1), (31, 3), (31, 12)]:
            self.assert_equals_brute(x[:n], 16, r)

    def test_radius_at_and_past_the_last_pair(self):
        # p - 2 leaves the single pair (0, p - 1); from p - 1 on every pair
        # is trivial, and nothing is sized by the radius: a buffer of
        # m + r + 1 samples would take about 16 TB at r = 10**12.
        x = rng(12).normal(size=60)
        m = 8
        p = x.size - m + 1
        mp = self.assert_equals_brute(x, m, p - 2)
        assert mp.indices.tolist() == [p - 1] + [SENTINEL_INDEX] * (p - 2) + [0]
        for r in (p - 1, 10**12):
            mp = matrix_profile(x, m, exclusion_radius=r)
            assert mp.indices.tolist() == [SENTINEL_INDEX] * p
            assert np.isposinf(mp.distances).all()

    def test_ties_go_to_the_lowest_index(self):
        # Integer samples whose window means are exact: every repeat of a
        # window scores exactly alike, so the first period's subsequences
        # must pick their earliest later repeat.
        mp = self.assert_equals_brute(np.tile([0.0, 1.0, 3.0, 1.0], 8), 4, 1)
        assert mp.indices[:4].tolist() == [4, 5, 6, 7]

    def test_flat_runs_at_both_ends(self):
        # Flat subsequences at the start have flat later neighbors only;
        # those at the end have flat earlier ones only, or none at all.
        noise = rng(13).normal(size=60)
        flat = np.full(20, 0.25)
        for x in (np.concatenate([flat, noise]), np.concatenate([noise, flat]),
                  np.concatenate([flat, noise, flat + 1.0])):
            for r in (0, 2, 12):
                self.assert_equals_brute(x, 8, r)



def sweep_series(n, m, seed):
    """A random walk under a 25-sample sine, with two exact plateaus."""
    r = rng(seed)
    x = np.cumsum(r.normal(size=n)) * 0.1 + np.sin(2 * np.pi * np.arange(n) / 25)
    x[n // 4:n // 4 + 3 * m] = x[n // 4]
    x[n // 2:n // 2 + 2 * m] = 1.5
    return x


# The band counts every identity case runs at.  Bands fork workers only where
# matrix_profile would fork them.
BANDS = (1, 2, 3, 4) if core._FORKS else (1,)
forks = pytest.mark.skipif(not core._FORKS, reason="workers are forked only on Linux "
                           "before CPython 3.12")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestSweepIdentity:
    """The batch sweep against the stream swept through append, which it
    replaces: distances and indices must be bitwise equal at every band
    count, and with bands cut at and next to resync rows."""

    @staticmethod
    def assert_same(monkeypatch, x, m, r, counts=BANDS):
        distances, indices = stream_sweep_profile(x, m, r)
        for k in counts:
            monkeypatch.setattr(core, "_band_count", lambda p: k)
            mp = matrix_profile(x, m, exclusion_radius=r)
            assert mp.distances.tobytes() == distances.tobytes(), k
            assert mp.indices.tobytes() == indices.tobytes(), k

    # Around 8192 the sweep's one resync falls on the last row (8191,
    # 8192) or before it (8300); 17000 resyncs twice.
    @pytest.mark.parametrize("n, m, r, offset", [
        (40, 8, 0, 0.0), (40, 8, 4, 1e6), (97, 8, 2, 0.0), (300, 16, 16, 0.0),
        (300, 16, 3, 1e6), (1000, 32, 8, 0.0), (1000, 32, 0, 0.0),
        (2500, 64, 16, 50.0), (2000, 12, 3, 0.0), (8191, 64, 16, 0.0),
        (8192, 64, 16, 0.0), (8192, 64, 16, 1e6), (8300, 64, 16, 0.0),
        (17000, 64, 16, 0.0)])
    def test_synthetic(self, monkeypatch, n, m, r, offset):
        self.assert_same(monkeypatch, sweep_series(n, m, n + m + r) + offset, m, r)

    def test_exactly_periodic(self, monkeypatch):
        # Exact repeats tie, and near duplicates take the refine branch.
        t = np.arange(1200)
        self.assert_same(monkeypatch, np.sin(2 * np.pi * t / 25), 8, 2)
        self.assert_same(monkeypatch, np.tile([0.0, 1.0, 3.0, 1.0, 2.0], 200), 10, 3)

    @pytest.mark.parametrize("seed", [1, 4242])
    def test_benchmark_slice(self, monkeypatch, seed):
        # The batch benchmark's slice: 20000 samples around the plateau.
        x = four_fault_dataset(GeneratorConfig(seed=seed)).channel.samples
        self.assert_same(monkeypatch, x[30000:50000], 64, 16)

    def test_sensor_plateau(self, monkeypatch):
        self.assert_same(monkeypatch, default_channel()[35000:45000], 64, 16)

    # A band cut on a resync row (8192 - m) carries nothing unscored; one a
    # row later carries that row.  17000 samples resync twice.
    @forks
    @pytest.mark.parametrize("n, inner", [
        (8300, [8128]), (8300, [8129]), (17000, [8128, 16320]), (17000, [8129, 16321])])
    def test_cuts_at_and_after_resync_rows(self, monkeypatch, n, inner):
        m, r = 64, 16
        monkeypatch.setattr(core, "_band_cuts", lambda p, *_: [0, *inner, p])
        self.assert_same(monkeypatch, sweep_series(n, m, n + m + r), m, r, counts=[len(inner) + 1])

    @forks
    def test_more_bands_than_rows(self, monkeypatch):
        # 12 samples at m = 8 are 5 rows: one band each.
        assert core._band_cuts(5, 8, 12, 8) == [0, 1, 2, 3, 4, 5]
        self.assert_same(monkeypatch, sweep_series(12, 8, 3), 8, 1, counts=[8])

    def test_cuts(self):
        # Strictly increasing from 0 to p, at most one band per row, and a
        # band starting past a resync row pays for the rows it carries.
        for p, bands in ((2, 2), (100, 3), (19937, 2), (19937, 5), (99937, 4)):
            cuts = core._band_cuts(p, 64, 8192, bands)
            assert cuts[0] == 0 and cuts[-1] == p and len(cuts) <= bands + 1
            assert all(a < b for a, b in zip(cuts, cuts[1:]))
        low, high = core._band_cuts(19937, 64, 8192, 2), core._band_cuts(19937, 64, 10**9, 2)
        assert high[1] - 8128 > low[1] - 8128 > 0


class TestBandWorkers:
    """matrix_profile's forked workers: none outlives it, a failed one fails
    it, and the calling thread's CPU mask is back as it was."""

    x = sweep_series(6000, 32, 7)

    @forks
    def test_no_child_left(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(core, "_band_count", lambda p: 3)
        assert matrix_profile(self.x, 32).distances.size == 5969
        assert no_child_left() and os.sched_getaffinity(0) == mask

    @forks
    @pytest.mark.parametrize("where, error", [("worker", RuntimeError),
                                              ("parent", KeyboardInterrupt)])
    def test_a_failed_band_fails_the_profile(self, monkeypatch, capfd, where, error):
        # A worker that raises exits nonzero, and the parent raises.  A
        # parent interrupted in its own band kills its workers, here still
        # asleep, and reaps them.
        mask = os.sched_getaffinity(0)
        band = StreamingProfile._band

        def failing(self, const, r0, *args):
            if where == "worker" and r0:
                raise ValueError("band")
            if where == "parent":
                if not r0:
                    raise KeyboardInterrupt
                time.sleep(60)
            return band(self, const, r0, *args)

        monkeypatch.setattr(core, "_band_count", lambda p: 3)
        monkeypatch.setattr(StreamingProfile, "_band", failing)
        t = time.monotonic()
        with pytest.raises(error):
            matrix_profile(self.x, 32)
        assert time.monotonic() - t < 30
        assert no_child_left() and os.sched_getaffinity(0) == mask
        if where == "worker":
            assert "ValueError: band" in capfd.readouterr().err


class TestDiscords:
    def test_argmax(self):
        from mpstream.core import MatrixProfile
        p = MatrixProfile(np.array([1.0, 5.0, 2.0]), np.zeros(3, dtype=np.int64), 4)
        assert discords(p, 1, exclusion_radius=0) == [(1, 5.0)]

    def test_tie_breaks_to_lowest_index(self):
        from mpstream.core import MatrixProfile
        p = MatrixProfile(np.array([5.0, 5.0, 1.0]), np.zeros(3, dtype=np.int64), 4)
        assert discords(p, 1, exclusion_radius=0) == [(0, 5.0)]

    def test_spike_series_discord(self):
        mp = matrix_profile_brute(SPIKE_SERIES, 4, exclusion_radius=1)
        (pos, _), = discords(mp, 1, exclusion_radius=1)
        assert 4 <= pos <= 7

    def test_spacing_and_short_lists(self):
        from mpstream.core import MatrixProfile
        d = np.array([9.0, 8.0, 7.0, 1.0, np.inf])
        idx = np.zeros(5, dtype=np.int64)
        p = MatrixProfile(d, idx, 4)
        got = discords(p, 4, exclusion_radius=1)
        # 1 and 2 fall inside the zones of earlier picks; inf never selected.
        assert got == [(0, 9.0), (2, 7.0)]
        with pytest.raises(ValueError, match="k must be >= 1"):
            discords(p, 0, exclusion_radius=1)


class TestStructuredSignals:
    """Differential tests on structured inputs: exact repeats, flats, ramps,
    and heavy tails stress the degenerate conventions and the near-zero
    precision of the dot-product identity."""

    @staticmethod
    def signals(r, n, kind):
        t = np.arange(n)
        if kind == 0:
            return np.sin(2 * np.pi * t / 25) + 0.01 * r.normal(size=n)
        if kind == 1:  # flat / ramp / flat
            return np.concatenate([np.zeros(n // 3),
                                   np.linspace(0, 5, n - 2 * (n // 3)),
                                   np.full(n // 3, 5.0)]) + 1e-3 * r.normal(size=n)
        if kind == 2:  # staircase: exact-duplicate windows at step lags
            return np.repeat(r.normal(size=n // 10 + 1), 10)[:n]
        if kind == 3:  # square wave with exact flat tops
            return np.sign(np.sin(2 * np.pi * t / 40)) * 2.0
        if kind == 4:  # pure ramp: every window identical after z-norm
            return t.astype(float)
        return r.standard_cauchy(n)  # heavy tails

    def test_batch_matches_brute(self):
        # 1e-5: the incremental covariance recurrence drifts on
        # heavy-tailed magnitudes; near-duplicate minima are refined
        # directly and agree much tighter.
        r = rng(31337)
        for trial in range(36):
            kind = trial % 6
            n = int(r.integers(80, 500))
            m = int(r.integers(4, 48))
            ez = int(r.integers(0, m))
            x = self.signals(r, n, kind)
            brute = matrix_profile_brute(x, m, exclusion_radius=ez)
            fast = matrix_profile(x, m, exclusion_radius=ez)
            finite = np.isfinite(brute.distances)
            assert np.array_equal(finite, np.isfinite(fast.distances))
            if finite.any():
                err = np.abs(fast.distances[finite] - brute.distances[finite]).max()
                assert err <= 1e-5, (kind, n, m, ez, err)

    def test_self_consistency_on_exact_repeats(self):
        # Reported values reproduce from the reported neighbor even where
        # the true distance is exactly zero.
        r = rng(404)
        x = np.repeat(r.normal(size=40), 8)  # staircase, lots of duplicates
        mp = matrix_profile(x, 8, exclusion_radius=2)
        for i in range(0, len(mp), 5):
            j = mp.indices[i]
            if j == SENTINEL_INDEX:
                continue
            d = znorm_distance(x[i:i + 8], x[j:j + 8])
            assert abs(d - mp.distances[i]) <= 1e-9, i

    def test_stream_self_consistency_on_exact_repeats(self):
        # The stream's argmax picks among exactly tied neighbors too: every
        # emitted value reproduces from its neighbor, which lies outside
        # the exclusion zone.
        r = rng(405)
        m, radius = 8, 2
        t = np.arange(600)
        for x in (np.repeat(r.normal(size=75), 8),      # staircase
                  np.sin(2 * np.pi * t / 25)):           # exactly periodic
            sp = StreamingProfile(m, capacity=256, exclusion_radius=radius)
            emitted = 0
            for k, v in enumerate(x):
                res = sp.append(v)
                if res is None:
                    continue
                d, j = res
                i = k - m + 1
                assert k + 1 - 256 <= j <= i - radius - 1, (i, j)
                assert abs(znorm_distance(x[i:i + m], x[j:j + m]) - d) <= 1e-9, (i, j)
                emitted += 1
            assert emitted == x.size - m - radius


class TestOffsetRobustness:
    """The distance contracts on realistic channels: a large common offset,
    a near-flat plateau and a long run, against oracles that share no
    statistics with the code under test."""

    M = 64

    def test_offset_does_not_move_any_distance(self):
        g = rng(8).normal(size=2500)
        warm = self.M + default_exclusion_radius(self.M)  # samples without a value
        batch = matrix_profile(g, self.M).distances
        stream = np.array(stream_trace(g, self.M, 1024)[warm:])
        for b in (0.0, 50.0, 1e3, 1e6):
            assert np.abs(matrix_profile(g + b, self.M).distances - batch).max() <= 1e-9, b
            got = np.array(stream_trace(g + b, self.M, 1024)[warm:])
            assert np.abs(got - stream).max() <= 1e-9, b

    # The grid slice holds the -2 Hz level shift, where mean/std of a
    # window reaches ~130 and the kernel's cancellation is at its worst.
    @pytest.mark.parametrize("lo, hi", [(0, 3000), (39000, 41500), (79000, 81500)],
                             ids=["start", "plateau", "grid"])
    def test_batch_matches_brute_on_the_default_channel(self, lo, hi):
        x = default_channel()[lo:hi]
        err = np.abs(matrix_profile(x, self.M).distances
                     - matrix_profile_brute(x, self.M).distances).max()
        assert err <= 1e-6

    @pytest.mark.parametrize("lo, hi", [(0, 3000), (39000, 41500), (79000, 81500)],
                             ids=["start", "plateau", "grid"])
    @pytest.mark.parametrize("capacity", [None, 1024], ids=["no-eviction", "cap1024"])
    def test_stream_matches_oracle_on_the_default_channel(self, lo, hi, capacity):
        x = default_channel()[lo:hi]
        positions = range(self.M + default_exclusion_radius(self.M), x.size - self.M + 1)
        assert stream_error(x, self.M, capacity or x.size, positions) <= 1e-9

    # Centring on the first sample leaves the grid slice's level shift in
    # the window means; at lower noise the shifted level dominates further.
    @pytest.mark.parametrize("noise_std", [0.002, 0.001])
    def test_batch_matches_brute_after_the_level_shift_at_low_noise(self, noise_std):
        x = default_channel(noise_std)[79000:81500]
        err = np.abs(matrix_profile(x, self.M).distances
                     - matrix_profile_brute(x, self.M).distances).max()
        assert err <= 1e-6

    @pytest.mark.parametrize("noise_std", [0.002, 0.001])
    @pytest.mark.parametrize("capacity", [None, 1024], ids=["no-eviction", "cap1024"])
    def test_stream_matches_oracle_after_the_level_shift_at_low_noise(self, noise_std,
                                                                       capacity):
        x = default_channel(noise_std)[79000:81500]
        positions = range(self.M + default_exclusion_radius(self.M), x.size - self.M + 1)
        assert stream_error(x, self.M, capacity or x.size, positions) <= 1e-9

    def test_long_stream_matches_oracle_on_the_default_channel(self):
        x = default_channel()
        positions = np.sort(rng(9).choice(np.arange(100, x.size - self.M + 1),
                                          size=300, replace=False))
        # Also the subsequences just after the plateau and the grid fault,
        # and one 18k samples after the grid fault.
        positions = np.union1d(positions, [40070, 40100, 80500, 98780 - self.M + 1])
        # Above 8192 the resync period stops growing with the capacity.
        for capacity in (8192, 16384):
            assert stream_error(x, self.M, capacity, positions) <= 1e-9, capacity

    # The batch runs on the stream's statistics, so it meets the stream's
    # 1e-9 on every slice above; the 1e-6 contract stays the documented one.
    @pytest.mark.parametrize("lo, hi, noise_std", [(0, 3000, None), (39000, 41500, None),
                                                   (79000, 81500, None),
                                                   (79000, 81500, 0.002),
                                                   (79000, 81500, 0.001)],
                             ids=["start", "plateau", "grid", "grid-0.002", "grid-0.001"])
    def test_batch_matches_brute_to_the_stream_contract(self, lo, hi, noise_std):
        x = default_channel(noise_std)[lo:hi]
        err = np.abs(matrix_profile(x, self.M).distances
                     - matrix_profile_brute(x, self.M).distances).max()
        assert err <= 1e-9

    def test_long_batch_matches_oracle_across_sweep_resyncs(self):
        # 20000 samples around the grid fault: the sweep's carry, the
        # stream's own, recomputes the running sum and the newest
        # covariance row from the samples every min(capacity, 8192)
        # samples, here at samples 8192 and 16384.
        x = default_channel()[70000:90000]
        positions = np.sort(rng(15).choice(x.size - self.M + 1, size=100, replace=False))
        want = profile_at(x, self.M, default_exclusion_radius(self.M), positions)
        assert np.abs(matrix_profile(x, self.M).distances[positions] - want).max() <= 1e-9

    @pytest.mark.parametrize("capacity", [1024, 8192])
    def test_stream_past_many_resyncs(self, capacity):
        # 3e5 samples: the default channel at three seeds back to back.
        # Only the periodic resync keeps the recurrence's rounding bounded.
        x = np.concatenate([four_fault_dataset(GeneratorConfig(seed=s)).channel.samples
                            for s in (1, 2, 3)])
        positions = np.sort(rng(14).choice(np.arange(x.size - 100_000, x.size - self.M + 1),
                                           size=100, replace=False))
        assert stream_error(x, self.M, capacity, positions) <= 1e-9

    def test_rolling_stats_on_the_default_channel(self):
        x = default_channel()
        st = rolling_stats(x, self.M)
        worst = 0.0
        for lo in range(0, st.stds.size, 10_000):
            w = np.lib.stride_tricks.sliding_window_view(x, self.M)[lo:lo + 10_000]
            ref = w.std(axis=1)
            assert np.abs(st.means[lo:lo + ref.size] - w.mean(axis=1)).max() <= 1e-12
            live = np.ptp(w, axis=1) > 0
            rel = np.abs(st.stds[lo:lo + ref.size][live] - ref[live]) / ref[live]
            worst = max(worst, rel.max())
        assert worst <= 1e-6

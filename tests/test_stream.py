import math

import numpy as np
import pytest

import mpstream.stream
from mpstream.core import SENTINEL_INDEX, znorm_distance
from mpstream.stream import StreamingProfile

from oracles import naive_left_profile, naive_znorm_distance

rng = np.random.default_rng


def feed(sp, samples):
    out = []
    for x in samples:
        out.append(sp.append(x))
    return out


class TestConstruction:
    def test_empty_state(self):
        sp = StreamingProfile(16, capacity=4096)
        assert sp.count == 0
        assert sp.n_retained == 0
        assert len(sp.profile()) == 0

    def test_capacity_precondition(self):
        with pytest.raises(ValueError):
            StreamingProfile(16, capacity=20)
        StreamingProfile(16, capacity=32)  # boundary is allowed

    def test_exclusion_radius_must_leave_a_candidate(self):
        # A full window holds capacity - m - exclusion_radius candidates.
        with pytest.raises(ValueError, match="exclusion_radius"):
            StreamingProfile(4, capacity=8, exclusion_radius=4)
        sp = StreamingProfile(4, capacity=8, exclusion_radius=3)  # one candidate
        results = feed(sp, rng(1).normal(size=100))
        assert all(v is None for v in results[:7])
        assert all(v is not None for v in results[7:])

    def test_warmup_returns_nothing(self):
        sp = StreamingProfile(4, capacity=8, exclusion_radius=1)
        results = feed(sp, [1.0, 2.0, 3.0, 4.0])
        assert results == [None] * 4

    def test_first_emission_at_m_plus_r_plus_one(self):
        m, r = 4, 2
        sp = StreamingProfile(m, capacity=16, exclusion_radius=r)
        x = rng(0).normal(size=m + r + 1)
        results = feed(sp, x)
        assert all(v is None for v in results[:-1])
        assert results[-1] is not None

    def test_invalid_sample_keeps_stream_usable(self):
        sp = StreamingProfile(4, capacity=16, exclusion_radius=0)
        feed(sp, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            sp.append(float("nan"))
        with pytest.raises(ValueError):
            sp.append(float("inf"))
        assert sp.count == 3
        sp.append(4.0)
        assert sp.count == 4


class TestAppendValues:
    def test_periodic_stream_emits_zeros(self):
        sp = StreamingProfile(4, capacity=64, exclusion_radius=1)
        pattern = [0.0, 1.0] * 20
        results = feed(sp, pattern)
        emitted = [v for v in results if v is not None]
        assert len(emitted) > 0
        for d, _ in emitted:
            assert d == pytest.approx(0.0, abs=1e-9)

    def test_single_pair_matches_scalar_distance(self):
        # First emission compares the only valid pair of subsequences.
        m, r = 4, 1
        x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]  # m + r + 1 distinct samples
        sp = StreamingProfile(m, capacity=16, exclusion_radius=r)
        results = feed(sp, x)
        d, nn = results[-1]
        assert nn == 0
        assert d == pytest.approx(znorm_distance(x[2:6], x[0:4]), abs=1e-12)
        assert d == pytest.approx(naive_znorm_distance(x[2:6], x[0:4]), abs=1e-9)

    def test_matches_batch_left_profile(self):
        m, r = 8, 2
        x = rng(21).normal(size=200)
        sp = StreamingProfile(m, capacity=512, exclusion_radius=r)
        results = feed(sp, x)
        nd, ni = naive_left_profile(list(x), m, r)
        for i, res in enumerate(results):
            if i < m - 1:
                assert res is None
                continue
            sub = i - m + 1
            if res is None:
                assert math.isinf(nd[sub])
            else:
                d, nn = res
                assert d == pytest.approx(nd[sub], abs=1e-9)
                assert nn == ni[sub]


class TestSnapshot:
    def test_no_eviction_equals_batch_left(self):
        m, r = 6, 1
        x = rng(33).normal(size=120)
        sp = StreamingProfile(m, capacity=256, exclusion_radius=r)
        out = feed(sp, x)[m - 1:]
        snap = sp.profile()
        nd, ni = naive_left_profile(list(x), m, r)
        assert np.allclose(snap.distances, nd, atol=1e-9)
        assert np.array_equal(snap.indices, ni)
        # Without eviction the snapshot is exactly what the appends returned.
        assert np.array_equal(snap.distances,
                              [np.inf if o is None else o[0] for o in out])
        assert np.array_equal(snap.indices,
                              [SENTINEL_INDEX if o is None else o[1] for o in out])

    def test_snapshot_is_immutable_copy(self):
        sp = StreamingProfile(4, capacity=32, exclusion_radius=1)
        x = rng(4).normal(size=30)
        feed(sp, x)
        snap = sp.profile()
        d0 = snap.distances.copy()
        feed(sp, rng(5).normal(size=40))
        assert np.array_equal(snap.distances, d0)

    def test_rebased_positions_after_eviction(self):
        m, r, cap = 4, 1, 16
        x = rng(6).normal(size=50)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        feed(sp, x)
        snap = sp.profile()
        assert len(snap) == cap - m + 1
        valid = snap.indices != SENTINEL_INDEX
        assert (snap.indices[valid] >= 0).all()
        assert (snap.indices[valid] < len(snap)).all()

    def test_eviction_consistency_with_fresh_batch(self):
        # After eviction every entry must match a batch left profile of the
        # retained window; no reported neighbor may point at evicted data.
        m, r, cap = 5, 2, 32
        x = rng(7).normal(size=200)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        feed(sp, x)
        snap = sp.profile()
        window = list(x[-cap:])
        nd, ni = naive_left_profile(window, m, r)
        assert np.allclose(snap.distances, nd, atol=1e-9)
        valid = snap.indices != SENTINEL_INDEX
        # Index agreement modulo exact distance ties.
        for k in np.flatnonzero(valid):
            if snap.indices[k] != ni[k]:
                j = int(snap.indices[k])
                alt = naive_znorm_distance(window[k:k + m], window[j:j + m])
                assert alt == pytest.approx(nd[k], abs=1e-9)

    def test_warming_snapshot_empty(self):
        sp = StreamingProfile(8, capacity=32)
        feed(sp, rng(8).normal(size=5))
        assert len(sp.profile()) == 0


class TestInvariants:
    def test_randomized_no_eviction_equivalence(self):
        # m >= 4: for smaller windows continuous data still produces exact
        # z-norm duplicates, where the dot-product identity cannot pin
        # near-zero distances to 1e-9 (sqrt amplification).
        r_ = rng(99)
        for _ in range(25):
            m = int(r_.integers(4, 12))
            radius = int(r_.integers(0, m))
            n = int(r_.integers(2 * m + 1, 150))
            x = r_.normal(size=n)
            sp = StreamingProfile(m, capacity=512, exclusion_radius=radius)
            feed(sp, x)
            snap = sp.profile()
            nd, ni = naive_left_profile(list(x), m, radius)
            assert np.allclose(snap.distances, nd, atol=1e-9)
            # Indices agree except across exact distance ties (frequent for
            # tiny m, where many window pairs are identical after z-norm).
            for k in range(len(snap)):
                if snap.indices[k] == ni[k]:
                    continue
                j = int(snap.indices[k])
                assert j != SENTINEL_INDEX
                alt = naive_znorm_distance(list(x[k:k + m]), list(x[j:j + m]))
                assert alt == pytest.approx(nd[k], abs=1e-9)

    def test_memory_bounded_at_ten_times_capacity(self):
        cap = 64
        sp = StreamingProfile(8, capacity=cap, exclusion_radius=2)
        peak = 0
        for x in rng(13).normal(size=10 * cap):
            sp.append(x)
            peak = max(peak, sp.n_retained)
        assert peak <= cap
        assert sp.count == 10 * cap

    def test_deterministic_snapshots(self):
        x = rng(17).normal(size=300)
        snaps = []
        for _ in range(2):
            sp = StreamingProfile(6, capacity=64, exclusion_radius=1)
            feed(sp, x)
            snaps.append(sp.profile())
        assert np.array_equal(snaps[0].distances, snaps[1].distances)
        assert np.array_equal(snaps[0].indices, snaps[1].indices)

    def test_bound_respected(self):
        m = 8
        x = rng(19).normal(size=400)
        sp = StreamingProfile(m, capacity=128, exclusion_radius=2)
        results = feed(sp, x)
        for res in results:
            if res is not None:
                assert 0.0 <= res[0] <= 2.0 * math.sqrt(m) + 1e-12

    def test_flat_plateau_conventions(self):
        # A frozen stretch: first flat subsequence is maximally novel, flat
        # pairs far enough apart match at distance zero.
        m, r = 4, 1
        x = list(rng(23).normal(size=20)) + [2.5] * 12 + list(rng(24).normal(size=8))
        sp = StreamingProfile(m, capacity=128, exclusion_radius=r)
        results = feed(sp, x)
        nd, _ = naive_left_profile(x, m, r)
        for i, res in enumerate(results):
            if res is None:
                continue
            assert res[0] == pytest.approx(nd[i - m + 1], abs=1e-9)

    def test_flat_plateau_sliding_out_of_window(self):
        # Flat-subsequence bookkeeping across evictions: a frozen stretch
        # enters and then fully leaves the window; values must match the
        # batch left profile of the retained window at every phase.
        m, r, cap = 4, 1, 24
        x = list(rng(41).normal(size=30)) + [1.5] * 10 + list(rng(42).normal(size=40))
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        for i, v in enumerate(x):
            sp.append(v)
            if i >= cap and i % 7 == 0:
                snap = sp.profile()
                window = x[i + 1 - cap:i + 1]
                nd, _ = naive_left_profile(window, m, r)
                assert np.allclose(snap.distances, nd, atol=1e-9), i
        # Plateau fully evicted: no flat subsequence remains cached, values
        # stay correct.
        live = slice(sp._start, sp._end - m + 1)
        assert (sp._isig[live] != 0.0).all()
        snap = sp.profile()
        window = x[len(x) - cap:]
        nd, _ = naive_left_profile(window, m, r)
        assert np.allclose(snap.distances, nd, atol=1e-9)


class TestLongRunStress:
    def test_many_compactions_and_recomputes(self):
        # Ten capacities of data: several buffer compactions and periodic
        # stats recomputations; snapshot must still match a fresh batch left
        # profile of the retained window.
        from oracles import batch_left_profile

        m, r, cap = 8, 2, 256
        x = rng(137).normal(size=10 * cap + 13)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        for v in x:
            sp.append(v)
        snap = sp.profile()
        window = x[-cap:]
        nd, _ = batch_left_profile(window, m, r)
        assert np.allclose(snap.distances, nd, atol=1e-9)
        valid = snap.indices != SENTINEL_INDEX
        assert (snap.indices[valid] >= 0).all()
        assert (snap.indices[valid] < len(snap)).all()

    def test_every_append_across_compactions(self):
        # Per-append output, not just the final snapshot: each value and
        # neighbor must equal the left profile of the retained window while
        # the buffer compacts (at samples 128, 192 and 256) with a flat
        # plateau straddling the second compaction.
        m, r, cap = 8, 2, 64
        r_ = rng(139)
        x = list(r_.normal(size=180)) + [0.75] * 24 + list(r_.normal(size=96))
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        checked = 0
        for k, v in enumerate(x):
            res = sp.append(v)
            lo = max(0, k + 1 - cap)
            nd, ni = naive_left_profile(x[lo:k + 1], m, r)
            if res is None:
                assert k < m - 1 or math.isinf(nd[-1])
                continue
            d, nn = res
            assert d == pytest.approx(nd[-1], abs=1e-9), k
            assert nn == lo + ni[-1], k
            checked += 1
        assert checked == len(x) - m - r


def shifted_signal(n, seed):
    """Noisy sine with spikes, a flat plateau and a level shift."""
    r_ = rng(seed)
    x = np.sin(2 * np.pi * np.arange(n) / 20) + r_.normal(0, 0.05, n)
    for at in r_.integers(300, n - 50, 4):
        x[at] += r_.choice([-4.0, 4.0])
    p = int(r_.integers(300, n - 100))
    x[p:p + 40] = x[p]
    x[int(r_.integers(300, n)):] += 25.0
    return x


class TestHotMode:
    def test_counters_without_settles(self, monkeypatch):
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 4)
        m, r, cap, n = 8, 2, 64, 300
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        out = feed(sp, rng(5).normal(size=n))
        assert sum(o is not None for o in out) == n - m - r
        assert sp.settled_steps == sp.exact_steps == sp.rebuilds == 0

    def test_every_candidate_hot_is_the_exact_path(self, monkeypatch):
        # 64 - 8 - 2 = 54 candidates in a full window: at 54 hot candidates
        # the hot search is the whole search, bitwise.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 54)
        m, r, cap = 8, 2, 64
        x = shifted_signal(600, 3)
        plain = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        hot = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        for v in x:
            assert hot.append(v, lambda pos, bound: True) == plain.append(v)
        assert hot.settled_steps == 0 and hot.exact_steps == len(x) - m - r

    def test_the_lag_count_names_the_current_covariances(self, monkeypatch):
        # The covariances of lags [0, _lags) of the newest subsequence are
        # current: every lag after an exact append and lag 0 alone after a
        # settled one, whether the successor, the probe or the search settled it.
        # Levels drawn per step give every tier and exact steps; a capacity
        # of 64 resyncs and compacts every 64 appends.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 16)
        m, r, cap = 8, 2, 64
        x = shifted_signal(3000, 7)
        windows = np.lib.stride_tricks.sliding_window_view(x, m)
        tol = 1e-9 * m * windows.var(axis=1).max()
        levels = rng(8).choice([0.0, 0.5, 1.0, 2.0, np.inf], x.size)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        for k, v in enumerate(x.tolist()):
            sp.append(v, lambda pos, bound: bound <= levels[k])
            assert sp._lags in (1, cap), k
            if k + 1 >= m:
                l = sp._end - m
                lo = max(sp._start, l + 1 - sp._lags)
                q = windows[k + 1 - m] - windows[k + 1 - m].mean()
                want = np.correlate(x[sp._offset + lo:k + 1], q, mode="valid")
                assert np.abs(sp._cov[lo:l + 1] - want).max() <= tol, k
        assert min(sp.successor_steps, sp.probe_steps, sp.search_steps,
                   sp.exact_steps, sp.hot_rebuilds, sp.rebuilds) > 0

    def test_a_step_after_a_settled_one_rebuilds_if_exact(self, monkeypatch):
        # An exact step leaves every covariance current and a settled one lag
        # 0 alone, so an exact step rebuilds the older covariances exactly
        # when the step before it settled, whether its bound did not settle
        # or it was given no settles at all.  A settled step returns its
        # bound, also right after an exact one.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 4)
        m, r, cap = 8, 2, 64
        x = iter(rng(11).normal(size=200).tolist())
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        plain = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        answers = []

        def rebuilds(*script):
            """Append one sample per answer, with a settles that gives it (or
            none for None); returns the steps that rebuilt."""
            out = []
            for k, answer in enumerate(script):
                v = next(x)
                want = plain.append(v)
                before = sp.rebuilds
                bounds = []

                def settles(pos, bound):
                    bounds.append(bound)
                    return answer

                got = sp.append(v, None if answer is None else settles)
                if answer:
                    assert got == (bounds[0], None)
                    assert want[0] <= got[0] + 1e-9
                else:
                    assert got[0] == pytest.approx(want[0], abs=1e-9)
                    assert got[1] == want[1]
                if sp.rebuilds > before:
                    out.append(k)
            answers.extend(script)
            return out

        for v in [next(x) for _ in range(cap)]:
            plain.append(v)
            sp.append(v)
        assert rebuilds(True, False) == [1]
        assert rebuilds(False, False) == []
        assert rebuilds(True, None) == [1]
        assert rebuilds(None, True, True, True, False, True, None) == [4, 6]
        assert sp.rebuilds == 4
        assert sp.settled_steps == sum(a is True for a in answers)
        assert sp.exact_steps == sum(a is False for a in answers)

    def test_a_step_settled_by_the_successor_does_no_vector_work(self, monkeypatch):
        # Once a step has settled, the hot covariances are stale, and a step
        # that the last neighbor's successor settles advances none of them:
        # it calls neither the vector recurrence nor np.correlate, nor the
        # cold carry and search, and returns a bound at or above its exact
        # value.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 16)
        calls = []

        def counted(f):
            return lambda *args, **kwargs: calls.append(f) or f(*args, **kwargs)

        monkeypatch.setattr(mpstream.stream, "covariance_step",
                            counted(mpstream.stream.covariance_step))
        monkeypatch.setattr(np, "correlate", counted(np.correlate))
        for name in ("_carry", "_search"):
            monkeypatch.setattr(StreamingProfile, name,
                                counted(getattr(StreamingProfile, name)))
        m, r, cap = 8, 2, 64
        x = np.sin(2 * np.pi * np.arange(900) / 10) + rng(4).normal(0, 0.1, 900)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        plain = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        stale, quiet = False, 0  # the hot covariances are stale after a settled step
        for v in x:
            want = plain.append(v)
            n, successor = len(calls), sp.successor_steps
            settled = sp.settled_steps
            got = sp.append(v, lambda pos, bound: True)
            if stale and sp.successor_steps > successor:
                assert len(calls) == n
                assert got[1] is None and want[0] <= got[0] + 1e-9
                quiet += 1
            stale = sp.settled_steps > settled
        assert sp.settled_steps + sp.exact_steps == len(x) - m - r
        assert quiet > len(x) // 2

    @pytest.mark.parametrize("seed", [7, 8])
    def test_a_resync_append_settles_only_by_the_hot_search(self, monkeypatch, seed):
        # A resync append correlates at least the hot lags from the samples,
        # so it neither tries the successor or the probe nor rebuilds the
        # hot covariances: it settles by the hot search or is exact.  A
        # capacity of 64 resyncs every 64 appends.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 16)
        m, r, cap = 8, 2, 64
        x = shifted_signal(3000, seed)
        levels = rng(seed + 1).choice([0.0, 1.0, 2.0, np.inf], x.size)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        resyncs = settled = 0
        for k, v in enumerate(x.tolist()):
            before = sp.successor_steps, sp.probe_steps, sp.hot_rebuilds, sp.settled_steps
            sp.append(v, lambda pos, bound: bound <= levels[k])
            if sp.count % sp._resync == 0:
                assert (sp.successor_steps, sp.probe_steps, sp.hot_rebuilds) == before[:3], k
                resyncs += 1
                settled += sp.settled_steps > before[3]
        assert resyncs == x.size // cap and settled > 5

    def test_a_step_settled_by_the_successor_indexes_no_array(self, monkeypatch):
        # A step that the successor settles reads and writes its single
        # elements through memoryviews, never by an integer index into a
        # numpy array, which boxes a numpy scalar.  Views of the arrays that
        # count such indexing change no result: every step returns what an
        # untouched twin stream returns.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 16)
        hits = []

        class Counting(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, (int, np.integer)):
                    hits.append(key)
                return super().__getitem__(key)

            def __setitem__(self, key, value):
                if isinstance(key, (int, np.integer)):
                    hits.append(key)
                super().__setitem__(key, value)

        m, r, cap = 8, 2, 64
        x = np.sin(2 * np.pi * np.arange(900) / 10) + rng(4).normal(0, 0.1, 900)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        twin = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        for name in ("_buf", "_cov", "_isig", "_df", "_dg"):
            setattr(sp, name, getattr(sp, name).view(Counting))
        stale, quiet = False, 0  # the hot covariances are stale after a settled step
        for v in x.tolist():
            want = twin.append(v, lambda pos, bound: True)
            n, successor = len(hits), sp.successor_steps
            settled = sp.settled_steps
            assert sp.append(v, lambda pos, bound: True) == want
            if stale and sp.successor_steps > successor:
                assert len(hits) == n
                quiet += 1
            stale = sp.settled_steps > settled
        assert quiet > len(x) // 2
        n = len(hits)  # the views count, and share the arrays' memory:
        assert sp._isig[sp._end - m] == twin._isig[twin._end - m]
        assert len(hits) == n + 1

    @pytest.mark.parametrize("hot, probe", [(4, None), (32, None), (32, 8)])
    def test_every_bound_is_a_hot_distance(self, monkeypatch, hot, probe):
        # A settles that accepts only the hot best lets the successor settle
        # a step only where it is the hot best, and the probe where it scores
        # the best hot lag: always, when it has every hot lag (the default
        # PROBE_LAGS exceeds both hot sizes).  Every bound is the distance to
        # a hot candidate.
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", hot)
        if probe is not None:
            monkeypatch.setattr(mpstream.stream, "PROBE_LAGS", probe)
        m, r, cap = 16, 4, 256
        x = shifted_signal(1500, 5)
        hot_distances = {}

        def settles(pos, bound):
            if pos not in hot_distances:
                hot_distances[pos] = [znorm_distance(x[pos:pos + m], x[j:j + m])
                                      for j in range(pos - r - hot, pos - r)]
            return bound <= min(hot_distances[pos]) + 1e-9

        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        settled = 0
        for k, v in enumerate(x):
            res = sp.append(v, settles)
            if res is None or res[1] is not None:
                continue
            d = hot_distances[k - m + 1]
            assert min(abs(res[0] - e) for e in d) <= 1e-9, k
            assert res[0] >= min(d) - 1e-9, k
            settled += 1
        assert settled == sp.settled_steps == \
            sp.successor_steps + sp.probe_steps + sp.search_steps
        assert sp.successor_steps > 0 and sp.probe_steps > 10
        assert (sp.hot_rebuilds == 0) == (mpstream.stream.PROBE_LAGS >= hot)

    @pytest.mark.parametrize("x", [
        np.arange(300) // 5 * 1.0,
        np.arange(300) // 12 * 0.5,
        np.where(np.arange(300) // 8 % 2, 1.0, -1.0),
    ], ids=["staircase", "staircase-with-flat-windows", "square-wave"])
    @pytest.mark.parametrize("settles", [None, lambda pos, bound: False],
                             ids=["no-settles", "never-settles"])
    def test_ties_go_to_the_oldest_candidate_across_the_hot_range(
            self, monkeypatch, x, settles):
        # Exact repeats tie: the hot search and the older one must together
        # pick what one search over all candidates picks.
        m, r, cap = 8, 2, 64
        outs = []
        for hot in (4, cap):
            monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", hot)
            sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
            outs.append([sp.append(v, settles) for v in x])
            assert sp.settled_steps == 0
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bound_above_exact_and_full_steps_exact(self, monkeypatch, seed):
        # A settles that accepts bounds up to the 99th percentile of the
        # exact values makes most steps settle; every 499th append passes
        # no settles, so it is exact and rebuilds if the step before it
        # settled.
        from oracles import windowed_left_profile

        m, r, cap, n = 16, 4, 256, 3000
        x = shifted_signal(n, seed)
        plain = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        exact = feed(plain, x)
        level = float(np.quantile([res[0] for res in exact if res is not None], 0.99))
        monkeypatch.setattr(mpstream.stream, "HOT_CANDIDATES", 32)
        sp = StreamingProfile(m, capacity=cap, exclusion_radius=r)
        want = windowed_left_profile(x, m, r, cap, range(n - m + 1))
        hot = full = rebuilt = 0
        for k, v in enumerate(x):
            before = sp.rebuilds
            given = k % 499 != 0
            res = sp.append(v, (lambda pos, b: b <= level) if given else None)
            if res is None:
                assert exact[k] is None
                continue
            value, neighbor = res
            if neighbor is None:
                hot += 1
                assert exact[k][0] - 1e-9 <= value <= level
                continue
            full += given
            rebuilt += sp.rebuilds > before
            assert value == pytest.approx(exact[k][0], abs=1e-9), k
            assert value == pytest.approx(want[k - m + 1], abs=1e-9), k
            assert znorm_distance(x[k - m + 1:k + 1], x[neighbor:neighbor + m]) == \
                pytest.approx(value, abs=1e-9), k
        assert (sp.settled_steps, sp.exact_steps) == (hot, full)
        assert hot + full == sum(res is not None and k % 499 != 0
                                 for k, res in enumerate(exact))
        assert plain.settled_steps == plain.exact_steps == 0
        assert hot > n // 2 and rebuilt == sp.rebuilds > 5

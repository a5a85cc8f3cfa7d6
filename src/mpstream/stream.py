"""Incremental Matrix Profile over a sliding window of streaming samples.

Each appended sample completes a new subsequence whose z-normalized distance
profile against all older in-window subsequences is evaluated in O(window)
work, using the centred covariance recurrence of :mod:`mpstream.core`.  The
minimum becomes the subsequence's left-profile value, which is what a
causal detector consumes: the stream never looks at samples that have not
arrived yet.  The batch profile, :func:`~mpstream.core.matrix_profile`,
sweeps a stream that holds the whole series and so never evicts, sharing
its buffers, :meth:`~StreamingProfile._carry` and kernel but not its tiers.
It sweeps in bands of rows (:meth:`~StreamingProfile._band`), one per
worker; a band runs every row before its own through the scalar prologue
and carries every lag only from the last resync row, where the carry
restarts from the samples, so its rows are bitwise those of one sweep.

Memory is O(capacity) regardless of how many samples are ingested; the
oldest sample is evicted once the window is full.  The stream keeps no
profile history: each append returns its neighbor's value.  A snapshot
replays the retained window through a fresh stream, so it is the left
profile of that window by construction and never reports a distance to a
subsequence that is gone; it costs about as much as appending the window
again.

An append is one hot path and one cold search.  Given a ``settles``
callable, an append after a settled one first tries the last neighbor's
successor inline, after SCRIMP++ (Zhu et al., ICDM 2018), and most appends
end there.  Every other append searches the best lags of the last search,
then the most recent candidates, and stops there when their best distance
settles it, after DAMP (Lu et al., "Matrix Profile XXIV", KDD 2022).
"""

from __future__ import annotations

import math

import numpy as np

from mpstream.core import (
    REFINE_RHO,
    SENTINEL_INDEX,
    MatrixProfile,
    _constant_windows,
    _in_bands,
    _match_distances,
    _validate_radius,
    correlation_scores,
    covariance_step,
    match_distance,
)

__all__ = ["StreamingProfile"]

# Candidates every step searches first, the most recent ones.  A step settled
# by their search costs about what a stream of capacity HOT_CANDIDATES + m + r
# costs; one settled by the successor or the probe does no work over them.
HOT_CANDIDATES = 1024
# Hot lags the probe scores: the best ones of the last search.  A step that
# the probe does not settle rebuilds the hot covariances; on the default
# channel at seed 1, probes of 16, 32, 64, 96 and 128 lags leave 824, 540, 361,
# 299 and 285 such steps of 96000 armed ones, and a probe of every hot lag 279.
PROBE_LAGS = 96


class StreamingProfile:
    """Fixed-memory left Matrix Profile of a sample stream.

    Parameters
    ----------
    m : int
        Subsequence length (>= 2).
    capacity : int
        Maximum retained samples; must be at least ``2 * m``.
    exclusion_radius : int, optional
        Trivial-match half-width, default ``ceil(m/4)``.

    :meth:`append` is the hot path.  It stores the sample, caches the newest
    subsequence's 1/std and the terms ``df`` and ``dg`` of
    :func:`~mpstream.core.covariance_step`, carries lag 0 and, after a
    settled append, scores the last neighbor's successor by one scalar step
    of that recurrence.  :meth:`_carry` and :meth:`_search` do the rest;
    their docstrings give the carry and the search order.  The window's
    variance is the recurrence's own diagonal, and its mean comes from a
    compensated running sum.  Past values are not stored: :meth:`profile`
    rebuilds them by replaying the retained samples.

    Samples are stored minus the first sample, which leaves every distance
    unchanged but keeps a large common offset (a 50 Hz level) out of the
    running sum.

    The covariances of lags ``[0, _lags)`` are current between appends; the
    recurrence keeps each lag in place.  ``_lags`` is 1 after a settled
    append (lag 0 alone) and ``capacity`` after an exact one (every lag).
    Within an append, ``lo`` is a local that :meth:`_carry` hands to
    :meth:`_search`: the covariances of candidates ``[lo, l]`` are current.
    Which ones were rebuilt rather than carried changes the cost, and an
    exact value in its last bits (about 1e-13), but no event, threshold or
    9-digit CSV.
    Counters: ``settled_steps`` and ``exact_steps``, the appends given a
    ``settles`` that returned a bound and an exact value;
    ``successor_steps``, ``probe_steps`` and ``search_steps``, the settled
    ones by what settled them; ``hot_rebuilds`` and ``rebuilds``.

    :meth:`append` reads and writes single elements as Python floats through
    a ``memoryview`` of the samples and of each cache; these views and the
    probe's window view stay valid because ``_compact`` copies inside the
    arrays and never reallocates them.

    A StreamingProfile is single-writer; appends must be externally
    serialized.  Snapshots returned by :meth:`profile` are independent
    copies.
    """

    def __init__(self, m: int, capacity: int, exclusion_radius: int | None = None):
        m = int(m)
        capacity = int(capacity)
        if m < 2:
            raise ValueError(f"window size must be >= 2, got {m}")
        if capacity < 2 * m:
            raise ValueError(
                f"capacity {capacity} too small: need at least 2*m = {2 * m}")
        r = _validate_radius(exclusion_radius, m)
        if r >= capacity - m:
            raise ValueError(
                f"exclusion_radius {r} leaves no candidate in a full window: "
                f"need exclusion_radius < capacity - m = {capacity - m}")
        self.m = m
        self.capacity = capacity
        self.exclusion_radius = r

        size = 2 * capacity
        self._buf = np.empty(size)
        self._cov = np.empty(size)   # covariances of the newest subsequence
        self._isig = np.empty(size)  # 1/sig, 0 for a flat subsequence
        self._df = np.empty(size)    # recurrence terms, see covariance_step
        self._dg = np.empty(size)
        self._t1 = np.empty(capacity)  # scratch: avoids per-append allocation
        self._bufv, self._covv, self._isigv, self._dfv, self._dgv = map(
            memoryview, (self._buf, self._cov, self._isig, self._df, self._dg))
        self._windows = np.lib.stride_tricks.sliding_window_view(self._buf, m)
        # Appends between recomputations of the running sum and covariances
        # from the samples (a batch sweep's stream never fills): short-lag
        # covariances never leave the window, so their rounding would persist.
        self._resync = min(capacity, 8192)
        # match_distance's constants, for the successor's inline distance.
        self._two_m, self._four_m = 2.0 * m, 4.0 * m
        self._refine = (1.0 - REFINE_RHO) * self._two_m
        self._start = 0          # buffer index of the oldest retained sample
        self._end = 0            # one past the newest sample
        self._offset = 0         # absolute stream position of buf[0]
        self._ref = 0.0          # first sample; buf holds samples minus it
        self._s1 = 0.0           # running sum over the newest m samples
        self._c1 = 0.0           # its Kahan compensation
        self._equal_run = 0      # trailing run of bitwise-identical samples
        self._lags = capacity    # the covariances of lags [0, _lags) are current
        self._lag = None         # the last settled append's neighbor, as a lag, and
        self._c = 0.0            # its covariance with that append's subsequence
        self._probe = None       # the last settled search's best lags, as offsets from h
        self.successor_steps = 0
        self.probe_steps = 0
        self.search_steps = 0
        self.exact_steps = 0
        self.hot_rebuilds = 0
        self.rebuilds = 0

    @property
    def count(self) -> int:
        """Total samples ever ingested."""
        return self._offset + self._end

    @property
    def settled_steps(self) -> int:
        """Appends given a ``settles`` that returned a bound."""
        return self.successor_steps + self.probe_steps + self.search_steps

    @property
    def n_retained(self) -> int:
        """Samples currently held; never exceeds ``capacity``."""
        return self._end - self._start

    def _compact(self):
        s, e, m = self._start, self._end, self.m
        keep = e - s
        self._buf[:keep] = self._buf[s:e]
        nsub = keep - m + 1
        for arr in (self._cov, self._isig, self._df, self._dg):
            arr[:nsub] = arr[s:s + nsub]
        self._offset += s
        self._start = 0
        self._end = keep

    def _correlate(self, lo: int, hi: int):
        """Covariances of the newest subsequence with candidates ``[lo, hi)``
        straight from the samples, given the running sum of its window."""
        buf, m, end = self._buf, self.m, self._end
        self._cov[lo:hi] = np.correlate(buf[lo:hi + m - 1],
                                        buf[end - m:end] - self._s1 / m, mode="valid")

    def append(self, sample: float, settles=None):
        """Ingest one sample.

        Updates the running sum and the covariances, caches the newest
        subsequence's 1/std and recurrence terms, and searches the retained
        subsequences outside its exclusion zone for its nearest left
        neighbor.  Returns ``(profile_value, neighbor_position)`` —
        positions are absolute stream indices — or ``None`` while warming
        up (fewer than ``m + exclusion_radius + 1`` samples).

        ``settles(position, bound)``, if given, says whether an upper bound
        on the profile value of the subsequence at ``position`` is all the
        caller needs; it must accept every bound below one it accepts.  A
        step whose hot best it accepts returns ``(bound, None)``, with the
        first bound it accepted: the successor's, the probe's or the hot
        best.  Every other step returns the exact value.  It may take in a
        bound as it accepts it (:meth:`~mpstream.detect.FilterChain.settle`
        pushes it): append returns right after it accepts one.
        """
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError("sample must be finite")
        start, end = self._start, self._end
        if self._offset + end == 0:
            self._ref = x
        x -= self._ref
        m, cap = self.m, self.capacity
        buf, bufv = self._buf, self._bufv
        if end == buf.size:
            self._compact()
            start, end = self._start, self._end

        if end > start and x == bufv[end - 1]:
            self._equal_run += 1
        else:
            self._equal_run = 1
        bufv[end] = x
        end += 1
        self._end = end
        if end - start > cap:
            start += 1
            self._start = start

        count = self._offset + end
        if count < m:
            return None

        l = end - m  # buffer index of the newest subsequence
        covv = self._covv
        if count == m:
            df_l = dg_l = 0.0
        else:
            old = bufv[l - 1]
            mu_prev = self._s1 / m
            y = (x - old) - self._c1  # Kahan-compensated running sum
            s1 = self._s1 + y
            self._c1 = (s1 - self._s1) - y
            self._s1 = s1
            df_l = 0.5 * (x - old)
            dg_l = (x - s1 / m) + (old - mu_prev)
        self._dfv[l] = df_l
        self._dgv[l] = dg_l

        # Only lag 0 is current after a settled append: carry it alone, in
        # covariance_step's operation order.  A resync append, or one after
        # an exact append, leaves the rest to _carry and skips the successor
        # (after an exact one it almost never settles: 7 of 2137 such steps
        # on the default channel at seed 1).
        if self._lags == 1 and count % self._resync:
            covv[l] = (dg_l * df_l + covv[l - 1]) + df_l * dg_l
            lo, tiers = l, settles is not None
        else:
            lo, tiers = self._carry(start, l, count, df_l, dg_l), False
        # The variance is the recurrence's own diagonal.
        var = covv[l] / m
        isig = 0.0 if var <= 0.0 or self._equal_run >= m else 1.0 / math.sqrt(var)
        self._isigv[l] = isig

        if tiers:
            # The last neighbor was hot, and so is its successor at the same
            # lag: one scalar step of the recurrence gives its covariance.
            k = l - self._lag
            c = (self._dgv[k] * df_l + self._c) + self._dfv[k] * dg_l
            isig_k = self._isigv[k]
            # match_distance inline, in its operation order, unless it refines.
            d2 = self._two_m * (1.0 - c * isig_k * isig / m) if isig else 0.0
            if d2 > self._refine:
                value = math.sqrt(min(d2, self._four_m))
            else:
                value = match_distance(buf, m, l, k, float(isig_k == 0.0) if isig == 0.0
                                       else c * isig_k, isig)
            if settles(self._offset + l, value):
                self.successor_steps += 1
                self._c = c
                return value, None
        return self._search(start, l, lo, isig, settles, tiers)

    def _carry(self, start: int, l: int, count: int, df_l: float, dg_l: float) -> int:
        """Update the newest subsequence ``l``'s covariances where
        :meth:`append` does not carry lag 0 alone, and return ``lo``: those
        with candidates ``[lo, l]`` are then current.

        At the first subsequence and every ``_resync`` appends it recomputes
        the running sum and correlates lags ``[0, _lags)``, and at least the
        hot lags, straight from the samples.  Otherwise it carries lags
        ``[0, _lags)`` with :func:`~mpstream.core.covariance_step`.
        """
        buf, m, end = self._buf, self.m, self._end
        if count == m or count % self._resync == 0:
            self._s1 = float(np.sum(buf[l:end]))
            self._c1 = 0.0
            lo = max(start, l + 1 - max(self._lags, 1 + self.exclusion_radius + HOT_CANDIDATES))
            self._correlate(lo, l + 1)
            return lo
        # Once the window has slid, the oldest candidate's predecessor is
        # still at buffer index start - 1 (_compact keeps it), so the
        # recurrence covers it too; before that it is computed directly.
        lo = max(start, l + 1 - self._lags)
        a, cov = lo or 1, self._cov
        covariance_step(cov[a - 1:l], self._df[a:l + 1], self._dg[a:l + 1],
                        df_l, dg_l, cov[a:l + 1], self._t1[:l + 1 - a])
        if not lo:
            self._covv[0] = float(np.dot(buf[:m], buf[l:end] - self._s1 / m))
        return lo

    def _search(self, start: int, l: int, lo: int, isig: float, settles, tiers: bool):
        """What :meth:`append` returns unless the successor settled it, given
        the newest subsequence ``l``'s current covariances ``[lo, l]``.

        In order, stopping at the first bound that ``settles`` accepts: if
        ``tiers``, the probe, the best of the :data:`PROBE_LAGS` hot lags
        ranked where a hot search last settled, scored straight from the
        samples; the :data:`HOT_CANDIDATES` most recent candidates (lags up
        to ``exclusion_radius + HOT_CANDIDATES``), rebuilt first if stale,
        whose best distance it offers when older candidates remain; then the
        older candidates, rebuilt if stale, whose winner wins a tie, so the
        exact result is that of one search over the whole window.  The
        successor and the probe are single hot candidates, never below the
        hot best, and ``settles`` is monotone in the bound: they change which
        bound a settled append returns, never which appends settle.  A
        settled hot search ranks the probe's lags and sets ``_lags`` to 1;
        an exact search sets it to ``capacity``.
        """
        buf, m, cov = self._buf, self.m, self._cov
        hi = l - self.exclusion_radius  # candidates are buffer indices [start, hi)
        h = max(start, hi - HOT_CANDIDATES)  # the hot ones are [h, hi)
        if lo > h:  # the hot covariances are stale
            if tiers:
                # Score the probe's lags straight from the samples; the hot
                # lags are the same at every step that has older candidates.
                k = h + self._probe
                c = self._windows[k] @ (buf[l:self._end] - self._s1 / m)
                score = self._isig[k]
                correlation_scores(c, isig, score, score)
                j = int(score.argmax())
                k = k.item(j)
                value = match_distance(buf, m, l, k, score.item(j), isig)
                if settles(self._offset + l, value):
                    self.probe_steps += 1
                    self._lag, self._c = l - k, c.item(j)
                    return value, None
            self._correlate(h, lo)
            self.hot_rebuilds += 1
            lo = h

        if hi <= start:
            return None
        # Score the current candidates [lo, hi); search the hot ones first.
        score = correlation_scores(cov[lo:hi], isig, self._isig[lo:hi], self._t1[:hi - lo])
        i = h + int(score[h - lo:].argmax())
        best, value = score.item(i - lo), None  # value: candidate i's distance, once known
        if settles is not None and h > start:
            value = match_distance(buf, m, l, i, best, isig)
            if settles(self._offset + l, value):
                self.search_steps += 1
                self._lags, self._lag, self._c = 1, l - i, self._covv[i]
                p = min(PROBE_LAGS, hi - h)  # the probe's lags: the best hot ones
                self._probe = np.argpartition(score[h - lo:], -p)[-p:]
                return value, None
        if lo > start:  # the older covariances are stale
            self._correlate(start, lo)
            self.rebuilds += 1
            score = correlation_scores(cov[start:lo], isig, self._isig[start:lo],
                                       self._t1[:lo - start])
        if h > start:  # the older candidates, which win ties as in one argmax
            j = int(score[:h - start].argmax())
            if score.item(j) >= best:
                i, best, value = start + j, score.item(j), None
        # match_distance re-evaluates near duplicates: values reproduce to 1e-9.
        if value is None:
            value = match_distance(buf, m, l, i, best, isig)
        self._lags = self.capacity
        if settles is not None:
            self.exact_steps += 1
        return value, self._offset + i

    def _sweep(self, x: np.ndarray, cuts) -> MatrixProfile:
        """Full profile of ``x`` in this fresh stream, which must hold all of
        it and takes no appends afterwards.  The rows run in bands
        ``[cuts[b], cuts[b + 1])`` (:meth:`_band`) under
        :func:`~mpstream.core._in_bands`: band 0 here, each other one in a
        forked worker.  Bands are disjoint, so the left neighbors merge by
        row; the later ones merge by a strict ``>`` in band order, so the
        first of tied later neighbors wins, as in one band.  Flat
        subsequences then take the flat rule, one vectorised
        :func:`~mpstream.core.match_distance` gives every distance, and the
        later neighbor wins only where it is strictly closer.
        """
        m, r = self.m, self.exclusion_radius
        n, p = x.size, x.size - m + 1
        buf, isig = self._buf, self._isig
        np.subtract(x, x[0], out=buf[:n])
        const = memoryview(_constant_windows(buf[:n], m))
        c = p - r - 1  # subsequences [0, c) have later candidates
        left = np.zeros(p)  # best earlier score, in each one's units
        left_at = np.full(p, SENTINEL_INDEX, dtype=np.int64)
        later = np.full(c, -np.inf)  # best later score, in each one's units
        later_at = np.zeros(c, dtype=np.int64)
        bands, outs = list(zip(cuts, cuts[1:])), []
        for r0, r1 in bands:
            # A band's rows reach the columns before its last row's zone.
            # Band 0 keeps its later scores in place; the others' merge below.
            cols = max(r1 - 1 - r, 0)
            mine = ((later[:cols], later_at[:cols]) if not r0 else
                    (np.full(cols, -np.inf), np.zeros(cols, dtype=np.int64)))
            outs.append((left[r0:r1], left_at[r0:r1], *mine, isig[r0:r1]))
        # _band fills the isig it sends in place.
        _in_bands(lambda b: self._band(const, *bands[b], *outs[b][:4]), outs)
        for _, _, s, at, _ in outs[1:]:
            w = np.greater(s, later[:s.size]).nonzero()
            later[w], later_at[w] = s[w], at[w]

        distances = np.full(p, np.inf)
        distances[r + 1:] = _match_distances(buf, m, range(r + 1, p), left_at[r + 1:],
                                             left[r + 1:], isig[r + 1:p])
        # Flat ones: the first later flat one scores 1; with none, the next one scores 0.
        flat = (isig[:p] == 0.0).nonzero()[0]
        q = flat[flat < c]
        j = np.append(flat, p)[np.searchsorted(flat, q + r + 1)]
        later[q] = j < p
        later_at[q] = np.where(j < p, j, q + r + 1)
        d = _match_distances(buf, m, range(c), later_at, later, isig[:c])
        closer = (d < distances[:c]).nonzero()
        distances[closer], left_at[closer] = d[closer], later_at[closer]
        return MatrixProfile(distances=distances, indices=left_at, m=m)

    def _band(self, const, r0: int, r1: int, left, left_at, later, later_at):
        """Rows ``[r0, r1)`` of :meth:`_sweep`.  ``left`` and ``left_at`` get
        each row's best score, in its own units, and the candidate that gave
        it first: its left neighbor, as :meth:`_search` finds it.  ``later``
        and ``later_at`` get each column's best score from these rows, in
        the column's units (``cov * (1/std_new)``), and the first row that
        gave it.  The band fills the stream's ``_isig`` up to ``r1``;
        ``const`` marks the constant windows, which is :meth:`append`'s flat
        rule (an equal run).

        Every row before ``r1`` takes :meth:`append`'s scalar prologue.  The
        band carries every lag only from the last resync row at or before
        ``r0``, where :meth:`_carry` recomputes the running sum and the whole
        row from the samples; before that row it carries lag 0 alone, as a
        settled append does, which is bitwise
        :func:`~mpstream.core.covariance_step`'s lag 0.  So its rows are
        bitwise those of one band over every row.
        """
        m, r, resync = self.m, self.exclusion_radius, self._resync
        cov, isig, score = self._cov, self._isig, self._t1
        bufv, covv, isigv, dfv, dgv = self._bufv, self._covv, self._isigv, self._dfv, self._dgv
        leftv, left_atv = memoryview(left), memoryview(left_at)
        won = np.empty(later.size, dtype=bool)
        k = (r0 + m) // resync
        carry_from = k * resync - m if k else 0  # the last resync row at or before r0
        for l in range(r1):
            end = l + m
            self._end = end
            if l:
                new, old = bufv[end - 1], bufv[l - 1]
                mu_prev = self._s1 / m
                y = (new - old) - self._c1  # Kahan-compensated running sum
                s1 = self._s1 + y
                self._c1, self._s1 = (s1 - self._s1) - y, s1
                df_l = 0.5 * (new - old)
                dg_l = (new - s1 / m) + (old - mu_prev)
            else:
                df_l = dg_l = 0.0
            dfv[l], dgv[l] = df_l, dg_l
            if 0 < l < carry_from and end % resync:
                covv[l] = (dg_l * df_l + covv[l - 1]) + df_l * dg_l
            else:
                self._carry(0, l, end, df_l, dg_l)
            var = covv[l] / m
            isig_l = 0.0 if var <= 0.0 or const[l] else 1.0 / math.sqrt(var)
            isigv[l] = isig_l
            hi = l - r
            if l < r0 or hi <= 0:  # not scored here, or no candidate outside the zone yet
                continue
            row = cov[:hi]
            s = correlation_scores(row, isig_l, isig[:hi], score[:hi])
            i = int(s.argmax())
            leftv[l - r0], left_atv[l - r0] = s.item(i), i
            np.multiply(row, isig_l, out=s)
            w = np.greater(s, later[:hi], out=won[:hi]).nonzero()
            later[w] = s[w]
            later_at[w] = l

    def profile(self) -> MatrixProfile:
        """Snapshot of the left profile over the retained window.

        Replays the retained samples through a fresh stream of the same
        shape and collects its append outputs, so every reported neighbor is
        inside the window; the cost is about that of appending the window
        again.  Positions are window-relative: index 0 is the oldest
        retained subsequence.  The snapshot is a copy and is unaffected by
        later appends.
        """
        m = self.m
        replay = StreamingProfile(m, self.capacity, self.exclusion_radius)
        out = [replay.append(x) for x in self._buf[self._start:self._end].tolist()][m - 1:]
        distances = np.array([np.inf if r is None else r[0] for r in out])
        indices = np.array([SENTINEL_INDEX if r is None else r[1] for r in out],
                           dtype=np.int64)
        return MatrixProfile(distances=distances, indices=indices, m=m)

"""Incremental Matrix Profile over a sliding window of streaming samples.

Each appended sample completes a new subsequence whose z-normalized distance
profile against all older in-window subsequences is evaluated in O(window)
work, using a rolling dot-product recurrence.  The minimum becomes the
subsequence's left-profile value, which is what a causal detector consumes:
the stream never looks at samples that have not arrived yet.

Memory is O(capacity) regardless of how many samples are ingested; the
oldest sample is evicted once the window is full and profile entries whose
subsequences slid out are discarded.  Entries whose recorded neighbor was
evicted are searched again against the current window when a snapshot is
taken, so a snapshot never reports a distance to a subsequence that is gone.
One neighbor search serves both the append and that snapshot pass.
"""

from __future__ import annotations

import math

import numpy as np

from mpstream.core import (
    SENTINEL_INDEX,
    MatrixProfile,
    _validate_radius,
    correlation,
    correlation_scores,
    match_distance,
)

__all__ = ["StreamingProfile"]


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

    One neighbor search scores a subsequence with the batch profile's kernel
    (:func:`~mpstream.core.correlation_scores`,
    :func:`~mpstream.core.correlation`, :func:`~mpstream.core.match_distance`),
    using 1/std and mean/std cached once per subsequence when it arrives.
    An append runs it on the newest subsequence with the dot products of the
    rolling recurrence; older entries are left as they are until a snapshot
    runs it again on those whose neighbor was evicted.

    A StreamingProfile is single-writer; appends must be externally
    serialized.  Snapshots returned by :meth:`profile` are independent
    copies.
    """

    def __init__(self, m: int, capacity: int = 8192,
                 exclusion_radius: int | None = None):
        m = int(m)
        capacity = int(capacity)
        if m < 2:
            raise ValueError(f"window size must be >= 2, got {m}")
        if capacity < 2 * m:
            raise ValueError(
                f"capacity {capacity} too small: need at least 2*m = {2 * m}")
        self.m = m
        self.capacity = capacity
        self.exclusion_radius = _validate_radius(exclusion_radius, m)

        size = 2 * capacity
        self._buf = np.empty(size)
        self._qt = np.empty(size)
        self._mu = np.empty(size)
        self._sig = np.empty(size)
        self._isig = np.empty(size)  # 1/sig, 0 for a flat subsequence
        self._mos = np.empty(size)   # mu/sig, 0 for a flat subsequence
        self._dist = np.empty(size)
        self._nn = np.empty(size, dtype=np.int64)
        self._t1 = np.empty(size)  # scratch: avoids per-append allocation
        self._t2 = np.empty(size)
        self._start = 0          # buffer index of the oldest retained sample
        self._end = 0            # one past the newest sample
        self._offset = 0         # absolute stream position of buf[0]
        self._s1 = 0.0           # running sum over the newest m samples
        self._s2 = 0.0           # running sum of squares
        self._equal_run = 0      # trailing run of bitwise-identical samples

    @property
    def count(self) -> int:
        """Total samples ever ingested."""
        return self._offset + self._end

    @property
    def n_retained(self) -> int:
        """Samples currently held; never exceeds ``capacity``."""
        return self._end - self._start

    def _compact(self):
        s, e, m = self._start, self._end, self.m
        keep = e - s
        self._buf[:keep] = self._buf[s:e]
        nsub = keep - m + 1
        if nsub > 0:
            for arr in (self._qt, self._mu, self._sig, self._isig, self._mos,
                        self._dist, self._nn):
                arr[:nsub] = arr[s:s + nsub]
        self._offset += s
        self._start = 0
        self._end = keep

    def append(self, sample: float):
        """Ingest one sample.

        Returns ``(profile_value, neighbor_position)`` for the newest
        subsequence — positions are absolute stream indices — or ``None``
        while warming up (fewer than ``m + exclusion_radius + 1`` samples).
        """
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError("sample must be finite")
        m, cap = self.m, self.capacity
        buf = self._buf
        if self._end == buf.size:
            self._compact()

        if self._end > self._start and x == buf[self._end - 1]:
            self._equal_run += 1
        else:
            self._equal_run = 1
        buf[self._end] = x
        self._end += 1
        if self._end - self._start > cap:
            self._start += 1

        count = self._offset + self._end
        if count < m:
            return None

        start, end = self._start, self._end
        l = end - m  # buffer index of the newest subsequence

        # Rolling stats of the newest subsequence; full recomputation every
        # `capacity` appends bounds cumulative drift.
        if count == m or count % cap == 0:
            w = buf[l:end]
            self._s1 = float(np.sum(w))
            self._s2 = float(np.dot(w, w))
        else:
            old = buf[l - 1]
            self._s1 += x - old
            self._s2 += x * x - old * old
        mu = self._s1 / m
        var = self._s2 / m - mu * mu
        if var < 0.0 or self._equal_run >= m:
            var = 0.0
        sig = math.sqrt(var)
        self._mu[l] = mu
        self._sig[l] = sig
        if sig == 0.0:
            self._isig[l] = self._mos[l] = 0.0
        else:
            self._isig[l] = 1.0 / sig
            self._mos[l] = mu / sig

        # Dot products of the newest subsequence against every older one:
        # qt[j] <- qt_prev[j-1] - T[j-1]*T[l-1] + T[j+m-1]*x, then the first
        # entry (which has no predecessor) is computed directly.  On the
        # first subsequence the recurrence range is empty.
        qt = self._qt
        k = l - start
        t1 = self._t1[:k]
        t2 = self._t2[:k]
        np.multiply(buf[start:l], buf[l - 1], out=t1)
        np.subtract(qt[start:l], t1, out=t1)
        np.multiply(buf[start + m:l + m], x, out=t2)
        np.add(t1, t2, out=qt[start + 1:l + 1])
        qt[start] = float(np.dot(buf[start:start + m], buf[l:end]))
        return self._search(l, qt[start:])

    def _search(self, o: int, qt: np.ndarray | None = None):
        """Nearest left neighbor of the subsequence at buffer index ``o``
        among the retained ones outside its exclusion zone.

        ``qt[i]`` is its dot product with the subsequence at buffer index
        ``start + i``; it is computed here when not given.  Stores and
        returns ``(distance, neighbor_position)``, or stores the sentinel
        and returns None when no candidate is left.
        """
        m, start = self.m, self._start
        hi = o - self.exclusion_radius  # candidates are buffer indices [start, hi)
        if hi <= start:
            self._dist[o] = np.inf
            self._nn[o] = SENTINEL_INDEX
            return None
        buf = self._buf
        if qt is None:
            qt = np.correlate(buf[start:hi + m - 1], buf[o:o + m], mode="valid")
        # The identity steers the search; near-duplicate matches get their
        # value re-evaluated directly so every reported distance reproduces
        # from its neighbor to 1e-9 even on exactly repeating inputs.
        k = hi - start
        mu, sig = float(self._mu[o]), float(self._sig[o])
        score = correlation_scores(qt[:k], mu, sig, self._isig[start:hi],
                                   self._mos[start:hi], m, self._t1[:k], self._t2[:k])
        i = int(score.argmax())
        j = start + i
        d = match_distance(buf, m, o, j,
                           correlation(qt[i], mu, sig, self._mu[j], self._sig[j], m))
        nn = self._offset + j
        self._dist[o] = d
        self._nn[o] = nn
        return d, nn

    def profile(self) -> MatrixProfile:
        """Snapshot of the left profile over the retained window.

        Positions are window-relative: index 0 is the oldest retained
        subsequence, and neighbor indices are re-based the same way.  Stale
        entries (recorded neighbor evicted) are searched again first, so
        every reported neighbor is inside the window.  The snapshot is a copy and
        is unaffected by later appends.
        """
        m = self.m
        if self.n_retained < m:
            return MatrixProfile(distances=np.empty(0),
                                 indices=np.empty(0, dtype=np.int64), m=m)
        start = self._start
        last = self._end - m
        window_start_abs = self._offset + start
        live = self._nn[start:last + 1]
        stale = np.flatnonzero((live >= 0) & (live < window_start_abs))
        for o in stale + start:
            self._search(int(o))
        distances = self._dist[start:last + 1].copy()
        nn = self._nn[start:last + 1].copy()
        valid = nn != SENTINEL_INDEX
        nn[valid] -= window_start_abs
        return MatrixProfile(distances=distances, indices=nn, m=m)

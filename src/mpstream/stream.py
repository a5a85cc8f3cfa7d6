"""Incremental Matrix Profile over a sliding window of streaming samples.

Each appended sample completes a new subsequence whose z-normalized distance
profile against all older in-window subsequences is evaluated in O(window)
work, using a rolling dot-product recurrence.  The minimum becomes the
subsequence's left-profile value, which is what a causal detector consumes:
the stream never looks at samples that have not arrived yet.

Memory is O(capacity) regardless of how many samples are ingested; the
oldest sample is evicted once the window is full.  The stream keeps no
profile history: each append runs the neighbor search inline and returns
its value.  A snapshot replays the retained window through a fresh stream,
so it is the left profile of that window by construction and never reports
a distance to a subsequence that is gone; it costs about as much as
appending the window again.
"""

from __future__ import annotations

import math

import numpy as np

from mpstream.core import (
    SENTINEL_INDEX,
    MatrixProfile,
    _validate_radius,
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

    :meth:`append` is the whole per-sample path.  It scores the newest
    subsequence with the batch profile's kernel
    (:func:`~mpstream.core.correlation_scores` on the dot products of the
    rolling recurrence, then :func:`~mpstream.core.match_distance` on the
    winner's score), using 1/std and mean/std: the only per-subsequence
    statistics kept, cached once when the subsequence arrives.  That is the
    only search, and past values are not stored: :meth:`profile` rebuilds
    them by replaying the retained samples.

    Samples are stored minus the first sample, which leaves every distance
    unchanged but keeps a large common offset (a 50 Hz level) out of the
    running sums and dot products, where it would cancel.

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
        self._isig = np.empty(size)  # 1/sig, 0 for a flat subsequence
        self._mos = np.empty(size)   # mu/sig, 0 for a flat subsequence
        self._t1 = np.empty(capacity)  # scratch: avoids per-append allocation
        self._t2 = np.empty(capacity)
        self._start = 0          # buffer index of the oldest retained sample
        self._end = 0            # one past the newest sample
        self._offset = 0         # absolute stream position of buf[0]
        self._ref = 0.0          # first sample; buf holds samples minus it
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
        for arr in (self._qt, self._isig, self._mos):
            arr[:nsub] = arr[s:s + nsub]
        self._offset += s
        self._start = 0
        self._end = keep

    def append(self, sample: float):
        """Ingest one sample.

        Updates the rolling sums and dot products, caches the newest
        subsequence's 1/std and mean/std, and searches the retained
        subsequences outside its exclusion zone for its nearest left
        neighbor.  Returns ``(profile_value, neighbor_position)`` —
        positions are absolute stream indices — or ``None`` when no
        candidate is left: while warming up (fewer than
        ``m + exclusion_radius + 1`` samples), and always when
        ``exclusion_radius >= capacity - m``.
        """
        x = float(sample)
        if not math.isfinite(x):
            raise ValueError("sample must be finite")
        if self.count == 0:
            self._ref = x
        x -= self._ref
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

        # Rolling sums of the newest subsequence and its dot products with
        # every older one, recomputed from the samples every `capacity`
        # appends: short-lag dot products never leave the window, so their
        # recurrence rounding would otherwise persist.
        qt = self._qt
        if count == m or count % cap == 0:
            w = buf[l:end]
            self._s1 = float(np.sum(w))
            self._s2 = float(np.dot(w, w))
            qt[start:l + 1] = np.correlate(buf[start:end], w, mode="valid")
        else:
            old = buf[l - 1]
            self._s1 += x - old
            self._s2 += x * x - old * old
            # qt[j] <- qt_prev[j-1] - T[j-1]*T[l-1] + T[j+m-1]*x, then the
            # first entry (which has no predecessor) is computed directly.
            k = l - start
            t1 = self._t1[:k]
            t2 = self._t2[:k]
            np.multiply(buf[start:l], old, out=t1)
            np.subtract(qt[start:l], t1, out=t1)
            np.multiply(buf[start + m:l + m], x, out=t2)
            np.add(t1, t2, out=qt[start + 1:l + 1])
            qt[start] = float(np.dot(buf[start:start + m], buf[l:end]))
        mu = self._s1 / m
        var = self._s2 / m - mu * mu
        if var <= 0.0 or self._equal_run >= m:
            self._isig[l] = self._mos[l] = 0.0
        else:
            sig = math.sqrt(var)
            self._isig[l] = 1.0 / sig
            self._mos[l] = mu / sig

        hi = l - self.exclusion_radius  # candidates are buffer indices [start, hi)
        if hi <= start:
            return None
        # The identity steers the search; near-duplicate matches get their
        # value re-evaluated directly so every reported distance reproduces
        # from its neighbor to 1e-9 even on exactly repeating inputs.
        k = hi - start
        isig = float(self._isig[l])
        score = correlation_scores(qt[start:hi], isig, self._mos[l], self._isig[start:hi],
                                   self._mos[start:hi], m, self._t1[:k], self._t2[:k])
        i = int(score.argmax())
        return match_distance(buf, m, l, start + i, score[i], isig), self._offset + start + i

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
        out = [replay.append(x) for x in self._buf[self._start:self._end]][m - 1:]
        distances = np.array([np.inf if r is None else r[0] for r in out])
        indices = np.array([SENTINEL_INDEX if r is None else r[1] for r in out],
                           dtype=np.int64)
        return MatrixProfile(distances=distances, indices=indices, m=m)

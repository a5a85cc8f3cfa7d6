"""Naive reference implementations used as independent test oracles.

Everything here is deliberately slow and literal: plain Python loops over
the definitions, no shared code with the library paths under test.  The
one exception is stream_sweep_profile, the batch profile as an earlier
version computed it through StreamingProfile.append, kept as a bitwise
reference for the sweep that replaced it.
"""

import csv
import io
import math


def naive_mean(xs):
    return sum(xs) / len(xs)


def naive_pstd(xs):
    mu = naive_mean(xs)
    return math.sqrt(sum((v - mu) ** 2 for v in xs) / len(xs))


def naive_rolling_stats(xs, m):
    means, stds = [], []
    for i in range(len(xs) - m + 1):
        w = xs[i:i + m]
        means.append(naive_mean(w))
        stds.append(naive_pstd(w))
    return means, stds


def naive_znorm_distance(a, b):
    m = len(a)
    # A window is flat when its true sigma is zero, i.e. all values equal.
    flat_a = all(v == a[0] for v in a)
    flat_b = all(v == b[0] for v in b)
    if flat_a and flat_b:
        return 0.0
    if flat_a or flat_b:
        return math.sqrt(2.0 * m)
    sa, sb = naive_pstd(a), naive_pstd(b)
    ma, mb = naive_mean(a), naive_mean(b)
    d2 = sum(((x - ma) / sa - (y - mb) / sb) ** 2 for x, y in zip(a, b))
    return math.sqrt(min(max(d2, 0.0), 4.0 * m))


def naive_matrix_profile(xs, m, radius):
    """All-pairs profile; returns (distances, indices) lists with
    (inf, -1) sentinels. Ties break to the lowest index."""
    p = len(xs) - m + 1
    distances, indices = [], []
    for i in range(p):
        best, best_j = math.inf, -1
        for j in range(p):
            if abs(i - j) <= radius:
                continue
            d = naive_znorm_distance(xs[i:i + m], xs[j:j + m])
            if d < best:
                best, best_j = d, j
        distances.append(best)
        indices.append(best_j)
    return distances, indices


def naive_left_profile(xs, m, radius):
    """Causal profile: each subsequence compared only against strictly
    older subsequences outside the exclusion zone."""
    p = len(xs) - m + 1
    distances, indices = [], []
    for i in range(p):
        best, best_j = math.inf, -1
        for j in range(i - radius):
            d = naive_znorm_distance(xs[i:i + m], xs[j:j + m])
            if d < best:
                best, best_j = d, j
        distances.append(best)
        indices.append(best_j)
    return distances, indices


def _znormalized(x, m):
    """Every length-``m`` window of ``x`` z-normalized with its own two-pass
    mean and std, and the mask of flat windows, which become zero rows."""
    import numpy as np

    windows = np.lib.stride_tricks.sliding_window_view(x, m)
    mu = windows.mean(axis=1)
    sd = windows.std(axis=1)
    flat = (sd == 0.0) | (windows.max(axis=1) == windows.min(axis=1))
    z = windows - mu[:, None]
    z /= np.where(flat, 1.0, sd)[:, None]
    z[flat] = 0.0
    return z, flat


def batch_left_profile(xs, m, radius):
    """Vectorized left-profile oracle on explicitly z-normalized windows.

    Same definition as naive_left_profile but fast enough for the
    acceptance-scale randomized equivalence runs.  Independent of the
    streaming implementation: no rolling statistics, no dot-product
    recurrences.
    """
    import numpy as np

    x = np.asarray(xs, dtype=np.float64)
    p = x.size - m + 1
    z, flat = _znormalized(x, m)
    sq = np.einsum("ij,ij->i", z, z)
    distances = np.full(p, np.inf)
    indices = np.full(p, -1, dtype=np.int64)
    cap = 4.0 * m
    for i in range(p):
        hi = i - radius
        if hi <= 0:
            continue
        d2 = sq[:hi] + sq[i] - 2.0 * (z[:hi] @ z[i])
        if flat[i]:
            d2 = np.where(flat[:hi], 0.0, 2.0 * m)
        else:
            d2 = np.clip(d2, 0.0, cap)
            d2[flat[:hi]] = 2.0 * m
        j = int(np.argmin(d2))
        distances[i] = math.sqrt(d2[j])
        indices[i] = j
    return distances, indices


def windowed_left_profile(xs, m, radius, capacity, positions):
    """Left-profile values that a stream retaining ``capacity`` samples
    reports for the subsequences starting at ``positions``.

    Subsequence i arrives with sample i + m - 1.  Its candidates start at
    least ``radius + 1`` samples before it and lie wholly inside the newest
    ``capacity`` samples at that moment.  Distances are summed directly over
    explicitly z-normalized windows, with no dot-product identity, so this
    stays exact on a large common offset.  +inf where no candidate is left.
    """
    import numpy as np

    x = np.asarray(xs, dtype=np.float64)
    positions = [int(i) for i in positions]
    base = max(0, min(positions) + m - capacity)
    z, flat = _znormalized(x[base:max(positions) + m], m)
    out = []
    for i in positions:
        lo, hi = max(0, i + m - capacity) - base, i - radius - base
        if hi <= lo:
            out.append(math.inf)
            continue
        q = i - base
        if flat[q]:
            d2 = np.where(flat[lo:hi], 0.0, 2.0 * m)
        else:
            diff = z[lo:hi] - z[q]
            d2 = np.minimum(np.einsum("ij,ij->i", diff, diff), 4.0 * m)
            d2[flat[lo:hi]] = 2.0 * m
        out.append(math.sqrt(d2.min()))
    return np.array(out)


def profile_at(xs, m, radius, positions):
    """Full-profile values (the nearest neighbor on either side, outside
    the exclusion zone) of the subsequences starting at ``positions``.

    Distances are summed directly over explicitly z-normalized windows,
    like windowed_left_profile.  +inf where no candidate is left.
    """
    import numpy as np

    z, flat = _znormalized(np.asarray(xs, dtype=np.float64), m)
    out = []
    for i in positions:
        if flat[i]:
            d2 = np.where(flat, 0.0, 2.0 * m)
        else:
            diff = z - z[i]
            d2 = np.minimum(np.einsum("ij,ij->i", diff, diff), 4.0 * m)
            d2[flat] = 2.0 * m
        d2[max(0, i - radius):i + radius + 1] = np.inf
        out.append(math.sqrt(d2.min()))
    return np.array(out)


def naive_point_confusion(pred, truth, n):
    """(tp, fp, fn, tn) over ``n`` samples from one boolean per sample;
    raises ValueError for a negative ``n`` or a segment outside 0..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def mask(segments):
        flags = [False] * n
        for s in segments:
            if s.start < 0 or s.end > n:
                raise ValueError(f"segment [{s.start}, {s.end}) out of range 0..{n}")
            for i in range(s.start, s.end):
                flags[i] = True
        return flags

    pairs = list(zip(mask(pred), mask(truth)))
    return (pairs.count((True, True)), pairs.count((True, False)),
            pairs.count((False, True)), pairs.count((False, False)))


def chain_settles(chain, position, bound):
    """Whether every value <= ``bound`` gives ``chain``'s push at
    ``position`` one outcome and no event: the rule written out on its own,
    as a pure predicate."""
    if chain.in_anomaly:
        return bound < chain.exit_level and chain._run + 1 < chain.min_event_len
    return bound <= chain.enter_level or position < chain._cooldown_until


def csv_writer_text(header, rows):
    """The text ``csv.writer`` writes for ``header`` and ``rows`` of string
    fields, quoted as for CRLF line ends, which quotes a CR, but with LF
    line ends: what every CSV writer of the pipeline must produce."""
    out = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        out.append(buf.getvalue()[:-2] + "\n")
    return "".join(out)


def stream_sweep_profile(x, m, radius):
    """Full profile of ``x`` from a StreamingProfile that holds all of it,
    swept through ``append``: each append's result is the left neighbor,
    and the covariances it leaves score the newest subsequence in every
    earlier one's units for the right neighbor, where a strict ``>`` keeps
    the first of tied later ones.  Flat subsequences take the flat rule
    afterwards, and the later neighbor wins only where it is strictly
    closer.  The batch profile must reproduce it bitwise; returns
    (distances, indices) arrays.
    """
    import numpy as np

    from mpstream.core import match_distance
    from mpstream.stream import StreamingProfile

    x = np.asarray(x, dtype=np.float64)
    m, r = int(m), int(radius)
    p = x.size - m + 1
    distances = np.full(p, np.inf)
    indices = np.full(p, -1, dtype=np.int64)
    if r >= p - 1:  # every pair is a trivial match
        return distances, indices
    sp = StreamingProfile(m, max(x.size, 2 * m), r)
    later = np.full(p, -np.inf)  # best later score, in each one's units
    later_at = np.zeros(p, dtype=np.int64)
    for k, v in enumerate(x.tolist()):
        res = sp.append(v)
        if res is None:  # no candidate outside the zone yet
            continue
        l = k - m + 1
        distances[l], indices[l] = res
        hi = l - r
        score = sp._cov[:hi] * sp._isig[l]
        won = score > later[:hi]
        later[:hi][won] = score[won]
        later_at[:hi][won] = l

    flat = sp._isig[:p] == 0.0
    for i in range(p - r - 1):
        if flat[i]:
            lo = i + r + 1
            j = lo + int(flat[lo:].argmax())
            s = float(flat[j])
        else:
            j, s = int(later_at[i]), float(later[i])
        d = match_distance(sp._buf, m, i, j, s, float(sp._isig[i]))
        if d < distances[i]:
            distances[i], indices[i] = d, j
    return distances, indices

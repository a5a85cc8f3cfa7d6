import random
import tracemalloc

import numpy as np
import pytest

from mpstream.detect import AnomalySegment
from mpstream.evaluate import (
    ConfusionCounts,
    classification_metrics,
    metrics_table,
    point_confusion,
    segment_score,
)
from oracles import naive_point_confusion


def seg(a, b, label=None):
    return AnomalySegment(a, b, label)


class TestPointConfusion:
    def test_perfect_prediction(self):
        c = point_confusion([seg(10, 20)], [seg(10, 20)], 100)
        assert (c.tp, c.fp, c.fn, c.tn) == (10, 0, 0, 90)

    def test_empty_prediction(self):
        c = point_confusion([], [seg(10, 20)], 100)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 10, 90)

    def test_partial_overlap(self):
        c = point_confusion([seg(5, 15)], [seg(10, 20)], 100)
        assert (c.tp, c.fp, c.fn, c.tn) == (5, 5, 5, 85)

    def test_total_conservation(self):
        c = point_confusion([seg(3, 9), seg(40, 60)], [seg(5, 50)], 100)
        assert c.total == 100

    def test_out_of_range(self):
        for pred, truth in (([seg(90, 110)], []), ([seg(-1, 5)], []),
                            ([], [seg(-5, 10)]), ([], [seg(95, 101)])):
            with pytest.raises(ValueError, match="out of range 0..100"):
                point_confusion(pred, truth, 100)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            point_confusion([], [], -1)

    def test_matches_mask_oracle(self):
        rng = random.Random(13)

        def segments(n):
            out = []
            for _ in range(rng.randint(0, 6)):
                if out and rng.random() < 0.15:
                    out.append(rng.choice(out))
                elif rng.random() < 0.03:  # starts before 0 or ends after n
                    a = rng.randint(-4, n)
                    out.append(seg(a, a + 5) if a < 0 else seg(a, n + rng.randint(1, 3)))
                elif n:
                    a = rng.randrange(n)
                    out.append(seg(a, rng.randint(a + 1, n)))
            return out

        seen = dict.fromkeys(["raised left", "raised right", "n=0", "empty",
                              "duplicate", "unsorted", "overlapping"], 0)
        for _ in range(4000):
            n = 0 if rng.random() < 0.1 else rng.randint(1, 60)
            pred, truth = segments(n), segments(n)
            try:
                expected = naive_point_confusion(pred, truth, n)
            except ValueError:
                seen["raised left"] += any(s.start < 0 for s in pred + truth)
                seen["raised right"] += any(s.end > n for s in pred + truth)
                with pytest.raises(ValueError, match="out of range"):
                    point_confusion(pred, truth, n)
                continue
            c = point_confusion(pred, truth, n)
            got = (c.tp, c.fp, c.fn, c.tn)
            assert got == expected and all(type(v) is int for v in got), (pred, truth, n)
            for side in (pred, truth):
                starts = [s.start for s in side]
                seen["n=0"] += n == 0
                seen["empty"] += not side
                seen["duplicate"] += len(set(side)) < len(side)
                seen["unsorted"] += starts != sorted(starts)
                seen["overlapping"] += any(
                    a.start < b.end and b.start < a.end
                    for i, a in enumerate(side) for b in side[i + 1:])
        assert min(seen.values()) >= 50, seen

    def test_memory_does_not_grow_with_n(self):
        # The smaller n comes first: an implementation that allocates per
        # sample fails its bound before it is asked for 10**12 of them.
        for n in (10 ** 7, 10 ** 12):
            tracemalloc.start()
            try:
                c = point_confusion([seg(0, 10)], [seg(5, 20)], n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (n, peak)
            assert (c.tp, c.fp, c.fn, c.tn) == (5, 5, 10, n - 20)


class TestMetrics:
    def test_direct_arithmetic(self):
        m = classification_metrics(ConfusionCounts(3, 1, 0, 96))
        assert m.accuracy == 99 / 100
        assert m.precision == 3 / 4
        assert m.recall == 1.0
        assert m.f_score == 2 * (3 / 4) * 1.0 / ((3 / 4) + 1.0)

    def test_degenerate_all_negative(self):
        m = classification_metrics(ConfusionCounts(0, 0, 0, 100))
        assert m.accuracy == 1.0
        assert m.precision is None
        assert m.recall is None
        assert m.f_score is None

    def test_exact_on_fixed_tables(self):
        # Hand-derived rational values; expected expressions mirror the
        # defining formulas so the comparison is exact.
        tables = [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
            (5, 5, 5, 85), (10, 0, 10, 80), (8, 2, 0, 90),
            (1, 1, 1, 1), (50, 25, 25, 900), (7, 3, 2, 88),
            (2, 0, 8, 90), (16, 16, 32, 936), (43, 7, 0, 650),
        ]
        for tp, fp, fn, tn in tables:
            m = classification_metrics(ConfusionCounts(tp, fp, fn, tn))
            total = tp + fp + fn + tn
            assert m.accuracy == (tp + tn) / total
            if tp + fp:
                assert m.precision == tp / (tp + fp)
            else:
                assert m.precision is None
            if tp + fn:
                assert m.recall == tp / (tp + fn)
            else:
                assert m.recall is None
            if tp + fp and tp + fn and tp:
                p, r = tp / (tp + fp), tp / (tp + fn)
                assert m.f_score == 2 * p * r / (p + r)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(ConfusionCounts(0, 0, 0, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestMetricsTable:
    def test_ll_row_rendering(self):
        # Counts picked so the row shows 0.990 / 0.860 / 1.000 / 0.925.
        table = metrics_table([("LL fault", ConfusionCounts(43, 7, 0, 650))])
        lines = table.splitlines()
        assert lines[0].split() == ["Fault", "Accuracy", "Precision", "Recall", "F-score"]
        assert lines[1].split() == ["LL", "fault", "0.990", "0.860", "1.000", "0.925"]

    def test_undefined_rendered_as_dash(self):
        table = metrics_table([("quiet", ConfusionCounts(0, 0, 0, 10))])
        assert table.splitlines()[1].split() == ["quiet", "1.000", "-", "-", "-"]

    def test_empty_table_has_header(self):
        assert metrics_table([]).split() == list(
            ("Fault", "Accuracy", "Precision", "Recall", "F-score"))


class TestSegmentScore:
    def test_perfect_four(self):
        truth = [seg(10, 20), seg(40, 50), seg(70, 80), seg(90, 95)]
        rep = segment_score(truth, truth)
        assert (rep.detected, rep.missed, rep.false_segments) == (4, 0, 0)
        for m in rep.matches:
            assert m.start_latency == 0 and m.end_latency == 0

    def test_false_segment(self):
        rep = segment_score([seg(5, 8)], [seg(10, 20)])
        assert rep.false_segments == 1
        assert rep.detected == 0
        assert rep.missed == 1
        # Any overlap matches, down to one shared sample.
        rep = segment_score([seg(19, 40)], [seg(10, 20)])
        assert (rep.detected, rep.false_segments) == (1, 0)

    def test_boundary_latencies(self):
        rep = segment_score([seg(12, 25)], [seg(10, 20)])
        assert rep.detected == 1
        (m,) = rep.matches
        assert m.start_latency == +2
        assert m.end_latency == +5

    def test_early_is_negative(self):
        rep = segment_score([seg(5, 18)], [seg(10, 20)])
        (m,) = rep.matches
        assert m.start_latency == -5
        assert m.end_latency == -2

    def test_largest_overlap_wins_ties_to_earlier(self):
        truth = [seg(0, 10), seg(20, 30)]
        rep = segment_score([seg(5, 25)], truth)
        # Overlap 5 with each; tie goes to the earlier truth segment.
        assert rep.detected == 2  # both overlapped
        (m,) = rep.matches
        assert m.truth_index == 0

    def test_permutation_invariance(self):
        r = np.random.default_rng(5)
        truth = [seg(10, 30), seg(50, 60), seg(80, 85)]
        pred = [seg(12, 25), seg(49, 61), seg(90, 99)]
        a = segment_score(pred, truth)
        b = segment_score(pred[::-1], truth)
        assert (a.detected, a.missed, a.false_segments) == \
               (b.detected, b.missed, b.false_segments)

    def test_identical_segment_lists_score_perfectly(self):
        # Identical segment lists give precision = recall = 1.
        segs = [seg(10, 30), seg(50, 64)]
        m = classification_metrics(point_confusion(segs, segs, 100))
        assert m.precision == 1.0 and m.recall == 1.0

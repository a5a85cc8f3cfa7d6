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
        with pytest.raises(ValueError):
            point_confusion([seg(90, 110)], [], 100)
        with pytest.raises(ValueError):
            point_confusion([], [seg(-5, 10)], 100)


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

    def test_rasterization_consistency(self):
        # Identical segment lists give precision = recall = 1.
        segs = [seg(10, 30), seg(50, 64)]
        m = classification_metrics(point_confusion(segs, segs, 100))
        assert m.precision == 1.0 and m.recall == 1.0

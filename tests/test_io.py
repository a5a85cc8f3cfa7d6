import numpy as np
import pytest

from mpstream.core import SENTINEL_INDEX, MatrixProfile
from mpstream.detect import AnomalySegment, DetectionEvent, EventKind
from mpstream.evaluate import Metrics
from mpstream.generate import GeneratorConfig, FaultKind, FaultSpec, generate_base, inject_fault
from mpstream.io import (
    DataError,
    read_dataset,
    read_events,
    read_report,
    read_truth,
    write_dataset,
    write_events,
    write_profile,
    write_profile_trace,
    write_report,
    write_truth,
)

CFG = GeneratorConfig(sample_rate_hz=2000.0, duration_s=0.5, seed=3)


def small_dataset():
    base = generate_base(CFG)
    return inject_fault(base, FaultSpec(FaultKind.POINT_OUTLIER, 0.2, 0.01), CFG)


class TestDatasetRoundTrip:
    def test_header_and_shape(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.csv"
        write_dataset(path, ds)
        first = path.read_text().splitlines()[0]
        assert first == "t_s,f_c_hz,label"
        t, x, labels = read_dataset(path)
        assert len(t) == len(x) == len(labels) == 1000
        s = ds.truth[0].start
        assert labels[s] == "point_outlier"
        assert labels[s - 1] == ""

    def test_values_survive_at_9_digits(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "data.csv"
        write_dataset(path, ds)
        _, x, _ = read_dataset(path)
        assert np.allclose(x, ds.channel.samples, rtol=1e-8)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,f_c_hz,label\n0.0,50.0,\n0.001,oops,\n")
        with pytest.raises(DataError, match="line 3"):
            read_dataset(path)
        path.write_text("t_s,f_c_hz,label\n0.0,50.0,\n0.001,50.0\n")
        with pytest.raises(DataError, match="line 3: expected 3 fields, got 2"):
            read_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"t_s,f_c_hz,label\n0.0,50.0,\n0.001,{value},\n")
        with pytest.raises(DataError, match="line 3: non-finite"):
            read_dataset(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(DataError, match="line 1"):
            read_dataset(path)


class TestTruthRoundTrip:
    def test_round_trip(self, tmp_path):
        truth = [AnomalySegment(10, 20, "ll_fault"), AnomalySegment(50, 60, None)]
        path = tmp_path / "truth.csv"
        write_truth(path, truth)
        assert read_truth(path) == truth

    def test_invalid_segment_rejected(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("start_idx,end_idx,label\n20,10,x\n")
        with pytest.raises(DataError, match="line 2"):
            read_truth(path)
        path.write_text("start_idx,end_idx,label\n1.5,10,x\n")
        with pytest.raises(DataError, match="line 2: malformed index"):
            read_truth(path)


class TestEventsRoundTrip:
    def test_round_trip(self, tmp_path):
        events = [DetectionEvent(EventKind.START, 100, 5.25),
                  DetectionEvent(EventKind.END, 200, 1.5)]
        path = tmp_path / "events.csv"
        write_events(path, events)
        assert read_events(path) == events

    def test_empty_events_file(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(path, [])
        assert read_events(path) == []

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("kind,position,profile_value\nmaybe,1,2.0\n")
        with pytest.raises(DataError, match="line 2"):
            read_events(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_profile_value_names_line(self, tmp_path, value):
        path = tmp_path / "events.csv"
        path.write_text(f"kind,position,profile_value\nstart,1,2.0\nend,5,{value}\n")
        with pytest.raises(DataError, match="line 3: non-finite number"):
            read_events(path)


class TestProfileTrace:
    def test_warmup_fields_empty(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_profile_trace(path, [0.0, 0.5], [50.0, 50.1], ["", "x"], [None, 2.5])
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,f_c_hz,label,profile_value"
        assert lines[1] == "0,50,,"
        assert lines[2] == "0.5,50.1,x,2.5"


class TestBatchProfile:
    def test_no_neighbor_fields_empty(self, tmp_path):
        path = tmp_path / "profile.csv"
        mp = MatrixProfile(np.array([np.inf, 0.1234567891234, 2.0]),
                           np.array([SENTINEL_INDEX, 2, 1]), m=4)
        write_profile(path, mp)
        assert path.read_text() == ("position,distance,index\n"
                                    "0,,\n1,0.123456789,2\n2,2,1\n")


class TestReportRoundTrip:
    def test_lossless_round_trip(self, tmp_path):
        rows = [("ll_fault", Metrics(0.99, 0.86, 1.0, 0.925)),
                ("quiet", Metrics(1.0, None, None, None))]
        path = tmp_path / "report.csv"
        write_report(path, rows)
        back = read_report(path)
        assert back == rows
        # Idempotent: re-serializing the parsed report is byte-identical.
        path2 = tmp_path / "report2.csv"
        write_report(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("row, message", [
        ("ll_fault,0.9x,,,", "malformed metric"),
        ("ll_fault,,0.5,0.5,0.5", "accuracy must be present")])
    def test_malformed_row_rejected(self, tmp_path, row, message):
        path = tmp_path / "report.csv"
        path.write_text(f"fault,accuracy,precision,recall,f_score\n{row}\n")
        with pytest.raises(DataError, match=f"line 2: {message}"):
            read_report(path)


class TestEmptyFiles:
    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "t_s,f_c_hz,label\n"):  # no header; no rows
            path.write_text(text)
            with pytest.raises(DataError):
                read_dataset(path)

    def test_empty_events_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            read_events(path)


class TestFileFailures:
    @pytest.mark.parametrize("read", [read_dataset, read_truth, read_events,
                                      read_report])
    def test_unreadable_input_is_data_error(self, tmp_path, read):
        with pytest.raises(DataError, match="cannot read input"):
            read(tmp_path)
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(DataError, match="not UTF-8"):
            read(binary)

    @pytest.mark.parametrize("write, rows", [
        (write_dataset, small_dataset()), (write_truth, []),
        (write_events, []), (write_report, []),
        (write_profile, MatrixProfile(np.zeros(1), np.zeros(1, dtype=np.int64), m=2)),
    ])
    def test_unwritable_output_is_data_error(self, tmp_path, write, rows):
        with pytest.raises(DataError, match="cannot write output"):
            write(tmp_path, rows)

    def test_unwritable_trace_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write output"):
            write_profile_trace(tmp_path, [], [], [], [])

    def test_negative_truth_index_rejected(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("start_idx,end_idx,label\n0,3,x\n-4,-2,y\n")
        with pytest.raises(DataError, match="line 3: negative index"):
            read_truth(path)

    def test_negative_event_position_rejected(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("kind,position,profile_value\nstart,-3,5.0\n")
        with pytest.raises(DataError, match="line 2: negative position"):
            read_events(path)

import csv
import dataclasses
import math
import sys

import numpy as np
import pytest

from mpstream import io as mio
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
from oracles import csv_writer_text

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

    @pytest.mark.parametrize("read, text, message", [
        (read_dataset, 't_s,f_c_hz,label\n0,1,"a\nb"\n1,2,\nx,3,\n', "line 5: malformed number"),
        (read_dataset, 't_s,f_c_hz,label\n0,1,"a\nb"\n1,2\n', "line 4: expected 3 fields, got 2"),
        (read_truth, 'start_idx,end_idx,label\n0,1,"a\nb"\n1,x,\n', "line 4: malformed index"),
        (read_dataset, "t_s,f_c_hz,label\n0,1,\n\n", "line 3: expected 3 fields, got 0"),
    ])
    def test_error_names_file_line_after_a_multiline_field(self, tmp_path, read, text,
                                                           message):
        # A quoted label that holds a newline spans two file lines; errors
        # after it name the file line, not the row.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=f"{path}: {message}$"):
            read(path)

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


HEADER_LINE = "t_s,f_c_hz,label\n"


def plain_lines(n):
    """``n`` dataset rows without quotes, CRs or NULs, a few of them labeled."""
    return [f"{i * 0.0002:.9g},{50 + math.sin(i) * 0.01:.9g},{'Störung' if i % 97 == 0 else ''}\n"
            for i in range(n)]


def long_lines():
    """Enough rows for three read blocks."""
    return plain_lines(3 * mio._READ_BLOCK // len(plain_lines(1)[0]))


def outcome(path):
    """What ``read_dataset`` gives for ``path``: its columns as lists, or
    the message of its DataError."""
    try:
        times, values, labels = read_dataset(path)
    except DataError as exc:
        return str(exc)
    return times.tolist(), values.tolist(), labels


def rowwise_outcome(path, monkeypatch):
    """``outcome`` with every block sent to the row-wise reader."""
    with monkeypatch.context() as m:
        m.setattr(mio, "_columns", lambda lines: None)
        return outcome(path)


class TestBlockReader:
    def test_long_file_matches_row_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        lines = long_lines()
        path.write_text(HEADER_LINE + "".join(lines), encoding="utf-8")
        assert len(path.read_text(encoding="utf-8")) > 2 * mio._READ_BLOCK
        got = outcome(path)
        assert got == rowwise_outcome(path, monkeypatch)
        assert len(got[2]) == len(lines) and got[2][97] == "Störung"

    @pytest.mark.parametrize("bad, message", [
        ("0.1,oops,\n", "malformed number"),
        ("0.1,nan,\n", "non-finite number"),
        ("-inf,50,\n", "non-finite number"),
        ("0.1,50\n", "expected 3 fields, got 2"),
        ("0.1,50,x,y\n", "expected 3 fields, got 4"),
        ("0.1,50\n0.2,50,0.3,\n", "expected 3 fields, got 2"),  # four commas on two lines
        ("\n", "expected 3 fields, got 0"),
        ("0,1," + "x" * 200_000 + "\n", "field larger than field limit (131072)"),
    ])
    def test_failure_in_later_block_names_line(self, tmp_path, monkeypatch, bad, message):
        lines = long_lines()
        at = len(lines) - 10  # in the last block
        assert len(HEADER_LINE + "".join(lines[:at])) > 2 * mio._READ_BLOCK
        path = tmp_path / "bad.csv"
        path.write_text(HEADER_LINE + "".join(lines[:at]) + bad + "".join(lines[at:]),
                        encoding="utf-8")
        expected = f"{path}: line {at + 2}: {message}"
        assert outcome(path) == expected
        assert rowwise_outcome(path, monkeypatch) == expected

    @pytest.mark.parametrize("label", ['say "hi"', "a,b", "x\ny", "x\rz"])
    def test_label_with_csv_specials_survives(self, tmp_path, label):
        # An unquoted CR, like an unquoted LF, ends the row for a CSV reader.
        ds = dataclasses.replace(small_dataset(), truth=[AnomalySegment(5, 7, label)])
        path = tmp_path / "data.csv"
        write_dataset(path, ds)
        times, values, labels = read_dataset(path)
        assert labels[4:8] == ["", label, label, ""]
        write_truth(tmp_path / "truth.csv", ds.truth)
        assert read_truth(tmp_path / "truth.csv") == ds.truth
        trace = tmp_path / "trace.csv"
        profile = [None if i % 3 else i / 7 for i in range(len(times))]
        write_profile_trace(trace, times, values, labels, profile)
        with open(trace, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(mio.PROFILE_HEADER)
        assert [row[2] for row in rows[1:]] == labels
        assert [row[3] for row in rows[1:]] == ["" if v is None else "%.9g" % v
                                                for v in profile]

    def test_crlf_copy_reads_the_same(self, tmp_path):
        lines = long_lines()
        text = HEADER_LINE + "".join(lines)
        path, crlf, mixed = tmp_path / "data.csv", tmp_path / "crlf.csv", tmp_path / "mixed.csv"
        path.write_text(text, encoding="utf-8")
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        # CR line ends from a later block on, after an LF header.
        at = len(lines) - 10
        mixed.write_bytes((HEADER_LINE + "".join(lines[:at])
                           + "".join(lines[at:]).replace("\n", "\r\n")).encode())
        assert outcome(crlf) == outcome(mixed) == outcome(path)

    @pytest.mark.parametrize("lines", [plain_lines(3), long_lines()], ids=["short", "long"])
    def test_last_line_without_newline(self, tmp_path, lines):
        path = tmp_path / "data.csv"
        path.write_text(HEADER_LINE + "".join(lines)[:-1], encoding="utf-8")
        times, values, labels = outcome(path)
        assert len(labels) == len(lines)
        last = lines[-1][:-1].split(",")
        assert (times[-1], values[-1], labels[-1]) == (float(last[0]), float(last[1]), last[2])

    def test_bad_row_before_bytes_that_are_not_utf8(self, tmp_path):
        lines = plain_lines(3000)
        lines[4] = "0.1,oops,\n"
        path = tmp_path / "bad.csv"
        # The bad bytes sit in the first read block but past the first 8 KiB
        # that the text layer decodes at once.
        path.write_bytes((HEADER_LINE + "".join(lines)).encode() + b"1,50,\xff\n")
        assert 8192 < path.stat().st_size < mio._READ_BLOCK
        assert outcome(path) == f"{path}: line 6: malformed number"
        path.write_bytes((HEADER_LINE + "".join(lines[5:])).encode() + b"1,50,\xff\n")
        assert outcome(path) == f"{path}: not UTF-8 text"

    def test_nul_label_behaves_as_csv_reader(self, tmp_path):
        lines = long_lines()
        at = len(lines) - 10
        lines[at] = "0.1,50,a\0b\n"
        path = tmp_path / "nul.csv"
        path.write_text(HEADER_LINE + "".join(lines), encoding="utf-8")
        if sys.version_info >= (3, 11):
            assert outcome(path)[2][at] == "a\0b"
        else:
            assert outcome(path) == f"{path}: line {at + 2}: line contains NUL"


class TestNumericStrings:
    """The block path parses numbers with numpy, the row path with float;
    both must accept the same strings, as the same values."""

    @pytest.mark.parametrize("s", ["1_0", " 1.5 ", "١٢", "+.5", "1e400", "0x10", "",
                                   "nan", "-Infinity"])
    def test_same_value_or_error_on_both_paths(self, tmp_path, s):
        try:
            value = float(s)
        except ValueError:
            expected = "malformed number"
        else:
            expected = [0.0, value] if math.isfinite(value) else "non-finite number"
        results = []
        # An unquoted label leaves the block to numpy; a quoted one sends it
        # to the row-wise reader.
        for label in ("q", '"q"'):
            path = tmp_path / "data.csv"
            path.write_text(f"{HEADER_LINE}0,0,\n0.5,{s},{label}\n", encoding="utf-8")
            results.append(outcome(path))
        if isinstance(expected, str):
            assert results == [f"{path}: line 3: {expected}"] * 2
            assert mio._columns([f"0.5,{s},q\n"]) is None
        else:
            assert results == [([0.0, 0.5], expected, ["", "q"])] * 2
            assert mio._columns([f"0.5,{s},q\n"])[1].tolist() == [value]


SPECIAL_LABELS = ["", "a,b", 'say "hi"', "x\ny", "x\rz", " lead", "Störung ⚡"]


class TestCsvWriterAgreement:
    @pytest.mark.parametrize("field", SPECIAL_LABELS)
    def test_text_field_quoted_as_csv_writer(self, field):
        assert mio._text(field) + ",z\n" == csv_writer_text([field, "z"], [])

    def test_writers_match_csv_writer(self, tmp_path):
        ds = small_dataset()
        ds = dataclasses.replace(ds, truth=[AnomalySegment(10 + 50 * k, 12 + 50 * k, label)
                                            for k, label in enumerate(SPECIAL_LABELS[1:])])
        times, values = ds.channel.times_s, ds.channel.samples
        labels = [""] * len(times)
        for seg in ds.truth:
            labels[seg.start:seg.end] = [seg.label] * (seg.end - seg.start)
        g = "{:.9g}".format

        write_dataset(tmp_path / "data.csv", ds)
        assert (tmp_path / "data.csv").read_bytes() == csv_writer_text(
            mio.DATASET_HEADER,
            ([g(t), g(x), lab] for t, x, lab in zip(times, values, labels))).encode()

        profile = [None if i % 3 else i / 7 for i in range(len(times))]
        write_profile_trace(tmp_path / "trace.csv", times, values, labels, profile)
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_text(
            mio.PROFILE_HEADER, ([g(t), g(x), lab, "" if p is None else g(p)]
                                 for t, x, lab, p in zip(times, values, labels, profile))).encode()

        events = [DetectionEvent(EventKind.START, 12, 5.123456789123),
                  DetectionEvent(EventKind.END, 40, 0.5)]
        write_events(tmp_path / "events.csv", events)
        assert (tmp_path / "events.csv").read_bytes() == csv_writer_text(
            mio.EVENTS_HEADER, ([ev.kind.value, str(ev.position), g(ev.profile_value)]
                                for ev in events)).encode()

        write_truth(tmp_path / "truth.csv", ds.truth)
        assert (tmp_path / "truth.csv").read_bytes() == csv_writer_text(
            mio.TRUTH_HEADER, ([str(s.start), str(s.end), s.label] for s in ds.truth)).encode()

        rows = [(label, Metrics(1.0, 0.25, None, None)) for label in SPECIAL_LABELS]
        write_report(tmp_path / "report.csv", rows)
        assert (tmp_path / "report.csv").read_bytes() == csv_writer_text(
            mio.REPORT_HEADER, ([name, "1", "0.25", "", ""] for name, _ in rows)).encode()

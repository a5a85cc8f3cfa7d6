"""CSV readers and writers for every pipeline artifact.

Formats (all with a header row, LF line endings, floats at 9 significant
digits so outputs are byte-reproducible):

* dataset:        ``t_s,f_c_hz,label`` — one row per sample, label empty for
  normal samples.
* truth sidecar:  ``start_idx,end_idx,label`` — ground-truth segments.
* events:         ``kind,position,profile_value``.
* profile trace:  ``t_s,f_c_hz,label,profile_value`` — per-sample; the
  profile field is empty while the stream warms up and on steps the
  detector settled, where it computed no exact value.
* report:         ``fault,accuracy,precision,recall,f_score`` — undefined
  metrics serialize as empty fields.
* batch profile:  ``position,distance,index`` — distance and index empty
  where a subsequence has no valid neighbor.

Every reader accepts its writer's output and reports malformed rows by file
line number.  Only this module opens a pipeline file, and every failure to
read or write one raises :class:`DataError`.

Writers format each row as one line, floats read through memoryviews, and
write the lines a block at a time; a text field is quoted as ``csv.writer``
quotes it.  ``read_dataset`` parses blocks of about 256 KiB of lines column
by column: one ``np.array(..., dtype=np.float64)``, which accepts exactly
the strings ``float`` does, per number column.  A file with a block that
may hold a quote, CR or NUL, a row without three fields, a line longer than
``csv.field_size_limit()``, a bad number or undecodable bytes is read again
from line 1, row by row through ``csv.reader``, as every other file is;
that path alone names a failing line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import re
from itertools import islice

import numpy as np

from mpstream.core import SENTINEL_INDEX, MatrixProfile
from mpstream.detect import AnomalySegment, DetectionEvent, EventKind
from mpstream.evaluate import Metrics
from mpstream.generate import LabeledDataset

__all__ = [
    "DataError",
    "write_dataset",
    "read_dataset",
    "write_truth",
    "read_truth",
    "write_events",
    "read_events",
    "write_profile_trace",
    "write_report",
    "read_report",
    "write_profile",
]

DATASET_HEADER = ["t_s", "f_c_hz", "label"]
TRUTH_HEADER = ["start_idx", "end_idx", "label"]
EVENTS_HEADER = ["kind", "position", "profile_value"]
PROFILE_HEADER = ["t_s", "f_c_hz", "label", "profile_value"]
REPORT_HEADER = ["fault", "accuracy", "precision", "recall", "f_score"]
BATCH_PROFILE_HEADER = ["position", "distance", "index"]

_READ_BLOCK = 1 << 18  # characters of whole lines per dataset read block
_WRITE_BLOCK = 4096    # lines joined per write
# A field without these characters is written as it is.
_QUOTABLE = re.compile('[,"\r\n\0]')


class DataError(Exception):
    """Malformed or inconsistent data file."""


def _floats(values) -> memoryview:
    # A memoryview yields Python floats one at a time, without a list of them.
    return memoryview(np.asarray(values, dtype=np.float64))


def _text(field: str) -> str:
    """``field`` as ``csv.writer`` writes it.  A field that can come out
    changed goes through ``csv.writer`` itself, so each Python version's
    quoting rule holds.  A CRLF terminator makes it quote a CR as well,
    where a CSV reader would end the row; with LF alone it may not."""
    if not _QUOTABLE.search(field):
        return field
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([field])
    return buf.getvalue()[:-2]


def _write(path, header, lines) -> None:
    """Write ``header``, then ``lines`` (formatted rows, each ending in a
    newline), as the CSV at ``path``."""
    lines = iter(lines)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            while block := "".join(islice(lines, _WRITE_BLOCK)):
                fh.write(block)
    except OSError as exc:
        raise DataError(f"cannot write output: {exc}") from exc


@contextlib.contextmanager
def _reading(path):
    """The text file at ``path``, open for reading; a failure to open or
    decode it raises :class:`DataError`."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read input: {exc}") from exc
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _rows(path, header):
    """Yield ``(line number, fields)`` for each data row of the CSV at
    ``path``, which must open with ``header``; every row must give as many
    fields."""
    with _reading(path) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            if first != header:
                raise DataError(f"{path}: line 1: expected header {','.join(header)}")
            lineno = reader.line_num + 1  # a row's first file line
            for row in reader:
                if len(row) != len(header):
                    raise DataError(f"{path}: line {lineno}: "
                                    f"expected {len(header)} fields, got {len(row)}")
                yield lineno, row
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _sample_labels(dataset: LabeledDataset) -> list[str]:
    labels = [""] * len(dataset.channel)
    for seg in dataset.truth:
        labels[seg.start:seg.end] = [_text(seg.label or "")] * (seg.end - seg.start)
    return labels


def write_dataset(path, dataset: LabeledDataset) -> None:
    channel = dataset.channel
    _write(path, DATASET_HEADER,
           map("%.9g,%.9g,%s\n".__mod__,
               zip(_floats(channel.times_s), _floats(channel.samples),
                   _sample_labels(dataset))))


def _columns(lines):
    """``(times, values, labels)`` of ``lines``, a block of dataset rows, or
    None where the block needs the row-wise reader."""
    text = "".join(lines)
    if '"' in text or "\r" in text or "\0" in text:
        return None
    # Every line, the file's last one too, ends in the third of its three
    # field ends: two commas, then a newline.  No line is longer in UTF-8
    # bytes than a csv field may be in characters.
    b = np.frombuffer(text.encode(), np.uint8)
    ends = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    line_ends = ends[2::3]
    if (ends.size != 3 * len(lines) or (b[line_ends] != ord("\n")).any()
            or np.diff(line_ends, prepend=-1).max() > csv.field_size_limit()):
        return None
    fields = text[:-1].replace("\n", ",").split(",")
    try:
        times = np.array(fields[0::3], dtype=np.float64)
        values = np.array(fields[1::3], dtype=np.float64)
    except ValueError:
        return None
    if not (np.isfinite(times).all() and np.isfinite(values).all()):
        return None
    return times, values, fields[2::3]


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Returns (times_s, values, labels); every number must be finite, and
    there must be at least one sample."""
    times, values, labels = [], [], []
    with _reading(path) as fh:
        try:
            block = fh.readlines(1) == [",".join(DATASET_HEADER) + "\n"]
            while block and (lines := fh.readlines(_READ_BLOCK)):
                if block := _columns(lines):
                    times.append(block[0])
                    values.append(block[1])
                    labels += block[2]
        except UnicodeDecodeError:  # a block decodes further ahead than a row
            block = None
    if not block:
        # Read the whole file again, row by row, to name the failing line.
        row_t, row_x, labels = [], [], []
        for lineno, (t, x, label) in _rows(path, DATASET_HEADER):
            try:
                row_t.append(float(t))
                row_x.append(float(x))
            except ValueError:
                raise DataError(f"{path}: line {lineno}: malformed number") from None
            if not (math.isfinite(row_t[-1]) and math.isfinite(row_x[-1])):
                raise DataError(f"{path}: line {lineno}: non-finite number")
            labels.append(label)
        times, values = [np.array(row_t, dtype=np.float64)], [np.array(row_x, dtype=np.float64)]
    if not labels:
        raise DataError(f"{path}: no samples")
    return np.concatenate(times), np.concatenate(values), labels


def write_truth(path, truth) -> None:
    _write(path, TRUTH_HEADER,
           ("%d,%d,%s\n" % (seg.start, seg.end, _text(seg.label or "")) for seg in truth))


def read_truth(path) -> list[AnomalySegment]:
    out = []
    for lineno, (start, end, label) in _rows(path, TRUTH_HEADER):
        try:
            start, end = int(start), int(end)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed index") from None
        if start < 0:
            raise DataError(f"{path}: line {lineno}: negative index {start}")
        try:
            out.append(AnomalySegment(start, end, label or None))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
    return out


def write_events(path, events) -> None:
    _write(path, EVENTS_HEADER,
           ("%s,%d,%.9g\n" % (_text(ev.kind.value), ev.position, ev.profile_value)
            for ev in events))


def read_events(path) -> list[DetectionEvent]:
    out = []
    for lineno, (kind, position, value) in _rows(path, EVENTS_HEADER):
        try:
            out.append(DetectionEvent(EventKind(kind), int(position), float(value)))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed event") from None
        if not math.isfinite(out[-1].profile_value):
            raise DataError(f"{path}: line {lineno}: non-finite number")
        if out[-1].position < 0:
            raise DataError(f"{path}: line {lineno}: negative position {position}")
    return out


def write_profile_trace(path, times, values, labels, profile_values) -> None:
    """Per-sample tidy trace; ``profile_values`` entries may be None."""
    text = {lab: _text(lab) for lab in set(labels)}
    _write(path, PROFILE_HEADER,
           ("%.9g,%.9g,%s,\n" % (t, x, text[lab]) if pv is None
            else "%.9g,%.9g,%s,%.9g\n" % (t, x, text[lab], pv)
            for t, x, lab, pv in zip(_floats(times), _floats(values), labels, profile_values)))


def write_profile(path, mp: MatrixProfile) -> None:
    """Batch profile, one row per subsequence position."""
    indices = memoryview(np.asarray(mp.indices, dtype=np.int64))
    _write(path, BATCH_PROFILE_HEADER,
           ("%d,,\n" % i if j == SENTINEL_INDEX else "%d,%.9g,%d\n" % (i, d, j)
            for i, (d, j) in enumerate(zip(_floats(mp.distances), indices))))


def write_report(path, rows: list[tuple[str, Metrics]]) -> None:
    _write(path, REPORT_HEADER,
           (",".join([_text(name)] + ["" if v is None else "%.9g" % v
                                       for v in (m.accuracy, m.precision, m.recall, m.f_score)])
            + "\n" for name, m in rows))


def read_report(path) -> list[tuple[str, Metrics]]:
    out = []
    for lineno, (name, *metrics) in _rows(path, REPORT_HEADER):
        try:
            vals = [None if v == "" else float(v) for v in metrics]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed metric") from None
        if vals[0] is None:
            raise DataError(f"{path}: line {lineno}: accuracy must be present")
        out.append((name, Metrics(*vals)))
    return out

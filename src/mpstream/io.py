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
"""

from __future__ import annotations

import csv
import math

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


class DataError(Exception):
    """Malformed or inconsistent data file."""


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _fmt_column(values):
    # A memoryview yields Python floats one at a time, without a list of them.
    return map("{:.9g}".format, memoryview(np.asarray(values, dtype=np.float64)))


def _write(path, header, rows) -> None:
    """Write ``header``, then ``rows``, as the CSV at ``path``."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise DataError(f"cannot write output: {exc}") from exc


def _rows(path, header):
    """Yield ``(line number, fields)`` for each data row of a CSV that must
    open with ``header`` and give every row as many fields."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            if first != header:
                raise DataError(f"{path}: line 1: expected header {','.join(header)}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"{path}: line {lineno}: "
                                    f"expected {len(header)} fields, got {len(row)}")
                yield lineno, row
    except OSError as exc:
        raise DataError(f"cannot read input: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _sample_labels(dataset: LabeledDataset) -> list[str]:
    labels = [""] * len(dataset.channel)
    for seg in dataset.truth:
        for i in range(seg.start, seg.end):
            labels[i] = seg.label or ""
    return labels


def write_dataset(path, dataset: LabeledDataset) -> None:
    channel = dataset.channel
    _write(path, DATASET_HEADER,
           zip(_fmt_column(channel.times_s), _fmt_column(channel.samples),
               _sample_labels(dataset)))


def read_dataset(path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Returns (times_s, values, labels); every number must be finite, and
    there must be at least one sample."""
    times, values, labels = [], [], []
    for lineno, (t, x, label) in _rows(path, DATASET_HEADER):
        try:
            times.append(float(t))
            values.append(float(x))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: malformed number") from None
        if not (math.isfinite(times[-1]) and math.isfinite(values[-1])):
            raise DataError(f"{path}: line {lineno}: non-finite number")
        labels.append(label)
    if not values:
        raise DataError(f"{path}: no samples")
    return np.asarray(times), np.asarray(values), labels


def write_truth(path, truth) -> None:
    _write(path, TRUTH_HEADER,
           ([seg.start, seg.end, seg.label or ""] for seg in truth))


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
           ([ev.kind.value, ev.position, _fmt(ev.profile_value)] for ev in events))


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
    _write(path, PROFILE_HEADER,
           ((t, x, lab, "" if pv is None else _fmt(pv))
            for t, x, lab, pv in zip(_fmt_column(times), _fmt_column(values),
                                     labels, profile_values)))


def write_profile(path, mp: MatrixProfile) -> None:
    """Batch profile, one row per subsequence position."""
    _write(path, BATCH_PROFILE_HEADER,
           ([i, "", ""] if j == SENTINEL_INDEX else [i, _fmt(d), j]
            for i, (d, j) in enumerate(zip(mp.distances, mp.indices))))


def write_report(path, rows: list[tuple[str, Metrics]]) -> None:
    _write(path, REPORT_HEADER,
           ([name] + ["" if v is None else _fmt(v)
                      for v in (m.accuracy, m.precision, m.recall, m.f_score)]
            for name, m in rows))


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

"""Command-line pipeline: generate, detect, evaluate, profile.

Runs are driven by a flat JSON config document (every key optional, unknown
keys rejected) plus a few overriding flags.  Each key is a field of
:class:`RunConfig` or of one of its component configs
(:class:`~mpstream.generate.GeneratorConfig`,
:class:`~mpstream.generate.FourFaultLayout`,
:class:`~mpstream.detect.DetectorConfig`), which holds its default and its
validation.  :func:`main` returns the exit code: 0 success, 1 usage or
config error (including an unknown command or flag, a config value of the
wrong JSON type, and a config value too large to allocate, such as a
``capacity`` of 10**12; the length given to ``evaluate`` allocates nothing),
2 data error; ``--help`` exits 0.  Set ``MPSTREAM_LOG=debug|info|warning``
to control diagnostics on stderr; any other value means ``warning``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from pathlib import Path


from mpstream import stream
from mpstream.core import matrix_profile
from mpstream.detect import AnomalyDetector, DetectorConfig, events_to_segments
from mpstream.evaluate import (classification_metrics, metrics_table,
                               point_confusion, segment_score)
from mpstream.generate import (FaultKind, FaultSpec, FourFaultLayout,
                               GeneratorConfig, four_fault_dataset,
                               generate_base, inject_fault)
from mpstream.io import (DataError, read_dataset, read_events, read_truth,
                         write_dataset, write_events, write_profile,
                         write_profile_trace, write_report, write_truth)

__all__ = ["main", "ConfigError", "RunConfig"]

log = logging.getLogger("mpstream")

# RunConfig field -> component config class whose fields are config keys.
_PARTS = {"generator": GeneratorConfig, "layout": FourFaultLayout,
          "detector": DetectorConfig}

_JSON_TYPE_NAMES = {type(None): "null", bool: "boolean", int: "integer",
                    float: "number", str: "string", list: "array", dict: "object"}


class ConfigError(Exception):
    """Invalid configuration or usage."""


def _typed_value(key: str, value, annotation):
    """Return a JSON value as the field annotation admits it, or raise.  A
    JSON integer fits a float field if it fits a float, and is returned as
    one; a boolean fits no numeric field."""
    allowed = typing.get_args(annotation) or (annotation,)
    if type(value) in allowed:
        return value
    if type(value) is int and float in allowed:
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ConfigError(f"config key {key!r}: expected {expected}, "
                      f"got {_JSON_TYPE_NAMES[type(value)]}")


@dataclass
class RunConfig:
    """Flat key-value run configuration; unknown keys are errors.

    Declares only the keys the CLI itself uses; every other key is a field
    of the component config in ``generator``, ``layout`` or ``detector``.
    """

    # dataset selection: "four_fault" or a single fault kind name
    dataset: str = "four_fault"
    fault_start_s: float = 2.0
    fault_duration_s: float = 0.05
    severity: float = 1.0
    # profile / stream
    window: int = 64
    exclusion_radius: int | None = None
    capacity: int = 8192
    # default paths (flags take precedence)
    input: str | None = None
    out: str | None = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    layout: FourFaultLayout = field(default_factory=FourFaultLayout)
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} must be a flat JSON object")
        routes = {}  # key -> (RunConfig field it goes to or None, annotation)
        for part, owner in ((None, cls), *_PARTS.items()):
            hints = typing.get_type_hints(owner)
            routes.update((f.name, (part, hints[f.name]))
                          for f in fields(owner) if f.name not in _PARTS)
        unknown = sorted(set(doc) - set(routes))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        kwargs = {part: {} for part in (None, *_PARTS)}
        for key, value in doc.items():
            part, annotation = routes[key]
            kwargs[part][key] = _typed_value(key, value, annotation)
        try:
            parts = {part: owner(**kwargs[part]) for part, owner in _PARTS.items()}
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(**kwargs[None], **parts)


def _sidecar(path: Path, suffix: str) -> Path:
    return path.with_name(path.stem + suffix)


def cmd_generate(cfg: RunConfig, out: Path, seed: int | None = None) -> int:
    try:
        if seed is not None:
            cfg.generator = replace(cfg.generator, seed=seed)
        if cfg.dataset == "four_fault":
            dataset = four_fault_dataset(cfg.generator, cfg.layout,
                                         severity=cfg.severity)
        else:
            try:
                kind = FaultKind(cfg.dataset)
            except ValueError:
                names = ", ".join(k.value for k in FaultKind)
                raise ConfigError(
                    f"unknown dataset {cfg.dataset!r}; expected four_fault or one of {names}")
            base = generate_base(cfg.generator)
            spec = FaultSpec(kind, cfg.fault_start_s, cfg.fault_duration_s,
                             severity=cfg.severity)
            dataset = inject_fault(base, spec, cfg.generator, seed=cfg.generator.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    truth_path = _sidecar(out, ".truth.csv")
    write_dataset(out, dataset)
    write_truth(truth_path, dataset.truth)
    log.info("wrote %d samples to %s (truth: %s)", len(dataset.channel), out, truth_path)
    return 0


def cmd_detect(cfg: RunConfig, in_path: Path, out: Path) -> int:
    times, values, labels = read_dataset(in_path)
    try:
        detector = AnomalyDetector(m=cfg.window, config=cfg.detector,
                                   capacity=cfg.capacity,
                                   exclusion_radius=cfg.exclusion_radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    events = []
    trace = []
    try:
        for x in values.tolist():
            events.extend(detector.step(x))
            trace.append(detector.last_profile)
    except ValueError as exc:
        raise DataError(f"{in_path}: {exc}") from exc
    if detector.threshold is None:
        log.warning("input shorter than warm-up + calibration; no detection performed")
    profile_path = _sidecar(out, ".profile.csv")
    write_events(out, events)
    write_profile_trace(profile_path, times, values, labels, trace)
    log.info("detected %d events over %d samples (threshold %s)",
             len(events), len(values),
             "n/a" if detector.threshold is None else f"{detector.threshold:.6g}")
    s = detector.stream
    armed = s.settled_steps + s.exact_steps
    log.info("settled %d of %d armed steps (%.1f%%): %d on the last neighbor's "
             "successor, %d on the %d probed lags, %d on the %d most recent "
             "candidates; %d hot rebuilds, %d rebuilds", s.settled_steps, armed,
             100.0 * s.settled_steps / max(armed, 1), s.successor_steps, s.probe_steps,
             stream.PROBE_LAGS, s.search_steps, stream.HOT_CANDIDATES, s.hot_rebuilds,
             s.rebuilds)
    return 0


def cmd_evaluate(pred_path: Path, truth_path: Path, n: int,
                 out: Path | None) -> int:
    if n < 0:
        raise ConfigError(f"stream length must be >= 0, got {n}")
    events = read_events(pred_path)
    truth = read_truth(truth_path)
    try:
        pred = events_to_segments(events, n)
    except ValueError as exc:
        raise DataError(f"{pred_path}: {exc}") from exc
    for what, segments in (("truth", truth), ("predicted", pred)):
        for seg in segments:
            if seg.end > n:
                raise DataError(f"{what} segment [{seg.start}, {seg.end}) exceeds "
                                f"stream length {n}")

    report = segment_score(pred, truth)
    rows = []
    for seg in truth:
        name = seg.label or f"segment {seg.start}"
        overlapping = [p for p in pred if p.start < seg.end and p.end > seg.start]
        rows.append((name, point_confusion(overlapping, [seg], n)))
    try:
        print(f"{report.detected}/{len(truth)} segments detected, "
              f"{report.false_segments} false segments")
        for m in report.matches:
            label = truth[m.truth_index].label or f"segment {m.truth_index}"
            print(f"  {label}: start_latency={m.start_latency:+d} "
                  f"end_latency={m.end_latency:+d}")
        print()
        print(metrics_table(rows))
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone: send what is left of stdout to devnull so
            # the flush at interpreter exit cannot fail again (see the
            # SIGPIPE note in the documentation of Python's signal module).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DataError(f"cannot write output: {exc}") from exc
    if out is not None:
        write_report(out, [(name, classification_metrics(c)) for name, c in rows])
        log.info("wrote report to %s", out)
    return 0


def cmd_profile(cfg: RunConfig, in_path: Path, out: Path) -> int:
    _, values, _ = read_dataset(in_path)
    try:
        mp = matrix_profile(values, cfg.window,
                            exclusion_radius=cfg.exclusion_radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_profile(out, mp)
    log.info("wrote profile of %d subsequences to %s", len(mp), out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError (exit 1); 2 means a data error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mpstream",
        description="Streaming Matrix Profile anomaly detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=False):
        p.add_argument("--config", metavar="PATH", help="JSON run configuration")
        p.add_argument("--out", metavar="PATH", help="output path")
        if with_input:
            p.add_argument("--window", type=int, metavar="M",
                           help="override the window size")
            p.add_argument("input", nargs="?",
                           help="input dataset CSV (default: the config's input key)")

    p_gen = sub.add_parser("generate", help="write a labeled synthetic dataset")
    common(p_gen)
    p_gen.add_argument("--seed", type=int, metavar="N", help="override the config seed")

    p_det = sub.add_parser("detect", help="stream a dataset through the detector")
    common(p_det, with_input=True)
    # Kept for callers that pass generate's seed to detect as well.
    p_det.add_argument("--seed", type=int, metavar="N",
                       help="ignored: detection draws no random numbers")

    p_eval = sub.add_parser("evaluate", help="score detected events against truth")
    p_eval.add_argument("events", help="events CSV from detect")
    p_eval.add_argument("truth", help="truth sidecar CSV from generate")
    p_eval.add_argument("length", type=int, help="stream length in samples")
    p_eval.add_argument("--out", metavar="PATH", help="also write the report CSV")

    p_prof = sub.add_parser("profile", help="batch Matrix Profile of a dataset CSV")
    common(p_prof, with_input=True)
    return parser


def _configure_logging():
    level = os.environ.get("MPSTREAM_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr,
                        level=level if level in ("DEBUG", "INFO") else "WARNING",
                        format="%(name)s: %(levelname)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "evaluate":
            out = Path(args.out) if args.out else None
            return cmd_evaluate(Path(args.events), Path(args.truth),
                                args.length, out)
        cfg = RunConfig.load(args.config)
        if args.command == "generate":
            out = Path(args.out or cfg.out or "dataset.csv")
            return cmd_generate(cfg, out, args.seed)
        if args.window is not None:
            cfg.window = args.window
        input_arg = args.input or cfg.input
        if not input_arg:
            raise ConfigError("missing input path")
        in_path = Path(input_arg)
        if args.command == "detect":
            out = Path(args.out or cfg.out or "events.csv")
            return cmd_detect(cfg, in_path, out)
        out = Path(args.out or cfg.out or "profile.csv")
        return cmd_profile(cfg, in_path, out)
    except ConfigError as exc:
        print(f"mpstream: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sized by a config value
        print(f"mpstream: error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"mpstream: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

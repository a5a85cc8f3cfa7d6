"""Layered benchmark of mpstream.

Usage (from the repository root):

    python3 bench/run.py --workload four_fault_pipeline --seed 1 --seconds 40 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.  End-to-end times are
calibrated: each timed segment is scaled by the host's speed, probed with a
fixed reference kernel right before and after it (``benchlib.Calibrator``).
The program under test is the ``mpstream`` package in ``src/`` next to this
directory; it is imported from there and from nowhere else.  Human-readable lines go to stdout, a full run
record to ``bench/runs/``, and the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
SETUP_REPEATS = 7
SETUP_PROBE_RUNS = 50
MIN_PASSES = 2

sys.path.insert(0, str(BENCH))
from benchlib import SpeedProbe, Tracer, machine_info, percentile, summarize  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "step_p50_us": "us",
    "step_p99_us": "us",
    "peak_rss_mb": "MB",
    "detected_frac": "frac",
}

PER_LAYER = {
    "stream.append_calls": "count",
    "stream.warmup_calls": "count",
    "stream.append_busy_s": "s",
    "stream.append_us_p50": "us",
    "stream.state_bytes": "bytes",
    "stream.err_max": "z-dist",
    "stream.append_us.cap1024": "us",
    "stream.append_us.cap2048": "us",
    "stream.append_us.cap4096": "us",
    "stream.append_us.cap8192": "us",
    "detect.step_self_us": "us",
    "detect.push_calls": "count",
    "detect.events": "count",
    "detect.calibrate_s": "s",
    "detect.armed_at": "sample",
    "io.write_dataset_s": "s",
    "io.read_dataset_s": "s",
    "io.write_events_s": "s",
    "io.write_profile_trace_s": "s",
    "io.read_events_s": "s",
    "io.read_truth_s": "s",
    "io.bytes_written": "bytes",
    "evaluate.score_s": "s",
    "evaluate.false_segments": "count",
    "evaluate.start_latency_max": "sample",
    "evaluate.end_latency_max": "sample",
    "evaluate.point_f_score": "frac",
    "generate.s": "s",
    "core.rolling_stats_s": "s",
    "core.matrix_profile_s": "s",
    "core.discords_s": "s",
    "core.pair_evals": "count",
    "core.pairs_per_s": "1/s",
    "core.err_max": "z-dist",
    "trace.overhead_frac": "frac",
}

CLI_OUTPUTS = ("data.csv", "data.truth.csv", "events.csv", "events.profile.csv")


def import_program():
    """Import mpstream from this checkout's ``src/`` (never an installed copy)."""
    if not (SRC / "mpstream" / "__init__.py").is_file():
        sys.exit(f"bench: no mpstream sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mpstream
    if Path(mpstream.__file__).resolve().parent != (SRC / "mpstream").resolve():
        sys.exit(f"bench: imported mpstream from {mpstream.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, from before ``import mpstream``
    through building the inputs and constructing the detectors: calibrated
    by a speed probe that each interpreter runs right after its set-up, and
    as measured."""
    code = "\n".join([
        "import sys, time",
        "t0 = time.perf_counter()",
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]",
        "import mpstream, workloads",
        f"workloads.WORKLOADS[{workload!r}]({seed}).new_state()",
        "t1 = time.perf_counter() - t0",
        "from benchlib import SpeedProbe",
        "probe = SpeedProbe()",
        f"print(t1, probe({SETUP_PROBE_RUNS}))",
    ])
    calibrated, raw = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        seconds, probe_s = map(float, out.stdout.strip().splitlines()[-1].split())
        calibrated.append(seconds * SpeedProbe.reference_s / probe_s)
        raw.append(seconds)
    return calibrated, raw


def traced_pass(wl, w, workdir: Path, probe):
    """One pass with spans installed; returns the result and its tracer."""
    tracemalloc.start()
    state = w.new_state()
    state_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    with Tracer() as tr:
        tr.install(wl.TRACE_TARGETS)
        res = w.run_pass(state, workdir, probe)
    res.state_bytes = state_bytes
    return res, tr


def layer_metrics(wl, w, res, tr, layers) -> dict:
    """Per-layer metrics of one traced pass, for the given layers."""
    out = {}
    if "stream" in layers:
        appends = tr.durations("stream.append")
        out["stream.append_calls"] = int(appends.size)
        out["stream.warmup_calls"] = tr.none_results["stream.append"]
        out["stream.append_busy_s"] = float(appends.sum())
        out["stream.append_us_p50"] = percentile(appends, 50) * 1e6
        out["stream.state_bytes"] = res.state_bytes
        out["stream.err_max"] = w.profile_error(res)
    if "detect" in layers:
        detect_self = tr.self_times("detect.step", children={"stream.append"})
        out["detect.step_self_us"] = percentile(detect_self, 50) * 1e6
        out["detect.push_calls"] = tr.count("detect.push")
        out["detect.events"] = res.n_events
        out["detect.calibrate_s"] = tr.busy("detect.calibrate")
        out["detect.armed_at"] = res.armed_at
    if "io" in layers:
        for op in wl.IO_OPS:
            out[f"io.{op}_s"] = tr.busy(f"io.{op}")
        out["io.bytes_written"] = res.bytes_written
    if "evaluate" in layers:
        out["evaluate.score_s"] = sum(tr.busy(name) for name in wl.SCORE_SPANS)
        out["evaluate.false_segments"] = res.false_segments
        out["evaluate.start_latency_max"] = res.start_latency_max
        out["evaluate.end_latency_max"] = res.end_latency_max
        out["evaluate.point_f_score"] = res.point_f_score
    if "core" in layers:
        profile_s = tr.busy("core.matrix_profile")
        out["core.rolling_stats_s"] = tr.busy("core.rolling_stats", roots_only=True)
        out["core.matrix_profile_s"] = profile_s
        out["core.discords_s"] = tr.busy("core.discords")
        out["core.pair_evals"] = w.pair_evals()
        out["core.pairs_per_s"] = out["core.pair_evals"] / profile_s
        out["core.err_max"] = w.profile_error(res)
    return out


def median_per_key(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


class Run:
    """Checks and counts accumulated over the passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.signatures: dict[str, tuple] = {}

    def check(self, name: str, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        self.errors.extend(f"{name}: {e}" for e in res.errors)
        first = self.signatures.setdefault(name, res.signature)
        if res.signature != first:
            self.errors.append(f"{name}: outputs differ between passes of one seed")


def cli_identity(seed: int, workdir: Path) -> list[str]:
    """Run the CLI's generate and detect for ``seed`` and compare its files
    byte for byte with those the W1 pass left in ``workdir``."""
    from mpstream.cli import main as cli_main
    d = workdir / "cli"
    d.mkdir()
    errors = []
    if cli_main(["generate", "--seed", str(seed), "--out", str(d / "data.csv")]) != 0:
        errors.append("cli generate failed")
    if cli_main(["detect", "--seed", str(seed), "--out", str(d / "events.csv"),
                 str(d / "data.csv")]) != 0:
        errors.append("cli detect failed")
    for name in CLI_OUTPUTS:
        a, b = d / name, workdir / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            errors.append(f"cli output {name} differs from the pipeline's")
    return errors


def end_to_end(args, wl, w, run, workdir, record, probe) -> dict:
    setups, raw_setups = measure_setup(args.workload, args.seed)
    passes, steps = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        res = w.run_pass(w.new_state(), workdir, probe)
        run.check(w.name, res)
        if passes:
            res.outputs = None  # only the first pass's outputs go to the oracle
        # Percentiles per pass (at least 200 samples beyond p99 in W1), so
        # that one disturbed pass moves the medians over passes little.
        lat_us, raw_us = res.latencies_ns / 1e3, res.raw_latencies_ns / 1e3
        steps.append((percentile(lat_us, 50), percentile(lat_us, 99),
                      percentile(raw_us, 50), percentile(raw_us, 99)))
        res.latencies_ns = res.raw_latencies_ns = None
        passes.append(res)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = passes[0]
    record["profile_err_max"] = w.profile_error(first)
    first.outputs = None

    rates = [res.n_samples / res.wall_s for res in passes]
    raw_rates = [res.n_samples / res.raw_wall_s for res in passes]
    p50s, p99s, raw_p50s, raw_p99s = (list(col) for col in zip(*steps))
    speed = np.concatenate([res.speed for res in passes])
    record["repeats"] = {"passes": len(passes), "setups": len(setups)}
    record["samples"] = {
        "setup_s": summarize(setups) | {"values": setups},
        "samples_per_s": summarize(rates) | {"values": rates},
        "step_p50_us": summarize(p50s) | {"values": p50s},
        "step_p99_us": summarize(p99s) | {"values": p99s},
    }
    record["uncalibrated"] = {
        "setup_s": summarize(raw_setups) | {"values": raw_setups},
        "samples_per_s": summarize(raw_rates) | {"values": raw_rates},
        "step_p50_us": summarize(raw_p50s) | {"values": raw_p50s},
        "step_p99_us": summarize(raw_p99s) | {"values": raw_p99s},
    }
    # Host speed relative to the reference, one value per timed segment.
    record["host_speed"] = summarize(speed) | {"min": float(speed.min()),
                                                "max": float(speed.max())}
    record["quality"] = {k: getattr(first, k) for k in (
        "detected", "n_truth", "false_segments", "start_latency_max",
        "end_latency_max", "point_f_score")}
    return {
        "setup_s": statistics.median(setups),
        "samples_per_s": statistics.median(rates),
        "step_p50_us": statistics.median(p50s),
        "step_p99_us": statistics.median(p99s),
        "peak_rss_mb": peak_rss_mb,
        "detected_frac": first.detected / first.n_truth,
    }


def per_layer(args, wl, w, run, workdir, record, spans_path, probe) -> dict:
    untraced_s, traced_s, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain = w.run_pass(w.new_state(), workdir, probe)
        res, tr = traced_pass(wl, w, workdir, probe)
        if not traced:
            np.savez_compressed(spans_path, **tr.to_arrays())
        traced.append(layer_metrics(wl, w, res, tr, w.layers))
        untraced_s.append(plain.wall_s)
        traced_s.append(res.wall_s)
        for r in (plain, res):
            run.check(w.name, r)
            r.outputs = None
    metrics = median_per_key(traced)
    metrics["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    record["repeats"] = {"traced_passes": len(traced), "untraced_passes": len(untraced_s)}
    record["samples"] = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                         **{k: summarize(d[k] for d in traced) for k in traced[0]}}

    # Layers this workload does not run are measured on a traced pass of the
    # workload that owns them, so every trace run reports every layer.
    missing = {layer for owner in wl.LAYER_OWNERS for layer in owner.layers} - w.layers
    sources = {layer: w.name for layer in w.layers}
    for owner in wl.LAYER_OWNERS:
        need = missing & owner.layers
        if not need:
            continue
        o = owner(args.seed)
        res, tr = traced_pass(wl, o, workdir, probe)
        run.check(owner.name, res)
        metrics.update(layer_metrics(wl, o, res, tr, need))
        sources.update({layer: owner.name for layer in need})
        missing -= need
    record["layer_sources"] = sources
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(wl.WORKLOADS)}")
    RUNS.mkdir(exist_ok=True)
    stem = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info()}
    run = Run()
    probe = SpeedProbe()

    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        workdir = Path(tmp)
        if args.trace:
            with Tracer() as tracer:
                tracer.install(wl.GENERATE_TARGETS)
                w = wl.WORKLOADS[args.workload](args.seed)
            metrics = per_layer(args, wl, w, run, workdir, record,
                                Path(f"{stem}-spans.npz"), probe)
            metrics["generate.s"] = sum(tracer.busy(n, roots_only=True)
                                        for n in wl.GENERATE_SPANS)
            for cap, us in wl.append_sweep(args.seed).items():
                metrics[f"stream.append_us.cap{cap}"] = us
            units = PER_LAYER
        else:
            w = wl.WORKLOADS[args.workload](args.seed)
            metrics = end_to_end(args, wl, w, run, workdir, record, probe)
            units = END_TO_END
        if args.workload == "four_fault_pipeline":
            run.errors.extend(cli_identity(args.seed, workdir))

    missing = set(units) - set(metrics)
    if missing:
        run.errors.append(f"metrics not measured: {', '.join(sorted(missing))}")
    correct = not run.errors and run.failed == 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    record.update(result=result, errors=run.errors)
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed} correct={correct}")
    for k, m in result["metrics"].items():
        print(f"  {k:28s} {m['value']:>16.6g} {m['unit']}")
    for e in run.errors:
        print(f"  ERROR {e}")
    print(f"  record: {stem.relative_to(ROOT)}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import mpstream
from mpstream.cli import ConfigError, RunConfig, main
from mpstream.detect import DetectorConfig, FilterChain
from mpstream.generate import DEFAULT_LAYOUT, FourFaultLayout, GeneratorConfig
from mpstream.io import read_dataset, read_events, read_truth
from mpstream.stream import StreamingProfile


def write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kw))
    return str(path)


# enter_ratio 1.5 gives the quantile threshold headroom against the normal
# tail so these small runs are seed-robust.
SMALL = dict(sample_rate_hz=2000.0, duration_s=3.0, seed=5,
             warmup=1000, calibration_len=1000, window=32, capacity=1024,
             enter_ratio=1.5,
             dataset="point_outlier", fault_start_s=2.0, fault_duration_s=0.05)


class TestGenerate:
    def test_default_config_writes_100000_rows(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate", "--out", str(out)]) == 0
        with open(out) as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows == 100_000
        truth = read_truth(tmp_path / "data.truth.csv")
        assert [s.label for s in truth] == [
            "ll_fault", "three_phase_sensor_fault",
            "single_phase_voltage_sag", "three_phase_grid_fault"]

    def test_zero_duration_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, duration_s=0.0)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("config", [
        '{"duration_s": 1e400}',
        '{"dataset": "point_outlier", "fault_start_s": 1e400}',
        '{"ll_start_s": 1e400}',
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, config):
        # JSON reads 1e400 as infinity.
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("mpstream: error: ")

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, duration_zz=1.0)
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, **SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.truth.csv").read_bytes() == \
               (tmp_path / "b.truth.csv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, **SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--seed", "99",
                     "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestDetect:
    def test_pure_normal_dataset_empty_events(self, tmp_path):
        cfg = write_config(tmp_path, **{**SMALL, "severity": 0.0})
        data = tmp_path / "data.csv"
        events = tmp_path / "events.csv"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["detect", "--config", cfg, "--out", str(events),
                     str(data)]) == 0
        assert read_events(events) == []
        profile = tmp_path / "events.profile.csv"
        assert profile.exists()
        lines = profile.read_text().splitlines()
        assert len(lines) == 6001
        assert lines[1].endswith(",")  # warm-up rows have empty profile field

    def test_truncated_input_warns_and_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 0.2})
        data = tmp_path / "data.csv"
        # 400 samples < warmup; generate a plain normal stretch.
        cfg2 = write_config(tmp_path, **{**SMALL, "duration_s": 0.2,
                                         "severity": 0.0,
                                         "fault_start_s": 0.1,
                                         "fault_duration_s": 0.01})
        assert main(["generate", "--config", cfg2, "--out", str(data)]) == 0
        events = tmp_path / "events.csv"
        assert main(["detect", "--config", cfg2, "--out", str(events),
                     str(data)]) == 0
        assert read_events(events) == []

    def test_malformed_row_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,f_c_hz,label\n0.0,50.0,\n0.0005,not-a-number,\n")
        assert main(["detect", "--out", str(tmp_path / "e.csv"), str(bad)]) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert main(["detect", str(tmp_path / "nope.csv")]) == 2

    def test_detects_spike(self, tmp_path):
        cfg = write_config(tmp_path, **{**SMALL, "enter_ratio": 1.5})
        data = tmp_path / "data.csv"
        events = tmp_path / "events.csv"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["detect", "--config", cfg, "--out", str(events),
                     str(data)]) == 0
        evs = read_events(events)
        assert len(evs) >= 2
        assert evs[0].kind.value == "start"
        # The point outlier sits at sample 4000.
        assert abs(evs[0].position - 4000) < 64

    @pytest.mark.parametrize("flags, overrides", [
        (["--window", "1"], {}),
        ([], {"capacity": 10}),
        ([], {"exclusion_radius": -1}),
        ([], {"window": "abc"}),
    ], ids=["window-flag-1", "capacity-10", "negative-radius", "window-abc"])
    def test_bad_stream_parameters_are_config_errors(self, tmp_path, capsys,
                                                     flags, overrides):
        small = {**SMALL, "duration_s": 0.2, "fault_start_s": 0.1,
                 "fault_duration_s": 0.01}
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", write_config(tmp_path, **small),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, **{**small, **overrides})
        assert main(["detect", "--config", cfg, *flags,
                     "--out", str(tmp_path / "e.csv"), str(data)]) == 1
        assert capsys.readouterr().err.startswith("mpstream: error: ")

    def test_threshold_value_alone_fixes_the_threshold(self, tmp_path):
        # A finite threshold_value is used as is, from the end of warm-up
        # on: a threshold near the spike's peak delays the start to 3955,
        # where a calibrated threshold starts at 3937.
        threshold = 9.45
        data = tmp_path / "data.csv"
        events = tmp_path / "events.csv"
        assert main(["generate", "--config", write_config(tmp_path, **SMALL),
                     "--out", str(data)]) == 0
        assert main(["detect", "--config",
                     write_config(tmp_path, threshold_value=threshold),
                     "--out", str(events), str(data)]) == 0
        # Reference: the stream and chain driven by hand at the defaults.
        d = DetectorConfig()
        stream = StreamingProfile(RunConfig.window, capacity=RunConfig.capacity)
        chain = FilterChain(threshold, d)
        want = []
        for i, x in enumerate(read_dataset(data)[1]):
            result = stream.append(float(x))
            if result is not None and i >= d.warmup:
                want += chain.push(i - RunConfig.window + 1, result[0])
        got = read_events(events)
        assert [(e.kind, e.position) for e in got] == \
               [(e.kind, e.position) for e in want]
        assert [e.position for e in got] == [3955, 4001]


class TestEvaluate:
    def _pipeline(self, tmp_path, severity=1.0):
        cfg = write_config(tmp_path, **{**SMALL, "severity": severity,
                                        "enter_ratio": 1.5})
        data = tmp_path / "data.csv"
        events = tmp_path / "events.csv"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["detect", "--config", cfg, "--out", str(events),
                     str(data)]) == 0
        return data, events, tmp_path / "data.truth.csv"

    def test_detected_summary_line(self, tmp_path, capsys):
        data, events, truth = self._pipeline(tmp_path)
        assert main(["evaluate", str(events), str(truth), "6000"]) == 0
        out = capsys.readouterr().out
        assert "1/1 segments detected" in out
        assert "Accuracy" in out and "F-score" in out

    def test_empty_predictions(self, tmp_path, capsys):
        data, events, truth = self._pipeline(tmp_path, severity=0.0)
        assert main(["evaluate", str(events), str(truth), "6000"]) == 0
        out = capsys.readouterr().out
        assert "0/1 segments detected" in out

    def test_report_round_trips(self, tmp_path):
        from mpstream.io import read_report, write_report
        data, events, truth = self._pipeline(tmp_path)
        report = tmp_path / "report.csv"
        assert main(["evaluate", str(events), str(truth), "6000",
                     "--out", str(report)]) == 0
        rows = read_report(report)
        assert len(rows) == 1
        report2 = tmp_path / "report2.csv"
        write_report(report2, rows)
        assert report.read_bytes() == report2.read_bytes()

    def test_truth_beyond_length_is_data_error(self, tmp_path):
        data, events, truth = self._pipeline(tmp_path)
        assert main(["evaluate", str(events), str(truth), "100"]) == 2

    def test_unwritable_report_is_data_error(self, tmp_path, capsys):
        data, events, truth = self._pipeline(tmp_path)
        assert main(["evaluate", str(events), str(truth), "6000",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("mpstream: error: cannot write output")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_is_data_error(self, tmp_path, unbuffered):
        # stdout is a pipe whose reader is already gone, as after `| head -1`
        # has exited; with and without buffering of stdout.
        data, events, truth = self._pipeline(tmp_path)
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered,
               "PYTHONPATH": str(Path(mpstream.__file__).parents[1])}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "mpstream", "evaluate", str(events),
                 str(truth), "6000"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr.startswith("mpstream: error: cannot write output")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


class TestProfile:
    def test_profile_output(self, tmp_path):
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 1.0, "fault_start_s": 0.5, "fault_duration_s": 0.02})
        data = tmp_path / "data.csv"
        out = tmp_path / "profile.csv"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["profile", "--config", cfg, "--window", "16",
                     "--out", str(out), str(data)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "position,distance,index"
        assert len(lines) == 2000 - 16 + 2

    def test_window_larger_than_series_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 1.0, "fault_start_s": 0.5, "fault_duration_s": 0.02})
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["profile", "--window", "99999",
                     "--out", str(tmp_path / "p.csv"), str(data)]) == 1


class TestInterface:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["bogus"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["detect", "--threads", "2", "d.csv"]) == 1

    def test_bad_argument_type_is_usage_error(self):
        assert main(["evaluate", "a.csv", "b.csv", "x"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_log_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MPSTREAM_LOG", "info")
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 1.0,
                                        "fault_start_s": 0.5,
                                        "fault_duration_s": 0.02})
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "d.csv")]) == 0

    def test_malformed_event_alternation_is_data_error(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("kind,position,profile_value\n"
                          "end,10,1.0\nstart,20,5.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("start_idx,end_idx,label\n5,15,x\n")
        assert main(["evaluate", str(events), str(truth), "100"]) == 2


class TestFullDefaultPipeline:
    def test_four_fault_defaults_end_to_end(self, tmp_path, capsys):
        # Full-scale default run through the CLI, including the 9-digit CSV
        # round trip: exactly four start/end pairs and a perfect score.
        data = tmp_path / "data.csv"
        events = tmp_path / "events.csv"
        assert main(["generate", "--out", str(data)]) == 0
        assert main(["detect", "--out", str(events), str(data)]) == 0
        evs = read_events(events)
        assert len(evs) == 8
        assert [e.kind.value for e in evs] == ["start", "end"] * 4
        assert main(["evaluate", str(events), str(tmp_path / "data.truth.csv"),
                     "100000"]) == 0
        out = capsys.readouterr().out
        assert "4/4 segments detected, 0 false segments" in out

    def test_events_beyond_length_is_data_error(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("kind,position,profile_value\n"
                          "start,10,5.0\nend,500,1.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("start_idx,end_idx,label\n5,15,x\n")
        assert main(["evaluate", str(events), str(truth), "100"]) == 2


class TestConfigLoader:
    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2, 3]")
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        assert main(["generate", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_input_can_come_from_config(self, tmp_path):
        data = tmp_path / "data.csv"
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 1.0,
                                        "fault_start_s": 0.5,
                                        "fault_duration_s": 0.02,
                                        "input": str(data)})
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        out = tmp_path / "p.csv"
        assert main(["profile", "--config", cfg, "--window", "16",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_missing_input_everywhere_is_config_error(self, tmp_path):
        assert main(["detect"]) == 1


# One non-default valid value for every field of the component configs.
PART_VALUES = dict(
    sample_rate_hz=4000.0, duration_s=3.0, nominal_freq_hz=60.0,
    noise_std=0.01, ripple_amplitude_hz=0.03, seed=7,
    ll_start_s=3.0, ll_duration_s=0.02, sensor_start_s=7.0,
    sensor_duration_s=0.02, sag_start_s=11.0, sag_duration_s=0.03,
    grid_start_s=15.0, grid_duration_s=0.2,
    threshold_value=0.5, quantile_q=0.99, calibration_len=500,
    enter_ratio=1.5, exit_ratio=0.8, min_event_len=5, cooldown=10, warmup=100)
# ... and for every key RunConfig declares itself.
OWN_VALUES = dict(
    dataset="point_outlier", fault_start_s=1.0, fault_duration_s=0.1,
    severity=0.5, window=32, exclusion_radius=4, capacity=1024,
    input="in.csv", out="out.csv")
PARTS = {"generator": GeneratorConfig, "layout": FourFaultLayout,
         "detector": DetectorConfig}


MISTYPED = [
    ("generate", "duration_s", "x", "expected float, got string"),
    ("generate", "seed", "abc", "expected int, got string"),
    ("generate", "severity", None, "expected float, got null"),
    ("generate", "ll_start_s", "4", "expected float, got string"),
    ("detect", "window", None, "expected int, got null"),
    ("detect", "cooldown", "x", "expected int, got string"),
    ("detect", "quantile_q", "0.9", "expected float, got string"),
    ("detect", "capacity", [1], "expected int, got array"),
    ("detect", "warmup", None, "expected int, got null"),
    ("detect", "threshold_value", "3", "expected float or null, got string"),
    ("detect", "min_event_len", True, "expected int, got boolean"),
    ("detect", "window", 32.0, "expected int, got number"),
    ("profile", "window", None, "expected int, got null"),
]


class TestConfigRouting:
    @pytest.mark.parametrize("part, key", [
        (part, f.name) for part, cls in PARTS.items() for f in fields(cls)])
    def test_each_component_key_reaches_its_config(self, tmp_path, part, key):
        value = PART_VALUES[key]
        assert getattr(PARTS[part](), key) != value
        cfg = RunConfig.load(write_config(tmp_path, **{key: value}))
        assert getattr(cfg, part) == PARTS[part](**{key: value})

    def test_no_config_gives_the_component_defaults(self):
        cfg = RunConfig.load(None)
        assert cfg.generator == GeneratorConfig()
        assert cfg.layout == DEFAULT_LAYOUT
        assert cfg.detector == DetectorConfig()

    def test_accepted_keys(self, tmp_path):
        # Every key of the flat format, and only those: the names of the
        # component configs are not keys.
        assert set(OWN_VALUES) | set(PART_VALUES) == {
            "sample_rate_hz", "duration_s", "nominal_freq_hz", "noise_std",
            "ripple_amplitude_hz", "seed", "dataset", "fault_start_s",
            "fault_duration_s", "severity", "ll_start_s", "ll_duration_s",
            "sensor_start_s", "sensor_duration_s", "sag_start_s",
            "sag_duration_s", "grid_start_s", "grid_duration_s", "window",
            "exclusion_radius", "capacity", "threshold_value", "quantile_q",
            "calibration_len", "enter_ratio", "exit_ratio", "min_event_len",
            "cooldown", "warmup", "input", "out"}
        cfg = RunConfig.load(write_config(tmp_path, **OWN_VALUES, **PART_VALUES))
        for key, value in OWN_VALUES.items():
            assert getattr(cfg, key) == value
        for part, cls in PARTS.items():
            assert getattr(cfg, part) == cls(**{
                f.name: PART_VALUES[f.name] for f in fields(cls)})
        for key in PARTS:
            with pytest.raises(ConfigError, match=f"unknown config keys: {key}$"):
                RunConfig.load(write_config(tmp_path, **{key: "fixed"}))

    @pytest.mark.parametrize("command, key, value, message", MISTYPED, ids=[
        f"{command}-{key}-{json.dumps(value)}" for command, key, value, _ in MISTYPED])
    def test_mistyped_value_is_config_error(self, tmp_path, capsys,
                                             command, key, value, message):
        small = {**SMALL, "duration_s": 0.2, "fault_start_s": 0.1,
                 "fault_duration_s": 0.01}
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", write_config(tmp_path, **small),
                     "--out", str(data)]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, **{**small, key: value})
        args = [command, "--config", cfg, "--out", str(tmp_path / "o.csv")]
        assert main(args + ([] if command == "generate" else [str(data)])) == 1
        assert capsys.readouterr().err == \
            f"mpstream: error: config key {key!r}: {message}\n"

    def test_json_integer_fits_a_float_key(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, duration_s=3, severity=1))
        assert cfg.generator.duration_s == 3 and cfg.severity == 1

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mpstream
from mpstream.cli import ConfigError, RunConfig, main
from mpstream.detect import DetectorConfig, FilterChain
from mpstream.generate import DEFAULT_LAYOUT, FaultKind, FourFaultLayout, GeneratorConfig
from mpstream.io import read_dataset, read_events, read_truth
from mpstream.stream import StreamingProfile


def write_config(tmp_path, **kw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kw))
    return str(path)


# A JSON integer that no float can hold.
HUGE_INT = 10 ** 400

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
        pytest.param(f'{{"duration_s": {HUGE_INT}}}', id="duration_s-huge-int"),
        pytest.param(f'{{"severity": {HUGE_INT}}}', id="severity-huge-int"),
        pytest.param(f'{{"ll_start_s": {HUGE_INT}}}', id="ll_start_s-huge-int"),
        pytest.param(f'{{"dataset": "point_outlier", "fault_start_s": {HUGE_INT}}}',
                     id="fault_start_s-huge-int"),
    ])
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, config):
        # JSON reads 1e400 as infinity, and an integer literal as an int too
        # large for a float.
        cfg = tmp_path / "config.json"
        cfg.write_text(config)
        assert main(["generate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("mpstream: error: ")

    @pytest.mark.parametrize("key, value", [
        ("ll_duration_s", -1), ("sensor_start_s", 1e400),
        ("sag_start_s", -0.5), ("grid_duration_s", 0.0)])
    def test_layout_error_names_its_keys(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mpstream: error: ") and key in err

    def test_unknown_dataset_lists_the_fault_kinds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dataset="nope")
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mpstream: error: unknown dataset 'nope'; "
                              "expected four_fault or one of ")
        assert all(kind.value in err for kind in FaultKind)
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("args", [
        ["generate", "--seed", "-1"],
        ["generate", "--config", "{config}"],
        ["detect", "--config", "{config}", "d.csv"],
    ], ids=["generate-flag", "generate-config", "detect-config"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, args):
        # numpy's own message for a negative seed names no key.
        cfg = write_config(tmp_path, seed=-1)
        out = tmp_path / "x.csv"
        assert main([a.format(config=cfg) for a in args] + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == "mpstream: error: seed must be >= 0\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("command, rows, message", [
        (command, rows, message) for rows, message in (
            ("0.0,50.0,\n0.0005,nan,\n0.001,50.1,\n", "line 3: non-finite number"),
            ("", "no samples"))  # a header with no rows
        for command in ("detect", "profile")],
        ids=["detect", "profile", "detect-header-only", "profile-header-only"])
    def test_non_finite_sample_is_data_error(self, tmp_path, capsys, command,
                                             rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,f_c_hz,label\n" + rows)
        assert main([command, "--window", "2", "--out", str(tmp_path / "o.csv"),
                     str(bad)]) == 2
        assert message in capsys.readouterr().err

    def test_flat_calibration_stretch_is_data_error(self, tmp_path, capsys):
        noise = np.random.default_rng(1).normal(0, 0.01, 300)
        rows = [50.0] * 600 + (50.0 + noise).tolist()
        data = tmp_path / "flat.csv"
        data.write_text("t_s,f_c_hz,label\n" + "".join(
            f"{i * 0.0005!r},{v!r},\n" for i, v in enumerate(rows)))
        cfg = write_config(tmp_path, warmup=0, calibration_len=300, window=16,
                           capacity=256)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "e.csv"),
                     str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("mpstream: error: ") and err.count("\n") == 1
        assert "calibrated threshold" in err

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
        # Profile values are >= 0: a threshold of 0 starts an event that
        # never ends.
        ([], {"threshold_value": 0.0}),
    ], ids=["window-flag-1", "capacity-10", "negative-radius", "window-abc",
            "threshold-0"])
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

    @pytest.mark.parametrize("config", ['{"exit_ratio": 0}', '{"enter_ratio": 1e400}'],
                             ids=["exit-ratio-0", "enter-ratio-inf"])
    def test_ratio_that_ends_or_starts_no_event_is_config_error(self, tmp_path, capsys,
                                                                 config):
        # An exit level of 0 opens an event that never ends; JSON reads
        # 1e400 as infinity, an enter level that never opens one.
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", write_config(tmp_path, **{
            **SMALL, "duration_s": 0.2, "fault_start_s": 0.1,
            "fault_duration_s": 0.01}), "--out", str(data)]) == 0
        capsys.readouterr()
        cfg = tmp_path / "ratio.json"
        cfg.write_text(config)
        assert main(["detect", "--config", str(cfg), "--out", str(tmp_path / "e.csv"),
                     str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mpstream: error: ") and "exit_ratio" in err
        assert not (tmp_path / "e.csv").exists()

    def test_radius_that_leaves_no_candidate_is_config_error(self, tmp_path, capsys):
        # capacity 8192 - window 64 = 8128: a full window would have no
        # candidate left, so no profile value would ever come.
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", write_config(tmp_path, **{
            **SMALL, "duration_s": 0.2, "fault_start_s": 0.1,
            "fault_duration_s": 0.01}), "--out", str(data)]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, exclusion_radius=8128)
        assert main(["detect", "--config", cfg, "--out", str(tmp_path / "e.csv"),
                     str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("mpstream: error: ") and "exclusion_radius" in err
        assert not (tmp_path / "e.csv").exists()

    def test_logs_the_share_settled_in_hot_mode(self, tmp_path, caplog):
        # Steps are armed after warm-up and calibration; the settled ones
        # are exactly the empty trace fields after the stream's warm-up.
        # Capacity 4096 has more candidates than the 1024 hot ones.
        config = write_config(tmp_path, **{**SMALL, "capacity": 4096})
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", config, "--out", str(data)]) == 0
        with caplog.at_level("INFO", logger="mpstream"):
            assert main(["detect", "--config", config, "--out",
                         str(tmp_path / "e.csv"), str(data)]) == 0
        message = caplog.records[-1].getMessage()
        lines = (tmp_path / "e.profile.csv").read_text().splitlines()[1:]
        warm = SMALL["window"] + 8  # m + exclusion_radius samples
        hot = sum(line.endswith(",") for line in lines[warm:])
        armed = len(lines) - SMALL["warmup"] - SMALL["calibration_len"]
        assert 0 < hot < armed
        found = re.fullmatch(
            rf"settled {hot} of {armed} armed steps \({100 * hot / armed:.1f}%\): "
            r"(\d+) on the last neighbor's successor, (\d+) on the 96 probed lags, "
            r"(\d+) on the 1024 most recent candidates; (\d+) hot rebuilds, (\d+) rebuilds",
            message)
        assert found
        successor, probe, search, hot_rebuilds, logged = map(int, found.groups())
        assert successor + probe + search == hot and successor > search
        # An exact step rebuilds when the step before it settled and the
        # window holds older candidates than the hot ones.
        settled = [k >= warm and line.endswith(",") for k, line in enumerate(lines)]
        rebuilds = sum(settled[k - 1] and not settled[k] and min(k + 1, 4096) > 1024 + warm
                       for k in range(warm, len(lines)))
        assert logged == rebuilds > 0
        # The hot covariances are rebuilt only by a step that searches them
        # after a settled one: an exact step that rebuilds, or one the search
        # settles.
        assert 0 < hot_rebuilds <= rebuilds + search

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

    @pytest.mark.parametrize("events_csv, truth_csv", [
        ("", "-4,-2,x\n"),
        ("start,-3,5.0\nend,2,1.0\n", "5,15,x\n"),
    ], ids=["negative-truth-index", "negative-event-position"])
    def test_negative_index_is_data_error(self, tmp_path, capsys,
                                          events_csv, truth_csv):
        events = tmp_path / "events.csv"
        events.write_text("kind,position,profile_value\n" + events_csv)
        truth = tmp_path / "truth.csv"
        truth.write_text("start_idx,end_idx,label\n" + truth_csv)
        assert main(["evaluate", str(events), str(truth), "100"]) == 2
        assert "line 2: negative" in capsys.readouterr().err

    def test_huge_length_allocates_nothing(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text("kind,position,profile_value\nstart,10,5.0\nend,20,1.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("start_idx,end_idx,label\n5,15,x\n")
        assert main(["evaluate", str(events), str(truth), str(10 ** 12)]) == 0
        assert "1/1 segments detected" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["detect", "evaluate"])
    def test_oversized_field_is_data_error(self, tmp_path, capsys, command):
        data, events, truth = self._pipeline(tmp_path)
        path = data if command == "detect" else truth
        text = path.read_text()
        path.write_text(text + "0,1," + "x" * 200_000 + "\n")
        argv = (["detect", "--out", str(tmp_path / "e.csv"), str(data)]
                if command == "detect" else ["evaluate", str(events), str(truth), "6000"])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"mpstream: error: {path}: line {len(text.splitlines()) + 1}: "
            "field larger than field limit (131072)\n")

    def test_negative_length_is_usage_error(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("kind,position,profile_value\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("start_idx,end_idx,label\n5,15,x\n")
        assert main(["evaluate", str(events), str(truth), "-5"]) == 1

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

    @pytest.mark.parametrize("argv", [
        ["detect", "--threads", "2", "d.csv"],
        ["generate", "--window", "7"],
        ["profile", "--seed", "9", "d.csv"],
    ], ids=["detect-threads", "generate-window", "profile-seed"])
    def test_unknown_flag_is_usage_error(self, argv):
        assert main(argv) == 1

    def test_bad_argument_type_is_usage_error(self):
        assert main(["evaluate", "a.csv", "b.csv", "x"]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("value, logged", [
        ("basic_format", False), ("INFO", True)])
    def test_log_level_names(self, tmp_path, value, logged):
        # In a subprocess: under pytest the root logger already has
        # handlers, so basicConfig would not check the level at all.
        env = {**os.environ, "MPSTREAM_LOG": value,
               "PYTHONPATH": str(Path(mpstream.__file__).parents[1])}
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 0.2,
                                        "fault_start_s": 0.1,
                                        "fault_duration_s": 0.01})
        proc = subprocess.run(
            [sys.executable, "-m", "mpstream", "generate", "--config", cfg,
             "--out", str(tmp_path / "d.csv")],
            stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ("mpstream: INFO: wrote 400 samples to "
                               f"{tmp_path / 'd.csv'} (truth: {tmp_path / 'd.truth.csv'})\n"
                               if logged else "")

    def test_log_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MPSTREAM_LOG", "info")
        cfg = write_config(tmp_path, **{**SMALL, "duration_s": 1.0,
                                        "fault_start_s": 0.5,
                                        "fault_duration_s": 0.02})
        assert main(["generate", "--config", cfg,
                     "--out", str(tmp_path / "d.csv")]) == 0

    @pytest.mark.parametrize("command", [
        ["detect", "{d}"], ["profile", "{d}"],
        ["evaluate", "{d}", "{d}", "100"],
    ], ids=["detect", "profile", "evaluate"])
    def test_directory_input_is_data_error(self, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "o.csv")] if command[0] != "evaluate" else []
        assert main([a.format(d=tmp_path) for a in command] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("mpstream: error: cannot read input")
        assert err.count("\n") == 1

    def test_malformed_event_alternation_is_data_error(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("kind,position,profile_value\n"
                          "end,10,1.0\nstart,20,5.0\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("start_idx,end_idx,label\n5,15,x\n")
        assert main(["evaluate", str(events), str(truth), "100"]) == 2


def _no_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 14.6 TiB for an array")


class TestOutOfMemory:
    """A config value too large to allocate exits 1 with one error line.
    The allocating call is stubbed to raise MemoryError, so no test really
    asks for terabytes."""

    def assert_out_of_memory(self, capsys, argv, detail):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"mpstream: error: out of memory: {detail}\n"

    def test_generate_duration(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("mpstream.generate.generate_base", _no_memory)
        cfg = write_config(tmp_path, duration_s=1_000_000)
        self.assert_out_of_memory(capsys, ["generate", "--config", cfg, "--out",
                                           str(tmp_path / "x.csv")],
                                  "Unable to allocate 14.6 TiB for an array")
        assert not (tmp_path / "x.csv").exists()

    def test_detect_capacity(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.csv"
        assert main(["generate", "--config", write_config(tmp_path, **{
            **SMALL, "duration_s": 0.2, "fault_start_s": 0.1,
            "fault_duration_s": 0.01}), "--out", str(data)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("mpstream.detect.StreamingProfile", _no_memory)
        cfg = write_config(tmp_path, capacity=10 ** 12)
        self.assert_out_of_memory(capsys, ["detect", "--config", cfg, "--out",
                                           str(tmp_path / "e.csv"), str(data)],
                                  "Unable to allocate 14.6 TiB for an array")
        assert not (tmp_path / "e.csv").exists()

    def test_bare_memory_error_gets_a_reason(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr("mpstream.generate.generate_base", no_memory)
        self.assert_out_of_memory(capsys, ["generate", "--out", str(tmp_path / "x.csv")],
                                  "allocation failed")


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
    ("generate", "duration_s", HUGE_INT, "int too large to convert to float"),
    ("detect", "threshold_value", HUGE_INT, "int too large to convert to float"),
    ("detect", "enter_ratio", HUGE_INT, "int too large to convert to float"),
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
        f"{command}-{key}-{'huge-int' if value == HUGE_INT else json.dumps(value)}"
        for command, key, value, _ in MISTYPED])
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

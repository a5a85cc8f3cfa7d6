import json

import pytest

from mpstream.cli import main
from mpstream.io import read_events, read_truth


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

"""Command-line interface: flags, exit codes, JSON output, round trips."""

import json
import math
import warnings

import numpy as np
import pytest

from hyperstab.cli import main
from hyperstab.corpus import bundled_corpus_path
from hyperstab.errors import GridMismatch
from hyperstab.signals import (read_trace_csv, read_trace_signals, signals_from_trace,
                               write_trace_csv)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_sspr_entry(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--tf", "2,1;1,1")
        assert code == 0
        report = json.loads(out)
        # descending '2,1' is 2s+1: Re = (1+2w^2)/(1+w^2), minimum 1 at w=0
        assert report["grade"] == "SSPR"
        assert report["d"] == pytest.approx(1.0)

    def test_integrator(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--tf", "1;1,0")
        assert code == 0
        report = json.loads(out)
        assert report["grade"] == "PR"
        assert report["single_pole_at_origin"] is True
        assert report["g1_grade"] == "SSPR"

    def test_origin_pole_with_a_far_zero(self, capsys):
        # (1 + 5e5 s)/s: the numerator's root -2e-6 lies near the origin pole
        # but is no common factor
        code, out, _ = run_cli(capsys, "classify", "--tf", "5e5,1,0;1,0,0")
        assert code == 0
        assert json.loads(out)["grade"] == "PR"

    def test_negative_leading_coefficient(self, capsys):
        # argparse reads a separate "-1;1,1" as an option; after "=" it is the value
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--tf", "-1;1,1"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        code, out, _ = run_cli(capsys, "classify", "--tf=-1;1,1")
        assert code == 0
        assert json.loads(out)["grade"] == "NotPR"

    def test_zero_denominator_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--tf", "1;0")
        assert code == 2
        assert "error" in err

    def test_improper_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--tf", "1,0,0;1,1")
        assert code == 3

    def test_garbage_exit_2(self, capsys, tmp_path):
        # an empty coefficient is refused, not dropped: "1;1,,1" is not 1/(s+1)
        for argv in (["--tf", "a,b;c"], ["--tf", "1,2"], ["--tf", ";1"],
                     ["--tf", "1;1,,1"], ["--tf", "1;,1,1"], ["--tf", "1;1,1,"],
                     ["--tf", ",1;1,1"], ["--tf", "1; ,1"],
                     ["--tf", "1;1,1", "--json", str(tmp_path / "missing" / "x.json")]):
            code, _, err = run_cli(capsys, "classify", *argv)
            assert code == 2
            assert err.startswith("error:")

    def test_whitespace_around_coefficients(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--tf", " 1 ; 1 , 1 ")
        assert code == 0
        assert json.loads(out)["grade"] == "WSPR"

    def test_json_file_output(self, capsys, tmp_path):
        out_file = tmp_path / "cls.json"
        code, out, _ = run_cli(
            capsys, "classify", "--tf", "1;1,1", "--json", str(out_file)
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["grade"] == "WSPR"
        assert report["d0"] == pytest.approx(1.0)

    def test_unknown_flag_rejected(self, capsys):
        for flag in (["--frobnicate"], ["--points", "128"], ["--grid-min", "1"],
                     ["--grid-max", "10"]):
            with pytest.raises(SystemExit) as exc:
                main(["classify", "--tf", "1;1,1", *flag])
            assert exc.value.code == 2


class TestSimulate:
    def _write_scenario(self, tmp_path, data):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def test_sspr_demo(self, capsys, tmp_path):
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [2, 1], "den": [1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 1.0, "k2": 1.0}},
            "x0": [2.0], "excitation": None, "dt": 1e-3, "horizon": 50.0,
        })
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out-dir", str(tmp_path / "run"))
        assert code == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["verdict"] == "AsymptoticallyHyperstableEvidence"
        assert (tmp_path / "run" / "traces.csv").exists()

    def test_unstable_demo_exit_4_with_artifacts(self, capsys, tmp_path):
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [1], "den": [-1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 0.5, "k2": 0.5}},
            "x0": [1.0], "excitation": None, "dt": 1e-3, "horizon": 50.0,
        })
        code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out-dir", str(tmp_path / "run"))
        assert code == 4
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["verdict"] == "Diverged"
        assert (tmp_path / "run" / "traces.csv").exists()

    def test_overflow_in_first_step_exit_2(self, capsys, tmp_path):
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [1], "den": [1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 1.0, "k2": 1.0}},
            "x0": [2e9], "excitation": None, "dt": 1e-3, "horizon": 1.0,
        })
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert "left the overflow guard within the first step" in err

    def test_loop_with_no_root_exit_2(self, capsys, tmp_path):
        # (1 - s)/(1 + s) with a deadzone: at t = 2.303 no output would solve
        # the loop equation. With D = -1 the loop is not well-posed, so the run
        # is refused before its first step, and nothing is written
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [1, -1], "den": [1, 1]},
            "device": {"kind": "DeadzoneSector",
                       "params": {"k1": 0, "k2": 1, "gain": 1, "deadzone": 0.5}},
            "x0": [0.1], "excitation": {"amplitude": 0.6, "duration": 10},
            "dt": 1e-3, "horizon": 5,
        })
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(path),
                                 "--out-dir", str(tmp_path / "run"))
        assert code == 2 and out == ""
        assert err.startswith("error: ill-posed loop: a DeadzoneSector device "
                              "through a plant with D = -1.0 < 0")
        assert not (tmp_path / "run").exists()

    def test_missing_file_exit_2(self, capsys, tmp_path):
        for scenario in (tmp_path / "nope.json", tmp_path):
            code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                                   "--out-dir", str(tmp_path / "run"))
            assert code == 2
            assert err.startswith("error:")
            assert not (tmp_path / "run").exists()
        # an existing file as the output directory
        scenario = self._write_scenario(tmp_path, {
            "plant": {"num": [2, 1], "den": [1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 1.0, "k2": 1.0}},
            "x0": [1.0], "excitation": None, "dt": 1e-2, "horizon": 1.0,
        })
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(scenario),
                               "--out-dir", str(scenario))
        assert code == 2
        assert err.startswith("error:")

    def test_schema_error_exit_2(self, capsys, tmp_path):
        base = {"plant": {"num": [1], "den": [1, 1]},
                "device": {"kind": "Relay", "params": {"amplitude": 1.0}},
                "x0": [1.0], "dt": 1e-3, "horizon": 1.0}
        # dt = 1e-9 asks for 1e9 steps: refused before anything is allocated
        for data in ({"plant": {"num": [1]}},
                     {**base, "excitation": {"amplitude": "abc", "duration": 1}},
                     {**base, "device": "Relay"},
                     {**base, "dt": float("nan")},
                     {**base, "horizon": float("inf")},
                     {**base, "dt": 1e-9}):
            path = self._write_scenario(tmp_path, data)
            code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                                   "--out-dir", str(tmp_path / "run"))
            assert code == 2
            assert err.startswith("error:")
            assert not (tmp_path / "run").exists()

    def test_device_overflow_is_typed_or_diverged(self, capsys, tmp_path):
        # (1 - s)/(1 + s) has D = -1: from x0 = 10 the residual
        # y - 20 - y**5 falls through its root, and y**5 leaves the float range
        # on the way. The loop is not well-posed: a typed refusal, exit 2,
        # before the first step and with nothing written
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [1, -1], "den": [1, 1]},
            "device": {"kind": "CubicOddPower", "params": {"p": 5}},
            "x0": [10.0], "excitation": None, "dt": 1e-3, "horizon": 1.0,
        })
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith("error: ill-posed loop: a CubicOddPower device "
                              "through a plant with D = -1.0 < 0")
        assert not (tmp_path / "run").exists()
        # D = 0: y**101 leaves the float range at the third sample while |y|
        # is far below the divergence guard; the run diverges there
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [1], "den": [-1, 1]},
            "device": {"kind": "CubicOddPower", "params": {"p": 101}},
            "x0": [1.08], "excitation": None, "dt": 1e-3, "horizon": 1.0,
        })
        code, _, _ = run_cli(capsys, "simulate", "--scenario", str(path),
                             "--out-dir", str(tmp_path / "run2"))
        assert code == 4
        report = json.loads((tmp_path / "run2" / "report.json").read_text())
        assert report["verdict"] == "Diverged"
        assert report["diverged_at"] == pytest.approx(2e-3)
        assert len((tmp_path / "run2" / "traces.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("device", [
        {"kind": "StaticSector", "params": {"k1": None}},
        {"kind": "StaticSector", "params": {"k1": "abc"}},
        {"kind": "TimeVaryingGain",
         "params": {"samples": [1.0, 2.0], "sample_dt": float("nan")}},
    ])
    def test_malformed_device_params_exit_2(self, capsys, tmp_path, device):
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [1], "den": [1, 1]}, "device": device,
            "x0": [1.0], "dt": 1e-3, "horizon": 1.0,
        })
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith("error:") and "unknown device kind" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change, field", [
        ({"dt": "0.01"}, "dt"),
        ({"horizon": "2"}, "horizon"),
        ({"x0": [True]}, "x0"),
        ({"x0": ["1"]}, "x0"),
        ({"x0": "1"}, "x0"),
        ({"plant": {"num": "2", "den": [1, 1]}}, "plant"),
        ({"plant": {"num": [True], "den": [1, 1]}}, "plant"),
        ({"device": {"kind": "StaticSector", "params": {"k1": 1, "k2": True}}}, "k2"),
        ({"device": {"kind": "CubicOddPower", "params": {"p": True}}}, "p"),
        ({"device": {"kind": "Relay", "params": {"amplitude": "1"}}}, "amplitude"),
        ({"device": {"kind": "TimeVaryingGain",
                     "params": {"samples": [1, True], "sample_dt": 0.5}}}, "samples"),
        ({"excitation": {"amplitude": "1", "duration": 1}}, "amplitude"),
        ({"excitation": {"amplitude": 1, "duration": True}}, "duration"),
    ], ids=["dt_str", "horizon_str", "x0_bool", "x0_str", "x0_not_list", "num_str",
            "num_bool", "k2_bool", "p_bool", "relay_amplitude_str", "samples_bool",
            "excitation_amplitude_str", "excitation_duration_bool"])
    def test_quoted_or_boolean_number_exit_2(self, capsys, tmp_path, change, field):
        # JSON numbers only: "0.01" and true are not read as 0.01 and 1
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [2, 1], "den": [1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 1.0, "k2": 1.0}},
            "x0": [1.0], "excitation": None, "dt": 1e-2, "horizon": 2.0, **change,
        })
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(path),
                                 "--out-dir", str(tmp_path / "run"))
        assert code == 2 and out == ""
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("x0, excitation, field", [
        ([0.0], {"amplitude": 1.0, "duration": math.nan}, "duration"),
        ([0.0], {"amplitude": 1.0, "duration": math.inf}, "duration"),
        ([0.0], {"amplitude": 0.0, "duration": 1.0}, "amplitude"),
        ([1.0], {"amplitude": math.nan, "duration": 1.0}, "amplitude"),
        ([math.inf], None, "x0"),
    ], ids=["nan_duration", "inf_duration", "zero_amplitude", "nan_amplitude", "inf_x0"])
    def test_empty_or_non_finite_scenario_exit_2(self, capsys, tmp_path, x0,
                                                 excitation, field):
        # each would write an all-zero run or one that overflows at step 0
        path = self._write_scenario(tmp_path, {
            "plant": {"num": [2, 1], "den": [1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 1.0, "k2": 1.0}},
            "x0": x0, "excitation": excitation, "dt": 1e-3, "horizon": 1.0,
        })
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(path),
                               "--out-dir", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith("error:") and field in err
        assert not (tmp_path / "run").exists()


class TestAudit:
    def test_unit_trace(self, capsys, tmp_path):
        t = 1e-3 * np.arange(1001)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {"t": t, "u": np.ones(1001), "y": np.ones(1001)})
        code, out, _ = run_cli(capsys, "audit", "--traces", str(path))
        assert code == 0
        report = json.loads(out)
        assert "WeaklyStrictlyPassive" in report["labels"]
        assert report["gamma0_sq"] == 0.0

    def test_storage_columns(self, capsys, tmp_path):
        t = 1e-3 * np.arange(2001)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {
            "t": t, "u": np.ones(2001), "y": np.ones(2001),
            "S": np.full(2001, 2.0), "D": 3.0 * np.exp(-t),
        })
        code, out, _ = run_cli(capsys, "audit", "--traces", str(path),
                               "--with-storage")
        assert code == 0
        report = json.loads(out)
        assert "Regenerative" in report["labels"]
        assert report["residual_max"] is not None

    def test_missing_column_exit_2(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        for text in ("t,u\n0,1\n0.001,1\n",
                     "t,u,y\n0,1,1\n0.001,1\n0.002,1,1\n",
                     "t,u,y\n0,1,1\n0.001,1,1,1\n0.002,1,1\n"):
            path.write_text(text)
            code, out, err = run_cli(capsys, "audit", "--traces", str(path))
            assert code == 2
            assert err.startswith("error:") and out == ""
        code, _, err = run_cli(capsys, "audit", "--traces", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("text, message", [
        ("", "empty trace file"),
        ("t,u,y\n", "trace file has no rows"),
        ("t,u,y\n\n\n", "trace file has no rows"),
        ("t,u,y\n0,1\n0.001,1\n", "2 cells, the header names 3"),
        ("u,y\n0,1\n1,1\n", "no t column"),
        ("t,u,y\n0,1,1\n", "at least two rows"),
        ("t,u,y\nnan,1,1\nnan,1,1\nnan,1,1\n", "positive and finite"),
        ("t,u,y\n0,1,1\ninf,1,1\n1,1,1\n", "positive and finite"),
        ("t,u,y,u\n0,1,1,5\n0.1,1,1,5\n0.2,1,1,5\n", "column 'u' twice"),
        ("t,u,y,t\n0,1,1,7\n0.1,1,1,9\n0.2,1,1,11\n", "column 't' twice"),
    ])
    def test_bad_trace_file_exit_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(GridMismatch, match=message):
            signals_from_trace(read_trace_csv(path))
        for command in ("audit", "parseval"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, command, "--traces", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("data, message", [
        (b"t,u,y\n0,1,1\n0.001,inf,1\n0.002,1,1\n", "samples must be finite"),
        (b"t,u,y\n0,1,1\n0.001,\xff,1\n", "malformed trace row"),
        (b"t,\xff,y\n0,1,1\n0.001,1,1\n", "needs columns u"),
    ])
    def test_non_finite_or_undecodable_cell_exit_2(self, capsys, tmp_path, data, message):
        path = tmp_path / "trace.csv"
        path.write_bytes(data)
        with pytest.raises(GridMismatch, match=message):
            read_trace_signals(path, ("u", "y"))
        for command in ("audit", "parseval"):
            code, out, err = run_cli(capsys, command, "--traces", str(path))
            assert code == 2 and out == ""
            assert err.startswith("error:") and message in err

    def test_simulate_audit_round_trip(self, capsys, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "plant": {"num": [2, 1], "den": [1, 1]},
            "device": {"kind": "StaticSector", "params": {"k1": 1.0, "k2": 1.0}},
            "x0": [2.0], "excitation": None, "dt": 1e-3, "horizon": 10.0,
        }))
        code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario),
                             "--out-dir", str(tmp_path / "run"))
        assert code == 0
        run_report = json.loads((tmp_path / "run" / "report.json").read_text())
        code, out, _ = run_cli(capsys, "audit", "--traces",
                               str(tmp_path / "run" / "traces.csv"))
        assert code == 0
        audit_report = json.loads(out)
        assert audit_report["gamma0_sq"] == pytest.approx(
            run_report["gamma0_sq_trace"], abs=1e-12
        )


class TestParseval:
    def _trace(self, tmp_path, u, dt=1e-3):
        t = dt * np.arange(u.size)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, {"t": t, "u": u, "y": u})
        return path

    def test_rect_pulse(self, capsys, tmp_path):
        path = self._trace(tmp_path, np.ones(1001))
        code, out, _ = run_cli(capsys, "parseval", "--traces", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["time_energy"] == pytest.approx(1.0)
        assert report["rel_error"] <= 1e-6

    def test_decaying_exponential(self, capsys, tmp_path):
        t = 1e-3 * np.arange(10001)
        path = self._trace(tmp_path, np.exp(-t))
        code, out, _ = run_cli(capsys, "parseval", "--traces", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["time_energy"] == pytest.approx(0.5, abs=1e-5)
        assert report["freq_energy"] == pytest.approx(0.5, abs=1e-5)

    def test_missing_columns_exit_2(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        for text in ("t,z\n0,1\n0.001,1\n",
                     "t,u,y\n0,1,1\n0.001,1\n0.002,1,1\n",
                     "t,u,y\n0,1,1\n0.001,1,1,1\n0.002,1,1\n"):
            path.write_text(text)
            code, out, err = run_cli(capsys, "parseval", "--traces", str(path))
            assert code == 2
            assert err.startswith("error:") and out == ""


class TestCorpus:
    def test_bundled_corpus_passes(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--file", bundled_corpus_path())
        assert code == 0
        assert "0 mismatches" in out

    def test_mismatch_exit_6(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(
            [{"id": "wrong", "num": [2, 1], "den": [1, 1], "grade": "NotPR"}]
        ))
        code, out, _ = run_cli(capsys, "corpus", "--file", str(path))
        assert code == 6
        assert "MISMATCH" in out

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        for text, named in (("{not json", ""),
                            ("[1, 2]", "entry 0"),
                            (json.dumps([{"id": "m", "num": [1], "den": [1, 1],
                                          "grade": "WSPR", "d": "abc"}]), "entry m"),
                            (json.dumps([{"id": "q", "num": [1], "den": [1, 1],
                                          "grade": "WSPR", "d0": "1"}]), "d0"),
                            (json.dumps([{"id": "b", "num": [1], "den": [1, 1],
                                          "grade": "WSPR", "d1": True}]), "d1"),
                            (json.dumps([{"id": "n", "num": ["1"], "den": [1, 1],
                                          "grade": "WSPR"}]), "entry n"),
                            # a passing entry and a failing twin with its id
                            (json.dumps([{"id": "unit", "num": [1], "den": [1],
                                          "grade": "SSPR", "d": 1.0},
                                         {"id": "unit", "num": [1], "den": [1],
                                          "grade": "PR"}]), "entry unit: repeated id")):
            path.write_text(text)
            code, _, err = run_cli(capsys, "corpus", "--file", str(path))
            assert code == 2
            assert err.startswith("error:") and named in err
        code, _, err = run_cli(capsys, "corpus", "--file", str(tmp_path))
        assert code == 2
        assert err.startswith("error:")

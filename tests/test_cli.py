import contextlib
import copy
import io
import json
import logging
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CHILD_ENV
from nverc import cli, errors, sweeps
from nverc.cli import build_parser, main
from nverc.prop import METHODS
from nverc.pulses import sequence_from_json, sequence_to_json

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BASE_SYSTEM = {"units": "muB", "system": {"D": 500.0, "muB": 1.0, "omega_x": 3.0}}
EX_SYSTEM = {"units": "muB",
             "system": {"D": 500.0, "muB": 1.0, "omega_x": 4.5, "Ex": 0.7, "Ey": -0.7}}

# a tiny config per command, and each flag set away from its default with
# the commands that take it
TINY = {
    "trace": dict(BASE_SYSTEM, n_points=3),
    "robustness": dict(BASE_SYSTEM, n=3),
    "ey-map": dict(BASE_SYSTEM, n_ey=2, n_t=3),
    "ratio-map": {"units": "muB", "n_ratio": 2, "n_t": 3,
                  "system": {"D": 500.0, "muB": 1.0, "omega_x": 4.5, "Ex": 0.7}},
    "synth": dict(BASE_SYSTEM, target="X"),
    "calibrate": BASE_SYSTEM,
}
MAPS = {"trace", "robustness", "ey-map", "ratio-map"}
FLAGS = {
    "--jobs": (["--jobs", "2"], MAPS),
    "--method": (["--method", "rwa"], {"trace", "calibrate"}),
    "--seed": (["--seed", "9"], {"synth"}),
    "--plot-script": (["--plot-script"], MAPS),
}
REFUSED = [(c, f) for f, (_, takers) in FLAGS.items() for c in TINY if c not in takers]


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(BASE_SYSTEM, n_points=11))
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "o.csv"), "--jobs", "1"])
        assert rc == 0

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"units": "muB", "system": {"D": 500.0}})
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ConfigError"

    @pytest.mark.parametrize("command,flag", REFUSED, ids=[c + f for c, f in REFUSED])
    def test_flag_outside_its_commands_rejected(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o.csv"
        rc = main([command, "--config", write_cfg(tmp_path, TINY[command]),
                   "--out", str(out), *FLAGS[flag][0]])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ConfigError"
        assert flag in err["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(TINY))
    def test_every_flag_of_its_row_accepted(self, tmp_path, command):
        argv = [a for args, takers in FLAGS.values() if command in takers for a in args]
        out = tmp_path / "o.csv"
        rc = main([command, "--config", write_cfg(tmp_path, TINY[command]),
                   "--out", str(out), *argv])
        assert rc == 0 and out.exists()
        assert (tmp_path / "o.csv.plot.py").exists() == ("--plot-script" in argv)

    @pytest.mark.parametrize("command,doc", [
        ("calibrate", dict(BASE_SYSTEM, scan={"t_max": 5.25, "n_points": 10})),
        ("calibrate", dict(BASE_SYSTEM, scan={"t_max": 1.0, "n_points": 256})),
        ("robustness", dict(BASE_SYSTEM, n="abc")),
        ("calibrate", dict(EX_SYSTEM, ratio_grid=[0.8, 0.6, 0.4, 0.2, 0.0])),
        ("calibrate", {"units": "muB", "system": {"D": 500.0, "muB": 0.0, "omega_x": 0.0}}),
        ("calibrate", dict(EX_SYSTEM, system={**EX_SYSTEM["system"], "omega_x": 0.0},
                           ratio_grid=[0.0, 0.5, 1.0])),
    ], ids=["short-scan", "short-window", "non-integer-n", "descending-grid", "no-drive",
            "ratio-grid-no-drive"])
    def test_bad_config_value_is_2(self, tmp_path, capsys, command, doc):
        # values the library rejects with ValueError/TypeError, not ConfigError
        out = tmp_path / "o.csv"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert "message" in json.loads(capsys.readouterr().out)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command,doc", [
        ("trace", dict(BASE_SYSTEM, n_points=3, start_state=[[math.nan, 0], [1, 0], [0, 0]])),
        ("robustness", dict(BASE_SYSTEM, n=3, observable="dq_fidelity",
                            target_state=[[math.inf, 0], [0, 0], [1, 0]])),
        ("synth", dict(BASE_SYSTEM, target=[[[math.nan, 0], [1, 0]], [[1, 0], [0, 0]]])),
    ], ids=["nan-start-state", "infinite-target-state", "nan-target"])
    def test_non_finite_state_or_target_is_2(self, tmp_path, capsys, command, doc):
        # JSON's NaN and Infinity parse; a state or gate made of them is refused
        out = tmp_path / "o.csv"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert "non-finite" in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command,doc,named", [
        ("robustness", dict(BASE_SYSTEM, n=3, method="lab"), "'method'"),
        ("robustness", dict(BASE_SYSTEM, n=3, n_pointz=7), "'n_pointz'"),
        ("calibrate", dict(BASE_SYSTEM, scan={"t_max": 5.25, "n_pointz": 7}), "'n_pointz'"),
        ("calibrate", dict(BASE_SYSTEM, ratio_grid=[0.0, 0.5, 1.0]), "transverse-x"),
        # the maps set these system fields themselves
        ("ey-map", dict(BASE_SYSTEM, system={**BASE_SYSTEM["system"], "Ey": 0.9}), "'Ey'"),
        ("ey-map", dict(BASE_SYSTEM, system={**BASE_SYSTEM["system"], "omega_y": 0.9}),
         "'omega_y'"),
        ("ratio-map", dict(EX_SYSTEM, system={**EX_SYSTEM["system"], "omega_y": 2.0}),
         "'omega_y'"),
        # a target state with the default (population) observable
        ("robustness", dict(BASE_SYSTEM, n=3, target_state="bogus"), "'target_state'"),
        ("trace", dict(BASE_SYSTEM, n_points=3,
                       sequence=[{"duration": 1, "alpha": 0, "extra": 5}]), "'extra'"),
    ], ids=["method-in-map", "misspelt-key", "misspelt-scan-key", "grid-without-ex",
            "ey-map-sets-ey", "ey-map-sets-omega-y", "ratio-map-sets-omega-y",
            "target-state-of-population", "unknown-segment-key"])
    def test_config_key_not_read_is_2(self, tmp_path, capsys, command, doc, named):
        # a key the command would ignore is refused before anything is written
        out = tmp_path / "o.csv"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert named in json.loads(capsys.readouterr().out)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("t_max", [-1.0, "nan", "inf"])
    def test_trace_t_max_outside_range_is_2(self, tmp_path, capsys, t_max):
        out = tmp_path / "o.csv"
        rc = main(["trace", "--config", write_cfg(tmp_path, dict(BASE_SYSTEM, t_max=t_max)),
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and "t_max" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("doc,named", [
        (dict(BASE_SYSTEM, t_max="HUGE"), "'t_max'"),
        (dict(BASE_SYSTEM, system=dict(BASE_SYSTEM["system"], D="HUGE")), "'D'"),
        (dict(BASE_SYSTEM, sequence=[{"duration": "HUGE", "alpha": 0.0}]), "'duration'"),
    ], ids=["t_max", "system-D", "segment-duration"])
    def test_integer_beyond_float_range_is_2(self, tmp_path, capsys, doc, named):
        # a JSON integer is exact, so one too large for a float used to
        # raise OverflowError (exit 1) where it was scaled
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 400))
        out = tmp_path / "o.csv"
        assert main(["trace", "--config", str(cfg), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and named in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command,doc,named", [
        ("calibrate", dict(EX_SYSTEM, ratio_grid=["0.0", "0.25", "0.5", "0.75", "1.0"]),
         "'ratio_grid'"),
        ("trace", dict(BASE_SYSTEM, n_points=3, start_state=[[True, 0], [0, 0], [0, 0]]),
         "'start_state'"),
        ("trace", dict(BASE_SYSTEM, n_points=3, start_state=[[1, 0, 5], [0, 0], [0, 0]]),
         "'start_state'"),
        ("trace", dict(BASE_SYSTEM, n_points=3, start_state=[{"re": 1}, [0, 0], [0, 0]]),
         "'start_state'"),
        ("synth", dict(BASE_SYSTEM, target=[[[0, 0], [True, 0]], [[True, 0], [0, 0]]]),
         "'target'"),
    ], ids=["ratio-grid-strings", "state-bool", "state-triple", "state-object", "target-bool"])
    def test_array_element_not_a_number_is_2(self, tmp_path, capsys, command, doc, named):
        # each element of a number array is a JSON number, as a scalar key's
        # value is: strings and bools were converted, and extra entries dropped
        out = tmp_path / "o.out"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and named in err["message"]
        assert not list(tmp_path.glob("o.out*"))

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, -1.0])
    def test_calibrate_t_max_outside_range_is_2(self, tmp_path, capsys, t_max):
        # a NaN or infinite window used to reach the scan and be reported
        # as a drive below the resonant regime (exit 3)
        doc = dict(BASE_SYSTEM, scan={"t_max": t_max, "n_points": 256})
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and "scan window" in err["message"]
        assert not out.exists()

    def test_calibrate_ratio_grid_refuses_omega_y(self, tmp_path, capsys, monkeypatch):
        # the scan sets the y tone itself: a system omega_y was taken and
        # ignored (exit 0, best_ratio 0.4142135618375952 on this grid)
        scans = []
        monkeypatch.setattr(sweeps, "ratio_scan", lambda *a: scans.append(a))
        doc = dict(EX_SYSTEM, system={**EX_SYSTEM["system"], "omega_y": 1.0},
                   ratio_grid=[0.0, 0.4, 0.8])
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and "'omega_y'" in err["message"]
        assert scans == [] and not out.exists()

    def test_calibrate_without_grid_drives_omega_y(self, tmp_path):
        # without a ratio grid the system's omega_y is the drive's y tone
        outs = {}
        for oy in (0.0, 0.5):
            doc = dict(BASE_SYSTEM, system={**BASE_SYSTEM["system"], "omega_y": oy},
                       method="rwa")
            outs[oy] = tmp_path / f"cal{oy}.json"
            assert main(["calibrate", "--config", write_cfg(tmp_path, doc),
                         "--out", str(outs[oy])]) == 0
        t_prime = {oy: json.loads(out.read_text())["T_prime"] for oy, out in outs.items()}
        assert t_prime[0.5] != pytest.approx(t_prime[0.0], abs=1e-3)

    def test_calibrate_ratio_with_infinite_tone_is_2(self, tmp_path, capsys):
        # 1e308 is a finite ratio whose tone 1e308 * omega_x is not: it used
        # to print numpy's overflow warning and then blame omega_y, a key
        # the config never set
        doc = dict(EX_SYSTEM, ratio_grid=[0, 0.4, 1e308])
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        err = json.loads(captured.out)["error"]
        assert err["type"] == "ValueError" and "ratio_grid" in err["message"]
        assert "omega_y" not in err["message"] and "Warning" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("axis, named", [
        ({"ratio_min": 0.5, "ratio_max": 0.1}, "'ratio'"),
        ({"ratio_max": math.inf}, "'ratio'"), ({"ratio_min": math.nan}, "'ratio'"),
        ({"n_ratio": 1, "ratio_min": 0.2, "ratio_max": -5.0}, "ratio_max"),
    ], ids=["descending", "infinite", "nan", "single-column-with-max"])
    def test_ratio_map_bad_ratio_axis_is_2(self, tmp_path, capsys, axis, named):
        # the ratio axis is checked like every other map axis, before any
        # arithmetic on it; a single column takes ratio_min alone, so a
        # ratio_max beside it is refused rather than ignored
        out = tmp_path / "o.csv"
        rc = main(["ratio-map", "--config", write_cfg(tmp_path, dict(TINY["ratio-map"], **axis)),
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and named in err["message"]
        assert not out.exists()

    def test_ey_map_at_the_threshold_names_its_empty_range(self, tmp_path, capsys):
        # at omega = 2 muB the validity boundary is 0, and so is the default
        # ey_max: the refusal names both bounds of the empty range
        doc = dict(TINY["ey-map"], system={**BASE_SYSTEM["system"], "omega_x": 2.0})
        out = tmp_path / "o.csv"
        rc = main(["ey-map", "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and "'Ey'" in err["message"]
        assert "[0.0, 0.0]" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["robustness", "ey-map", "ratio-map", "synth",
                                         "calibrate"])
    def test_zero_drive_is_3(self, tmp_path, capsys, command):
        # a zero drive on muB = 1 lies below the resonant regime in every
        # command, as in trace's analytic method; calibrate scans it and finds
        # no depletion, as for any drive below the threshold
        doc = dict(TINY[command], system={**TINY[command]["system"], "omega_x": 0.0})
        out = tmp_path / "o.out"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == ("ExtractionError" if command == "calibrate" else "RegimeError")
        assert not list(tmp_path.glob("o.out*"))

    def test_uncompensated_analytic_calibration_is_3(self, tmp_path, capsys):
        # the analytic closed form is that of the reduced Raman system, so it
        # needs the resonance; rwa and lab simulate the uncompensated drive
        cfg = write_cfg(tmp_path, EX_SYSTEM)
        outs = {m: tmp_path / f"{m}.json" for m in ("analytic", "rwa", "lab")}
        rcs = {m: main(["calibrate", "--config", cfg, "--out", str(out), "--method", m])
               for m, out in outs.items()}
        assert rcs == {"analytic": 3, "rwa": 0, "lab": 0}
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ResonanceError" and "required omega_y/omega_x" in err["message"]
        assert not outs["analytic"].exists()

    @pytest.mark.parametrize("method,code", [("rwa", 0), ("lab", 0), ("analytic", 3)])
    def test_trace_without_system_drive_runs_its_segments(self, tmp_path, capsys, method, code):
        # a zero system drive has no characteristic times, but every segment
        # sets its own drive; only the closed forms refuse the drive-off one
        doc = {"units": "muB", "method": method, "n_points": 5,
               "system": {"D": 500.0, "muB": 1.0, "omega_x": 0.0},
               "sequence": [{"duration": 1.0, "alpha": 0.0, "omega_x": 3.0},
                            {"duration": 0.5, "alpha": 0.0}]}
        out = tmp_path / "o.csv"
        assert main(["trace", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == code
        if code:
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "RegimeError"
            assert not out.exists()
        else:
            lines = out.read_text().splitlines()
            assert "# characteristic: null" in lines
            rows = np.array([ln.split(",") for ln in lines if not ln.startswith("#")][1:], float)
            assert rows.shape == (5, 4)
            np.testing.assert_allclose(rows[:, 1:].sum(axis=1), 1.0, atol=1e-6)

    def test_ey_map_with_ex_is_3(self, tmp_path, capsys):
        # an uncompensated transverse-x field has no closed-form overlay
        doc = dict(TINY["ey-map"], system={**BASE_SYSTEM["system"], "Ex": 0.1})
        out = tmp_path / "o.csv"
        assert main(["ey-map", "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ResonanceError"
        assert not out.exists()

    def test_synth_seed_defaults_to_zero(self, tmp_path):
        cfg = str(CONFIGS / "synth_haar_orthogonal_axes.json")
        outs = [tmp_path / "default.json", tmp_path / "zero.json", tmp_path / "one.json"]
        assert main(["synth", "--config", cfg, "--out", str(outs[0])]) == 0
        assert main(["synth", "--config", cfg, "--out", str(outs[1]), "--seed", "0"]) == 0
        assert main(["synth", "--config", cfg, "--out", str(outs[2]), "--seed", "1"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()

    def test_jobs_defaults_to_one(self):
        args = build_parser().parse_args(["trace", "--config", "c", "--out", "o"])
        assert args.jobs == 1

    def test_unreadable_config_is_2(self, tmp_path):
        rc = main(["trace", "--config", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2

    @pytest.mark.parametrize("command,flags", [
        ("trace", []), ("ratio-map", []), ("synth", []), ("calibrate", []),
        ("trace", ["--plot-script"])], ids=["trace", "ratio-map", "synth", "calibrate",
                                             "plot-script"])
    def test_unopenable_output_is_2(self, tmp_path, capsys, command, flags):
        out = tmp_path / "missing_dir" / "o.csv"
        if flags:  # the CSV opens; the script's path is a directory
            out = tmp_path / "o.csv"
            (tmp_path / "o.csv.plot.py").mkdir()
        rc = main([command, "--config", write_cfg(tmp_path, TINY[command]),
                   "--out", str(out), *flags])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ConfigError"
        assert "cannot write output" in err["error"]["message"]

    @pytest.mark.parametrize("command", ["trace", "ratio-map", "calibrate"])
    def test_output_to_a_device_runs(self, tmp_path, command):
        # a device is written but not cut to length (synth would also
        # create a report next to it, so it is left out)
        rc = main([command, "--config", write_cfg(tmp_path, TINY[command]),
                   "--out", os.devnull])
        assert rc == 0

    def test_regime_error_is_3_with_json(self, tmp_path, capsys):
        doc = {"units": "muB", "system": {"D": 500.0, "muB": 1.0, "omega_x": 1.5},
               "scan": {"t_max": 20.0, "n_points": 128}}
        cfg = write_cfg(tmp_path, doc)
        rc = main(["calibrate", "--config", cfg, "--out", str(tmp_path / "cal.json")])
        assert rc == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ExtractionError"

    def test_numeric_error_is_4(self, tmp_path, capsys):
        # tiny axis separation with a generic target exhausts the ladder
        doc = {"units": "muB", "system": {"D": 500.0, "muB": 1.0, "omega_x": 2.001},
               "target": "Y"}
        cfg = write_cfg(tmp_path, doc)
        rc = main(["synth", "--config", cfg, "--out", str(tmp_path / "s.json")])
        assert rc == 4
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "NoConvergenceError"

    def test_degenerate_axes_is_3(self, tmp_path, capsys):
        doc = {"units": "muB",
               "system": {"D": 500.0, "muB": 1.0, "omega_x": 2.8284271247461903},
               "target": "haar"}
        cfg = write_cfg(tmp_path, doc)
        rc = main(["synth", "--config", cfg, "--out", str(tmp_path / "s.json"),
                   "--seed", "42"])
        assert rc == 3
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "AxisDegenerateError"


class LocalToolkitError(errors.NvErcError):
    """A toolkit error the exit-code table does not list."""


# (exit code, log prefix) of every error the CLI maps; None: the message alone
EXIT_TABLE = {
    errors.ConfigError: (2, "config error"), ValueError: (2, "config error"),
    TypeError: (2, "config error"), json.JSONDecodeError: (2, "config error"),
    errors.RegimeError: (3, "domain error"), errors.DomainError: (3, "domain error"),
    errors.ResonanceError: (3, "domain error"), errors.ExtractionError: (3, "domain error"),
    errors.AxisDegenerateError: (3, "domain error"),
    errors.NoConvergenceError: (4, "numerical failure"),
    errors.NvErcError: (3, None), LocalToolkitError: (3, None),
}
ERROR_ARGS = {errors.RegimeError: (1.0, 1.0), errors.NoConvergenceError: (0.5, 3),
              json.JSONDecodeError: ("boom", "{", 0)}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, Exception)]


class TestExitTable:
    @pytest.mark.parametrize("cls", sorted(set(ERROR_CLASSES) | set(EXIT_TABLE),
                                           key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_exit_code_json_and_log_prefix(self, tmp_path, capsys, caplog, monkeypatch, cls):
        # ConfigError is an NvErcError, yet its own row (2) comes first in
        # its method resolution order; an unlisted toolkit error gets 3.  A
        # class of nverc.errors missing from EXIT_TABLE fails its case here.
        exc = cls(*ERROR_ARGS.get(cls, ("boom",)))

        def stub(cfg, out_path):
            raise exc
        monkeypatch.setitem(cli._COMMANDS, "trace", stub)
        with caplog.at_level(logging.ERROR, logger="nverc"):
            rc = main(["trace", "--config", write_cfg(tmp_path, BASE_SYSTEM),
                       "--out", str(tmp_path / "o.csv")])
        code, prefix = EXIT_TABLE[cls]
        assert rc == code
        assert json.loads(capsys.readouterr().out)["error"] == {"type": cls.__name__,
                                                                "message": str(exc)}
        assert [r.getMessage() for r in caplog.records] == [
            str(exc) if prefix is None else f"{prefix}: {exc}"]


class TestConfigMethod:
    @pytest.mark.parametrize("command", ["trace", "calibrate"])
    @pytest.mark.parametrize("method", ["rwa_numeric", "lab_numeric", "bogus"])
    def test_name_outside_the_table_is_2(self, tmp_path, capsys, monkeypatch, command,
                                         method):
        # refused where the config is read: calibrate's ratio scan never runs
        scans = []
        monkeypatch.setattr(sweeps, "ratio_scan", lambda *a: scans.append(a))
        doc = dict(EX_SYSTEM, ratio_grid=[0.0, 0.5, 1.0]) if command == "calibrate" else TINY[command]
        doc = dict(doc, method=method)
        out = tmp_path / "o.out"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and str(list(METHODS)) in err["message"]
        assert not list(tmp_path.glob("o.out*")) and scans == []

    @pytest.mark.parametrize("command", ["trace", "calibrate"])
    @pytest.mark.parametrize("method", METHODS)
    def test_output_records_the_name_as_given(self, tmp_path, command, method):
        out = tmp_path / "o.out"
        doc = dict(TINY[command], method=method)
        assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)]) == 0
        text = out.read_text()
        assert (f"# method: \"{method}\"" in text.splitlines() if command == "trace"
                else json.loads(text)["method"] == method)


class TestPlotScript:
    @pytest.mark.parametrize("command,doc,grid", [
        ("trace", TINY["trace"], None),
        ("robustness", TINY["robustness"], (3, 3)),
        ("ey-map", TINY["ey-map"], (2, 3)),
        ("ratio-map", dict(TINY["ratio-map"], n_ratio=3), (3, 3)),
        ("ratio-map", dict(TINY["ratio-map"], n_ratio=1), (1, 3)),
    ], ids=["trace", "robustness", "ey-map", "ratio-map", "ratio-map-one-ratio"])
    def test_plot_script_runs(self, tmp_path, monkeypatch, capsys, command, doc, grid):
        # matplotlib is not a dependency: a stub records the script's calls
        calls = []

        class Pyplot:
            def __getattr__(self, name):
                return lambda *args, **kwargs: calls.append((name, args, kwargs))
        pyplot = Pyplot()
        monkeypatch.setitem(sys.modules, "matplotlib", types.SimpleNamespace(pyplot=pyplot))
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
        out = tmp_path / "o.csv"
        assert main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out),
                     "--plot-script"]) == 0
        runpy.run_path(str(tmp_path / "o.csv.plot.py"), run_name="__main__")
        names = [name for name, _, _ in calls]
        assert names[-1] == "savefig" and calls[-1][1] == (str(out) + ".png",)
        if grid is None:
            assert names.count("plot") == 3
        else:
            (_, args, _), = [c for c in calls if c[0] == "pcolormesh"]
            assert args[2].shape == grid


def documented_keys():
    """{command: [(path, JSON type, default cell)]} from the README's
    config-key tables; the keys every command reads are filed under None."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("### Config keys"):text.index("### Reproduction configs")]
    tables, command = {}, None
    for line in section.splitlines():
        if m := re.fullmatch(r"#### `([a-z-]+)`", line):
            command = m.group(1)
        elif line.startswith("| `"):
            _, key, json_type, _, default, _ = re.split(r"\s*(?<!\\)\|\s*", line)
            kind = re.match(r"string or array|\w+", json_type).group()
            tables.setdefault(command, []).append((key.strip("`"), kind, default))
    return tables


DOCUMENTED = documented_keys()
SEGMENT = {"duration": 0.5, "alpha": 0.0}


def with_key(doc, path, value):
    """``doc`` with the key at a README path set to ``value``; a
    ``sequence[]`` key is set in a one-segment program."""
    doc = copy.deepcopy(doc)
    head, _, key = path.rpartition(".")
    if head == "sequence[]":
        doc["sequence"] = [dict(SEGMENT, **{key: value})]
    elif head:
        doc[head] = dict(doc.get(head, {}), **{key: value})
    else:
        doc[key] = value
    return doc


def has_key(doc, path):
    head, _, key = path.rpartition(".")
    return key in (doc.get(head, {}) if head else doc)


def constant_defaults():
    """(command, path, value) of each documented constant default that the
    command's TINY config does not set; the keys every command reads are
    checked on trace."""
    cases = []
    for command, rows in DOCUMENTED.items():
        command = command or "trace"
        for path, _, default in rows:
            m = re.fullmatch(r"`(.+)`", default)
            if not m or has_key(TINY[command], path):
                continue
            try:
                cases.append((command, path, json.loads(m.group(1))))
            except ValueError:  # a name such as `alpha`, not a JSON value
                pass
    return cases


# keys consumed only beside another setting
CONSUMED_WITH = {"target_state": {"observable": "dq_fidelity"}}
_TEXT = st.text(max_size=4)
_NUMBER = st.integers(-10, 10) | st.floats()
_LIST = st.lists(st.integers(0, 3), max_size=2)
_OBJECT = st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
_OTHER = st.booleans() | st.none()
WRONG_TYPE = {
    "number": _TEXT | _LIST | _OBJECT | _OTHER,
    "integer": st.floats() | _TEXT | _LIST | _OBJECT | _OTHER,  # 2.0 is a float
    "string": _NUMBER | _LIST | _OBJECT | _OTHER,
    "string or array": _NUMBER | _OBJECT | _OTHER,
    "array": _TEXT | _NUMBER | _OBJECT | _OTHER,
    "object": _TEXT | _NUMBER | _LIST | _OTHER,
}
TYPED_KEYS = [(command, path, kind) for command in TINY
              for path, kind, _ in DOCUMENTED[None] + DOCUMENTED[command]]
WRONG_VALUES = st.sampled_from(TYPED_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), WRONG_TYPE[key[2]]))


def run_quiet(argv):
    """Exit code and stdout of one CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class TestConfigKeys:
    def test_every_command_has_a_table(self):
        assert set(DOCUMENTED) == {None, *TINY}
        assert {kind for _, kind, _ in sum(DOCUMENTED.values(), [])} == set(WRONG_TYPE)

    @settings(max_examples=200)
    @given(WRONG_VALUES)
    # counts that were truncated, and a string and bools that were coerced
    @example((("robustness", "n", "integer"), 2.9))
    @example((("ratio-map", "n_ratio", "integer"), 1.5))
    @example((("robustness", "n", "integer"), "17"))
    @example((("trace", "n_points", "integer"), True))
    @example((("trace", "t_max", "number"), True))
    def test_value_of_wrong_json_type_is_2(self, case):
        (command, path, _), value = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "o.out"
            rc, text = run_quiet([command, "--config",
                                  write_cfg(Path(tmp), with_key(TINY[command], path, value)),
                                  "--out", str(out)])
            assert rc == 2
            assert repr(path.rpartition(".")[2]) in json.loads(text)["error"]["message"]
            assert not list(Path(tmp).glob("o.out*"))

    @pytest.mark.parametrize("command,path,value", constant_defaults(),
                             ids=lambda v: v if isinstance(v, str) else None)
    def test_documented_default_is_the_real_one(self, tmp_path, command, path, value):
        base = dict(TINY[command], **CONSUMED_WITH.get(path, {}))
        written = []
        for k, doc in enumerate((base, with_key(base, path, value))):
            run = tmp_path / str(k)
            run.mkdir()
            assert main([command, "--config", write_cfg(tmp_path, doc, f"{k}.json"),
                         "--out", str(run / "o.out")]) == 0
            written.append({p.name: p.read_bytes() for p in run.iterdir()})
        assert written[0] == written[1]

    def test_segment_frequency_in_mhz_is_converted(self, tmp_path):
        # a segment's own omega_x, given as the system's 3 MHz, is the
        # system's drive and not 3 rad/us
        doc = {"units": "MHz", "system": {"D": 500.0, "muB": 1.0, "omega_x": 3.0},
               "sequence": [{"duration": 0.05, "alpha": 0.0}], "n_points": 5}
        explicit = dict(doc, sequence=[{"duration": 0.05, "alpha": 0.0, "omega_x": 3.0}])
        outs = [tmp_path / "implicit.csv", tmp_path / "explicit.csv"]
        for out, cfg in zip(outs, (doc, explicit)):
            assert main(["trace", "--config", write_cfg(tmp_path, cfg, out.name + ".json"),
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_ey_max_in_mhz_is_converted(self, tmp_path):
        doc = {"units": "MHz", "system": {"D": 500.0, "muB": 1.0, "omega_x": 3.0},
               "n_ey": 3, "n_t": 4}
        boundary = math.sqrt(3.0**2 / 4.0 - 1.0)
        rows = []
        for name, cfg in (("default", doc), ("explicit", dict(doc, ey_max=1.2 * boundary))):
            out = tmp_path / f"{name}.csv"
            assert main(["ey-map", "--config", write_cfg(tmp_path, cfg, name + ".json"),
                         "--out", str(out)]) == 0
            lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
            rows.append(np.array([ln.split(",") for ln in lines[1:]], dtype=float))
        assert np.allclose(rows[0], rows[1], rtol=0.0, atol=1e-12, equal_nan=True)

    @pytest.mark.parametrize("spp", ["0", "-5", "1e400", '"nan"'])
    def test_synth_bad_lab_steps_leaves_no_file(self, tmp_path, capsys, spp):
        text = json.dumps(TINY["synth"])[:-1] + f', "lab_steps_per_period": {spp}}}'
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "s.json"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "message" in json.loads(capsys.readouterr().out)["error"]
        assert not out.exists() and not (tmp_path / "s.json.report.json").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_synth_unopenable_report_leaves_the_program_file(self, tmp_path, capsys,
                                                             existing):
        # the pair is refused before either file is touched: an earlier
        # program file keeps its bytes, and a new one is not left behind
        out = tmp_path / "s.json"
        if existing:
            out.write_bytes(b"earlier bytes")
        (tmp_path / "s.json.report.json").mkdir()
        assert main(["synth", "--config", write_cfg(tmp_path, TINY["synth"]),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ConfigError" and "cannot write output" in err["message"]
        if existing:
            assert out.read_bytes() == b"earlier bytes"
        else:
            assert not out.exists()

    def test_synth_one_lab_step_per_period_runs(self, tmp_path):
        # every Magnus step is unitary, so even one step per carrier period
        # gives a propagator and fidelities in [0, 1]
        cfg = write_cfg(tmp_path, dict(TINY["synth"], lab_steps_per_period=1))
        out = tmp_path / "s.json"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((tmp_path / "s.json.report.json").read_text())
        assert out.exists()
        for key in ("fidelity_analytic", "fidelity_rwa", "fidelity_lab"):
            assert 0.0 <= report[key] <= 1.0


class TestCheckedInConfigs:
    def test_fig2_trace_runs(self, tmp_path):
        rc = main(["trace", "--config", str(CONFIGS / "fig2_trace.json"),
                   "--out", str(tmp_path / "fig2.csv"), "--jobs", "1"])
        assert rc == 0

    def test_calibrate_basic_round_trip(self, tmp_path):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--config", str(CONFIGS / "calibrate_basic.json"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["carrier"] == pytest.approx(500.0)
        assert doc["T_prime"] == pytest.approx(1.1267904202609405, abs=1e-8)
        assert doc["T_total"] == pytest.approx(3.485284122811993, abs=1e-8)
        assert doc["phi"] == pytest.approx(0.8410686705679303, abs=1e-8)

    @pytest.mark.parametrize("method", METHODS)
    def test_calibrate_ex_compensation_lands_on_the_ratio(self, tmp_path, method):
        out = tmp_path / "cal.json"
        rc = main(["calibrate", "--config", str(CONFIGS / "calibrate_ex_compensation.json"),
                   "--out", str(out), "--method", method])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["best_ratio"] - (math.sqrt(2.0) - 1.0)) <= 1e-14
        assert doc["tolerances"]["ratio_refine"] == "gauss_newton"

    def test_calibrate_reports_shifted_carrier(self, tmp_path):
        doc = {"units": "muB",
               "system": {"D": 500.0, "muB": 1.0, "omega_x": 3.0, "Ez": 0.2},
               "scan": {"t_max": 5.3, "n_points": 128}}
        cfg = write_cfg(tmp_path, doc)
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["carrier"] == pytest.approx(500.2)

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        code = "import sys, nverc.cli; sys.exit('scipy.optimize' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=CHILD_ENV).returncode == 0

    def test_every_config_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: tools/config_digests.py runs every
        # checked-in config in one interpreter in which importing scipy fails
        code = textwrap.dedent("""
            import runpy, sys
            from importlib.abc import MetaPathFinder

            class RefuseScipy(MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ImportError(f"{name} is refused")

            sys.meta_path.insert(0, RefuseScipy())
            try:
                import scipy
            except ImportError:
                pass
            else:
                sys.exit("scipy was not refused")
            sys.argv = sys.argv[1:]
            runpy.run_path(sys.argv[0], run_name="__main__")
        """)
        tool = ROOT / "tools" / "config_digests.py"
        res = subprocess.run([sys.executable, "-c", code, str(tool), str(tmp_path)],
                             capture_output=True, text=True, env=CHILD_ENV)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 18
        assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
        assert [line[66:] for line in lines] == sorted(p.name for p in tmp_path.iterdir())

    def test_digests_rewritten_over_longer_files(self, tmp_path, capsys):
        # a second run into the same directory writes over the first one's
        # files, here each made longer, and cuts them to the same bytes
        tool = runpy.run_path(str(ROOT / "tools" / "config_digests.py"))
        tool["main"](tmp_path)
        fresh = capsys.readouterr().out
        sizes = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            with open(path, "ab") as fh:
                fh.write(b"#" * 4096)
        tool["main"](tmp_path)
        assert capsys.readouterr().out == fresh
        assert {p.name: p.stat().st_size for p in tmp_path.iterdir()} == sizes

    def test_digests_run_every_config(self):
        # a config missing from the tool's table would escape the byte check
        runs = runpy.run_path(str(ROOT / "tools" / "config_digests.py"))["RUNS"]
        assert {name for _, name, _ in runs} == {p.stem for p in CONFIGS.glob("*.json")}

    def test_digests_run_every_method(self):
        # a method missing from the tool's table would escape the byte check
        runs = runpy.run_path(str(ROOT / "tools" / "config_digests.py"))["RUNS"]
        targets = {(c, n) for c, n, _ in runs if c in ("trace", "calibrate")}
        assert {c for c, _ in targets} == {"trace", "calibrate"}
        for target in targets:
            assert {m for c, n, m in runs if (c, n) == target} == set(METHODS)

    @pytest.mark.parametrize("name", ["synth_x", "synth_haar_orthogonal_axes"])
    def test_synth_program_loads_unchanged(self, tmp_path, name):
        out = tmp_path / "s.json"
        assert main(["synth", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
        text = out.read_text()
        assert sequence_to_json(*sequence_from_json(text)) == text

    def test_runtime_dependencies_name_no_scipy(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert not [d for d in project["dependencies"] if "scipy" in d.lower()]
        assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])

    def test_console_entry_point(self, tmp_path):
        # one subprocess round through the installed script path
        cfg = write_cfg(tmp_path, dict(BASE_SYSTEM, n_points=5))
        res = subprocess.run(
            [sys.executable, "-m", "nverc.cli", "trace", "--config", cfg,
             "--out", str(tmp_path / "t.csv"), "--jobs", "1"],
            capture_output=True, env=CHILD_ENV,
        )
        assert res.returncode == 0

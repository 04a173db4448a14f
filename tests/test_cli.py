import json
import subprocess
import sys
from pathlib import Path

import pytest

from nverc.cli import build_parser, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    ], ids=["short-scan", "short-window", "non-integer-n", "descending-grid"])
    def test_bad_config_value_is_2(self, tmp_path, capsys, command, doc):
        # values the library rejects with ValueError/TypeError, not ConfigError
        out = tmp_path / "o.csv"
        rc = main([command, "--config", write_cfg(tmp_path, doc), "--out", str(out)])
        assert rc == 2
        assert "message" in json.loads(capsys.readouterr().out)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("command,doc,named", [
        ("robustness", dict(BASE_SYSTEM, n=3, method="lab"), "'method'"),
        ("robustness", dict(BASE_SYSTEM, n=3, n_pointz=7), "'n_pointz'"),
        ("calibrate", dict(BASE_SYSTEM, scan={"t_max": 5.25, "n_pointz": 7}), "'n_pointz'"),
        ("calibrate", dict(BASE_SYSTEM, ratio_grid=[0.0, 0.5, 1.0]), "transverse-x"),
    ], ids=["method-in-map", "misspelt-key", "misspelt-scan-key", "grid-without-ex"])
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
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_console_entry_point(self, tmp_path):
        # one subprocess round through the installed script path
        cfg = write_cfg(tmp_path, dict(BASE_SYSTEM, n_points=5))
        res = subprocess.run(
            [sys.executable, "-m", "nverc.cli", "trace", "--config", cfg,
             "--out", str(tmp_path / "t.csv"), "--jobs", "1"],
            capture_output=True,
        )
        assert res.returncode == 0

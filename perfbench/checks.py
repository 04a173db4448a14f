"""Correctness checks on the outputs of one workload pass.

Each check reads a command's output file, compares it against values the
benchmark computed on its own (``workloads.py``) and returns
``(problems, values)``: a list of failure messages, empty when the output is
correct, and the numbers the run reports (lab error, rotations, ...).
Checks run after timing, in the workload's interpreter, untraced.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRACE_FINAL_TOL = {"analytic": 1e-9, "rwa": 1e-9, "lab": 5e-3}
FIDELITY_TOL = 1e-9
LEAKAGE_TOL = 1e-9
LAB_INFIDELITY_MAX = 5e-3
CALIB_TOL = 1e-8
# the ex-compensation config scans a 0.05-spaced ratio grid; its parabolic
# refinement lands about 1.3e-3 from the exact ratio, and the calibrated
# times inherit an error of that order
CALIB_RATIO_TOL = 2e-3


def read_csv(path: str):
    """Header list and float array of an nverc CSV (metadata lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return lines[0].strip().split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def check(cmd: dict, run_cli) -> tuple[list[str], dict]:
    """Dispatch on the command's expectation kind.  ``run_cli(argv)``
    runs one more CLI command untimed and returns its exit code."""
    kind = cmd["expect"]["kind"]
    problems, values = _CHECKS[kind](cmd, run_cli)
    if cmd["expect"].get("jobs2") and not problems:
        problems += _same_bytes_with_two_jobs(cmd, run_cli)
    return problems, values


def _trace(cmd, run_cli):
    expect = cmd["expect"]
    header, data = read_csv(cmd["out"])
    problems, values = [], {"cells": len(data)}
    if header != ["t", "p_plus1", "p_0", "p_minus1"]:
        problems.append(f"unexpected header {header}")
        return problems, values
    final = data[-1, 3]
    tol = TRACE_FINAL_TOL[expect["method"]]
    if not abs(final - 1.0) <= tol:
        problems.append(f"final |-1> population {final:.6g} not within {tol:g} of 1")
    ref_method = expect.get("reference_method")
    if ref_method:
        ref_out = cmd["out"] + f".{ref_method}.csv"
        argv = [ref_out if a == cmd["out"] else a for a in cmd["argv"]]
        argv[argv.index("--method") + 1] = ref_method
        if run_cli(argv) != 0:
            problems.append(f"reference {ref_method} trace failed")
        else:
            _, ref = read_csv(ref_out)
            values["lab_err"] = float(np.max(np.abs(data[:, 1:] - ref[:, 1:])))
    return problems, values


def _robustness(cmd, run_cli):
    e = cmd["expect"]
    _, data = read_csv(cmd["out"])
    n = e["n"]
    problems, values = [], {"cells": len(data)}
    if data.shape != (n * n, 3):
        return [f"expected {n * n} rows of 3 columns, got {data.shape}"], values
    ts = data[:n, 1]
    grid = data[:, 2].reshape(n, n)
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    cell = ts[1] - ts[0]
    tp, ts2 = e["T_prime"], e["T_second"]

    def near(a, b):
        return abs(a - b) <= cell + 1e-12

    if not ((near(ts[i], tp) and near(ts[j], ts2)) or (near(ts[i], ts2) and near(ts[j], tp))):
        problems.append(f"peak at ({ts[i]:.6g}, {ts[j]:.6g}), not at "
                        f"(T'={tp:.6g}, T''={ts2:.6g})")
    on_grid = (np.min(np.abs(ts - tp)) < 1e-12 * e["T_total"]
               and np.min(np.abs(ts - ts2)) < 1e-12 * e["T_total"])
    # off the grid the peak cell is up to half a cell from the exact pair in
    # each pulse, i.e. up to obar * cell / 2 of Rabi angle per pulse; the
    # population deficit stays below twice the sum of their squares
    obar_cell = 2.0 * math.pi / e["T_total"] * cell
    floor = 1.0 - 1e-9 if on_grid else 1.0 - obar_cell ** 2
    peak = grid[i, j]
    if not floor <= peak <= 1.0 + 1e-9:
        problems.append(f"peak value {peak:.12f} outside [{floor}, 1]")
    return problems, values


def _ey_map(cmd, run_cli):
    boundary = cmd["expect"]["boundary"]
    _, data = read_csv(cmd["out"])
    ey, overlays = data[:, 0], data[:, 3:]
    beyond, inside = ey > boundary + 1e-12, ey < boundary - 1e-12
    problems = []
    if not beyond.any() or not inside.any():
        problems.append("grid does not straddle the validity boundary")
    if not np.all(np.isnan(overlays[beyond])):
        problems.append("overlay columns are not NaN past the validity boundary")
    if not np.all(np.isfinite(overlays[inside])):
        problems.append("overlay columns are not finite inside the validity boundary")
    return problems, {"cells": len(data)}


def _ratio_map(cmd, run_cli):
    r_star = cmd["expect"]["ratio"]
    _, data = read_csv(cmd["out"])
    ratios, inverse = np.unique(data[:, 0], return_inverse=True)
    minima = np.full(len(ratios), np.inf)
    np.minimum.at(minima, inverse, data[:, 2])
    best = ratios[int(np.argmin(minima))]
    problems = []
    if abs(best - r_star) > 1e-9:
        problems.append(f"depletion minimum at ratio {best:.12g}, "
                        f"not at the compensation ratio {r_star:.12g}")
    return problems, {"cells": len(data)}


def _calibrate(cmd, run_cli):
    from nverc import SystemParams, characteristic_quantities

    e = cmd["expect"]
    with open(cmd["out"], encoding="utf-8") as fh:
        doc = json.load(fh)
    q = characteristic_quantities(SystemParams(**e["system"]))
    tol = CALIB_TOL if "ratio" not in e else CALIB_RATIO_TOL
    problems = []
    for key, want in (("T_total", q.T_total), ("T_prime", q.T_prime), ("phi", q.phi)):
        if not abs(doc[key] - want) <= tol:
            problems.append(f"{key} = {doc[key]!r}, closed form {want!r} (tol {tol:g})")
    if "ratio" in e and not abs(doc["best_ratio"] - e["ratio"]) <= CALIB_RATIO_TOL:
        problems.append(f"best_ratio {doc['best_ratio']!r} not within "
                        f"{CALIB_RATIO_TOL:g} of {e['ratio']!r}")
    return problems, {}


def _synth(cmd, run_cli):
    from nverc import sequence_from_json, sequence_unitary

    with open(cmd["out"] + ".report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(cmd["out"], encoding="utf-8") as fh:
        seq, params = sequence_from_json(fh.read())
    problems = []
    if not report["fidelity_analytic"] >= 1.0 - FIDELITY_TOL:
        problems.append(f"analytic fidelity {report['fidelity_analytic']!r} < 1 - {FIDELITY_TOL:g}")
    m = sequence_unitary(params, seq).m
    leak = math.sqrt(abs(m[1, 0]) ** 2 + abs(m[1, 2]) ** 2)
    if not leak < LEAKAGE_TOL:
        problems.append(f"leakage out of the DQ qubit {leak:.3e}")
    if report["n_rotations"] > cmd["expect"]["max_rotations"]:
        problems.append(f"{report['n_rotations']} rotations, more than "
                        f"{cmd['expect']['max_rotations']}")
    lab_err = 1.0 - report["fidelity_lab"]
    if not lab_err <= LAB_INFIDELITY_MAX:
        problems.append(f"lab-frame infidelity {lab_err:.3e} > {LAB_INFIDELITY_MAX:g}")
    return problems, {"lab_err": lab_err, "rotations": report["n_rotations"],
                      "gate_time": report["total_duration"]}


def _same_bytes_with_two_jobs(cmd, run_cli):
    out2 = cmd["out"] + ".jobs2"
    argv = [out2 if a == cmd["out"] else a for a in cmd["argv"]]
    argv[argv.index("--jobs") + 1] = "2"
    if run_cli(argv) != 0:
        return ["the --jobs 2 run failed"]
    with open(cmd["out"], "rb") as a, open(out2, "rb") as b:
        if a.read() != b.read():
            return ["CSV bytes differ between --jobs 1 and --jobs 2"]
    return []


_CHECKS = {"trace": _trace, "robustness": _robustness, "ey_map": _ey_map,
           "ratio_map": _ratio_map, "calibrate": _calibrate, "synth": _synth}

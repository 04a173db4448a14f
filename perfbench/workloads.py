"""Inputs of the three benchmark workloads, generated from a seed.

A workload is a list of ``nverc`` CLI commands (one *pass*).  Each command
carries the label it is reported under, the group its time counts towards,
the config it reads, and what the correctness check expects of its output.
The expected values (characteristic times, validity boundary, compensation
ratio) are computed here from the closed-form formulas, independently of the
package under test.

The configs are copies of the reproduction configs checked in at the commit
that introduced this benchmark, so later edits to ``configs/`` do not change
what is measured.  ``size="tiny"`` shrinks every grid for the smoke tests.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("maps", "gates", "lab_trace")

SYSTEM_FIG2 = {"D": 500.0, "muB": 1.0, "omega_x": 3.0}
SYSTEM_ORTHOGONAL = {"D": 500.0, "muB": 1.0, "omega_x": 2.1647844154331678}
SYSTEM_EX = {"D": 500.0, "muB": 1.0, "omega_x": 4.5, "Ex": 0.7, "Ey": -0.7}
ROBUSTNESS_DRIVES = (("fig4a", 2.0), ("fig4b", 6.0), ("fig4c", 50.0))
RATIO_GRID = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
              0.55, 0.6, 0.65, 0.7, 0.75, 0.8]
HAAR_TARGETS = 2

_SIZES = {
    # robustness n, fig5 (n_ey, n_t), fig6 (n_ratio, n_t), fig2 maps points,
    # lab trace points, synth X drive, lab steps per period
    "full": dict(n_rob=129, fig5=(45, 301), fig6=(81, 6001), trace_pts=501,
                 lab_pts=41, x_system=SYSTEM_FIG2, lab_spp=80),
    "tiny": dict(n_rob=17, fig5=(7, 31), fig6=(5, 301), trace_pts=21,
                 lab_pts=5, x_system=SYSTEM_ORTHOGONAL, lab_spp=20),
}


def characteristic(mu: float, om: float) -> dict:
    """Closed-form characteristic quantities of a plain resonant drive."""
    obar = math.sqrt(mu * mu + om * om / 4.0)
    t_total = 2.0 * math.pi / obar
    t_prime = math.acos(-4.0 * mu * mu / (om * om)) / obar
    return {"T_total": t_total, "T_prime": t_prime,
            "T_second": t_total - t_prime, "phi": math.acos(2.0 * mu / om)}


def compensation_ratio(ex: float, ey: float) -> float:
    """omega_y/omega_x that restores the Raman resonance under Ex."""
    q = ey / ex
    return q - math.copysign(math.sqrt(q * q + 1.0), q)


def not_gate(system: dict, alpha: float) -> list:
    """Two-segment population swap at base phase ``alpha``."""
    q = characteristic(system["muB"], system["omega_x"])
    return [{"duration": q["T_prime"], "alpha": alpha},
            {"duration": q["T_second"], "alpha": alpha + math.pi}]


def make_plan(workload: str, seed: int, outdir: str, size: str = "full") -> list:
    """Write the workload's configs under ``outdir`` and return its commands."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    sz = _SIZES[size]
    builder = {"maps": _maps, "gates": _gates, "lab_trace": _lab_trace}[workload]
    commands = builder(rng, sz)
    for cmd in commands:
        cfg_path = os.path.join(outdir, cmd["label"] + ".config.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cmd.pop("config"), fh, indent=1, sort_keys=True)
        cmd["out"] = os.path.join(outdir, cmd["label"] + cmd.pop("suffix"))
        cmd["argv"] = [cmd["command"], "--config", cfg_path, "--out", cmd["out"],
                       "--jobs", "1", *cmd.pop("extra", [])]
    return commands


def _command(label, command, group, config, expect, suffix=".csv", extra=()):
    return {"label": label, "command": command, "group": group, "config": config,
            "expect": expect, "suffix": suffix, "extra": list(extra)}


def _trace(label, system, alpha, n_points, method, group):
    cfg = {"units": "muB", "system": system, "start_state": "plus1",
           "sequence": not_gate(system, alpha), "n_points": n_points}
    return _command(label, "trace", group, cfg, {"kind": "trace", "method": method},
                    extra=("--method", method))


def _maps(rng, sz) -> list:
    # the seed moves the base phase of the traced population swap; the
    # grids are fixed, so every seed does the same amount of work
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    cmds = [_trace(f"fig2_{m}", SYSTEM_FIG2, alpha, sz["trace_pts"], m, "trace")
            for m in ("analytic", "rwa")]
    for label, om in ROBUSTNESS_DRIVES:
        system = {"D": 500.0, "muB": 1.0, "omega_x": om}
        cfg = {"units": "muB", "system": system, "n": sz["n_rob"]}
        expect = {"kind": "robustness", **characteristic(1.0, om), "n": sz["n_rob"]}
        cmds.append(_command(label, "robustness", "robustness", cfg, expect))
    n_ey, n_t = sz["fig5"]
    boundary = math.sqrt(SYSTEM_FIG2["omega_x"] ** 2 / 4.0 - SYSTEM_FIG2["muB"] ** 2)
    cfg = {"units": "muB", "system": SYSTEM_FIG2, "n_ey": n_ey,
           "ey_max": 1.2 * boundary, "n_t": n_t, "t_max": 4.2}
    cmds.append(_command("fig5", "ey-map", "spectral", cfg,
                         {"kind": "ey_map", "boundary": boundary}))
    n_ratio, n_t = sz["fig6"]
    r_star = compensation_ratio(SYSTEM_EX["Ex"], SYSTEM_EX["Ey"])
    cfg = {"units": "muB", "system": SYSTEM_EX, "n_ratio": n_ratio,
           "ratio_max": 2.0 * r_star, "n_t": n_t, "t_max": 2.681}
    cmds.append(_command("fig6", "ratio-map", "spectral", cfg,
                         {"kind": "ratio_map", "ratio": r_star}))
    # one map per run is re-run untimed with two workers and compared byte
    # for byte; the seed picks which
    rng.choice([c for c in cmds if c["command"] != "trace"])["expect"]["jobs2"] = True
    return cmds


def _gates(rng, sz) -> list:
    basic = {"units": "muB", "system": SYSTEM_FIG2,
             "scan": {"t_max": 5.25, "n_points": 256}, "method": "analytic"}
    ex = {"units": "muB", "system": SYSTEM_EX,
          "scan": {"t_max": 3.4, "n_points": 256}, "method": "rwa",
          "ratio_grid": RATIO_GRID}
    r_star = compensation_ratio(SYSTEM_EX["Ex"], SYSTEM_EX["Ey"])
    cmds = [
        _command("calibrate_basic", "calibrate", "calibrate", basic,
                 {"kind": "calibrate", "system": SYSTEM_FIG2}, suffix=".json"),
        _command("calibrate_ex", "calibrate", "calibrate", ex,
                 {"kind": "calibrate",
                  "system": {**SYSTEM_EX, "omega_y": r_star * SYSTEM_EX["omega_x"]},
                  "ratio": r_star}, suffix=".json"),
    ]
    x_cfg = {"units": "muB", "system": sz["x_system"], "target": "X",
             "lab_steps_per_period": sz["lab_spp"]}
    cmds.append(_command("synth_x", "synth", "synth", x_cfg,
                         {"kind": "synth", "max_rotations": 16}, suffix=".json",
                         extra=("--seed", str(rng.randrange(2**31)))))
    for k in range(HAAR_TARGETS):
        cfg = {"units": "muB", "system": SYSTEM_ORTHOGONAL, "target": "haar",
               "lab_steps_per_period": sz["lab_spp"]}
        cmds.append(_command(f"synth_haar{k}", "synth", "synth", cfg,
                             {"kind": "synth", "max_rotations": 3}, suffix=".json",
                             extra=("--seed", str(rng.randrange(2**31)))))
    return cmds


def _lab_trace(rng, sz) -> list:
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    cmd = _trace("fig2_lab", SYSTEM_FIG2, alpha, sz["lab_pts"], "lab", "trace")
    cmd["expect"]["reference_method"] = "analytic"
    return [cmd]

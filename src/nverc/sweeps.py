"""Figure-style dataset generation: time traces, 2D maps, synthesis and
calibration runs, with deterministic CSV output.

CSV files are UTF-8 with '.' decimals, values formatted %.12e, a header
row, and a leading '#'-prefixed metadata block (schema, parameters,
characteristic times).  A trace runs its program once (``prop._walk``);
a sample at most 1e-15 short of a segment's end gets the state there.  A
map row is one array operation, and every command runs in one process;
an ``ey-map`` or ``ratio-map`` row evaluates only the |0> column of the
rotating-wave propagator.  ``_write_csv`` takes one column per header
field, shaped on the map's grid: a column constant along the first axis
(the time axis) is formatted once per file, the others ``_CSV_BLOCK``
cells at a time into the exact ``%.12e`` bytes (``_format_fields``), and
each block goes straight to the open file, so neither a whole-file float
matrix nor its text is built.  Each ``cmd_*`` takes only its config and
output path (``cmd_synth`` also the seed of random targets); which CLI
flag reaches which command is decided in ``nverc.cli``.

Config files are single JSON documents.  Frequencies are interpreted per
the "units" field: "muB" (dimensionless, already angular, the default for
reproduction runs), "MHz" (ordinary frequency, converted by 2 pi; times
are then in microseconds) or "rad_per_us" (angular, no conversion).
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import erc, synth
from .calib import rabi_extract, ratio_scan, simulate_odmr
from .errors import ConfigError, NvErcError
from .prop import IntegratorConfig, _canonical_method, _rwa_evolver, _walk
from .pulses import PulseSegment, PulseSequence, sequence_to_json
from .spin import KET_0, KET_M1, KET_P1, StateVector3, SystemParams
from .strain import compensation_ratio, ey_characteristics

__all__ = [
    "load_config",
    "system_from_config",
    "cmd_trace",
    "cmd_robustness",
    "cmd_ey_map",
    "cmd_ratio_map",
    "cmd_synth",
    "cmd_calibrate",
]

CSV_SCHEMA = "nverc-csv/1"
_FLOAT_FMT = "%.12e"
_CSV_BLOCK = 4096  # cells (at least one first-axis row) per write; bounds peak memory
_POW10 = np.array([float(10**k) for k in range(23)])  # exact doubles
_FIELD = np.frombuffer(b"0.000000000000e+00,", np.uint8)
_EXP = np.frombuffer(b"".join(b"e%+03d" % (12 - k) for k in range(23)), np.uint32)

_UNIT_FACTORS = {"muB": 1.0, "rad_per_us": 1.0, "MHz": 2.0 * math.pi}
_FREQUENCY_KEYS = ("D", "muB", "omega_x", "omega_y", "Ex", "Ey", "Ez")

# The top-level config keys each CLI command reads; ``nverc.cli`` rejects
# any other key that does not begin with "_" (a comment).
_MAP_KEYS = {"units", "system", "t_max", "observable", "target_state"}
CONFIG_KEYS = {
    "trace": {"units", "system", "method", "sequence", "start_state", "n_points", "t_max"},
    "robustness": _MAP_KEYS | {"n"},
    "ey-map": _MAP_KEYS | {"n_ey", "n_t", "ey_max"},
    "ratio-map": _MAP_KEYS | {"n_ratio", "n_t", "ratio_min", "ratio_max"},
    "synth": {"units", "system", "target", "lab_steps_per_period"},
    "calibrate": {"units", "system", "method", "ratio_grid", "scan"},
}
_SCAN_KEYS = {"t_max", "n_points"}

OBSERVABLES = ("pop_plus1", "pop_0", "pop_minus1", "dq_fidelity")
_OBS_COLUMN = {"pop_plus1": "p_plus1", "pop_0": "p_0",
               "pop_minus1": "p_minus1", "dq_fidelity": "dq_fidelity"}


def _check_sweep(axes, observable: str) -> None:
    """Validate one grid sweep: up to two axes (name, lo, hi, n) of at
    least two points each, and a known observable."""
    if len(axes) > 2:
        raise ConfigError(f"at most 2 sweep axes supported, got {len(axes)}")
    for name, lo, hi, n in axes:
        if n < 2:
            raise ConfigError(f"axis {name!r} needs n >= 2, got {n}")
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ConfigError(f"axis {name!r} needs a finite increasing range")
    if observable not in OBSERVABLES:
        raise ConfigError(
            f"observable must be one of {OBSERVABLES}, got {observable!r}")


def _observable_values(name: str, target_amps, states: np.ndarray) -> np.ndarray:
    """Vectorized observable over an (n, 3) array of state amplitudes."""
    if name == "pop_plus1":
        return np.abs(states[:, 0]) ** 2
    if name == "pop_0":
        return np.abs(states[:, 1]) ** 2
    if name == "pop_minus1":
        return np.abs(states[:, 2]) ** 2
    return np.abs(states @ np.conj(target_amps)) ** 2


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: line {exc.lineno}, {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")
    return cfg


def system_from_config(cfg: dict) -> SystemParams:
    units = cfg.get("units", "muB")
    if units not in _UNIT_FACTORS:
        raise ConfigError(f"units must be one of {sorted(_UNIT_FACTORS)}, got {units!r}")
    factor = _UNIT_FACTORS[units]
    raw = cfg.get("system")
    if not isinstance(raw, dict):
        raise ConfigError("config field 'system' must be an object")
    known = set(_FREQUENCY_KEYS)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown system fields: {sorted(unknown)}")
    try:
        vals = {k: factor * float(raw[k]) for k in raw}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"system fields must be numbers: {exc}") from exc
    if "D" not in vals or "muB" not in vals or "omega_x" not in vals:
        raise ConfigError("system requires at least D, muB and omega_x")
    try:
        return SystemParams(**vals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _start_state(cfg: dict) -> StateVector3:
    spec = cfg.get("start_state", "plus1")
    presets = {"plus1": KET_P1, "zero": KET_0, "minus1": KET_M1}
    if isinstance(spec, str):
        if spec not in presets:
            raise ConfigError(f"start_state must be one of {sorted(presets)} or an amplitude list")
        return StateVector3(presets[spec])
    try:
        amps = [complex(a[0], a[1]) for a in spec]
        return StateVector3.from_unnormalized(np.array(amps))
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad start_state: {exc}") from exc


def _observable_target(cfg: dict, observable: str):
    if observable != "dq_fidelity":
        return None
    return _start_state({"start_state": cfg.get("target_state", "minus1")}).amps


def _format_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_FLOAT_FMT`` bytes of each value of a float array, each
    followed by ',', as ``uint8`` of shape ``x.shape + (19,)``, and the mask
    of values whose bytes are exact.  A value x in [1e-10, 1e13) has the 13
    digits n = round(x 10^(12-e)), e = floor(log10 x), from one correctly
    rounded product; +0.0 is n = 0 with exponent +00.  Any other value whose
    ``%`` text has 18 bytes (a product within 2 ulps of a tie, an n off 13
    digits, a far 2-digit exponent) is written with ``%`` in place; text of
    another length (a sign, nan, inf, a 3-digit exponent) is not exact."""
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(x))                    # nan/-inf off the fast set
        exact = (e >= -10) & (e <= 12) & ~np.signbit(x)
        k = np.where(exact, 12 - e, 12).astype(np.intp)  # 12: exponent +00
        p = x * _POW10[k]                            # k <= 22: 10^k is exact
        n = np.floor(p)
        frac = p - n
        n += frac > 0.5
        exact &= (np.abs(frac - 0.5) > 2 * np.spacing(p)) & (n >= 1e12) & (n < 1e13)
        exact |= (x == 0.0) & ~np.signbit(x)         # +0.0: n = 0 below
        n[~exact] = 0.0
    buf = np.empty(x.shape + (19,), np.uint8)
    buf[...] = _FIELD
    # digit j of n is floor(n / 10^(12-j)) - 10 floor(n / 10^(13-j)); exact,
    # as n < 2^53 and n / 10^m is never within one rounding of another integer
    prev = 0.0
    for j, pos in enumerate((0, *range(2, 14))):
        q = np.floor(n / _POW10[12 - j])
        buf[..., pos] = q - 10 * prev + 48
        prev = q
    buf[..., 14:18].view(np.uint32)[..., 0] = _EXP.take(k)
    fields, values, flags = buf.reshape(-1, 19), x.reshape(-1), exact.reshape(-1)
    for i in np.flatnonzero(~flags):
        text = (_FLOAT_FMT % values[i]).encode()
        if len(text) == 18:
            fields[i, :18] = np.frombuffer(text, np.uint8)
            flags[i] = True
    return buf, exact


def _write_csv(path: str, meta: dict, header: list[str], columns) -> None:
    """Write one float column per header field.  The columns broadcast to a
    grid of at most 2 axes whose cells, in C order, are the rows.  A column
    constant along the first axis is formatted once; the others are
    formatted together, ``_CSV_BLOCK`` cells (at least one first-axis row)
    at a time, and each block goes straight to the file.  A row with a
    field that ``_format_fields`` cannot lay out is formatted with ``%``."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(cols)} CSV columns do not fit header {header}")
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    if len(shape) > 2:
        raise ValueError(f"CSV columns broadcast to {shape}, more than 2 axes")
    cols = [c.reshape(-1, 1) if len(shape) < 2 else np.atleast_2d(c) for c in cols]
    n_outer, n_inner = np.broadcast_shapes(*(c.shape for c in cols))
    once = {j: _format_fields(c) for j, c in enumerate(cols) if len(c) == 1 < n_outer}
    step = max(1, _CSV_BLOCK // max(n_inner, 1))
    row_fmt = ",".join([_FLOAT_FMT] * len(cols)) + "\n"
    lines = [f"# schema: {CSV_SCHEMA}\n"]
    lines += [f"# {key}: {json.dumps(value, sort_keys=True)}\n" for key, value in meta.items()]
    lines.append(",".join(header) + "\n")
    with open(path, "wb") as fh:
        fh.write("".join(lines).encode("utf-8"))
        for k in range(0, n_outer, step):
            block = [c if j in once else c[k:k + step] for j, c in enumerate(cols)]
            buf, exact = _format_fields(np.concatenate(
                [c.ravel() for j, c in enumerate(block) if j not in once]))
            rows = np.empty((min(step, n_outer - k), n_inner, len(cols), 19), np.uint8)
            ok = np.ones(rows.shape[:2], bool)
            start = 0
            for j, c in enumerate(block):
                if j in once:
                    fields, flags = once[j]
                else:
                    stop = start + c.size
                    fields = buf[start:stop].reshape(c.shape + (19,))
                    flags = exact[start:stop].reshape(c.shape)
                    start = stop
                rows[:, :, j] = fields
                ok &= flags
            rows[:, :, -1, 18] = 10                  # '\n' ends each row
            rows = rows.reshape(-1, len(cols) * 19)
            bad = np.flatnonzero(~ok.reshape(-1))
            cells = np.divmod(bad, n_inner)
            values = np.stack([np.broadcast_to(c, ok.shape)[cells] for c in block], axis=1)
            out, done = [], 0
            for i, row in zip(bad, values.tolist()):
                out += [rows[done:i].tobytes(), (row_fmt % tuple(row)).encode()]
                done = i + 1
            out.append(rows[done:].tobytes())
            fh.write(b"".join(out))


def _params_meta(p: SystemParams) -> dict:
    return {"D": p.D, "muB": p.muB, "omega_x": p.omega_x, "omega_y": p.omega_y,
            "Ex": p.Ex, "Ey": p.Ey, "Ez": p.Ez}


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Generic plot of {csv_name} (written by nverc; matplotlib required here,
not by the package itself)."""
import numpy as np
import matplotlib.pyplot as plt

rows = []
with open({csv_name!r}) as fh:
    for line in fh:
        if line.startswith("#"):
            continue
        if not rows:
            header = line.strip().split(",")
            rows.append(None)
            continue
        rows.append([float(x) for x in line.split(",")])
data = np.array(rows[1:])

if header[0] == "t":                      # time trace
    for k, name in enumerate(header[1:], start=1):
        plt.plot(data[:, 0], data[:, k], label=name)
    plt.xlabel("t"); plt.legend()
else:                                     # 2D map in long format
    x = np.unique(data[:, 0]); y = np.unique(data[:, 1])
    z = data[:, 2].reshape(len(x), len(y))
    plt.pcolormesh(y, x, z, shading="nearest")
    plt.xlabel(header[1]); plt.ylabel(header[0])
    plt.colorbar(label=header[2])
plt.tight_layout()
plt.savefig({png_name!r}, dpi=160)
print("wrote", {png_name!r})
'''


def write_plot_script(csv_path: str) -> str:
    """Drop a standalone plotting script next to a CSV (convenience only)."""
    script_path = csv_path + ".plot.py"
    with open(script_path, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv_name=csv_path, png_name=csv_path + ".png"))
    return script_path


# ---------------------------------------------------------------- trace ---

def _sequence_from_config(p: SystemParams, cfg: dict) -> PulseSequence:
    spec = cfg.get("sequence", "not_gate")
    if spec == "not_gate":
        return erc.not_gate_sequence(p)
    if isinstance(spec, list):
        try:
            segs = [
                PulseSegment(
                    duration=float(s["duration"]),
                    alpha=float(s["alpha"]),
                    beta=float(s["beta"]) if "beta" in s else None,
                    omega_x=float(s.get("omega_x", p.omega_x)),
                    omega_y=float(s.get("omega_y", p.omega_y)),
                )
                for s in spec
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad sequence spec: {exc}") from exc
        return PulseSequence(segs)
    raise ConfigError("sequence must be 'not_gate' or a list of segments")


def cmd_trace(cfg: dict, out_path: str) -> dict:
    """Population time series of a pulse program (three columns of
    populations against time)."""
    p = system_from_config(cfg)
    method = cfg.get("method", "analytic")
    seq = _sequence_from_config(p, cfg)
    n = int(cfg.get("n_points", 401))
    if n < 0:
        raise ConfigError("n_points must be >= 0")
    try:
        q = erc.characteristic_quantities(p)
        characteristic = {"T_total": q.T_total, "T_prime": q.T_prime,
                          "T_second": q.T_second, "phi": q.phi}
        t_default = seq.total_duration or q.T_total
    except NvErcError:
        characteristic = None
        t_default = seq.total_duration
    t_max = float(cfg.get("t_max", t_default))
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max}")
    s0 = _start_state(cfg)
    times = np.linspace(0.0, t_max, n)
    us, drift = _walk(p, seq, times, method)
    amps = us @ s0.amps
    rows = np.array([[t, abs(a[0]) ** 2, abs(a[1]) ** 2, abs(a[2]) ** 2]
                     for t, a in zip(times, amps)]).reshape(-1, 4)
    meta = {
        "command": "trace",
        "params": _params_meta(p),
        "method": _canonical_method(method),
        "characteristic": characteristic,
    }
    _write_csv(out_path, meta, ["t", "p_plus1", "p_0", "p_minus1"], list(rows.T))
    return {"rows": len(rows), "out": out_path, "norm_drift": drift}


# ----------------------------------------------------------- robustness ---

def cmd_robustness(cfg: dict, out_path: str) -> dict:
    """Timing-error landscape: the chosen observable (default: final |-1>
    population) of the two-pulse combination U(t2, pi) U(t1, 0) applied to
    |+1>, over a (t1, t2) grid."""
    p = system_from_config(cfg)
    q = erc.characteristic_quantities(p)
    n = int(cfg.get("n", 129))
    t_max = float(cfg.get("t_max", q.T_total))
    observable = cfg.get("observable", "pop_minus1")
    _check_sweep((("t1", 0.0, t_max, n), ("t2", 0.0, t_max, n)), observable)
    target = _observable_target(cfg, observable)
    ts = np.linspace(0.0, t_max, n)
    first = erc._erc_matrix(p, ts, 0.0) @ KET_P1
    second = erc._erc_matrix(p, ts, math.pi)
    # states[i, j] = second[j] @ first[i], each the same 3x3 product as alone
    states = (second[None] @ first[:, None, :, None])[..., 0]
    vals = _observable_values(observable, target, states.reshape(-1, 3)).reshape(n, n)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    meta = {
        "command": "robustness",
        "params": _params_meta(p),
        "observable": observable,
        "characteristic": {"T_total": q.T_total, "T_prime": q.T_prime,
                           "T_second": q.T_second, "T_half": q.T_total / 2.0},
        "grid": {"n": n, "t_max": t_max},
    }
    _write_csv(out_path, meta, ["t1", "t2", _OBS_COLUMN[observable]],
               [ts[:, None], ts, vals])
    argmax = {"t1": float(ts[i]), "t2": float(ts[j]), "value": float(vals[i, j])}
    return {"rows": vals.size, "out": out_path, "argmax": argmax}


# ---------------------------------------------------------------- ey map ---

def _ground_state_states(p, times):
    """Amplitude trajectories of |0> under the constant two-tone drive."""
    seg = PulseSegment(duration=0.0, alpha=0.0, omega_x=p.omega_x, omega_y=p.omega_y)
    return _rwa_evolver(p, seg)(times, column=1)


def _ey_row(p, times, observable, target):
    states = _ground_state_states(p, times)
    vals = _observable_values(observable, target, states)
    try:
        qe = ey_characteristics(p)
        overlay = (qe.T_total, qe.T_prime, qe.T_second)
    except NvErcError:
        overlay = (math.nan, math.nan, math.nan)
    return vals, overlay


def cmd_ey_map(cfg: dict, out_path: str) -> dict:
    """Ground-state population against (Ey, t), with the closed-form
    characteristic-time overlays as extra columns (NaN past the validity
    boundary Ey = sqrt(omega^2/4 - muB^2))."""
    p = system_from_config(cfg)
    n_ey = int(cfg.get("n_ey", 41))
    n_t = int(cfg.get("n_t", 201))
    boundary = math.sqrt(max(p.omega_x**2 / 4.0 - p.muB**2, 0.0))
    ey_max = float(cfg.get("ey_max", 1.2 * boundary))
    q0 = erc.characteristic_quantities(p)
    t_max = float(cfg.get("t_max", 1.2 * q0.T_total))
    observable = cfg.get("observable", "pop_0")
    _check_sweep((("Ey", 0.0, ey_max, n_ey), ("t", 0.0, t_max, n_t)), observable)
    target = _observable_target(cfg, observable)
    eys = np.linspace(0.0, ey_max, n_ey)
    times = np.linspace(0.0, t_max, n_t)
    vals, overlays = zip(*(_ey_row(p.replace(Ey=ey, omega_y=0.0), times, observable, target)
                           for ey in eys))
    vals, overlays = np.array(vals), np.array(overlays)
    meta = {
        "command": "ey_map",
        "params": _params_meta(p),
        "observable": observable,
        "validity_boundary_Ey": boundary,
        "grid": {"n_ey": n_ey, "n_t": n_t, "ey_max": ey_max, "t_max": t_max},
    }
    _write_csv(out_path, meta,
               ["Ey", "t", _OBS_COLUMN[observable],
                "T_total_ey", "T_prime_ey", "T_second_ey"],
               [eys[:, None], times, vals, *overlays.T[..., None]])
    return {"rows": vals.size, "out": out_path, "validity_boundary": boundary}


# ------------------------------------------------------------- ratio map ---

def cmd_ratio_map(cfg: dict, out_path: str) -> dict:
    """Ground-state population against (omega_y/omega_x, t) in the presence
    of a transverse field; metadata records the analytic compensation ratio
    and the effective depletion times."""
    p = system_from_config(cfg)
    if p.Ex == 0.0:
        raise ConfigError("ratio map requires a nonzero Ex in the system block")
    n_r = int(cfg.get("n_ratio", 81))
    n_t = int(cfg.get("n_t", 201))
    if n_r < 1:
        raise ConfigError("ratio map needs n_ratio >= 1")
    r_star = compensation_ratio(p.Ex, p.Ey)
    r_min = float(cfg.get("ratio_min", 0.0))
    r_max = float(cfg.get("ratio_max", 2.0 * abs(r_star) if r_star != 0 else 1.0))
    ratios = np.linspace(r_min, r_max, n_r) if n_r > 1 else np.array([r_min])
    p_res = p.replace(omega_y=r_star * p.omega_x)
    q_eff = erc.characteristic_quantities(p_res)
    t_max = float(cfg.get("t_max", 1.2 * q_eff.T_total))
    observable = cfg.get("observable", "pop_0")
    _check_sweep((("t", 0.0, t_max, n_t),), observable)
    target = _observable_target(cfg, observable)
    times = np.linspace(0.0, t_max, n_t)
    vals = np.array([
        _observable_values(observable, target,
                           _ground_state_states(p.replace(omega_y=r * p.omega_x), times))
        for r in ratios
    ])
    meta = {
        "command": "ratio_map",
        "params": _params_meta(p),
        "observable": observable,
        "analytic_ratio": r_star,
        "effective": {"T_total": q_eff.T_total, "T_prime": q_eff.T_prime,
                      "T_second": q_eff.T_second},
        "grid": {"n_ratio": n_r, "n_t": n_t, "t_max": t_max},
    }
    _write_csv(out_path, meta, ["ratio", "t", _OBS_COLUMN[observable]],
               [ratios[:, None], times, vals])
    return {"rows": vals.size, "out": out_path, "analytic_ratio": r_star}


# ---------------------------------------------------------------- synth ---

_TARGET_PRESETS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
}


def _target_from_config(cfg: dict, seed: int) -> np.ndarray:
    spec = cfg.get("target", "X")
    if isinstance(spec, str):
        if spec == "haar":
            return synth.haar_unitary2(np.random.default_rng(seed))
        if spec in _TARGET_PRESETS:
            return _TARGET_PRESETS[spec]
        raise ConfigError(f"unknown target preset {spec!r}")
    try:
        return np.array(
            [[complex(e[0], e[1]) for e in row] for row in spec], dtype=complex
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad target matrix: {exc}") from exc


def cmd_synth(cfg: dict, out_path: str, seed: int = 0) -> dict:
    """Synthesize a DQ gate, write the pulse-program JSON and a fidelity
    report with analytic / rotating-wave / lab cross-checks."""
    p = system_from_config(cfg)
    target = _target_from_config(cfg, seed)
    result = synth.synthesize_gate(p, target)
    seq_json = sequence_to_json(result.sequence, p)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(seq_json)

    report = {
        "n_rotations": len(result.rotations),
        "rotations": [{"axis": r.axis.value, "theta": r.theta} for r in result.rotations],
        "total_duration": result.sequence.total_duration,
        "fidelity_analytic": result.fidelity,
    }
    us, _ = _walk(p, result.sequence, [math.inf], "rwa")
    report["fidelity_rwa"] = synth.dq_gate_fidelity(synth.dq_block(us[0]), target)
    spp = float(cfg.get("lab_steps_per_period", 80))
    cfg_lab = IntegratorConfig(max_step=(2 * math.pi / p.carrier) / spp)
    us, _ = _walk(p, result.sequence, [math.inf], "lab", cfg_lab)
    report["fidelity_lab"] = synth.dq_gate_fidelity(synth.dq_block(us[0]), target)
    report_path = out_path + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return {"out": out_path, "report": report_path, **report}


# ------------------------------------------------------------ calibrate ---

def cmd_calibrate(cfg: dict, out_path: str) -> dict:
    """Run the simulated calibration pipeline and write the result JSON."""
    p = system_from_config(cfg)
    method = cfg.get("method", "analytic")
    odmr = simulate_odmr(p)

    # with a transverse-x field, find the compensating tone first
    best_ratio = None
    p_run = p
    if "ratio_grid" in cfg:  # ratio_scan rejects a grid without Ex
        grid = [float(r) for r in cfg["ratio_grid"]]
        best_ratio = ratio_scan(p, grid).best_ratio
        p_run = p.replace(omega_y=best_ratio * p.omega_x)

    scan_cfg = cfg.get("scan", {})
    if not isinstance(scan_cfg, dict) or not set(scan_cfg) <= _SCAN_KEYS:
        raise ConfigError(f"scan reads only {sorted(_SCAN_KEYS)}, got {scan_cfg!r}")
    mu, om = p_run.muB_eff(), p_run.omega_eff()
    t_period = 2.0 * math.pi / math.sqrt(mu * mu + om * om / 4.0)
    t_max = float(scan_cfg.get("t_max", 1.5 * t_period))
    n_points = int(scan_cfg.get("n_points", 256))
    extraction = rabi_extract(p_run, t_max, n_points, method=method)
    result = {
        "carrier": odmr.carrier,
        "levels": list(odmr.levels),
        "T_total": extraction.T_total,
        "T_prime": extraction.T_prime,
        "phi": extraction.phi,
        "best_ratio": best_ratio,
        "method": extraction.method,
        "tolerances": {"root_xtol": 1e-14, "ratio_refine": "bounded_minimize"},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result

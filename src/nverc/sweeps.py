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
cells at a time, and each block goes straight to the open file, so
neither a whole-file float matrix nor its text is built.  Formatting has
two tiers: ``_format_fields`` lays out the exact ``%.12e`` bytes of +0.0
and of positive values in [1e-10, 1e13), and every other field is
formatted alone with ``%`` in front of its own separator.  Each
``cmd_*`` takes only its config and output path (``cmd_synth`` also the
seed of random targets); which CLI flag reaches which command is decided
in ``nverc.cli``.

Config files are single JSON documents.  Frequencies are interpreted per
the "units" field: "muB" (dimensionless, already angular, the default for
reproduction runs), "MHz" (ordinary frequency, converted by 2 pi; times
are then in microseconds) or "rad_per_us" (angular, no conversion).
Each value is read once, where it acts, by ``_take``: it pops the key from
the command's own copy of the config and checks its JSON type; ``_numbers``
checks that each element of a number array is a JSON number.  Then
``_refuse_rest`` refuses every key left over that does not begin with "_"
(a comment), at the top level and in "system", "scan" and each segment.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import erc, synth
from .calib import ROOT_XTOL, _rabi_period, rabi_extract, ratio_scan, simulate_odmr
from .errors import ConfigError, NvErcError
from .ham import compensation_ratio
from .prop import _canonical_method, _rwa_evolver, _walk
from .pulses import PulseSegment, PulseSequence, sequence_to_json
from .spin import KET_0, KET_M1, KET_P1, StateVector3, SystemParams

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

OBSERVABLES = ("pop_plus1", "pop_0", "pop_minus1", "dq_fidelity")
_OBS_COLUMN = {"pop_plus1": "p_plus1", "pop_0": "p_0",
               "pop_minus1": "p_minus1", "dq_fidelity": "dq_fidelity"}
_STATES = {"plus1": KET_P1, "zero": KET_0, "minus1": KET_M1}


def _take(cfg: dict, key: str, default, kind=float, lo=None, scale=1.0):
    """Pop ``key`` from a command's own copy of its config and return its
    value, or ``default`` if it is absent (``dataclasses.MISSING``: the key
    is required).  ``float`` takes a number that fits a float, not a bool,
    times ``scale`` (the units factor of a frequency); ``int`` an integer >= ``lo``; another type
    (``str``, ``list``, ``dict``) a value of it; a tuple or dict of names
    one of the names, or a list if the tuple holds ``list``."""
    if key not in cfg:
        if default is dataclasses.MISSING:
            raise ConfigError(f"config key {key!r} is required")
        return default
    value = cfg.pop(key)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        if number:
            return scale * _numbers(key, [value])[0]
        want = "a number"
    elif kind is int:
        if number and isinstance(value, int) and (lo is None or value >= lo):
            return value
        want = "an integer" + ("" if lo is None else f" >= {lo}")
    elif isinstance(kind, type):
        if isinstance(value, kind):
            return value
        want = "a JSON " + {str: "string", list: "array", dict: "object"}[kind]
    else:
        if isinstance(value, str) and value in kind or list in kind and isinstance(value, list):
            return value
        want = f"one of {[k for k in kind if isinstance(k, str)]}"
        want += " or a list" if list in kind else ""
    raise ConfigError(f"config key {key!r} must be {want}, got {value!r}")


def _numbers(key: str, values, size=None) -> list[float]:
    """``values``, a JSON array of numbers (of ``size`` of them, if given),
    as floats.  Anything else, a bool, a string or an integer too large for
    a float among them, is refused naming ``key``."""
    if isinstance(values, list) and size in (None, len(values)) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        try:
            return [float(v) for v in values]
        except OverflowError:
            raise ConfigError(f"config key {key!r} holds an integer too large for a float, "
                              f"got {values!r}") from None
    want = f"{size} numbers" if size else "numbers"
    raise ConfigError(f"config key {key!r} must hold an array of {want}, got {values!r}")


def _refuse_rest(cfg: dict, what: str) -> None:
    """Refuse the keys of ``cfg`` that were not taken, except comments."""
    rest = [k for k in cfg if not k.startswith("_")]
    if rest:
        raise ConfigError(f"{what} does not read config key {rest[0]!r}")


def _check_sweep(*axes) -> None:
    """Each sweep axis (name, lo, hi) needs a finite increasing range."""
    for name, lo, hi in axes:
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ConfigError(f"axis {name!r} needs a finite increasing range")


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


def _take_system(cfg: dict, swept: tuple[str, ...] = ()):
    """A command's own copy of ``cfg`` with "units" and "system" taken, the
    ``SystemParams`` and the units factor.  A field named in ``swept`` is
    set by the command itself, so it is not taken: giving it is refused."""
    cfg = dict(cfg)
    factor = _UNIT_FACTORS[_take(cfg, "units", "muB", kind=_UNIT_FACTORS)]
    raw = dict(_take(cfg, "system", dataclasses.MISSING, kind=dict))
    vals = {f.name: _take(raw, f.name, f.default, scale=factor)
            for f in dataclasses.fields(SystemParams) if f.name not in swept}
    _refuse_rest(raw, f"system (the sweep sets {', '.join(swept)})" if swept else "system")
    try:
        return cfg, SystemParams(**vals), factor
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def system_from_config(cfg: dict, swept: tuple[str, ...] = ()) -> SystemParams:
    """The ``SystemParams`` of a config's "system" block; ``cfg`` is left
    as it is.  A field named in ``swept`` is refused."""
    return _take_system(cfg, swept)[1]


def _take_state(cfg: dict, key: str, default: str) -> StateVector3:
    """A state given by preset name or as a list of [re, im] amplitudes."""
    spec = _take(cfg, key, default, kind=(*_STATES, list))
    if isinstance(spec, str):
        return StateVector3(_STATES[spec])
    amps = [complex(*_numbers(key, a, 2)) for a in spec]
    try:
        return StateVector3.from_unnormalized(np.array(amps))
    except ValueError as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc


def _take_observable(cfg: dict, default: str):
    """A map's observable and, for ``dq_fidelity`` only, its target's
    amplitudes (``target_state`` is taken only then)."""
    observable = _take(cfg, "observable", default, kind=OBSERVABLES)
    if observable != "dq_fidelity":
        return observable, None
    return observable, _take_state(cfg, "target_state", "minus1").amps


def _format_fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_FLOAT_FMT`` bytes of each value of a float array, each
    followed by ',', as ``uint8`` of shape ``x.shape + (19,)``, and the mask
    of values whose bytes are exact.  Those are +0.0 (n = 0 with exponent
    +00) and the values x in [1e-10, 1e13) whose 13 digits
    n = round(x 10^(12-e)), e = floor(log10 x), come from one correctly
    rounded product that is not within 2 ulps of a tie and keeps n at 13
    digits.  The bytes of any other value (a far 2-digit exponent, a
    near-tie, a sign, nan, inf, a 3-digit exponent) are not meaningful."""
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
    return buf, exact


def _write_csv(path: str, meta: dict, header: list[str], columns) -> None:
    """Write one float column per header field.  The columns broadcast to a
    grid of at most 2 axes whose cells, in C order, are the rows.  A column
    constant along the first axis is formatted once; the others are
    formatted together, ``_CSV_BLOCK`` cells (at least one first-axis row)
    at a time, and each block goes straight to the file.  A field that
    ``_format_fields`` cannot lay out is formatted alone with ``%`` and
    spliced in front of its own separator byte; no row is formatted whole."""
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
            ok = np.empty(rows.shape[:3], bool)
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
                ok[:, :, j] = flags
            rows[:, :, -1, 18] = 10                  # '\n' ends each row
            text = rows.tobytes()
            bad = np.flatnonzero(~ok)
            values = np.stack(np.broadcast_arrays(*block), axis=-1).reshape(-1)[bad]
            out, done = [], 0
            for i, v in zip(bad.tolist(), values.tolist()):
                out += [text[done:19 * i], (_FLOAT_FMT % v).encode()]
                done = 19 * i + 18                   # the field's own separator follows
            out.append(text[done:])
            fh.write(b"".join(out))


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

def _take_sequence(cfg: dict, p: SystemParams, factor: float) -> PulseSequence:
    spec = _take(cfg, "sequence", "not_gate", kind=("not_gate", list))
    if spec == "not_gate":
        return erc.not_gate_sequence(p)
    segs = []
    for k, s in enumerate(spec):
        if not isinstance(s, dict):
            raise ConfigError(f"sequence segment {k} must be a JSON object, got {s!r}")
        s = dict(s)
        segs.append(PulseSegment(
            duration=_take(s, "duration", dataclasses.MISSING),
            alpha=_take(s, "alpha", dataclasses.MISSING),
            beta=_take(s, "beta", None),
            omega_x=_take(s, "omega_x", p.omega_x, scale=factor),
            omega_y=_take(s, "omega_y", p.omega_y, scale=factor),
        ))
        _refuse_rest(s, f"sequence segment {k}")
    return PulseSequence(segs)


def cmd_trace(cfg: dict, out_path: str) -> dict:
    """Population time series of a pulse program (three columns of
    populations against time)."""
    cfg, p, factor = _take_system(cfg)
    method = _take(cfg, "method", "analytic", kind=str)
    seq = _take_sequence(cfg, p, factor)
    n = _take(cfg, "n_points", 401, int, lo=0)
    try:
        q = erc.characteristic_quantities(p)
        characteristic = {"T_total": q.T_total, "T_prime": q.T_prime,
                          "T_second": q.T_second, "phi": q.phi}
        t_default = seq.total_duration or q.T_total
    except NvErcError:
        characteristic = None
        t_default = seq.total_duration
    t_max = _take(cfg, "t_max", t_default)
    s0 = _take_state(cfg, "start_state", "plus1")
    _refuse_rest(cfg, "trace")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max}")
    times = np.linspace(0.0, t_max, n)
    us = _walk(p, seq, times, method)
    amps = us @ s0.amps
    rows = np.array([[t, abs(a[0]) ** 2, abs(a[1]) ** 2, abs(a[2]) ** 2]
                     for t, a in zip(times, amps)]).reshape(-1, 4)
    meta = {
        "command": "trace",
        "params": dataclasses.asdict(p),
        "method": _canonical_method(method),
        "characteristic": characteristic,
    }
    _write_csv(out_path, meta, ["t", "p_plus1", "p_0", "p_minus1"], list(rows.T))
    return {"rows": len(rows), "out": out_path}


# ----------------------------------------------------------- robustness ---

def cmd_robustness(cfg: dict, out_path: str) -> dict:
    """Timing-error landscape: the chosen observable (default: final |-1>
    population) of the two-pulse combination U(t2, pi) U(t1, 0) applied to
    |+1>, over a (t1, t2) grid."""
    cfg, p, _ = _take_system(cfg)
    q = erc.characteristic_quantities(p)
    n = _take(cfg, "n", 129, int, lo=2)
    t_max = _take(cfg, "t_max", q.T_total)
    observable, target = _take_observable(cfg, "pop_minus1")
    _refuse_rest(cfg, "robustness")
    _check_sweep(("t", 0.0, t_max))
    ts = np.linspace(0.0, t_max, n)
    first = erc._erc_matrix(p, ts, 0.0) @ KET_P1
    second = erc._erc_matrix(p, ts, math.pi)
    # states[i, j] = second[j] @ first[i], each the same 3x3 product as alone
    states = (second[None] @ first[:, None, :, None])[..., 0]
    vals = _observable_values(observable, target, states.reshape(-1, 3)).reshape(n, n)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    meta = {
        "command": "robustness",
        "params": dataclasses.asdict(p),
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
        qe = erc.characteristic_quantities(p)
        overlay = (qe.T_total, qe.T_prime, qe.T_second)
    except NvErcError:
        overlay = (math.nan, math.nan, math.nan)
    return vals, overlay


def cmd_ey_map(cfg: dict, out_path: str) -> dict:
    """Ground-state population against (Ey, t), with the closed-form
    characteristic-time overlays as extra columns (NaN past the validity
    boundary Ey = sqrt(omega^2/4 - muB^2)).  The rows sweep Ey with a
    single drive tone, so the system block may not set Ey or omega_y."""
    cfg, p, factor = _take_system(cfg, swept=("Ey", "omega_y"))
    n_ey = _take(cfg, "n_ey", 41, int, lo=2)
    n_t = _take(cfg, "n_t", 201, int, lo=2)
    boundary = math.sqrt(max(p.omega_x**2 / 4.0 - p.muB**2, 0.0))
    ey_max = _take(cfg, "ey_max", 1.2 * boundary, scale=factor)
    q0 = erc.characteristic_quantities(p)
    t_max = _take(cfg, "t_max", 1.2 * q0.T_total)
    observable, target = _take_observable(cfg, "pop_0")
    _refuse_rest(cfg, "ey-map")
    _check_sweep(("Ey", 0.0, ey_max), ("t", 0.0, t_max))
    eys = np.linspace(0.0, ey_max, n_ey)
    times = np.linspace(0.0, t_max, n_t)
    vals, overlays = zip(*(_ey_row(p.replace(Ey=ey), times, observable, target)
                           for ey in eys))
    vals, overlays = np.array(vals), np.array(overlays)
    meta = {
        "command": "ey_map",
        "params": dataclasses.asdict(p),
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
    and the effective depletion times.  The columns sweep omega_y, so the
    system block may not set it."""
    cfg, p, _ = _take_system(cfg, swept=("omega_y",))
    if p.Ex == 0.0:
        raise ConfigError("ratio map requires a nonzero Ex in the system block")
    n_r = _take(cfg, "n_ratio", 81, int, lo=1)
    n_t = _take(cfg, "n_t", 201, int, lo=2)
    r_star = compensation_ratio(p.Ex, p.Ey)
    r_min = _take(cfg, "ratio_min", 0.0)
    if n_r > 1:  # a single ratio column takes ratio_min alone
        r_max = _take(cfg, "ratio_max", 2.0 * abs(r_star) if r_star != 0 else 1.0)
        _check_sweep(("ratio", r_min, r_max))
    p_res = p.replace(omega_y=r_star * p.omega_x)
    q_eff = erc.characteristic_quantities(p_res)
    t_max = _take(cfg, "t_max", 1.2 * q_eff.T_total)
    observable, target = _take_observable(cfg, "pop_0")
    _refuse_rest(cfg, "ratio-map")
    _check_sweep(("t", 0.0, t_max))
    ratios = np.linspace(r_min, r_max, n_r) if n_r > 1 else np.array([r_min])
    times = np.linspace(0.0, t_max, n_t)
    vals = np.array([
        _observable_values(observable, target,
                           _ground_state_states(p.replace(omega_y=r * p.omega_x), times))
        for r in ratios
    ])
    meta = {
        "command": "ratio_map",
        "params": dataclasses.asdict(p),
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


def cmd_synth(cfg: dict, out_path: str, seed: int = 0) -> dict:
    """Synthesize a DQ gate and write the pulse-program JSON and a fidelity
    report with analytic / rotating-wave / lab cross-checks; both files are
    written only after the cross-checks have run."""
    cfg, p, _ = _take_system(cfg)
    spec = _take(cfg, "target", "X", kind=(*_TARGET_PRESETS, "haar", list))
    spp = _take(cfg, "lab_steps_per_period", 80, int, lo=1)
    _refuse_rest(cfg, "synth")
    if spec == "haar":
        target = synth.haar_unitary2(np.random.default_rng(seed))
    elif isinstance(spec, str):
        target = _TARGET_PRESETS[spec]
    else:
        try:
            target = np.array([[complex(*_numbers("target", e, 2)) for e in row]
                               for row in spec], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad target matrix: {exc}") from exc
    result = synth.synthesize_gate(p, target)
    report = {
        "n_rotations": len(result.rotations),
        "rotations": [{"axis": r.axis.value, "theta": r.theta} for r in result.rotations],
        "total_duration": result.sequence.total_duration,
        "fidelity_analytic": result.fidelity,
    }
    for method in ("rwa", "lab"):
        u = _walk(p, result.sequence, [math.inf], method, spp)[0]
        report[f"fidelity_{method}"] = synth.dq_gate_fidelity(synth.dq_block(u), target)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(sequence_to_json(result.sequence, p))
    report_path = out_path + ".report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return {"out": out_path, "report": report_path, **report}


# ------------------------------------------------------------ calibrate ---

def cmd_calibrate(cfg: dict, out_path: str) -> dict:
    """Run the simulated calibration pipeline and write the result JSON."""
    cfg, p, _ = _take_system(cfg)
    method = _take(cfg, "method", "analytic", kind=str)
    grid = _take(cfg, "ratio_grid", None, kind=list)
    grid = None if grid is None else _numbers("ratio_grid", grid)
    scan = dict(_take(cfg, "scan", {}, kind=dict))
    _refuse_rest(cfg, "calibrate")
    odmr = simulate_odmr(p)

    # with a transverse-x field, find the compensating tone first
    best_ratio = None
    p_run = p
    if grid is not None:  # ratio_scan rejects a grid without Ex
        best_ratio = ratio_scan(p, grid).best_ratio
        p_run = p.replace(omega_y=best_ratio * p.omega_x)
    t_max = _take(scan, "t_max", 1.5 * _rabi_period(p_run))
    n_points = _take(scan, "n_points", 256, int)
    _refuse_rest(scan, "scan")
    extraction = rabi_extract(p_run, t_max, n_points, method=method)
    result = {
        **dataclasses.asdict(odmr),
        **dataclasses.asdict(extraction),
        "best_ratio": best_ratio,
        "tolerances": {"root_xtol": ROOT_XTOL, "ratio_refine": "bounded_minimize"},
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return result

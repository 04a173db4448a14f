"""Figure-style dataset generation: time traces, 2D maps, synthesis and
calibration runs, with deterministic CSV output.

CSV files are UTF-8 with '.' decimals, values formatted %.12e, a header
row, and a leading '#'-prefixed metadata block (schema, parameters,
characteristic times).  A trace runs its program once (``prop.evolve``);
a sample at most 1e-15 short of a segment's end gets the state there.
Every command runs in one process.  Every map observable is a population
|<a|psi>|^2 with one bra <a|; the rows of an ``ey-map`` or ``ratio-map``
come from one ``prop._drive_weights`` of their systems (one ``eigh`` of
their stacked H_rwa), which gives <a|U(t)|0> on the map's time grid as a
sum of three phases (``prop._grid_rows``).
``_write_csv`` takes one column per header field, shaped on the map's
grid, and reuses one row buffer of ``_CSV_BLOCK`` cells per file: a
column constant along the first axis (the time axis) is laid out in it
once, the others block by block, and each block goes straight to the
open file.  A map's value column is a producer of grid rows, so its
values are computed block by block as they are written: a map holds one
block of them, never its whole grid.  ``_format_fields`` lays out the
exact ``%.12e`` bytes of +0.0 and of positive values in [1e-10, 1e13),
near-ties and decade carries decided exactly, four digits at a time from
a table; every other (slow) field is formatted with ``%`` once per
distinct value.  One walk over a block's slow fields, in (row, line,
field) order, puts each in front of its own separator: a row with a
per-row one is rebuilt once, the text laid into all its lines at once.

Every output, CSV or JSON, is opened by ``_output``: it writes over the
bytes of a file already at the path, without truncating it first, and cuts
a regular file at the written position when the writing ends or raises.
Rewriting a large output in place saves the filesystem's freeing and
re-allocating its blocks.  A run killed by a signal mid-write leaves the
new bytes followed by the old file's tail (a truncating open would leave
the new bytes alone).  A path that cannot be opened is a ``ConfigError``.
Each ``cmd_*`` takes only its config and output path
(``cmd_synth`` also the seed of random targets); which CLI flag reaches
which command is decided in ``nverc.cli``.

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

import contextlib
import dataclasses
import itertools
import json
import math
import os
import stat

import numpy as np

from . import erc, synth
from .calib import ROOT_XTOL, _rabi_period, rabi_extract, ratio_scan, simulate_odmr
from .errors import ConfigError, NvErcError
from .ham import compensation_ratio
from .prop import _canonical_method, _drive_weights, _grid_rows, evolve
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
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)  # Veltkamp halves,
_POW10_LO = _POW10 - _POW10_HI                    # 26 bits each: products with them are exact
_EXP = np.frombuffer(b"".join(b"e%+03d" % (12 - k) for k in range(23)), np.uint32)
# the 4 ASCII digits of 0..9999, each as one uint32 in memory order
_DIGITS4 = np.stack(np.meshgrid(*[np.frombuffer(b"0123456789", np.uint8)] * 4, indexing="ij"),
                    -1).reshape(-1, 4).view(np.uint32)[:, 0]

_UNIT_FACTORS = {"muB": 1.0, "rad_per_us": 1.0, "MHz": 2.0 * math.pi}

OBSERVABLES = ("pop_plus1", "pop_0", "pop_minus1", "dq_fidelity")
_OBS_COLUMN = {"pop_plus1": "p_plus1", "pop_0": "p_0",
               "pop_minus1": "p_minus1", "dq_fidelity": "dq_fidelity"}
_STATES = {"plus1": KET_P1, "zero": KET_0, "minus1": KET_M1}
_OBS_BRA = {"pop_plus1": KET_P1, "pop_0": KET_0, "pop_minus1": KET_M1}  # real: bra = ket


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


@contextlib.contextmanager
def _output(*paths: str):
    """Open every one of ``paths`` for binary writing over its previous
    bytes, not truncated first, and yield their files; on the way out, also
    when the body raises, cut each regular file at its written position: a
    file ends where its writing stopped.  All are opened before any is
    written, so a path that cannot be opened is a ``ConfigError`` that
    leaves every file as it was: one this call created is removed again."""
    opened = []  # (fd, path, created)
    try:
        for path in paths:
            try:
                opened.append((os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666),
                               path, True))
            except FileExistsError:
                opened.append((os.open(path, os.O_WRONLY), path, False))
    except OSError as exc:
        for fd, name, created in opened:
            os.close(fd)
            if created:
                os.unlink(name)
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(fd, "wb")) for fd, _, _ in opened]
        try:
            yield files
        finally:
            for fh in files:
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()


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
    """A map's observable, a population |<a|psi>|^2, and its bra <a|: a
    basis state, or for ``dq_fidelity`` the conjugate of the target state
    (``target_state`` is taken only then)."""
    observable = _take(cfg, "observable", default, kind=OBSERVABLES)
    if observable != "dq_fidelity":
        return observable, _OBS_BRA[observable]
    return observable, _take_state(cfg, "target_state", "minus1").amps.conj()


def _format_fields(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Lay out the ``_FLOAT_FMT`` bytes of a float array in ``out[..., :18]``
    (``uint8``, of a shape ``x.shape + (19,)`` broadcasts to; '.' and the
    separator are left as they are) and return the mask of exact ones: +0.0
    and the x in [1e-10, 1e13) whose 13 digits n = round(x 10^k), k = 12 -
    floor(log10 x), stay 13, or carry to n = 10^13, laid out as 10^12 at
    the next exponent (k - 1).  p = x 10^k rounded is within 2^-10 of the
    product (p < 2^44), so it decides n outside 2^-9 of a tie; inside, the
    exact residual (TwoProduct, Dekker 1971) does, and an exact tie goes to
    the even n, as in ``%``.  Slow values (a far 2-digit exponent, a carry
    to e+13, a sign, nan, inf, a 3-digit exponent) get meaningless bytes."""
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(x))                    # nan/-inf off the fast set
        exact = np.abs(e - 1.0) <= 11.0              # -10 <= e <= 12, so x > 0
        kf = 12.0 - e
        kf[~exact] = 12.0                            # exponent +00
        k = kf.astype(np.intp)
        p = x * _POW10[k]                            # k <= 22: 10^k is exact
        n = np.floor(p)
        frac = p - n
        band = exact & (np.abs(frac - 0.5) < 2.0**-9)
        n += frac > 0.5
        if band.any():
            i = np.flatnonzero(band)
            xb, pb, kb = x.take(i), p.take(i), k.take(i)
            c = 134217729.0 * xb                     # Veltkamp split, 2^27 + 1
            hi, ph, pl = c - (c - xb), _POW10_HI[kb], _POW10_LO[kb]
            # the sign of x 10^k - (n + 1/2): exact, as the residual of p is
            d = (frac.take(i) - 0.5) + (((hi * ph - pb) + hi * pl + (xb - hi) * ph)
                                        + (xb - hi) * pl)
            nb = np.floor(pb)
            n.put(i, nb + ((d > 0) | ((d == 0) & (nb % 2 == 1))))
        carry = n == 1e13                            # a decade carry, laid out one
        if carry.any():                              # exponent up, unless that is e+13
            carry &= exact & (k > 0)
            n[carry], k[carry] = 1e12, k[carry] - 1
        exact &= (n >= 1e12) & (n < 1e13)
        exact |= x.view(np.uint64) == 0              # +0.0: n = 0 below
    n = np.where(exact, n, 0.0).astype(np.int64)
    for pos in (10, 6, 2):                           # n = d0 10^12 + g1 10^8 + g2 10^4 + g3
        q = n // 10000
        out[..., pos:pos + 4].view(np.uint32)[..., 0] = _DIGITS4.take(n - q * 10000)
        n = q
    out[..., 0] = n + 48
    out[..., 14:18].view(np.uint32)[..., 0] = _EXP.take(k)
    return exact


def _write_csv(path: str, meta: dict, header: list[str], columns) -> None:
    """Write one float column per header field.  The columns broadcast to a
    grid of at most 2 axes whose cells, in C order, are the rows.  A
    per-cell column of a 2-axis grid may instead be a producer
    ``rows(lo, hi)`` of its first-axis rows lo..hi-1, shape
    (hi - lo, inner), called once per block, in order.  One row buffer of
    at most ``_CSV_BLOCK`` cells (or one first-axis row) serves the file:
    '.', separators and the columns constant along the first axis are laid
    out in it once; each run of adjacent per-row columns is formatted once
    per file, into a table of 18-byte records copied into the lines of each
    block; per block, every other run of adjacent columns alike in shape is
    formatted into its slots in one call.  A block is written from the
    buffer, or as pieces with its slow fields' ``%`` bytes (formatted once
    per distinct value and file) in front of their separators, walked in
    (row, line, field) order: a row with slow per-row fields is rebuilt
    once, each text laid into all its lines at once, and its slow cell
    fields are cut into the rebuilt lines; other rows are cut from the
    buffer.  The file is written over the one at ``path`` (``_output``)."""
    cols = [c if callable(c) else np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(cols)} CSV columns do not fit header {header}")
    shape = np.broadcast_shapes(*(c.shape for c in cols if not callable(c)))
    if len(shape) > 2:
        raise ValueError(f"CSV columns broadcast to {shape}, more than 2 axes")
    cols = [c if callable(c) else c.reshape(-1, 1) if len(shape) < 2 else np.atleast_2d(c)
            for c in cols]
    n_outer, n_inner = shape if len(shape) == 2 else (math.prod(shape), 1)
    shapes = [(n_outer, n_inner) if callable(c) else c.shape for c in cols]
    step = max(1, _CSV_BLOCK // max(n_inner, 1))
    buf = np.empty((min(n_outer, step), n_inner, len(cols), 19), np.uint8)
    buf[..., 1], buf[..., 18], buf[:, :, -1, 18] = 46, 44, 10  # '.', ',' and '\n'
    offsets = list(range(0, 19 * len(cols) + 1, 19))  # each field's first byte; a line's width
    stride = n_inner * offsets[-1]           # the bytes of one first-axis row
    def lay(run, out):  # a run's values, shaped (rows, inner, columns), and their mask
        x = run[0][..., None] if len(run) == 1 else np.concatenate([c[..., None] for c in run], -1)
        return x, _format_fields(x, out)
    runs, j = [], 0  # (first, stop, constant along the first axis)
    for (const, _), run in itertools.groupby((m == 1 < n_outer, i) for m, i in shapes):
        runs.append((j, j := j + len(list(run)), const))
    once = {j: lay(cols[j:stop], buf[:, :, j:stop]) for j, stop, const in runs if const}
    tables = {}  # each per-row run formatted once, into a table of one line per row
    for j, stop, const in runs:
        if not const and shapes[j][1] == 1 < n_inner:
            table = np.empty((n_outer, 1, stop - j, 19), np.uint8)
            table[..., 1] = 46
            tables[j] = (table[..., :18].view("V18"), *lay(cols[j:stop], table))
    texts: dict[int, bytes] = {}  # the % bytes of each slow value, by its bits
    lines = [f"# schema: {CSV_SCHEMA}\n"]
    lines += [f"# {key}: {json.dumps(value, sort_keys=True)}\n" for key, value in meta.items()]
    lines.append(",".join(header) + "\n")
    with _output(path) as [fh]:
        fh.write("".join(lines).encode("utf-8"))
        for k in range(0, n_outer, step):
            rows = buf[:n_outer - k]                 # the last block: a prefix view
            slow = []                                # (rows, lines, fields, values); line -1: per row
            for j, stop, const in runs:
                if const:
                    x, exact = once[j]
                elif j in tables:
                    table, x, exact = tables[j]      # 18-byte records, copied per line
                    np.copyto(rows[:, :, j:stop, :18].view("V18"), table[k:k + len(rows)])
                    x, exact = x[k:k + len(rows)], exact[k:k + len(rows)]
                else:
                    x, exact = lay([c(k, k + len(rows)) if callable(c) else c[k:k + len(rows)]
                                    for c in cols[j:stop]], rows[:, :, j:stop])
                if exact.all():
                    continue
                per_row = x.shape[1] == 1 < n_inner  # the same in every line of a row
                grid = (len(rows), 1 if per_row else n_inner, stop - j)
                x, exact = np.broadcast_to(x, grid), np.broadcast_to(exact, grid)
                r, i, jj = np.nonzero(~exact)
                slow.append((r, i - per_row, j + jj, x[r, i, jj]))
            if not slow:
                fh.write(rows)
                continue
            r, i, j, x = (np.concatenate(a) for a in zip(*slow))
            order = np.lexsort((j, i, r))            # (row, line, field) order
            bits = x[order].view(np.int64).tolist()
            for b, v in zip(bits, x[order].tolist()):
                texts[b] = texts.get(b) or (_FLOAT_FMT % v).encode()
            fields = list(zip(*(a[order].tolist() for a in (r, i, j)), map(texts.get, bits)))
            rebuilt = {}  # each row with per-row fields: its lines, rebuilt once, and field offsets
            for r, spread in itertools.groupby([f for f in fields if f[1] < 0], lambda f: f[0]):
                line, pieces, prev, sizes = rows[r].reshape(n_inner, -1), [], 0, [19] * len(cols)
                for _, _, j, t in spread:            # a text is laid in all the lines at once
                    pieces += [line[:, prev:19 * j],
                               np.broadcast_to(np.frombuffer(t, np.uint8), (n_inner, len(t)))]
                    prev, sizes[j] = 19 * j + 18, len(t) + 1
                line = np.concatenate(pieces + [line[:, prev:]], 1)
                rebuilt[r] = memoryview(line).cast("B"), [0, *itertools.accumulate(sizes)]
            text = memoryview(rows).cast("B")
            parts, src, off, cur, row = [], text, offsets, 0, -1  # off[-1]: src's line width
            for r, i, j, t in fields + [(len(rows), -1, 0, b"")]:  # a last, empty row closes it
                if r != row:
                    if src is not text:              # leaving a rebuilt row: back to the text
                        parts.append(src[cur:])
                        src, off, cur = text, offsets, (row + 1) * stride
                    row, at = r, r * stride          # at: the row's first byte in src
                    if r in rebuilt:                 # the row's rebuilt lines replace its text
                        parts.append(text[cur:at])
                        (src, off), cur, at = rebuilt[r], 0, 0
                if i >= 0:                           # a cell field, cut in at its first byte
                    c = at + i * off[-1] + off[j]
                    parts += [src[cur:c], t]
                    cur = c + 18                     # the field's own separator follows
            parts.append(text[cur:])
            fh.writelines(parts)                     # the pieces, not a joined copy


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
    with _output(script_path) as [fh]:
        fh.write(_PLOT_TEMPLATE.format(csv_name=csv_path, png_name=csv_path + ".png").encode())
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
    except (NvErcError, ValueError):  # no resonant drive (a zero one is a ValueError)
        characteristic = None
        t_default = seq.total_duration
    t_max = _take(cfg, "t_max", t_default)
    s0 = _take_state(cfg, "start_state", "plus1")
    _refuse_rest(cfg, "trace")
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max}")
    times = np.linspace(0.0, t_max, n)
    us = evolve(p, seq, times, method)
    amps = us @ s0.amps
    # np.hypot rounds as the scalar abs(); the SIMD complex np.abs does not
    pops = np.hypot(amps.real, amps.imag) ** 2
    meta = {
        "command": "trace",
        "params": dataclasses.asdict(p),
        "method": _canonical_method(method),
        "characteristic": characteristic,
    }
    _write_csv(out_path, meta, ["t", "p_plus1", "p_0", "p_minus1"], [times, *pops.T])
    return {"rows": n, "out": out_path}


# ----------------------------------------------------------- robustness ---

def cmd_robustness(cfg: dict, out_path: str) -> dict:
    """Timing-error landscape: the chosen observable (default: final |-1>
    population) of the two-pulse combination U(t2, pi) U(t1, 0) applied to
    |+1>, over a (t1, t2) grid."""
    cfg, p, _ = _take_system(cfg)
    q = erc.characteristic_quantities(p)
    n = _take(cfg, "n", 129, int, lo=2)
    t_max = _take(cfg, "t_max", q.T_total)
    observable, bra = _take_observable(cfg, "pop_minus1")
    _refuse_rest(cfg, "robustness")
    _check_sweep(("t", 0.0, t_max))
    ts = np.linspace(0.0, t_max, n)
    first = erc._erc_matrix(p, ts, 0.0) @ KET_P1
    r = bra @ erc._erc_matrix(p, ts, math.pi)  # r[j] = <a| U(t2_j, pi)
    best = [-1.0, 0, 0]  # the first maximum in C order: value, t1 and t2 index

    def rows(lo, hi):
        f = first[lo:hi, None, :]  # cell (i, j) is |r[j] . f[i]|^2, the same bits in any block
        vals = np.abs(f[..., 0] * r[:, 0] + f[..., 1] * r[:, 1] + f[..., 2] * r[:, 2]) ** 2
        k = int(np.argmax(vals))
        if vals.flat[k] > best[0]:
            best[:] = float(vals.flat[k]), lo + k // n, k % n
        return vals
    meta = {
        "command": "robustness",
        "params": dataclasses.asdict(p),
        "observable": observable,
        "characteristic": {"T_total": q.T_total, "T_prime": q.T_prime,
                           "T_second": q.T_second, "T_half": q.T_total / 2.0},
        "grid": {"n": n, "t_max": t_max},
    }
    _write_csv(out_path, meta, ["t1", "t2", _OBS_COLUMN[observable]], [ts[:, None], ts, rows])
    argmax = {"t1": float(ts[best[1]]), "t2": float(ts[best[2]]), "value": best[0]}
    return {"rows": n * n, "out": out_path, "argmax": argmax}


# ---------------------------------------------------------------- ey map ---

def _ground_state_states(systems, bra, t_max: float, n_t: int):
    """The producer ``rows(lo, hi)`` of |<a|U_i(t)|0>|^2 for the systems
    i in lo..hi-1, under the constant two-tone drive of each, on
    ``np.linspace(0, t_max, n_t)``: one ``_drive_weights`` (one ``eigh`` of
    the stacked rotating-wave Hamiltonians) and one phase table for all
    rows, evaluated a block of rows at a time (``prop._grid_rows``)."""
    return _grid_rows(*_drive_weights(systems, bra), t_max, n_t)


def _ey_overlay(p) -> tuple[float, float, float]:
    try:
        qe = erc.characteristic_quantities(p)
        return qe.T_total, qe.T_prime, qe.T_second
    except NvErcError:
        return math.nan, math.nan, math.nan


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
    observable, bra = _take_observable(cfg, "pop_0")
    _refuse_rest(cfg, "ey-map")
    _check_sweep(("Ey", 0.0, ey_max), ("t", 0.0, t_max))
    eys = np.linspace(0.0, ey_max, n_ey)
    times = np.linspace(0.0, t_max, n_t)
    systems = [p.replace(Ey=ey) for ey in eys]
    rows = _ground_state_states(systems, bra, t_max, n_t)
    overlays = np.array([_ey_overlay(q) for q in systems])
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
               [eys[:, None], times, rows, *overlays.T[..., None]])
    return {"rows": n_ey * n_t, "out": out_path, "validity_boundary": boundary}


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
    observable, bra = _take_observable(cfg, "pop_0")
    _refuse_rest(cfg, "ratio-map")
    _check_sweep(("t", 0.0, t_max))
    ratios = np.linspace(r_min, r_max, n_r) if n_r > 1 else np.array([r_min])
    times = np.linspace(0.0, t_max, n_t)
    rows = _ground_state_states([p.replace(omega_y=r * p.omega_x) for r in ratios],
                                bra, t_max, n_t)
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
               [ratios[:, None], times, rows])
    return {"rows": n_r * n_t, "out": out_path, "analytic_ratio": r_star}


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
    written only after the cross-checks have run, and only once both could
    be opened, so a refused report path leaves the program file as it was."""
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
        u = evolve(p, result.sequence, method=method, steps_per_period=spp)[0]
        report[f"fidelity_{method}"] = synth.dq_gate_fidelity(synth.dq_block(u), target)
    report_path = out_path + ".report.json"
    with _output(out_path, report_path) as [fh, report_fh]:
        fh.write(sequence_to_json(result.sequence, p).encode())
        report_fh.write(json.dumps(report, indent=2, sort_keys=True).encode())
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
    with _output(out_path) as [fh]:
        fh.write(json.dumps(result, indent=2, sort_keys=True).encode())
    return result

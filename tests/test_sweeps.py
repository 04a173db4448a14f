import contextlib
import json
import math
import os
import stat
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nverc import (ConfigError, PulseSegment, PulseSequence, StateVector3,
                   SystemParams, characteristic_quantities, evolve)
from nverc import _kernels, erc, prop, spin, sweeps
from nverc.spin import KET_P1
from nverc.sweeps import (_write_csv, cmd_ey_map, cmd_ratio_map, cmd_robustness,
                          cmd_synth, cmd_trace, system_from_config)


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition(": ")
                if key != "schema":
                    meta[key] = json.loads(val)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows) if rows else np.empty((0, 0))


BASE = {"units": "muB", "system": {"D": 500.0, "muB": 1.0, "omega_x": 3.0}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def percent_body(columns):
    """Reference CSV body: every cell of the broadcast grid, in C order,
    through Python's ``%.12e``."""
    cells = [a.ravel().tolist() for a in np.broadcast_arrays(*columns)]
    row_fmt = ",".join(["%.12e"] * len(columns)) + "\n"
    return "".join(row_fmt % row for row in zip(*cells)).encode()


# 14-significant-digit decimals ending in 5 lie within an ulp of a rounding
# tie of the 13-digit format (n + 0.5 in [1e12, 1e13) is one exactly), and
# the largest doubles below a power of ten round up into the next decade,
# e.g. 9.99999999999996 prints as 1.000000000000e+01
TIES = (st.builds(lambda n, k: float(f"{n}5e{k}"),
                  st.integers(10**12, 10**13 - 1), st.integers(-26, 2))
        | st.integers(10**12, 10**13 - 1).map(lambda n: n + 0.5))
CARRIES = [float(np.nextafter(10.0**k, 0)) for k in range(-10, 13)] + [
    9.99999999999996 * 10.0**k for k in range(-10, 13)]
# +0.0 has its own digits; the others have signs, subnormal or far 2-digit
# exponents, or a carry into a 3-digit exponent
EDGES = [0.0, -0.0, 5e-324, 1e-99, 9.9999999999999e99]
VALUES = (st.floats() | st.floats(1e-10, 1e13) | TIES
          | st.sampled_from(CARRIES + EDGES))
TIE_NEIGHBOURS = [float(np.nextafter(t, t + side)) for t in (1234567890122.5, 1234567890123.5)
                  for side in (-1.0, 0.0, 1.0)]


@st.composite
def grid_columns(draw):
    """1-4 columns broadcasting to one axis (1-D columns) or to two, mixing
    (r, 1), (1, c), (r, c) and (c,) shapes."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    shapes = st.just((r,)) if draw(st.booleans()) else st.sampled_from(
        [(r, 1), (1, c), (r, c), (c,)])
    return [draw(hnp.arrays(np.float64, draw(shapes), elements=VALUES))
            for _ in range(draw(st.integers(1, 4)))]


class TestWriteCsv:
    # a block below the inner axis length is one outer row; the real block
    # spans several outer rows
    @settings(max_examples=300)
    @given(grid_columns(), st.sampled_from([1, 2, 5, sweeps._CSV_BLOCK]))
    @example([np.array(CARRIES)], sweeps._CSV_BLOCK)
    @example([np.array([float(f"1.2345678901235e{k}") for k in range(-10, 13)]),
              np.array([1234567890123.5])], sweeps._CSV_BLOCK)
    @example([np.array(EDGES)[:, None], np.array(CARRIES)], 5)
    @example([np.arange(2.0)[:, None], np.linspace(0.0, 1.0, sweeps._CSV_BLOCK + 1)],
             sweeps._CSV_BLOCK)
    # fig5's shape: a per-row overlay, NaN or -inf past a boundary, beside
    # finite per-cell columns, sliced per block of two rows
    @example([np.arange(5.0)[:, None], np.linspace(0.0, 1.0, 7),
              np.linspace(0.01, 0.99, 35).reshape(5, 7),
              np.array([[1.5], [math.nan], [-math.inf], [math.nan], [2.5]])], 14)
    # a column constant along the first axis, formatted once per file
    @example([np.arange(3.0)[:, None], np.array([[-0.0, 1e-12, math.nan, 2.5]])], 5)
    # a zero 4-digit group, and carries across each group boundary
    @example([np.array([1.000000000001, 1.000100010001e-05, 1.000000010000e+07,
                        9.999999999999e+12])], sweeps._CSV_BLOCK)
    @example([np.array([1.00009999999995, 1.99999999999995, 1.00000000999999995,
                        1.0000099999999995e-3, 5.99999999999996e-10])], sweeps._CSV_BLOCK)
    # exact ties n + 1/2 with an even and an odd n (% rounds them to even),
    # and the doubles next to each
    @example([np.array(TIE_NEIGHBOURS)], sweeps._CSV_BLOCK)
    # fig6's analytic ratio, a near-tie repeated along its grid row
    @example([np.array([[0.0], [0.4349242404917499]]), np.linspace(0.0, 1.0, 7)], 7)
    # a near-tie below and above n + 1/2 at each exponent from -10 to 12
    @example([np.array([float(f"{m}e{k}") for k in range(-10, 13)
                        for m in ("9.8765432109865", "4.0000000000005")])], sweeps._CSV_BLOCK)
    # fig5's full shape in one block: NaN overlays in the last 8 of 45 rows,
    # beside slow cells, a slow time and a -inf overlay in those rows
    @example([np.arange(45.0)[:, None], np.r_[np.linspace(0.0, 4.2, 300), -1.5],
              np.where(np.arange(301) % 97 == 5, 1e-17, np.linspace(0.01, 0.99, 45)[:, None]),
              *np.where(np.arange(45) < 37, np.array([[0.5], [1.5], [2.5]]), math.nan)[..., None],
              np.where(np.arange(45) == 39, -math.inf, 1.25)[:, None]], sweeps._CSV_BLOCK)
    # the walk's order in the last (prefix-view) block of one row: a slow
    # per-row field between slow cell fields on both sides, in line 2
    @example([np.arange(5.0)[:, None], np.where(np.arange(15).reshape(5, 3) % 4 == 2, -0.5, 0.25),
              np.array([[1.5], [2.5], [3.5], [-1.0], [math.nan]]),
              np.where(np.arange(15).reshape(5, 3) >= 12, 1e-20, 0.75)], 6)
    # rows with slow cell fields only, cut from the block's text, on both
    # sides of a row with a slow per-row field
    @example([np.arange(4.0)[:, None], np.linspace(0.0, 1.0, 3),
              np.where(np.arange(12).reshape(4, 3) // 3 % 2 == 1, -0.5, 0.5),
              np.array([[0.5], [0.5], [math.inf], [0.5]])], sweeps._CSV_BLOCK)
    def test_body_equals_percent_format(self, columns, block):
        # st.floats() gives nan, +-inf, -0.0, subnormals and 3-digit exponents
        header = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(sweeps, "_CSV_BLOCK", block):
            _write_csv(f"{tmp}/x.csv", {}, header, columns)
            with open(f"{tmp}/x.csv", "rb") as fh:
                _, head, body = fh.read().split(b"\n", 2)
        assert head.decode() == ",".join(header)
        assert body == percent_body(columns)

    def test_near_ties_are_fast_and_exact(self):
        # seeded values within 4 ulps of a rounding tie n + 1/2 of the
        # 13-digit format, at every exponent of the fast set
        rng = np.random.default_rng(21)
        ties = [float(f"{n}5e{k - 13}") for k in range(-10, 13)
                for n in rng.integers(10**12, 10**13 - 1, 40)]
        x = np.array(ties)[:, None] + np.zeros(9)
        for j in range(1, 5):
            x[:, 4 + j] = np.nextafter(x[:, 3 + j], np.inf)
            x[:, 4 - j] = np.nextafter(x[:, 5 - j], 0.0)
        out = np.empty(x.shape + (19,), np.uint8)
        out[..., 1], out[..., 18] = ord("."), ord(",")
        assert sweeps._format_fields(x, out).all()
        assert out.tobytes() == b"".join(b"%.12e," % v for v in x.ravel().tolist())

    def test_decade_carries_are_fast_and_exact(self):
        # 13 digits that round up to 10^13 are 1.000000000000 at the next
        # exponent; only the carry to 1.000000000000e+13 stays slow
        x = np.array(CARRIES)
        fast = x < 9.9999999999995e12
        out = np.empty(x.shape + (19,), np.uint8)
        out[..., 1], out[..., 18] = ord("."), ord(",")
        assert np.array_equal(sweeps._format_fields(x, out), fast)
        assert out[fast].tobytes() == b"".join(b"%.12e," % v for v in x[fast].tolist())

    def test_slow_values_formatted_once_per_file(self):
        # fig5's shape: per-row overlays, NaN past a boundary, beside 301
        # inner cells; a slow value is spliced into every cell of its row
        # but formatted once, in whichever block it comes up
        rng = np.random.default_rng(5)
        nan_rows = np.where(np.arange(45) < 38, rng.uniform(0.5, 2.0, 45), math.nan)[:, None]
        neg_rows = np.where(np.arange(45) % 2 == 0, 1.5, -2.5)[:, None]
        columns = [np.arange(45.0)[:, None], np.linspace(0.0, 4.2, 301),
                   rng.uniform(0.01, 0.99, (45, 301)), nan_rows, neg_rows]
        calls = []

        class CountingFormat(str):
            def __mod__(self, value):
                calls.append(value)
                return str.__mod__(self, value)

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(sweeps, "_FLOAT_FMT", CountingFormat("%.12e")), \
                mock.patch.object(sweeps, "_CSV_BLOCK", 602):
            _write_csv(f"{tmp}/x.csv", {}, [f"c{j}" for j in range(5)], columns)
            with open(f"{tmp}/x.csv", "rb") as fh:
                body = fh.read().split(b"\n", 2)[2]
        assert body == percent_body(columns)
        assert sorted(map(str, calls)) == ["-2.5", "nan"]

    @pytest.mark.parametrize("nan_rows", [1, 9])
    def test_per_row_slow_fields_are_one_piece_per_row(self, nan_rows):
        # fig5's shape: NaN overlays beside 301-line rows; each row holding
        # one goes to the file as one rebuilt piece, so the pieces written
        # grow with those rows, not with their lines
        overlay = np.where(np.arange(45) < 45 - nan_rows, 1.5, math.nan)[:, None]
        columns = [np.arange(45.0)[:, None], np.linspace(0.0, 4.2, 301),
                   np.linspace(0.01, 0.99, 45)[:, None] + np.zeros(301), overlay, overlay]
        pieces = []
        output = sweeps._output

        @contextlib.contextmanager
        def counted(*paths):
            with output(*paths) as files:
                for fh in files:
                    writelines = fh.writelines
                    fh.writelines = lambda parts: (pieces.append(len(parts)), writelines(parts))
                yield files

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sweeps, "_output", counted):
            _write_csv(f"{tmp}/x.csv", {}, [f"c{j}" for j in range(5)], columns)
            with open(f"{tmp}/x.csv", "rb") as fh:
                body = fh.read().split(b"\n", 2)[2]
        assert body == percent_body(columns)
        assert pieces and sum(pieces) <= 3 * nan_rows + len(pieces)


class TestRewrite:
    COLUMNS = [np.linspace(0.0, 1.0, 40)]

    def test_error_leaves_a_prefix_of_the_new_bytes_only(self, tmp_path):
        # a longer old file is written over; the second block's formatting
        # raises, and the file is cut where the writing stopped
        with mock.patch.object(sweeps, "_CSV_BLOCK", 10):
            _write_csv(str(tmp_path / "fresh.csv"), {}, ["c0"], self.COLUMNS)
        fresh, out = (tmp_path / "fresh.csv").read_bytes(), tmp_path / "x.csv"
        out.write_bytes(b"Z" * (2 * len(fresh)))
        calls, format_fields = [], sweeps._format_fields

        def fail_second(x, dest):
            calls.append(x)
            if len(calls) == 2:
                raise RuntimeError("second block")
            return format_fields(x, dest)

        with mock.patch.object(sweeps, "_CSV_BLOCK", 10), \
                mock.patch.object(sweeps, "_format_fields", fail_second), \
                pytest.raises(RuntimeError, match="second block"):
            _write_csv(str(out), {}, ["c0"], self.COLUMNS)
        data = out.read_bytes()
        assert b"Z" not in data and fresh.startswith(data)
        assert data.count(b"\n") == 2 + 10  # schema, header and the first block

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_output_mode_is_that_of_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "ref", "wb"):
                pass
            _write_csv(str(tmp_path / "x.csv"), {}, ["c0"], self.COLUMNS)
        finally:
            os.umask(old)
        mode = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("ref", "x.csv")]
        assert mode[0] == mode[1] == 0o666 & ~umask


class TestConfigParsing:
    def test_units_conversion(self):
        cfg = {"units": "MHz", "system": {"D": 100.0, "muB": 0.2, "omega_x": 0.6}}
        p = system_from_config(cfg)
        assert p.D == pytest.approx(200.0 * math.pi)

    def test_unknown_units_rejected(self):
        with pytest.raises(ConfigError):
            system_from_config({"units": "GHz", "system": {"D": 1, "muB": 0, "omega_x": 1}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            system_from_config({"system": {"D": 1, "muB": 0, "omega_x": 1, "omega_z": 2}})

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            system_from_config({"system": {"D": 1, "muB": 0}})


class TestTrace:
    def test_population_swap_trace(self, tmp_path):
        out = tmp_path / "fig2.csv"
        cfg = dict(BASE, sequence="not_gate", start_state="plus1", n_points=101)
        cmd_trace(cfg, str(out))
        meta, header, rows = read_csv(out)
        assert header == ["t", "p_plus1", "p_0", "p_minus1"]
        assert abs(rows[-1, 3] - 1.0) < 1e-9
        assert abs(rows[0, 1] - 1.0) < 1e-12
        assert meta["characteristic"]["T_prime"] == pytest.approx(1.1267904202609405)

    def test_ground_state_returns_after_full_period(self, tmp_path):
        out = tmp_path / "trace0.csv"
        q = characteristic_quantities(system_from_config(BASE))
        cfg = dict(BASE, sequence=[{"duration": q.T_total, "alpha": 0.0}],
                   start_state="zero", n_points=3)
        cmd_trace(cfg, str(out))
        _, _, rows = read_csv(out)
        assert rows[-1, 0] == pytest.approx(q.T_total)
        assert abs(rows[-1, 2] - 1.0) < 1e-9

    def test_lab_method_trace(self, tmp_path):
        out = tmp_path / "lab.csv"
        cfg = dict(BASE, sequence="not_gate", start_state="plus1",
                   n_points=9, method="lab")
        cmd_trace(cfg, str(out))
        meta, _, rows = read_csv(out)
        assert meta["method"] == "lab_numeric"
        assert abs(rows[-1, 3] - 1.0) < 5e-3

    @pytest.mark.parametrize("method", ["analytic", "rwa", "lab"])
    def test_populations_equal_scalar_loop(self, tmp_path, monkeypatch, method):
        # the array populations against the per-sample abs(a) ** 2 loop they
        # replace: equal to one ulp (the loop squares through pow)
        written = []
        monkeypatch.setattr(sweeps, "_write_csv", lambda *args: written.append(args[3]))
        cfg = dict(BASE, sequence="not_gate", start_state="plus1", n_points=51,
                   method=method)
        cmd_trace(cfg, str(tmp_path / "t.csv"))
        p = system_from_config(cfg)
        times = written[0][0]
        amps = sweeps.evolve(p, erc.not_gate_sequence(p), times, method) @ KET_P1
        loop = np.array([[abs(a[0]) ** 2, abs(a[1]) ** 2, abs(a[2]) ** 2] for a in amps])
        np.testing.assert_array_max_ulp(np.array(written[0][1:]).T, loop, maxulp=1)

    def test_zero_length_trace_writes_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cfg = dict(BASE, n_points=0)
        summary = cmd_trace(cfg, str(out))
        assert summary["rows"] == 0
        meta, header, rows = read_csv(out)
        assert header == ["t", "p_plus1", "p_0", "p_minus1"]
        assert rows.size == 0


def truncated_reference(p, seq, s0, times, method):
    """States at each time by re-running the program truncated at t from 0."""
    bounds = np.concatenate([[0.0], np.cumsum([seg.duration for seg in seq])])
    out = []
    for t in times:
        segs = []
        for k, seg in enumerate(seq):
            if t >= bounds[k + 1] - 1e-15:
                segs.append(seg)
            elif t > bounds[k]:
                segs.append(PulseSegment(t - bounds[k], seg.alpha, seg.omega_x,
                                         seg.omega_y, seg.beta))
                break
            else:
                break
        out.append(evolve(p, PulseSequence(segs), method=method)[-1] @ s0.amps)
    return np.array(out)


class TestProgramWalker:
    P = SystemParams(D=500.0, muB=1.0, omega_x=3.0)
    SEQ = PulseSequence([PulseSegment(0.7, 0.0, 3.0), PulseSegment(0.0, 2.0, 3.0),
                         PulseSegment(1.1, 1.3, 3.0), PulseSegment(0.5, -0.4, 2.5)])
    # 0, inside, exactly on the first boundary, inside, 5e-16 short of the
    # second boundary (counts as on it), inside, 3e-16 short of the end,
    # past the end
    TIMES = np.array([0.0, 0.3, 0.7, 1.2, (0.7 + 1.1) - 5e-16, 2.0, 2.3, 2.6, 5.0])

    @pytest.mark.parametrize("method", ["analytic", "rwa", "lab"])
    def test_matches_restart_from_zero(self, method):
        s0 = StateVector3(np.array([0.6, 0.48j, 0.64]))
        us = prop.evolve(self.P, self.SEQ, self.TIMES, method)
        # propagators, applied afterwards, give the restarted states
        got = us @ s0.amps
        want = truncated_reference(self.P, self.SEQ, s0, self.TIMES, method)
        assert got.shape == (len(self.TIMES), 3)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.array_equal(got[0], s0.amps)

    def test_lab_trace_work_is_linear(self, tmp_path, monkeypatch):
        calls = []
        kernel = _kernels.magnus_lab_rows

        def counted(*args, **kwargs):
            calls.append(len(args[6]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_kernels, "magnus_lab_rows", counted)
        segs = [{"duration": 0.7, "alpha": 0.0}, {"duration": 1.1, "alpha": 1.3},
                {"duration": 0.5, "alpha": -0.4}]
        for n in (40, 400):
            calls.clear()
            cfg = dict(BASE, sequence=segs, n_points=n, method="lab")
            res = cmd_trace(cfg, str(tmp_path / "lab.csv"))
            assert res["rows"] == n
            # the whole walk in at most two kernel calls, whatever n; one
            # carrier period per segment, one remainder per sample and end
            assert 0 < len(calls) <= 2
            assert sum(calls) <= n + 2 * len(segs)

    def test_fig2_lab_trace_converged_at_the_default(self, tmp_path, monkeypatch):
        # the default resolution puts the lab populations within 1e-4 of a
        # run at 160 steps per carrier period
        with open(CONFIGS / "fig2_trace.json", encoding="utf-8") as fh:
            cfg = dict(json.load(fh), method="lab")
        cmd_trace(dict(cfg), str(tmp_path / "default.csv"))
        evolve = prop.evolve
        monkeypatch.setattr(sweeps, "evolve",
                            lambda p, seq, times, method: evolve(p, seq, times, method, 160))
        cmd_trace(dict(cfg), str(tmp_path / "fine.csv"))
        _, _, rows = read_csv(tmp_path / "default.csv")
        _, _, ref = read_csv(tmp_path / "fine.csv")
        assert rows.shape == ref.shape == (501, 4)
        assert np.max(np.abs(rows - ref)) < 1e-4

    def test_fig2_trace_builds_no_unitary(self, tmp_path, monkeypatch):
        # the default program's segments come from the rotation stack alone
        built = []
        init = spin.Unitary3.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(spin.Unitary3, "__init__", counted)
        cmd_trace(json.loads((CONFIGS / "fig2_trace.json").read_text()), str(tmp_path / "t.csv"))
        assert built == []

    def test_robustness_builds_no_unitary_per_cell(self, tmp_path, monkeypatch):
        built = []
        init = spin.Unitary3.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(spin.Unitary3, "__init__", counted)
        n = 33
        cmd_robustness(dict(BASE, n=n), str(tmp_path / "rob.csv"))
        assert len(built) < n * n


def robustness_rows(p, ts, bra):
    """The robustness grid row by row: r[j] = <a|U(t2_j, pi) dotted with
    U(t1_i, 0)|+1>, three elementwise products and two sums per row."""
    first = erc._erc_matrix(p, ts, 0.0) @ KET_P1
    r = bra @ erc._erc_matrix(p, ts, math.pi)
    return np.array([np.abs(f[0] * r[:, 0] + f[1] * r[:, 1] + f[2] * r[:, 2]) ** 2
                     for f in first])


class TestRobustness:
    def test_minimal_grid_matches_apply_sequence(self, tmp_path):
        out = tmp_path / "rob.csv"
        cfg = dict(BASE, n=2)
        cmd_robustness(cfg, str(out))
        _, _, rows = read_csv(out)
        assert rows.shape == (4, 3)
        p = system_from_config(cfg)
        for t1, t2, val in rows:
            seq = PulseSequence([PulseSegment(t1, 0.0, 3.0), PulseSegment(t2, math.pi, 3.0)])
            state = evolve(p, seq)[-1] @ KET_P1
            assert val == pytest.approx(abs(state[2]) ** 2, abs=1e-12)

    def test_spot_check_random_cells(self, tmp_path, rng):
        out = tmp_path / "rob33.csv"
        cfg = dict(BASE, n=33)
        cmd_robustness(cfg, str(out))
        _, _, rows = read_csv(out)
        p = system_from_config(cfg)
        for k in rng.choice(len(rows), size=100, replace=False):
            t1, t2, val = rows[k]
            seq = PulseSequence([PulseSegment(t1, 0.0, 3.0), PulseSegment(t2, math.pi, 3.0)])
            want = abs((evolve(p, seq)[-1] @ KET_P1)[2]) ** 2
            assert val == pytest.approx(want, abs=1e-12)

    def test_deterministic_across_jobs(self, tmp_path):
        from nverc.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(BASE, n=33)))
        outs = [tmp_path / f"{k}.csv" for k in range(3)]
        for out, jobs in zip(outs, ("1", "4", "1")):
            assert main(["robustness", "--config", str(cfg), "--out", str(out),
                         "--jobs", jobs]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_grid_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_robustness(dict(BASE, n=1), str(tmp_path / "x.csv"))

    def test_observable_override(self, tmp_path):
        out = tmp_path / "rob_p1.csv"
        cmd_robustness(dict(BASE, n=5, observable="pop_plus1"), str(out))
        _, header, rows = read_csv(out)
        assert header == ["t1", "t2", "p_plus1"]
        # no pulses at all leaves |+1> untouched
        assert rows[0, 2] == pytest.approx(1.0)

    def test_unknown_observable_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_robustness(dict(BASE, n=5, observable="parity"), str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("observable", sweeps.OBSERVABLES)
    def test_one_shot_grid_equals_per_row_loop(self, tmp_path, monkeypatch, observable):
        # the value column is a producer of t1 rows: all 17 rows at once
        written = []
        monkeypatch.setattr(sweeps, "_write_csv", lambda *args: written.append(args[3]))
        cfg = dict(BASE, n=17, observable=observable)
        cmd_robustness(cfg, str(tmp_path / "rob.csv"))
        p = system_from_config(cfg)
        bra = sweeps._take_observable(dict(cfg), observable)[1]
        ts = np.linspace(0.0, characteristic_quantities(p).T_total, 17)
        second = erc._erc_matrix(p, ts, math.pi)
        got = written[0][2](0, 17)
        assert np.array_equal(got, robustness_rows(p, ts, bra))
        # the same states as one stacked 3x3 product per cell, to rounding
        first = erc._erc_matrix(p, ts, 0.0) @ KET_P1
        stacked = np.abs((second[None] @ first[:, None, :, None])[..., 0] @ bra) ** 2
        assert np.max(np.abs(got - stacked)) < 1e-14

    @pytest.mark.parametrize("fake", [False, True])
    def test_argmax_is_the_first_maximum_of_the_grid(self, tmp_path, monkeypatch, fake):
        # the summary's maximum is kept block by block, one t1 row per block;
        # the fake first pulse keeps |+1> with amplitude 1 in rows 1, 4 and 7
        # and 0.5 elsewhere, so the maximum 1.0 ties across blocks and cells
        if fake:
            def matrices(p, ts, alpha):
                u = np.broadcast_to(np.eye(3, dtype=complex), (len(ts), 3, 3)).copy()
                if alpha == 0.0:
                    u[:, 0, 0] = np.where(np.arange(len(ts)) % 3 == 1, 1.0, 0.5)
                return u

            monkeypatch.setattr(erc, "_erc_matrix", matrices)
        n, cfg = 9, dict(BASE, n=9, observable="pop_plus1")
        with mock.patch.object(sweeps, "_CSV_BLOCK", n):
            got = cmd_robustness(cfg, str(tmp_path / "rob.csv"))["argmax"]
        p = system_from_config(cfg)
        ts = np.linspace(0.0, characteristic_quantities(p).T_total, n)
        grid = robustness_rows(p, ts, KET_P1)
        i, j = np.unravel_index(np.argmax(grid), grid.shape)
        assert got == {"t1": ts[i], "t2": ts[j], "value": grid[i, j]}
        assert not fake or (i, j) == (1, 0)

    def test_plot_script_emission(self, tmp_path):
        from nverc.sweeps import write_plot_script
        out = tmp_path / "r.csv"
        cmd_robustness(dict(BASE, n=3), str(out))
        script = write_plot_script(str(out))
        assert "pcolormesh" in open(script).read()


class TestEyMap:
    def test_zero_field_row_matches_plain_trace(self, tmp_path):
        out = tmp_path / "ey.csv"
        cfg = dict(BASE, n_ey=3, n_t=41, ey_max=0.8, t_max=3.5)
        cmd_ey_map(cfg, str(out))
        meta, header, rows = read_csv(out)
        assert meta["validity_boundary_Ey"] == pytest.approx(math.sqrt(5) / 2)
        p = system_from_config(cfg)
        first = rows[rows[:, 0] == 0.0]
        mu, om = 1.0, 3.0
        obar = math.sqrt(mu**2 + om**2 / 4)
        wb, wd = (om**2 / 4) / obar**2, mu**2 / obar**2
        for ey, t, p0, *_ in first:
            want = (math.cos(obar * t) * wb + wd) ** 2
            assert p0 == pytest.approx(want, abs=1e-10)

    def test_overlay_tracks_numeric_zero(self, tmp_path):
        out = tmp_path / "ey2.csv"
        cfg = dict(BASE, n_ey=5, n_t=601, ey_max=1.0, t_max=3.6)
        cmd_ey_map(cfg, str(out))
        _, _, rows = read_csv(out)
        dt = 3.6 / 600
        for ey in np.unique(rows[:, 0]):
            sub = rows[rows[:, 0] == ey]
            t_prime = sub[0, 4]
            j = int(np.argmin(np.abs(sub[:, 1] - t_prime)))
            lo, hi = max(0, j - 1), min(len(sub) - 1, j + 1)
            assert min(sub[lo:hi + 1, 2]) < (2.6 * dt) ** 2

    def test_beyond_boundary_never_depletes(self, tmp_path):
        out = tmp_path / "ey3.csv"
        boundary = math.sqrt(5) / 2
        cfg = dict(BASE, n_ey=2, n_t=801, ey_max=1.02 * boundary, t_max=7.0)
        cmd_ey_map(cfg, str(out))
        _, _, rows = read_csv(out)
        sub = rows[rows[:, 0] > boundary]
        assert np.all(np.isnan(sub[:, 4]))  # no valid depletion time
        assert sub[:, 2].min() > 1e-6


class TestRatioMap:
    def test_resonant_column_depletes_twice(self, tmp_path):
        out = tmp_path / "ratio.csv"
        cfg = {
            "units": "muB",
            "system": {"D": 500.0, "muB": 1.0, "omega_x": 4.5, "Ex": 0.7, "Ey": -0.7},
            "n_ratio": 5, "ratio_max": 2 * (math.sqrt(2) - 1), "n_t": 6001,
        }
        cmd_ratio_map(cfg, str(out))
        meta, _, rows = read_csv(out)
        r_star = math.sqrt(2) - 1
        assert meta["analytic_ratio"] == pytest.approx(r_star, abs=1e-12)
        res = rows[np.isclose(rows[:, 0], r_star, atol=1e-9)]
        assert len(res) == 6001
        t_prime = meta["effective"]["T_prime"]
        t_second = meta["effective"]["T_second"]
        for t_zero in (t_prime, t_second):
            j = int(np.argmin(np.abs(res[:, 1] - t_zero)))
            assert res[max(0, j - 1):j + 2, 2].min() < 1e-6

    def test_requires_transverse_x(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_ratio_map(dict(BASE), str(tmp_path / "x.csv"))

    def test_single_column_is_effective_rabi_trace(self, tmp_path):
        # one grid column at the compensating ratio degenerates to the plain
        # Rabi trace of the reduced system
        r_star = math.sqrt(2) - 1
        cfg = {
            "units": "muB",
            "system": {"D": 500.0, "muB": 1.0, "omega_x": 4.5, "Ex": 0.7, "Ey": -0.7},
            "n_ratio": 1, "ratio_min": r_star, "n_t": 101, "t_max": 2.2,
        }
        out = tmp_path / "col.csv"
        cmd_ratio_map(cfg, str(out))
        _, _, rows = read_csv(out)
        assert rows.shape == (101, 3)
        mu = math.sqrt(1 + 2 * 0.49)
        om = 4.5 * math.hypot(1.0, r_star)
        obar = math.sqrt(mu**2 + om**2 / 4)
        wb, wd = (om**2 / 4) / obar**2, mu**2 / obar**2
        for _, t, p0 in rows:
            assert p0 == pytest.approx((math.cos(obar * t) * wb + wd) ** 2, abs=1e-10)


class TestMapMemory:
    EX = {"units": "muB", "system": {"D": 500.0, "muB": 1.0, "omega_x": 4.5, "Ex": 0.7, "Ey": -0.7}}

    @pytest.mark.parametrize("command", ["ratio-map", "ey-map", "robustness"])
    def test_peak_does_not_grow_with_rows(self, tmp_path, command):
        # a map's values are made block by block as they are written, so
        # ten times the rows (four times the side of a robustness grid)
        # grows the traced peak by less than a quarter of the float grid
        # it adds: by the per-row phase tables, O(sqrt(n_t)) each
        run, sizes = {
            "ratio-map": (lambda m: cmd_ratio_map(dict(self.EX, n_ratio=m, n_t=6001), out),
                          ((20, 6001), (200, 6001))),
            "ey-map": (lambda m: cmd_ey_map(dict(BASE, n_ey=m, n_t=6001), out),
                       ((20, 6001), (200, 6001))),
            "robustness": (lambda m: cmd_robustness(dict(BASE, n=m), out), ((65, 65), (257, 257))),
        }[command]
        out, peaks = str(tmp_path / "map.csv"), []
        for rows, _ in sizes:
            tracemalloc.start()
            try:
                run(rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        (m0, n0), (m1, n1) = sizes
        assert peaks[1] - peaks[0] < (m1 * n1 - m0 * n0) * 8 / 4


class TestSynthCommand:
    def test_x_preset_writes_sequence_and_report(self, tmp_path):
        out = tmp_path / "seq.json"
        cfg = dict(BASE, target="X", lab_steps_per_period=40)
        summary = cmd_synth(cfg, str(out), seed=0)
        assert summary["fidelity_analytic"] >= 1 - 1e-9
        assert summary["fidelity_rwa"] >= 1 - 1e-9
        assert summary["fidelity_lab"] >= 1 - 5e-2
        doc = json.loads(out.read_text())
        assert doc["schema"] == "nverc-seq/1"
        q = characteristic_quantities(system_from_config(cfg))
        n = summary["n_rotations"]
        assert summary["total_duration"] == pytest.approx(n * q.T_total, rel=1e-9)
        report = json.loads((tmp_path / "seq.json.report.json").read_text())
        assert set(report) >= {"fidelity_analytic", "fidelity_rwa", "fidelity_lab"}

    def test_identity_preset_empty_sequence(self, tmp_path):
        out = tmp_path / "seq_i.json"
        summary = cmd_synth(dict(BASE, target="I"), str(out), seed=0)
        assert summary["n_rotations"] == 0
        doc = json.loads(out.read_text())
        assert doc["segments"] == []

    def test_seeded_haar_target_orthogonal_axes(self, tmp_path):
        cfg = {
            "units": "muB",
            "system": {"D": 500.0, "muB": 1.0, "omega_x": 2.0 / math.cos(math.pi / 8)},
            "target": "haar",
            "lab_steps_per_period": 40,
        }
        summary = cmd_synth(cfg, str(tmp_path / "seq42.json"), seed=42)
        assert summary["n_rotations"] <= 3
        assert summary["fidelity_analytic"] >= 1 - 1e-9

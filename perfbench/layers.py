"""Which functions of ``nverc`` the traced run wraps, and the per-module
metrics derived from the spans and counters they record.

Every hook is installed from here; no file of the package is edited.  A hook
whose target no longer exists is skipped and listed in ``Tracer.missing``,
so its metrics read 0 instead of the run failing.
"""

from __future__ import annotations

import math
import os
import statistics

from tracer import Tracer


def install(tracer: Tracer) -> None:
    import nverc._kernels as kernels
    from nverc import calib, cli, erc, prop, spin, sweeps, synth

    def is_lab(args, kwargs):
        frame = kwargs.get("frame", args[3] if len(args) > 3 else None)
        return getattr(frame, "value", frame) == "lab"

    def after_propagate(res, args, kwargs):
        if is_lab(args, kwargs):
            p, seq = args[0], args[1]
            tracer.count("lab_periods", seq.total_duration * p.carrier / (2.0 * math.pi))
            tracer.record_max("norm_drift", res.norm_drift)
        return res

    def after_rk4(u, args, kwargs):
        tracer.count("rk4_steps", kwargs.get("n_steps", args[8] if len(args) > 8 else 0))
        return u

    def after_synthesize(res, args, kwargs):
        tracer.count("targets_solved")
        return res

    def after_lsq(sol, args, kwargs):
        tracer.count("lsq_nfev", sol.nfev)
        return sol

    def after_amp_fn(amp, args, kwargs):
        def counted(t):
            tracer.count("amp_evals")
            return amp(t)
        return counted

    def after_write_csv(out, args, kwargs):
        path, rows = args[0], args[3]
        tracer.count("csv_bytes", os.path.getsize(path))
        if hasattr(rows, "__len__"):
            tracer.count("csv_rows", len(rows))
        else:
            with open(path, "rb") as fh:
                lines = [ln for ln in fh if not ln.startswith(b"#")]
            tracer.count("csv_rows", max(len(lines) - 1, 0))
        return out

    tracer.patch_mapping(cli._COMMANDS, lambda key, fn: f"sweeps.{fn.__name__}")
    tracer.patch(spin.Unitary3, "__init__", "spin.Unitary3")
    tracer.patch(erc, "erc_unitary", "erc.erc_unitary")
    tracer.patch(erc, "dq_rotation", "erc.dq_rotation")
    tracer.patch(erc, "apply_sequence", "erc.apply_sequence")
    tracer.patch(prop, "propagate",
                 lambda a, k: "prop.lab" if is_lab(a, k) else "prop.rwa",
                 after_propagate)
    tracer.patch(kernels, "rk4_lab_segment", "prop.rk4", after_rk4)
    tracer.patch(synth, "synthesize_gate", "synth.synthesize_gate", after_synthesize)
    tracer.patch(synth, "least_squares", "synth.least_squares", after_lsq)
    tracer.patch(calib, "rabi_extract", "calib.rabi_extract")
    tracer.patch(calib, "ratio_scan", "calib.ratio_scan")
    tracer.patch(calib, "brentq", "calib.brentq")
    tracer.patch(calib, "_ground_amplitude_fn", "calib.amplitude_fn", after_amp_fn)
    tracer.patch(sweeps, "_ground_state_states", "sweeps.spectral")
    tracer.patch(sweeps, "_write_csv", "sweeps.write_csv", after_write_csv)


def pass_metrics(tracer: Tracer, pass_index: int, own: list[float]) -> dict:
    """Per-module metrics of one pass, keyed by metric name; ``own`` holds
    the spans' self times."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    sweeps_self = 0.0
    n_spans = 0
    for i, span in enumerate(tracer.spans):
        if tracer.pass_of(span) != pass_index:
            continue
        n_spans += 1
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (span[2] - span[1])
        if name.startswith("sweeps.cmd_"):
            sweeps_self += own[i]

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return busy.get(name, 0.0)

    def c(name):
        return tracer.counters.get((pass_index, name), 0.0)

    lab_periods = c("lab_periods")
    lsq_calls = n("synth.least_squares")
    return {
        "spin.unitary3_calls": n("spin.Unitary3"),
        "spin.unitary3_s": t("spin.Unitary3"),
        "erc.erc_unitary_calls": n("erc.erc_unitary"),
        "erc.erc_unitary_s": t("erc.erc_unitary"),
        "erc.dq_rotation_calls": n("erc.dq_rotation"),
        "erc.apply_sequence_calls": n("erc.apply_sequence"),
        "erc.apply_sequence_s": t("erc.apply_sequence"),
        "prop.propagate_calls": n("prop.lab") + n("prop.rwa"),
        "prop.lab_s": t("prop.lab"),
        "prop.rwa_s": t("prop.rwa"),
        "prop.rk4_calls": n("prop.rk4"),
        "prop.rk4_steps": int(c("rk4_steps")),
        "prop.rk4_s": t("prop.rk4"),
        "prop.lab_periods": lab_periods,
        "prop.us_per_period": 1e6 * t("prop.lab") / lab_periods if lab_periods else 0.0,
        "prop.norm_drift_max": tracer.maxima.get((pass_index, "norm_drift"), 0.0),
        "synth.synthesize_s": t("synth.synthesize_gate"),
        "synth.lsq_calls": lsq_calls,
        "synth.lsq_nfev": int(c("lsq_nfev")),
        "synth.useful_ratio": c("targets_solved") / lsq_calls if lsq_calls else 0.0,
        "calib.rabi_extract_s": t("calib.rabi_extract"),
        "calib.amp_evals": int(c("amp_evals")),
        "calib.brentq_calls": n("calib.brentq"),
        "calib.ratio_scan_s": t("calib.ratio_scan"),
        "sweeps.spectral_s": t("sweeps.spectral"),
        "sweeps.csv_write_s": t("sweeps.write_csv"),
        "sweeps.csv_bytes": int(c("csv_bytes")),
        "sweeps.rows": int(c("csv_rows")),
        "sweeps.self_s": sweeps_self,
        "trace.spans": n_spans,
    }


def summarize(tracer: Tracer, n_passes: int) -> tuple[dict, list[str]]:
    """Metrics over all passes, and the count metrics that did not repeat.

    Durations are the median over passes.  Everything else is taken from the
    first pass and compared against the later ones.
    """
    own = tracer.self_times()
    per_pass = [pass_metrics(tracer, i, own) for i in range(n_passes)]
    out, unsteady = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s") or name == "prop.us_per_period":
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values[1:]):
                unsteady.append(name)
    return out, unsteady

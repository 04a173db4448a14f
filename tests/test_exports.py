import importlib
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np

import nverc
from nverc import calib, ham, prop

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    modules = [nverc] + [importlib.import_module(f"nverc.{m.name}")
                         for m in pkgutil.iter_modules(nverc.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    # names re-exported at the top level are the objects of their owner
    for owner, names in ((ham, ("EffectiveParams", "effective_params", "dressing_unitary",
                                "compensation_ratio")),
                         (calib, ("phi_from_times",)),
                         (prop, ("evolve", "sequence_unitary"))):
        for name in names:
            assert getattr(nverc, name) is getattr(owner, name), name


def test_public_names_are_pinned():
    # a name added to or dropped from the public surface is a decision, not
    # a side effect: it changes here and in README's "Removed public names"
    assert prop.__all__ == ["evolve", "sequence_unitary"]
    assert sorted(nverc.__all__) == sorted([
        "__version__",
        "SystemParams", "StateVector3", "Unitary3", "FrameTag",
        "PulseSegment", "PulseSequence", "DQRotation", "RotationAxis",
        "ErcQuantities", "EffectiveParams",
        "SynthesisResult", "OdmrResult", "RabiExtraction", "RatioScanResult",
        "phi_state", "characteristic_quantities",
        "bright_dark", "erc_unitary", "closed_form_unitary", "dq_rotation", "not_gate_sequence",
        "evolve", "sequence_unitary", "synthesize_gate", "dq_block", "dq_gate_fidelity",
        "phi_from_times", "compensation_ratio", "effective_params",
        "dressing_unitary", "simulate_odmr", "rabi_extract", "ratio_scan",
        "sequence_to_json", "sequence_from_json", "SEQUENCE_SCHEMA",
        "NvErcError", "RegimeError", "DomainError", "ResonanceError",
        "AxisDegenerateError", "NoConvergenceError", "ExtractionError",
        "ConfigError",
    ])
    assert len(set(nverc.__all__)) == len(nverc.__all__)


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md#quick-start", "exec"), scope)
    # what its comments promise: the swap, and one lab propagator per time
    np.testing.assert_allclose(abs(scope["out"]) ** 2, [0, 0, 1], atol=1e-9)
    assert scope["us_lab"].shape == (5, 3, 3)
    assert scope["res"].fidelity >= 1 - 1e-9
    assert capsys.readouterr().out


def test_benchmark_hooks_find_their_targets(monkeypatch):
    # perfbench/layers.py wraps package functions by name, and a traced run
    # only lists a target that has gone under missing_hooks: these four
    # are known to be gone, and any other name missing is a renamed hook
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        layers = importlib.import_module("layers")
        tracer = layers.Tracer("nverc")
        try:
            layers.install(tracer)
        finally:
            tracer.uninstall()
    finally:
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)
    assert tracer.missing == ["nverc.erc.apply_sequence", "nverc.prop.propagate",
                              "nverc._kernels.rk4_lab_segment", "nverc.synth.least_squares"]

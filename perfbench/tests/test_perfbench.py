"""Tests of the benchmark itself, at the tiny input size.

Run:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# metrics that are durations or derived from durations; everything else in
# a traced run is a count that must repeat exactly at one seed
TIMED = re.compile(r".*(_s|us_per_period|overhead_frac)$")


def run_bench(workload, trace, seed=3, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def final_json(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_layer_metric_is_declared():
    tracer = Tracer("nverc")
    tracer.spans.append(["sweeps.cmd_trace", 0.0, 1.0, -1, "0/x"])
    computed = set(layers.pass_metrics(tracer, 0, tracer.self_times()))
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert computed <= declared


def test_inputs_follow_the_seed(tmp_path):
    def configs(seed, sub):
        out = tmp_path / sub
        out.mkdir()
        plan = workloads.make_plan("gates", seed, str(out))
        return [c["argv"][-1] for c in plan], sorted(p.read_text() for p in out.iterdir())

    first, again, other = configs(5, "a"), configs(5, "b"), configs(6, "c")
    assert first == again
    assert first[0] != other[0]


def test_patch_reaches_every_alias():
    from nverc import calib, prop, sweeps

    original = prop.propagate
    tracer = Tracer("nverc")
    layers.install(tracer)
    try:
        assert not tracer.missing
        assert sweeps.propagate is calib.propagate is prop.propagate
        assert prop.propagate is not original
    finally:
        tracer.uninstall()
    assert sweeps.propagate is calib.propagate is prop.propagate is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_checks_pass(workload):
    result = final_json(run_bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (final_json(run_bench(workload, trace=1)) for _ in range(2))
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(first["metrics"]) == declared
    counts = [n for n in declared if not TIMED.fullmatch(n)]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_bench("maps", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()

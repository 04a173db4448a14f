#!/usr/bin/env python3
"""nverc benchmark: one workload, end-to-end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload maps|gates|lab_trace --seed N \
        --seconds S --trace 0|1

Runs the workload's ``nverc`` CLI commands (see ``workloads.py``) in fresh
interpreters, one per CPU (up to two) side by side, with BLAS/OpenMP pinned
to one thread; checks every output; and prints one line per metric followed
by a final JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload untraced and, beside it, with per-module
hooks, and reports the per-layer metrics, including the tracing overhead.  Scratch files live in ``.perfbench_out/`` at
the repository root; the last result of each workload and the last traced
run's spans are kept there.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

TIME_LIMIT_S = 170.0
# The CPUs of a small shared machine run slower while their sibling is busy.
# Every run therefore keeps one worker busy on each CPU (up to two), side by
# side and pinned, so the load is the same in every run: an end-to-end run
# runs the workload once per CPU, a traced run runs it untraced on one CPU
# and traced on the other.
CPUS = sorted(os.sched_getaffinity(0))[:2]
SETUP_ROUNDS = 3           # rounds of one cold import per CPU, plus the workers' own
IMPORTTIME_SAMPLES = 3
IMPORT_SNIPPET = ("import os, time; os.sched_setaffinity(0, {{{cpu}}}); "
                  "t = time.perf_counter(); import nverc.cli; "
                  "print(time.perf_counter() - t)")
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
GROUP_METRICS = {"robustness": "robustness_s", "spectral": "spectral_map_s",
                 "synth": "synth_s"}
# end-to-end figures that apply to some workloads only; BENCHMARK.json lists
# them under per_layer because every metric there must exist on every workload
APPLIES = {
    "robustness_s": ("maps",), "spectral_map_s": ("maps",), "cells_per_s": ("maps", "lab_trace"),
    "synth_s": ("gates",), "gate_rotations_total": ("gates",),
    "gate_time_total": ("gates",), "lab_err_max": ("gates", "lab_trace"),
}


class BenchError(RuntimeError):
    pass


def child_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NVERC_")}
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NVERC_PURE_PYTHON"] = "1"
    env["TMPDIR"] = tmp
    return env


def run_children(argvs, env, deadline) -> list[tuple[str, str]]:
    """Run children side by side, each in its own process group, and wait for
    all of them; every group is killed once its leader has ended or on
    time-out.  Output goes to files in the run's scratch directory, so a
    chatty child never blocks on a full pipe."""
    if deadline - time.monotonic() <= 0:
        raise BenchError("time budget exhausted")
    files = [tuple(tempfile.TemporaryFile("w+", dir=env["TMPDIR"]) for _ in range(2))
             for _ in argvs]
    procs = [subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err,
                              start_new_session=True)
             for argv, (out, err) in zip(argvs, files)]
    try:
        for argv, proc in zip(argvs, procs):
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{argv[1:3]} did not finish in time") from None
        outputs = []
        for argv, proc, pair in zip(argvs, procs, files):
            for f in pair:
                f.seek(0)
            out, err = (f.read() for f in pair)
            if proc.returncode != 0:
                raise BenchError(f"{argv[1:3]} exited {proc.returncode}:\n{err[-4000:]}")
            outputs.append((out, err))
        return outputs
    finally:
        for proc in procs:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        for pair in files:
            for f in pair:
                f.close()


def run_child(argv, env, deadline) -> tuple[str, str]:
    return run_children([argv], env, deadline)[0]


def import_times(env, deadline, rounds) -> list[float]:
    """Cold ``import nverc.cli`` times, one interpreter per CPU side by side
    in each round, as the workers run."""
    times = []
    for _ in range(rounds):
        argvs = [[sys.executable, "-c", IMPORT_SNIPPET.format(cpu=cpu)] for cpu in CPUS]
        times += [float(out) for out, _ in run_children(argvs, env, deadline)]
    return times


def scipy_optimize_import_s(env, deadline) -> float:
    """Median cumulative ``scipy.optimize`` share of ``import nverc.cli``,
    from ``-X importtime`` (0 when the import no longer pulls it in)."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        _, err = run_child([sys.executable, "-X", "importtime", "-c", "import nverc.cli"],
                           env, deadline)
        cumulative = 0
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[2].strip() == "scipy.optimize":
                cumulative = int(parts[1])
        samples.append(cumulative / 1e6)
    return statistics.median(samples)


def run_workers(jobs, seconds, tmp, env, deadline) -> list[dict]:
    """Run one worker per job, as many side by side as there are CPUs, each
    pinned to its own CPU; a job is a plan without ``seconds`` and ``cpu``."""
    groups = [jobs[i:i + len(CPUS)] for i in range(0, len(jobs), len(CPUS))]
    results = []
    for g, group in enumerate(groups):
        argvs, paths = [], []
        for k, job in enumerate(group):
            plan_path = os.path.join(tmp, f"plan-{g}-{k}.json")
            paths.append(os.path.join(tmp, f"result-{g}-{k}.json"))
            with open(plan_path, "w", encoding="utf-8") as fh:
                json.dump({**job, "seconds": seconds / len(groups), "cpu": CPUS[k]}, fh)
            argvs.append([sys.executable, str(BENCH_DIR / "worker.py"), plan_path, paths[-1]])
        run_children(argvs, env, deadline)
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                results.append(json.load(fh))
    return results


def workload_figures(commands, results) -> tuple[dict, dict, list[str]]:
    """End-to-end figures of the workers' results, their sample counts, and
    every failure message.  Times are medians over the passes of all
    workers; output figures come from the first worker (every worker runs
    the same inputs)."""
    passes = [p for res in results for p in res["passes"]]
    figures = {"wall_s": statistics.median(p["wall_s"] for p in passes),
               "peak_rss_mb": max(res["peak_rss_mb"] for res in results)}
    samples = {"wall_s": len(passes), "peak_rss_mb": len(results)}
    for group, name in GROUP_METRICS.items():
        labels = [c["label"] for c in commands if c["group"] == group]
        figures[name] = statistics.median(sum(p["times"][lb] for lb in labels)
                                          for p in passes)
        samples[name] = len(passes)
    values = [o["values"] for o in results[0]["commands"].values()]
    cells = sum(v.get("cells", 0) for v in values)
    figures["cells_per_s"] = cells / figures["wall_s"]
    figures["gate_rotations_total"] = sum(v.get("rotations", 0) for v in values)
    figures["gate_time_total"] = sum(v.get("gate_time", 0.0) for v in values)
    figures["lab_err_max"] = max([v["lab_err"] for v in values if "lab_err" in v],
                                 default=0.0)
    outcomes = [o for res in results for o in res["commands"].values()]
    figures["attempted"] = sum(o["runs"] for o in outcomes)
    figures["failed"] = sum(o["failed_runs"] for o in outcomes)
    figures["failed_frac"] = figures["failed"] / figures["attempted"]
    for name in ("cells_per_s", "gate_rotations_total", "gate_time_total", "lab_err_max",
                 "failed_frac"):
        samples[name] = 1
    problems = [f"{label}: {msg}" for res in results
                for label, o in res["commands"].items() for msg in o["problems"]]
    return figures, samples, problems


def environment(args) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "worker_cpus": CPUS,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "commit": git_commit()}


def git_commit() -> str:
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(args, tmp, deadline) -> dict:
    """Run the workload; returns figures, sample counts, environment,
    failure messages, notes and the raw per-pass command times."""
    env = child_env(tmp)
    run_child([sys.executable, "-c", "import nverc.cli"], env, deadline)  # fill caches
    plans = []
    for k in range(max(len(CPUS), 2 if args.trace else 1)):
        os.mkdir(os.path.join(tmp, f"w{k}"))
        plans.append(workloads.make_plan(args.workload, args.seed,
                                         os.path.join(tmp, f"w{k}"), args.size))
    if not args.trace:
        setup = import_times(env, deadline, SETUP_ROUNDS)
        results = run_workers([{"commands": c, "trace": False} for c in plans],
                              args.seconds, tmp, env, deadline)
        figures, samples, problems = workload_figures(plans[0], results)
        setup += [res["setup_s"] for res in results]
        figures["setup_s"], samples["setup_s"] = statistics.median(setup), len(setup)
        return {"figures": figures, "samples": samples, "env": results[0]["env"],
                "problems": problems, "notes": {},
                "passes": [res["passes"] for res in results]}

    scipy_s = scipy_optimize_import_s(env, deadline)
    spans_path = str(OUT_DIR / f"spans-{args.workload}.jsonl")
    plain, traced = run_workers(
        [{"commands": plans[0], "trace": False},
         {"commands": plans[1], "trace": True, "spans_path": spans_path}],
        args.seconds, tmp, env, deadline)
    figures, samples, problems = workload_figures(plans[0], [plain])
    traced_figures, _, traced_problems = workload_figures(plans[1], [traced])
    problems += [f"traced {p}" for p in traced_problems]
    figures["attempted"] += traced_figures["attempted"]
    figures["failed"] += traced_figures["failed"]
    figures["failed_frac"] = figures["failed"] / figures["attempted"]
    figures.update(traced["layers"])
    figures["cli.scipy_optimize_import_s"] = scipy_s
    figures["trace.overhead_frac"] = traced_figures["wall_s"] / figures["wall_s"] - 1.0
    notes = {"unsteady_counts": traced["unsteady_counts"],
             "missing_hooks": traced["missing_hooks"], "spans": spans_path}
    return {"figures": figures, "samples": samples, "env": traced["env"],
            "problems": problems, "notes": notes,
            "passes": {"plain": plain["passes"], "traced": traced["passes"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every grid, for the smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nverc" / "cli.py").is_file():
        print(f"nverc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    units = {**declared_metrics("per_layer"), **declared}

    # turn SIGTERM into SystemExit so the clean-up below and in run_children
    # runs: children live in their own sessions and would outlive us
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        record = measure(args, tmp, deadline)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    figures, samples, problems = record["figures"], record["samples"], record["problems"]
    env = {**record["env"], **environment(args)}
    print("env " + json.dumps(env, sort_keys=True))
    shown = list(declared) if args.trace else [*declared, *APPLIES, "failed_frac"]
    for name in shown:
        if args.workload in APPLIES.get(name, workloads.WORKLOADS):
            n = samples.get(name)
            print(f"metric {name} = {figures[name]!r} {units[name]}" + (f" (n={n})" if n else ""))
    print(f"commands attempted {figures['attempted']}, failed {figures['failed']}")
    for key, value in record["notes"].items():
        if value:
            print(f"note {key}: {value}")
    for msg in problems:
        print(f"FAILED {msg}")

    correct = not problems and figures["failed"] == 0
    result = {"correct": correct, "attempted": figures["attempted"],
              "failed": figures["failed"],
              "metrics": {name: {"value": figures[name], "unit": unit}
                          for name, unit in declared.items()}}
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "samples": samples, "problems": problems,
                   "passes": record["passes"], **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

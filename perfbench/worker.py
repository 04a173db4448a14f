"""One workload run inside a fresh interpreter.

Usage: python worker.py PLAN.json RESULT.json

Times the cold ``import nverc.cli``, then runs the plan's CLI commands in
passes for as long as another pass fits in the plan's ``seconds`` (at least
one pass), with
the per-module hooks installed when the plan asks for tracing.  Afterwards,
untimed and untraced, it checks the last pass's outputs and writes every
measurement to RESULT.json.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback


def run_command(cli, argv) -> int | str:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the run must go on; record the traceback as the failure
        return traceback.format_exc()


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.sched_setaffinity(0, {plan["cpu"]})
    t0 = time.perf_counter()
    import nverc.cli as cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if plan["trace"]:
        import layers
        from tracer import Tracer
        tracer = Tracer("nverc")
        layers.install(tracer)

    commands = plan["commands"]
    passes, exits = [], {c["label"]: [] for c in commands}
    start = time.perf_counter()
    # start another pass only if a typical pass still fits in the time left
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["wall_s"] for p in passes) <= plan["seconds"]):
        times = {}
        p0 = time.perf_counter()
        for cmd in commands:
            if tracer is not None:
                tracer.pass_index = len(passes)
                tracer.run_id = f"{len(passes)}/{cmd['label']}"
            t = time.perf_counter()
            rc = run_command(cli, cmd["argv"])
            times[cmd["label"]] = time.perf_counter() - t
            exits[cmd["label"]].append(rc)
        passes.append({"wall_s": time.perf_counter() - p0, "times": times})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "passes": passes, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["unsteady_counts"] = layers.summarize(tracer, len(passes))
        result["missing_hooks"] = tracer.missing
        if plan.get("spans_path"):
            tracer.write_spans(plan["spans_path"])

    import checks
    outcome = {}
    for cmd in commands:
        failures = [rc for rc in exits[cmd["label"]] if rc != 0]
        problems = [f"exit {rc}" for rc in failures[:1]]
        values = {}
        if not failures:
            try:
                problems, values = checks.check(cmd, lambda argv: run_command(cli, argv))
            except Exception:  # a malformed output fails the check, not the run
                problems = [traceback.format_exc()]
        outcome[cmd["label"]] = {"runs": len(exits[cmd["label"]]),
                                 "failed_runs": len(failures) if failures else
                                 (len(exits[cmd["label"]]) if problems else 0),
                                 "problems": problems, "values": values}
    result["commands"] = outcome
    result["env"] = {"numpy": _version("numpy"), "scipy": _version("scipy"),
                     "kernel_backend": _kernel_backend()}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _version(module: str) -> str:
    return getattr(sys.modules.get(module), "__version__", "unknown")


def _kernel_backend() -> str:
    import nverc
    backend = getattr(nverc, "kernel_backend", None)
    return backend() if backend is not None else "none"


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: worker.py PLAN.json RESULT.json")
    main(sys.argv[1], sys.argv[2])

"""Command-line front end.

Subcommands: trace, robustness, ey-map, ratio-map, synth, calibrate.
Global flags: --config PATH, --out PATH, --jobs N, --method, --seed N,
--plot-script.  ``_TAKES`` says which command takes which of the last
four; setting one away from its default for any other command is a config
error, raised before the command runs.  Each command refuses the config
keys it does not consume itself (``sweeps._refuse_rest``).
Exit codes: 0 success, 2 config error, 3 regime/domain error, 4 numerical
failure.  Log level comes from the NVERC_LOG environment variable.

On error a machine-readable JSON document {"error": {...}} is printed to
stdout in addition to the log message, so scripted callers never need to
parse human text.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys

from .errors import (AxisDegenerateError, ConfigError, DomainError,
                     ExtractionError, NoConvergenceError, NvErcError,
                     RegimeError, ResonanceError)
from . import sweeps

log = logging.getLogger("nverc")

_COMMANDS = {
    "trace": sweeps.cmd_trace,
    "robustness": sweeps.cmd_robustness,
    "ey-map": sweeps.cmd_ey_map,
    "ratio-map": sweeps.cmd_ratio_map,
    "synth": sweeps.cmd_synth,
    "calibrate": sweeps.cmd_calibrate,
}

# The flags each command takes besides --config and --out.  trace and the
# maps accept --jobs only so that scripts passing it keep working (the
# benchmark re-runs one map with --jobs 2 and compares the bytes); they run
# in one process whatever its value.
_TAKES = {
    "trace": {"jobs", "method", "plot_script"},
    "robustness": {"jobs", "plot_script"},
    "ey-map": {"jobs", "plot_script"},
    "ratio-map": {"jobs", "plot_script"},
    "synth": {"seed"},
    "calibrate": {"method"},
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

_DOMAIN_ERRORS = (RegimeError, DomainError, ResonanceError, ExtractionError,
                  AxisDegenerateError)
_NUMERIC_ERRORS = (NoConvergenceError,)


@functools.cache  # built once per process: every in-process main call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nverc",
        description="Pulse-gate simulator for the NV ground-state triplet "
                    "driven at the zero-field splitting.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output path (CSV or JSON)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="kept for old scripts: trace and the maps run in "
                             "one process and ignore it; the others reject "
                             "any value but 1 (default: 1)")
    parser.add_argument("--method", choices=["analytic", "rwa", "lab"], default=None,
                        help="override the propagation method from the config "
                             "(trace, calibrate; rejected by the others)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for synth's randomized (\"haar\") targets, "
                             "default 0; synth ignores it for fixed targets "
                             "and the other commands reject it")
    parser.add_argument("--plot-script", action="store_true",
                        help="also write a standalone matplotlib script "
                             "next to the CSV (trace and the maps; rejected "
                             "by the others)")
    return parser


def _setup_logging():
    level = os.environ.get("NVERC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _error_json(exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}},
        sort_keys=True,
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        given = {"jobs": args.jobs != 1, "method": args.method is not None,
                 "seed": args.seed is not None, "plot_script": args.plot_script}
        refused = [f for f, on in given.items() if on and f not in _TAKES[args.command]]
        if refused:
            raise ConfigError(f"{args.command} does not take "
                              f"--{refused[0].replace('_', '-')} "
                              f"(got {getattr(args, refused[0])!r})")
        cfg = sweeps.load_config(args.config)
        if args.method is not None:
            cfg = {**cfg, "method": args.method}
        seed = {} if args.seed is None else {"seed": args.seed}
        summary = _COMMANDS[args.command](cfg, args.out, **seed)
        if args.plot_script:
            sweeps.write_plot_script(args.out)
        log.info("%s finished: %s", args.command, summary)
        return EXIT_OK
    except (ConfigError, ValueError, TypeError) as exc:
        # the library checks a config value where it uses it (a too-short
        # scan, a descending grid, an unknown method) with the builtin
        # errors, so one escaping here is a bad config value, not a crash
        log.error("config error: %s", exc)
        print(_error_json(exc))
        return EXIT_CONFIG
    except _DOMAIN_ERRORS as exc:
        log.error("domain error: %s", exc)
        print(_error_json(exc))
        return EXIT_DOMAIN
    except _NUMERIC_ERRORS as exc:
        log.error("numerical failure: %s", exc)
        print(_error_json(exc))
        return EXIT_NUMERIC
    except NvErcError as exc:  # any future toolkit error: treat as domain
        log.error("%s", exc)
        print(_error_json(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

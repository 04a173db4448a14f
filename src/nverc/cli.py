"""Command-line front end.

Subcommands: trace, robustness, ey-map, ratio-map, synth, calibrate.
Global flags: --config PATH, --out PATH, --jobs N, --method, --seed N,
--plot-script.  ``_TAKES`` says which command takes which of the last
four; setting one away from its parser default for any other command is a
config error, raised before the command runs.  Each command refuses the config
keys it does not consume itself (``sweeps._refuse_rest``).
Exit codes (``_EXITS``, by error class): 0 success, 2 config error,
3 regime/domain error, 4 numerical failure.  ``--method`` takes the names
in ``prop.METHODS``.  Log level comes from the NVERC_LOG environment variable.

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
from .prop import METHODS

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

# (exit code, log format) by error class; an error takes the row of its
# first class in method resolution order.  A ValueError or TypeError is a
# config value the library refused where it uses it, not a crash.
_EXITS = {
    **dict.fromkeys((ConfigError, ValueError, TypeError), (2, "config error: %s")),
    **dict.fromkeys((RegimeError, DomainError, ResonanceError, ExtractionError,
                     AxisDegenerateError), (3, "domain error: %s")),
    NoConvergenceError: (4, "numerical failure: %s"),
    NvErcError: (3, "%s"),  # any future toolkit error
}


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
    parser.add_argument("--method", choices=METHODS, default=None,
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
        given = [f for f, v in vars(args).items()
                 if f in set().union(*_TAKES.values()) and v != parser.get_default(f)]
        refused = [f for f in given if f not in _TAKES[args.command]]
        if refused:
            raise ConfigError(f"{args.command} does not take "
                              f"--{refused[0].replace('_', '-')} "
                              f"(got {getattr(args, refused[0])!r})")
        cfg = sweeps.load_config(args.config)
        if "method" in given:
            cfg = {**cfg, "method": args.method}
        seed = {"seed": args.seed} if "seed" in given else {}
        summary = _COMMANDS[args.command](cfg, args.out, **seed)
        if args.plot_script:
            sweeps.write_plot_script(args.out)
        log.info("%s finished: %s", args.command, summary)
        return 0
    except (NvErcError, ValueError, TypeError) as exc:
        code, fmt = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        log.error(fmt, exc)
        print(_error_json(exc))
        return code


if __name__ == "__main__":
    sys.exit(main())

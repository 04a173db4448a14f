"""Command-line front end.

Subcommands: trace, robustness, ey-map, ratio-map, synth, calibrate.
Global flags: --config PATH, --out PATH, --jobs N, --method, --seed N.
--method selects the propagation method of trace and calibrate; the other
commands have a fixed evaluation and reject it as a config error.  Every
command runs in one process: trace and the maps ignore --jobs, synth and
calibrate reject any value but 1.  --seed draws synth's "haar" targets
(default 0; fixed targets ignore it); the other commands reject it.
Exit codes: 0 success, 2 config error, 3 regime/domain error, 4 numerical
failure.  Log level comes from the NVERC_LOG environment variable.

On error a machine-readable JSON document {"error": {...}} is printed to
stdout in addition to the log message, so scripted callers never need to
parse human text.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import (AxisDegenerateError, ConfigError, DomainError,
                     ExtractionError, NoConvergenceError, NvErcError,
                     RegimeError, ResonanceError, StepSizeUnderflow)
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

_DOMAIN_ERRORS = (RegimeError, DomainError, ResonanceError, ExtractionError,
                  AxisDegenerateError)
_NUMERIC_ERRORS = (NoConvergenceError, StepSizeUnderflow)


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
                             "one process and ignore it; synth and calibrate "
                             "reject any value but 1 (default: 1)")
    parser.add_argument("--method", choices=["analytic", "rwa", "lab"], default=None,
                        help="override the propagation method from the config "
                             "(trace, calibrate; rejected by the others)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for synth's randomized (\"haar\") targets, "
                             "default 0; synth ignores it for fixed targets "
                             "and the other commands reject it")
    parser.add_argument("--plot-script", action="store_true",
                        help="also write a standalone matplotlib script "
                             "next to CSV outputs")
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
        cfg = sweeps.load_config(args.config)
        fn = _COMMANDS[args.command]
        kwargs = {"jobs": args.jobs, "method": args.method}
        if args.seed is not None:
            if args.command != "synth":
                raise ConfigError(f"{args.command} has no randomized input; it "
                                  f"does not take --seed (got {args.seed})")
            kwargs["seed"] = args.seed
        summary = fn(cfg, args.out, **kwargs)
        if args.plot_script and args.command in ("trace", "robustness",
                                                 "ey-map", "ratio-map"):
            sweeps.write_plot_script(args.out)
        log.info("%s finished: %s", args.command, summary)
        return EXIT_OK
    except ConfigError as exc:
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

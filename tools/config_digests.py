"""Run every checked-in config through the nverc CLI and print the SHA-256
of each output, one ``sha256  file`` line per file, sorted by file name.

    PYTHONPATH=src python tools/config_digests.py OUT_DIR

Two trees give byte-identical outputs exactly when their printouts diff
empty.  The 16 runs: the fig2 trace with each method, the robustness and
map figures, both synth programs (each also writes a report), and both
calibrations with each method: 18 output files.
"""

import hashlib
import sys
from pathlib import Path

from nverc import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
METHODS = ("analytic", "rwa", "lab")
RUNS = [("trace", "fig2_trace", m) for m in METHODS]
RUNS += [("robustness", f"fig4{x}_robustness", None) for x in "abc"]
RUNS += [("ey-map", "fig5_ey_map", None), ("ratio-map", "fig6_ratio_map", None)]
RUNS += [("synth", name, None) for name in ("synth_x", "synth_haar_orthogonal_axes")]
RUNS += [("calibrate", name, m) for name in ("calibrate_basic", "calibrate_ex_compensation")
         for m in METHODS]



def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for command, name, method in RUNS:
        suffix = ".json" if command in ("synth", "calibrate") else ".csv"
        out = out_dir / (name + (f"_{method}" if method else "") + suffix)
        argv = [command, "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]
        if cli.main(argv + (["--method", method] if method else [])) != 0:
            sys.exit(f"{command} {name} {method or ''} failed")
    for path in sorted(out_dir.iterdir()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), "", path.name)


if __name__ == "__main__":
    main(Path(sys.argv[1]))

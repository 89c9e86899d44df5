"""Extraction benchmark: time, quality and memory of five on fixed workloads.

    python3 bench/run.py --workload conv8_10s --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0        # every workload in turn

One workload per run prints its metrics by name with their units, the
extractions attempted and failed, and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics from untraced rounds; --trace 1 gives the per-layer
metrics from traced rounds. The raw extraction times, and the spans of a
traced run, are written under .bench-out/. The package is imported from
this checkout's src/ directory; without it the run exits with status 1 and
prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread (no more than the cores): the load is this one process,
# and a single thread keeps timings steady on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench-out"
WORKLOAD_NAMES = ["conv8_10s", "conv4_30s", "inst_converge"]


def load_harness():
    """Import the harness with five from SRC; returns (module, import seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import five
        import harness
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import the package from {SRC}: {exc}")
    if not Path(five.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: five was imported from {five.__file__}, not from {SRC}")
    return harness, time.perf_counter() - t0


def run_all(args):
    """Every workload in its own process, as a single-workload run would see it."""
    summary, status = [], 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary.append(f"{name:<14} no result (exit status {child.returncode})")
            continue
        summary.append(
            f"{name:<14} attempted {result['attempted']:>5}  failed {result['failed']:>4}  "
            f"correct {result['correct']}"
        )
    print("\n".join(["summary:"] + summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)

    harness, import_s = load_harness()
    workload = harness.workloads.WORKLOADS[args.workload]
    result, run = harness.measure(workload, args.seed, args.seconds, args.trace, import_s, OUT_DIR)
    harness.report(workload, args.seed, args.trace, result, run, sys.stdout)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

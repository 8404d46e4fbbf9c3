"""Benchmark of conformal_kit: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  An untraced run is PARTS workload
processes in a row, each a fresh interpreter (perfbench/worker.py) with
BLAS/OpenMP pinned to one thread, each measuring S/PARTS seconds; their
ops are pooled, so no single process's memory layout sets the figures,
and setup_s is the median of their set-up times.  A traced run is one
process that runs a fixed number of rounds.  The last stdout line is one
JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  Exits non-zero without a result
when the source tree is missing, when a worker fails, or when a checker
accepts a wrong output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PARTS = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(parts: list[dict]) -> dict:
    """Metrics of the pooled ops of all parts."""
    walls = sorted(w for p in parts for w in p["walls"])
    cpus = [c for p in parts for c in p["cpus"]]
    tail_rank = math.ceil(parts[0]["tail_pct"] / 100 * len(walls))
    values = {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "ops_per_s": (len(walls) / math.fsum(walls), "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (walls[tail_rank - 1], "s"),
        "cpu_s_per_op": (math.fsum(cpus) / len(cpus), "s"),
        "peak_rss_mb": (max(p["peak_rss_kb"] for p in parts) / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "conformal_kit" / "cli.py").is_file():
        print(f"no conformal_kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "CONFORMAL_KIT_SEED"}
    env.update({k: "1" for k in THREAD_VARS})
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]

    try:
        if args.trace:
            parts = [run_worker([*argv, "--part", "0", "--parts", "1"], env, deadline)]
            metrics = parts[0]["metrics"]
        else:
            seconds = str(args.seconds / PARTS)
            argv[argv.index("--seconds") + 1] = seconds
            parts = [
                run_worker([*argv, "--part", str(j), "--parts", str(PARTS)], env, deadline)
                for j in range(PARTS)
            ]
            metrics = end_to_end(parts)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    final = {
        "correct": all(p["correct"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": metrics,
    }
    line = json.dumps(final)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

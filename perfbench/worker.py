"""One workload process, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --part J --parts P --seconds S --trace 0|1

Times the import of conformal_kit.cli and one warm-up op (the set-up),
checks the warm-up output, and shows that the checker rejects a wrong
version of it.  Then it runs whole rounds of ops, one client calling
``conformal_kit.cli.main`` in-process with stdout captured in memory, and
checks every output.  Part J of a run draws its inputs from stream J of
the seed.  Untraced, it runs until --seconds have passed and it has done
at least 1/P of the workload's minimum op count, and reports every
op's wall and CPU time; traced, it runs the workload's fixed number of
rounds and reports the per-layer metrics.  The last stdout line is a
JSON result for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Stop starting rounds after this long, so a run ends well within 180 s.
HARD_STOP_S = 120.0


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_op(main, argv) -> tuple[int | None, str, float, float]:
    """(exit code or None on a crash, stdout, wall s, CPU s) of one CLI call."""
    out = io.StringIO()
    cpu0, child0 = time.process_time(), _children_cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except (Exception, SystemExit):  # a crash or an argparse exit fails the op
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0 + _children_cpu() - child0
    return rc, out.getvalue(), wall, cpu


def _report(problems: list[str], argv) -> bool:
    for p in problems:
        print(f"wrong output of {' '.join(argv)}: {p}", file=sys.stderr)
    return not problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    from conformal_kit import cli

    import_s = time.perf_counter() - t0

    import tracing
    from workloads import WORKLOADS

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{args.part}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        kind = WORKLOADS[args.workload]
        workload = kind(args.seed, args.part, workdir)

        op = workload.make_op(0)
        rc, out, warm_s, _ = run_op(cli.main, op.argv)
        if rc != 0:
            print(f"warm-up op failed: {' '.join(op.argv)}", file=sys.stderr)
            return 1
        correct = _report(op.check(out), op.argv)
        # A wrong copy of a right output must be rejected.  (A wrong copy of
        # a wrong output can be right by chance, so it proves nothing.)
        if correct and not op.check(op.wrong(out)):
            print(f"{args.workload} checker accepted a wrong output", file=sys.stderr)
            return 1
        tracer = None
        main_fn = cli.main
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            main_fn = tracer.wrap("op", cli.main)

        min_ops = math.ceil(kind.min_ops / args.parts)
        walls, cpus = [], []
        failed = 0
        start = time.perf_counter()
        rounds = 0
        while True:
            for slot in range(kind.ops_per_round):
                op = workload.make_op(slot)
                if tracer:
                    tracer.op = len(walls)
                rc, out, wall, cpu = run_op(main_fn, op.argv)
                walls.append(wall)
                cpus.append(cpu)
                if rc != 0:
                    failed += 1
                    print(f"op failed (exit {rc}): {' '.join(op.argv)}", file=sys.stderr)
                else:
                    correct &= _report(op.check(out), op.argv)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed > HARD_STOP_S:
                break
            if tracer:
                if rounds >= kind.trace_rounds:
                    break
            elif elapsed >= args.seconds and len(walls) >= min_ops:
                break

        result = {"correct": correct, "attempted": len(walls), "failed": failed}
        if tracer:
            result["metrics"] = tracing.layer_metrics(tracer.spans, len(walls), import_s)
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            tracer.write(results / f"trace-{args.workload}-seed{args.seed}.jsonl")
            print(f"traced op p50 {statistics.median(walls):.6f} s", file=sys.stderr)
        else:
            result.update(
                tail_pct=kind.tail_pct,
                setup_s=import_s + warm_s,
                walls=walls,
                cpus=cpus,
                peak_rss_kb=max(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                ),
            )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

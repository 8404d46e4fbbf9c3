"""The three workloads: how each op's inputs are made and how it is checked.

Each workload is a fixed cycle (a round) of ops whose costs sit in one
cost class, so a run's median and tail describe one kind of work.  Inputs
come from the workload seed alone; no two ops of a run share an
(n, level) pair, so a cache kept across ops would see no repeats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, its checker and one wrong output."""

    argv: list[str]
    check: Callable[[str], list[str]]
    wrong: Callable[[str], str]


def _write_synced(path: Path, text: str) -> None:
    """Write and fsync, so no writeback of benchmark files runs during an op."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def _sync_dir(path: Path) -> None:
    for f in path.iterdir():
        with open(f, "rb") as fh:
            os.fsync(fh.fileno())


class _Workload:
    name = ""
    ops_per_round = 1
    # Tail percentile reported as op_tail_s, and the op count a run needs
    # for ten ops to lie beyond it.
    tail_pct = 75
    min_ops = 40
    # Rounds the traced run's per-layer figures cover, fixed so that
    # counts repeat exactly between traced runs of one seed.
    trace_rounds = 1

    def __init__(self, seed: int, stream: int, workdir: Path):
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
        self.workdir = workdir
        self.seen: set = set()

    def _fresh(self, draw):
        """draw() until it gives a key, other than None, not used before."""
        while True:
            key = draw()
            if key is not None and key not in self.seen:
                self.seen.add(key)
                return key


# calibrate-routes: (method, level kind, base n).  Sizes put every route's
# op near 0.1 s at the parent commit: split is O(n log n), crc and ucb add
# an interpreted loss call per score per probe, ltt is O(n^2).
ROUTES = (
    ("split", "alpha", 100_000),
    ("split", "tol", 100_000),
    ("crc", "alpha", 10_000),
    ("ucb", "tol", 7_000),
    ("ltt", "tol", 500),
)
TIE_SHARE = 0.25


class CalibrateRoutes(_Workload):
    name = "calibrate-routes"
    ops_per_round = 2 * len(ROUTES)
    tail_pct = 90
    min_ops = 100
    trace_rounds = 20

    def make_op(self, slot: int) -> Op:
        method, kind, base = ROUTES[slot // 2]
        tied = slot % 2 == 1
        rng = self.rng

        def draw():
            if kind == "alpha":
                alpha = f"0.{rng.integers(50, 201):03d}"
                if method == "split" and tied:
                    # n + 1 a multiple of 1000: alpha (n + 1) is an integer,
                    # so the rank sits exactly on a level boundary.
                    n = 1000 * int(round(base / 1000 * rng.uniform(0.9, 1.1))) - 1
                else:
                    n = int(base * rng.uniform(0.9, 1.1))
                    if method == "crc" and (Fraction(alpha) * (n + 1)).denominator == 1:
                        # crc misses the rank on a level boundary (see
                        # CHANGES.md); such draws are left out.
                        return None
                return n, (("alpha", alpha),)
            eps = f"0.{rng.integers(5, 21):02d}"
            delta = f"0.{rng.integers(5, 21):02d}"
            return int(base * rng.uniform(0.9, 1.1)), (("eps", eps), ("delta", delta))

        n, level_items = self._fresh(draw)
        levels = dict(level_items)
        if tied:
            distinct = rng.standard_normal(n - int(TIE_SHARE * n))
            scores = np.concatenate(
                [distinct, rng.choice(distinct, n - distinct.size)]
            )
            rng.shuffle(scores)
        else:
            scores = rng.standard_normal(n)
        path = self.workdir / "scores.txt"
        _write_synced(path, "\n".join(map(repr, scores.tolist())))
        ordered = np.sort(scores)

        argv = ["calibrate", "--scores", str(path), "--method", method]
        for key, value in level_items:
            argv += [f"--{key}", value]

        def check(out: str) -> list[str]:
            return checks.check_calibrate(json.loads(out), ordered, method, levels)

        def wrong(out: str) -> str:
            return json.dumps(checks.wrong_rank(json.loads(out), ordered))

        return Op(argv, check, wrong)


# coverage-experiment: the synthetic CLI defaults, 200 trials per op.
EXPERIMENT = {"n": 1000, "n_test": 5000, "trials": 200, "eps": 0.1, "delta": 0.1}


class CoverageExperiment(_Workload):
    name = "coverage-experiment"
    trace_rounds = 40

    def make_op(self, slot: int) -> Op:
        seed = self._fresh(lambda: int(self.rng.integers(0, 2**31 - 1)))
        out_dir = self.workdir / "experiment"
        spec = dict(EXPERIMENT, seed=seed)
        argv = [
            "experiment", "--trials", str(spec["trials"]), "--seed", str(seed),
            "--out", str(out_dir),
        ]

        def check(out: str) -> list[str]:
            _sync_dir(out_dir)
            return checks.check_experiment(
                json.loads(out),
                json.loads((out_dir / "summary.json").read_text()),
                checks.read_trials(out_dir / "trials.csv"),
                spec,
            )

        def wrong(out: str) -> str:
            # Nudge both copies, so only the recomputation can catch it.
            bad = json.dumps(checks.nudge_c_bar(json.loads(out)))
            (out_dir / "summary.json").write_text(bad)
            return bad

        return Op(argv, check, wrong)


# exact-inversions: one fresh n near 10^6 per op at the paper's headline
# level, i.e. one sup-k and one inf-p inversion at that n.
INVERSION_LEVELS = ["0.1"]
INVERSION_N = (950_000, 1_050_000)


class ExactInversions(_Workload):
    name = "exact-inversions"
    trace_rounds = 80

    def make_op(self, slot: int) -> Op:
        n = self._fresh(lambda: int(self.rng.integers(*INVERSION_N)))
        argv = ["tables", "--n", str(n), "--levels", *INVERSION_LEVELS]
        return Op(
            argv,
            lambda out: checks.check_tables(out, n, INVERSION_LEVELS),
            checks.bump_count_cell,
        )


WORKLOADS = {w.name: w for w in (CalibrateRoutes, CoverageExperiment, ExactInversions)}

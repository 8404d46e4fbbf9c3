"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criteria 7 and 8 run the ``sandwich`` and ``identity`` suites of
``conformal_kit.verify``, so each claim has one definition.  Criterion 6
is larger than the ``equivalence`` suite (1000 score sets with n < 200,
not 200 with n < 120), and criterion 9's per-count ``binom_cdf`` oracle
is independent of the pmf table ``superuniform`` reads, so both keep
their own bodies.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conformal_kit.calibration import (
    NonconformityScores,
    Tolerance,
    p_hat,
    plan,
    q_hat,
)
from conformal_kit.dists import BetaParams, binom_cdf
from conformal_kit.experiments import (
    DEFAULT_SEED,
    gen_synthetic,
    reference_law,
    run_trials,
    summarize,
    tolerance_tables,
)
from conformal_kit.predictors import (
    KnnQuantileConfig,
    fit_knn_quantile,
    tune_nominal_quantiles,
)
from conformal_kit.risk import Losses, crc_lambda, ltt_lambda, ucb_lambda
from conformal_kit.verify import identity_suite, sandwich_suite

# Published reference tables.  Rows: delta = 10%, 5%, 1%, 0.5%, 0.1%;
# columns: eps (resp. alpha) at the same levels.
COUNT_TABLE = {
    100: [
        [5, 1, 0, 0, 0],
        [4, 1, 0, 0, 0],
        [3, 0, 0, 0, 0],
        [2, 0, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ],
    1000: [
        [87, 40, 5, 1, 0],
        [84, 38, 4, 1, 0],
        [78, 34, 2, 0, 0],
        [75, 32, 2, 0, 0],
        [71, 29, 1, 0, 0],
    ],
    10000: [
        [961, 471, 86, 40, 5],
        [950, 463, 83, 38, 4],
        [930, 449, 77, 33, 2],
        [922, 444, 74, 32, 2],
        [907, 433, 70, 29, 1],
    ],
    100000: [
        [9878, 4911, 959, 471, 86],
        [9843, 4886, 948, 463, 83],
        [9779, 4839, 927, 448, 77],
        [9755, 4822, 919, 442, 74],
        [9707, 4787, 903, 432, 70],
    ],
}

EPS_TABLE = {
    100: [
        ["13.8351", "7.8347", "2.2762", "0.0000", "0.0000"],
        ["15.1795", "8.9196", "2.9513", "0.0000", "0.0000"],
        ["17.8746", "11.1704", "4.5007", "0.0000", "0.0000"],
        ["18.9152", "12.0632", "5.1604", "0.0000", "0.0000"],
        ["21.1465", "14.0165", "6.6745", "0.0000", "0.0000"],
    ],
    1000: [
        ["11.2203", "5.8942", "1.4169", "0.7977", "0.2299"],
        ["11.5924", "6.1758", "1.5652", "0.9129", "0.2991"],
        ["12.3092", "6.7257", "1.8691", "1.1560", "0.4594"],
        ["12.5776", "6.9342", "1.9888", "1.2540", "0.5284"],
        ["13.1413", "7.3760", "2.2503", "1.4714", "0.6883"],
    ],
    10000: [
        ["10.3850", "5.2806", "1.1293", "0.5921", "0.1420"],
        ["10.4968", "5.3629", "1.1689", "0.6213", "0.1569"],
        ["10.7085", "5.5196", "1.2456", "0.6783", "0.1877"],
        ["10.7865", "5.5776", "1.2744", "0.7001", "0.1998"],
        ["10.9486", "5.6985", "1.3353", "0.7462", "0.2264"],
    ],
    100000: [
        ["10.1216", "5.0884", "1.0405", "0.5287", "0.1130"],
        ["10.1563", "5.1138", "1.0522", "0.5372", "0.1169"],
        ["10.2217", "5.1616", "1.0746", "0.5533", "0.1247"],
        ["10.2457", "5.1791", "1.0828", "0.5593", "0.1276"],
        ["10.2953", "5.2154", "1.1000", "0.5717", "0.1337"],
    ],
}


def _verdict(num: int, ok: bool, msg: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {msg}"
    print(line)
    return line


def _block(table: str, n: int):
    lines = table.splitlines()
    start = lines.index(f"n = {n}") + 2
    return [line.split()[1:] for line in lines[start : start + 5]]


def test_criterion_1_count_table():
    t0 = time.perf_counter()
    counts, _ = tolerance_tables()
    elapsed = time.perf_counter() - t0
    bad = sum(
        got != want
        for n, rows in COUNT_TABLE.items()
        for got, want in zip(
            [[int(c) for c in row] for row in _block(counts, n)], rows
        )
    )
    ok = bad == 0 and elapsed < 5.0
    line = _verdict(
        1, ok, f"count table {100 - 20 * bad}/100 cells, {elapsed:.2f}s (< 5s)"
    )
    assert ok, line


def test_criterion_2_smallest_eps_table():
    t0 = time.perf_counter()
    _, eps_table = tolerance_tables()
    elapsed = time.perf_counter() - t0
    cells = 0
    for n, rows in EPS_TABLE.items():
        got = _block(eps_table, n)
        cells += sum(g == w for grow, wrow in zip(got, rows) for g, w in zip(grow, wrow))
    ok = cells == 100 and elapsed < 30.0
    line = _verdict(2, ok, f"eps table {cells}/100 cells, {elapsed:.2f}s (< 30s)")
    assert ok, line


def test_criterion_3_duality_spot():
    dual = plan(1000, Tolerance(0.1, 0.1)).dual
    coverage_pct = round(100 * (1 - float(dual.alpha)), 2)
    res = p_hat(NonconformityScores(np.arange(1.0, 1001.0)), 0.1, 0.1)
    ok = (
        dual.alpha == Fraction(88, 1001)
        and coverage_pct == 91.21
        and res.order_index == 913
    )
    line = _verdict(
        3,
        ok,
        f"alpha = {dual.alpha} (0.0879), coverage {coverage_pct}%, "
        f"order index {res.order_index}",
    )
    assert ok, line


@pytest.fixture(scope="module")
def synthetic_experiment():
    root = np.random.SeedSequence(DEFAULT_SEED)
    train_seq, pool_seq = root.spawn(2)
    train = gen_synthetic(1000, int(train_seq.generate_state(1)[0]))
    pool = gen_synthetic(6000, int(pool_seq.generate_state(1)[0]))
    target = Tolerance(0.1, 0.1)
    tuned = tune_nominal_quantiles(train, target=target, k=50, seed=DEFAULT_SEED)
    base = fit_knn_quantile(train, KnnQuantileConfig(50, *tuned.selected))
    law = reference_law(1000, target)
    reports = run_trials(
        base, pool, 1000, 5000, 1000, target, master_seed=DEFAULT_SEED
    )
    return law, summarize(reports, law, eps=0.1, delta=0.1, n_test=5000)


def test_criterion_4_synthetic_experiment(synthetic_experiment):
    _, s = synthetic_experiment
    ok = 0.910 <= s.c_bar <= 0.915 and 0.07 <= s.delta_bar <= 0.13
    line = _verdict(
        4,
        ok,
        f"c_bar = {s.c_bar:.4f} in [0.910, 0.915] (published 0.9122), "
        f"delta_bar = {s.delta_bar:.4f} in [0.07, 0.13] (published 0.097), "
        f"mean length {s.mean_length:.2f} (qualitative only)",
    )
    assert ok, line


def test_criterion_5_coverage_law(synthetic_experiment):
    law, s = synthetic_experiment
    cutoff = 1.36 / math.sqrt(1000)
    ok = (
        law == BetaParams(913, 88)
        and s.ks_distance < cutoff
        and s.dominance_gap < cutoff
    )
    line = _verdict(
        5,
        ok,
        f"KS = {s.ks_distance:.4f} < {cutoff:.4f} vs BetaBin(5000, 913, 88), "
        f"dominance gap = {s.dominance_gap:.4f}",
    )
    assert ok, line


def test_criterion_6_route_equivalence():
    rng = np.random.default_rng(0)
    crc_bad = ucb_bad = 0
    for t in range(1000):
        n = int(rng.integers(1, 200))
        vals = rng.normal(size=n)
        if t % 2:
            vals = np.round(vals, 1)
        scores = NonconformityScores(vals)
        curves = Losses.zero_one(scores.values)
        alpha = float(rng.uniform(0.01, 0.9))
        if crc_lambda(curves, alpha) != q_hat(scores, alpha).lambda_hat:
            crc_bad += 1
        eps = float(rng.uniform(0.02, 0.6))
        delta = float(rng.uniform(0.02, 0.6))
        if ucb_lambda(curves, eps, delta) != p_hat(scores, eps, delta).lambda_hat:
            ucb_bad += 1

    gap_bad = 0
    for _ in range(5):
        n = 40
        vals = np.sort(rng.normal(size=n))
        scores = NonconformityScores(vals)
        curves = Losses.zero_one(vals)
        eps = float(rng.uniform(0.1, 0.5))
        delta = float(rng.uniform(0.1, 0.5))
        lam_u = ucb_lambda(curves, eps, delta)
        grid = np.linspace(vals[0] - 0.5, vals[-1] + 0.5, 10_000)
        step = grid[1] - grid[0]
        lam_l = ltt_lambda(curves, eps, delta, grid)
        if math.isinf(lam_u):
            gap_bad += lam_l != math.inf
        else:
            gap_bad += not (lam_u <= lam_l <= lam_u + step)
    ok = crc_bad == 0 and ucb_bad == 0 and gap_bad == 0
    line = _verdict(
        6,
        ok,
        f"1000 score sets: crc mismatches {crc_bad}, ucb mismatches {ucb_bad}; "
        f"ltt within one step of ucb on 10^4-point grid ({5 - gap_bad}/5 sets)",
    )
    assert ok, line


def test_criterion_7_brute_force_sandwich():
    result = sandwich_suite()
    violations = len(result.detail["violations"])
    line = _verdict(
        7,
        result.passed,
        f"exact coverage in [1-a, 1-a+1/(n+1)] for all {result.detail['cases']} "
        f"(n, alpha) enumerations, {violations} violations",
    )
    assert result.passed, line


def test_criterion_8_tail_identity():
    result = identity_suite()
    line = _verdict(
        8,
        result.passed,
        f"max |Beta tail - Bin tail| = {result.detail['max_abs_diff']:.3e} "
        f"on {result.detail['grid']} grid (< {result.detail['tolerance']:g})",
    )
    assert result.passed, line


def test_criterion_9_super_uniformity_and_fwer():
    rng = np.random.default_rng(11)
    n, eps, delta = 60, 0.1, 0.1
    worlds = 2000

    counts = rng.binomial(n, eps, size=worlds)
    pvals = np.array([binom_cdf(int(c), n, eps) for c in counts])
    grid_u = np.round(np.arange(0.01, 1.00, 0.01), 2)
    excess = max(
        float(np.mean(pvals <= u)) - (u + 3.0 * math.sqrt(u * (1 - u) / worlds))
        for u in grid_u
    )

    lam_grid = np.arange(1.0, 6.0)
    risks = eps + 0.05 * (len(lam_grid) - 1 - np.arange(len(lam_grid)))
    bad = risks > eps
    n_cal = 80
    hits = 0
    for _ in range(worlds):
        u = rng.uniform(size=n_cal)
        world_counts = (u[:, None] < risks[None, :]).sum(axis=0)
        selected_bad = False
        for j in range(len(lam_grid) - 1, -1, -1):
            if binom_cdf(int(world_counts[j]), n_cal, eps) > delta:
                break
            if bad[j]:
                selected_bad = True
        hits += selected_bad
    fwer = hits / worlds
    fwer_bound = delta + 3.0 * math.sqrt(delta * (1 - delta) / worlds)

    ok = excess <= 0.0 and fwer <= fwer_bound
    line = _verdict(
        9,
        ok,
        f"max P[p <= u] - (u + 3 sigma) = {excess:.4f} (<= 0) on u grid; "
        f"FWER = {fwer:.4f} <= {fwer_bound:.4f} at delta = 0.1",
    )
    assert ok, line

"""Self-check suites behind the ``verify`` subcommand.

Each suite re-derives one of the package's load-bearing claims at runtime
and returns a machine-readable verdict: the duality round trips between
marginal and tolerance levels, the exact agreement of the risk-control
routes with quantile calibration on 0-1 losses, the brute-force coverage
sandwich on tiny calibration sets, the order-statistic tail identity
between the two independent CDF implementations, the coverage-law KS
check on a seeded synthetic experiment, and p-value super-uniformity
with family-wise error control of the fixed-sequence procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calibration import (
    NonconformityScores,
    Tolerance,
    marginal_bounds,
    p_hat,
    plan,
    q_hat,
    tolerance_delta_given_alpha,
    tolerance_eps_given_alpha,
)
from .dists import BetaParams, _binom_table, beta_reg, binom_cdf
from .experiments import gen_synthetic, run_trials, summarize
from .predictors import KnnQuantileConfig, fit_knn_quantile
from .risk import Losses, crc_lambda, ltt_lambda, ucb_lambda

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suites"]

# continuous score sets, and grid points on each, of the ltt gap check
_LTT_GRID_SETS = 5
_LTT_GRID_SIZE = 10_000
# largest beta-versus-binomial tail difference the identity suite accepts
_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class SuiteResult:
    """Verdict of one self-check suite plus its headline numbers."""

    name: str
    passed: bool
    detail: dict


def duality_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Round-trip the marginal/tolerance conversions on random settings.

    Checks, per draw of (n, alpha, eps, delta): the smallest achievable
    eps at (alpha, delta) indeed consumes at most delta; the left end and
    the middle of a tolerance plan's sharing interval, read as marginal
    levels, select the plan's own order index; and the exact marginal
    coverage mean sits inside its stated bounds.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    checked = 0
    for _ in range(trials):
        n = int(rng.integers(1, 400))
        alpha = float(rng.uniform(0.01, 0.6))
        eps = float(rng.uniform(0.01, 0.6))
        delta = float(rng.uniform(0.01, 0.6))
        checked += 1

        eps_min = tolerance_eps_given_alpha(n, alpha, delta)
        if 0.0 < eps_min < 1.0:
            if tolerance_delta_given_alpha(n, alpha, eps_min) > delta:
                failures += 1

        tol = plan(n, Tolerance(eps, delta))
        if not tol.full_set:
            lo, hi = tol.dual.interval
            same = all(
                math.ceil((1 - a) * (n + 1)) == tol.order_index
                for a in (lo, (lo + hi) / 2)
            )
            if not same:
                failures += 1

        bounds = marginal_bounds(n, alpha)
        mean = float(bounds.exact_mean)
        if not (bounds.lo <= mean <= bounds.hi + 1e-15):
            failures += 1
    return SuiteResult(
        name="duality",
        passed=failures == 0,
        detail={"trials": checked, "failures": failures},
    )


def equivalence_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Risk-control routes against quantile calibration on 0-1 losses.

    Draws random score sets (half of them rounded to force ties) and
    demands bitwise equality of crc with the marginal calibrator and of
    exact-binomial ucb with the tolerance calibrator.  Then, on a few
    continuous sets, checks that the smallest threshold kept by
    fixed-sequence testing sits at or above the ucb choice, within one
    grid step of it.
    """
    rng = np.random.default_rng(seed)
    crc_bad = 0
    ucb_bad = 0
    for t in range(trials):
        n = int(rng.integers(1, 120))
        vals = rng.standard_normal(n)
        if t % 2:
            vals = np.round(vals, 1)
        scores = NonconformityScores(vals)
        losses = Losses.zero_one(vals)

        alpha = float(rng.uniform(0.02, 0.95))
        if crc_lambda(losses, alpha) != q_hat(scores, alpha).lambda_hat:
            crc_bad += 1

        eps = float(rng.uniform(0.02, 0.6))
        delta = float(rng.uniform(0.02, 0.6))
        if ucb_lambda(losses, eps, delta) != p_hat(scores, eps, delta).lambda_hat:
            ucb_bad += 1

    ltt_bad = 0
    max_gap = 0.0
    for _ in range(_LTT_GRID_SETS):
        vals = rng.standard_normal(40)
        losses = Losses.zero_one(vals)
        eps, delta = 0.2, 0.2
        lam_ucb = ucb_lambda(losses, eps, delta)
        grid = np.linspace(vals.min() - 0.5, vals.max() + 0.5, _LTT_GRID_SIZE)
        step = float(grid[1] - grid[0])
        lam_ltt = ltt_lambda(losses, eps, delta, grid)
        ltt_bad += not lam_ucb <= lam_ltt <= lam_ucb + step
        if math.isfinite(lam_ucb) and math.isfinite(lam_ltt):
            max_gap = max(max_gap, abs(lam_ltt - lam_ucb))

    failures = crc_bad + ucb_bad + ltt_bad
    return SuiteResult(
        name="equivalence",
        passed=failures == 0,
        detail={
            "trials": trials,
            "crc_mismatches": crc_bad,
            "ucb_mismatches": ucb_bad,
            "ltt_gap_violations": ltt_bad,
            "ltt_max_gap": max_gap,
        },
    )


def sandwich_suite() -> SuiteResult:
    """Exact marginal coverage bracket by exhaustive rank enumeration.

    For tiny n, every placement of the test point among n + 1 distinct
    values is equally likely, so exact coverage is a rational count.  It
    must land in [1 - alpha, 1 - alpha + 1/(n+1)] with no float slack.
    """
    levels = (Fraction(1, 10), Fraction(2, 10), Fraction(3, 10))
    cases = [(n, alpha) for n in range(2, 7) for alpha in levels]
    violations = []
    for n, alpha in cases:
        base = np.arange(1.0, n + 2.0)
        covered = 0
        for t in range(n + 1):
            cal = np.delete(base, t)
            lam = q_hat(NonconformityScores(cal), alpha).lambda_hat
            covered += base[t] <= lam
        cov = Fraction(covered, n + 1)
        if not 1 - alpha <= cov <= 1 - alpha + Fraction(1, n + 1):
            violations.append((n, float(alpha), float(cov)))
    return SuiteResult(
        name="sandwich",
        passed=not violations,
        detail={"cases": len(cases), "violations": violations},
    )


def identity_suite() -> SuiteResult:
    """Beta tail versus binomial tail through two independent routes.

    Beta(1 - p; m + 1 - k, k) = Bin(k - 1; m, p) on a (k, m, p) grid; the
    left side goes through the regularized incomplete beta function, the
    right through the ratio-recurrence binomial CDF, so agreement checks
    both implementations at once.
    """
    worst = 0.0
    for k in range(1, 11):
        for m in range(10, 101, 10):
            for p10 in range(1, 10):
                p = p10 / 10.0
                left = beta_reg(1.0 - p, BetaParams(m + 1 - k, k))
                right = binom_cdf(k - 1, m, p)
                worst = max(worst, abs(left - right))
    return SuiteResult(
        name="identity",
        passed=worst < _IDENTITY_TOL,
        detail={"grid": "10x10x9", "max_abs_diff": worst, "tolerance": _IDENTITY_TOL},
    )


def ks_suite(trials: int = 200, seed: int = 7) -> SuiteResult:
    """Coverage-law agreement on a seeded synthetic experiment.

    Runs a reduced tolerance-calibration experiment and compares the
    empirical law of the trial coverages with its beta-binomial
    reference: the KS distance and the one-sided excess of the empirical
    CDF must stay below the 5% critical value 1.36 / sqrt(trials).
    """
    n, n_test = 500, 800
    target = Tolerance(0.1, 0.1)
    root = np.random.SeedSequence(seed)
    train_seed, pool_seed = (int(s.generate_state(1)[0]) for s in root.spawn(2))
    train = gen_synthetic(400, train_seed)
    pool = gen_synthetic(n + n_test, pool_seed)
    base = fit_knn_quantile(train, KnnQuantileConfig())
    planned = plan(n, target)
    reports = run_trials(base, pool, n, n_test, trials, planned, master_seed=seed)
    summary = summarize(reports, planned.law, eps=0.1, delta=0.1, n_test=n_test)
    threshold = 1.36 / math.sqrt(trials)
    passed = summary.ks_distance < threshold and summary.dominance_gap < threshold
    return SuiteResult(
        name="ks",
        passed=passed,
        detail={
            "trials": trials,
            "ks_distance": summary.ks_distance,
            "dominance_gap": summary.dominance_gap,
            "threshold": threshold,
        },
    )


def superuniform_suite(trials: int = 2000, seed: int = 0) -> SuiteResult:
    """P-value super-uniformity and fixed-sequence FWER at the null.

    Simulates boundary-null worlds (losses exactly at risk eps) and
    checks P[p <= u] <= u plus Monte Carlo slack on a u-grid; then builds
    staircase loss worlds whose risk exceeds eps strictly below the top
    threshold and confirms the fixed-sequence walk selects a harmful
    threshold in at most a delta + slack fraction of worlds.  The walk
    keeps a suffix of the grid and the risks fall along it, so a world
    selects a harmful threshold exactly when the returned one is harmful.
    """
    eps, delta, n = 0.1, 0.1, 60
    rng = np.random.default_rng(seed)

    counts = rng.binomial(n, eps, size=trials)
    sample = _binom_table(n, eps, 0, int(counts.max(initial=0)))[counts]
    grid_u = np.arange(0.01, 1.0, 0.01)
    slack_u = 3.0 * np.sqrt(grid_u * (1.0 - grid_u) / trials)
    emp = (sample[:, None] <= grid_u[None, :]).mean(axis=0)
    u_excess = float(np.max(emp - (grid_u + slack_u)))

    lam_grid = np.arange(1.0, 6.0)
    risks = eps + 0.05 * (len(lam_grid) - 1 - np.arange(len(lam_grid)))
    # the step below the grid shares the risk at its first point
    step_risks = np.concatenate((risks[:1], risks))
    false_hits = 0
    for _ in range(trials):
        u = rng.uniform(size=n)
        losses = Losses.steps(lam_grid, u[:, None] < step_risks, bound=1.0)
        lam = ltt_lambda(losses, eps, delta, lam_grid)
        if lam < math.inf and risks[int(np.searchsorted(lam_grid, lam))] > eps:
            false_hits += 1
    fwer = false_hits / trials
    fwer_bound = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)

    passed = u_excess <= 0.0 and fwer <= fwer_bound
    return SuiteResult(
        name="superuniform",
        passed=passed,
        detail={
            "worlds": trials,
            "max_uniformity_excess": u_excess,
            "fwer": fwer,
            "fwer_bound": fwer_bound,
        },
    )


# name -> (suite, whether it takes the trials and seed overrides)
_SUITES = {
    "duality": (duality_suite, True),
    "equivalence": (equivalence_suite, True),
    "sandwich": (sandwich_suite, False),
    "identity": (identity_suite, False),
    "ks": (ks_suite, True),
    "superuniform": (superuniform_suite, True),
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names=SUITE_NAMES, trials: int | None = None, seed: int | None = None
) -> list[SuiteResult]:
    """Run the named suites with optional trial-count and seed overrides.

    A trial count below 1 is a ValueError, raised before any suite runs.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    overrides = {
        key: value
        for key, value in (("trials", trials), ("seed", seed))
        if value is not None
    }
    results = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
        suite, takes_overrides = _SUITES[name]
        results.append(suite(**overrides) if takes_overrides else suite())
    return results

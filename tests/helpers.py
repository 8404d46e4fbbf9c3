"""Independent oracles used by the test suite.

Everything here is deliberately implemented with tools the library itself
does not use for the quantity under test (mpmath multi-precision, exact
Fraction arithmetic, scipy.stats reference distributions), so that each
numerical claim is checked through two unrelated routes.  The two
``*_bisect`` searches are the exception: plain bisections with every probe
evaluated by the package's own ``binom_cdf``.  ``binom_sup_k_bisect`` is
the reference ``binom_sup_k``'s one-chain read must match, and
``binom_inf_p_bisect`` the one the bracketed ``binom_inf_p`` must match
bit for bit; ``ltt_walk`` replays ``ltt_lambda`` with one ``binom_cdf``
p-value per grid point and the fixed-sequence walk taken one point at a
time, ``ucb_scan`` replays exact-binomial ``ucb_lambda`` with one
``binom_inf_p`` per candidate threshold, and ``crc_scan`` replays
``crc_lambda`` with one exact comparison per candidate.
Likewise the two harness loops at the end replay ``tune_nominal_quantiles``
with one fitted predictor per (candidate, fold) and ``run_trials`` with the
scores recomputed in every trial: the references for the shared-work
versions.
"""

import csv
import math
from fractions import Fraction
from math import comb

import mpmath
import numpy as np

from conformal_kit._rational import on_grid
from conformal_kit.calibration import NonconformityScores, plan
from conformal_kit.dists import binom_cdf, binom_inf_p
from conformal_kit.experiments import Dataset, TrialReport
from conformal_kit.predictors import KnnQuantileConfig, fit_knn_quantile


def binom_cdf_mp(k: int, n: int, p, dps: int = 40) -> mpmath.mpf:
    """Binomial CDF via the regularized incomplete beta in mpmath.

    Bin(k; n, p) = I_{1-p}(n-k, k+1) for 0 <= k < n.
    """
    if k < 0:
        return mpmath.mpf(0)
    if k >= n:
        return mpmath.mpf(1)
    with mpmath.workdps(dps):
        return mpmath.betainc(n - k, k + 1, 0, 1 - mpmath.mpf(p), regularized=True)


def binom_cdf_mpsum(k: int, n: int, p, dps: int = 50) -> mpmath.mpf:
    """Binomial CDF by direct multi-precision summation over a window.

    Sums pmf terms from log-gamma at dps digits, restricted to a window of
    14 standard deviations plus 80 terms around the smaller tail; the
    neglected mass is far below the working precision.  Handles n up to
    10^6, where the betainc route becomes unreliable.
    """
    if k < 0:
        return mpmath.mpf(0)
    if k >= n:
        return mpmath.mpf(1)
    with mpmath.workdps(dps):
        pp = mpmath.mpf(p)
        q = 1 - pp
        sigma = mpmath.sqrt(n * pp * q)
        width = int(14 * sigma) + 80

        def log_pmf(i):
            return (
                mpmath.loggamma(n + 1)
                - mpmath.loggamma(i + 1)
                - mpmath.loggamma(n - i + 1)
                + i * mpmath.log(pp)
                + (n - i) * mpmath.log(q)
            )

        def tail_sum(lo, hi):
            return mpmath.fsum(mpmath.e ** log_pmf(i) for i in range(lo, hi + 1))

        if k <= n * pp:
            return tail_sum(max(0, k - width), k)
        return 1 - tail_sum(k + 1, min(n, k + 1 + width))


def binom_cdf_exact(k: int, n: int, p: Fraction) -> Fraction:
    """Binomial CDF by exact rational summation. Small n only."""
    if k < 0:
        return Fraction(0)
    k = min(k, n)
    q = 1 - p
    return sum(comb(n, i) * p**i * q ** (n - i) for i in range(k + 1))


def binom_inf_p_mp(k: int, n: int, delta, dps: int = 40) -> mpmath.mpf:
    """Root of Bin(k; n, p) = delta in p, by 2 * dps mpmath halvings."""
    if k < 0:
        return mpmath.mpf(0)
    if k >= n:
        return mpmath.mpf(1)
    with mpmath.workdps(dps):
        d = mpmath.mpf(delta)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(dps * 2):
            mid = (lo + hi) / 2
            if binom_cdf_mp(k, n, mid, dps=dps) <= d:
                hi = mid
            else:
                lo = mid
        return hi


def binom_sup_k_exact(n: int, eps: Fraction, delta: Fraction) -> int | None:
    """Largest k with Bin(k; n, eps) <= delta by exact summation; None if none."""
    total = Fraction(0)
    q = 1 - eps
    best = None
    for k in range(n + 1):
        total += comb(n, k) * eps**k * q ** (n - k)
        if total <= delta:
            best = k
        else:
            break
    return best


def betabin_pmf_exact(i: int, trials: int, a: int, b: int) -> Fraction:
    """Beta-binomial pmf for integer shape parameters, exact."""
    # C(n,i) * B(i+a, n-i+b) / B(a,b) with integer a, b
    from math import factorial

    n = trials
    num = Fraction(factorial(i + a - 1) * factorial(n - i + b - 1), factorial(n + a + b - 1))
    den = Fraction(factorial(a - 1) * factorial(b - 1), factorial(a + b - 1))
    return comb(n, i) * num / den


def betabin_cdf_exact(k: int, trials: int, a: int, b: int) -> Fraction:
    if k < 0:
        return Fraction(0)
    k = min(k, trials)
    return sum(betabin_pmf_exact(i, trials, a, b) for i in range(k + 1))


def beta_cdf_mp(x, a, b, dps: int = 40) -> mpmath.mpf:
    with mpmath.workdps(dps):
        return mpmath.betainc(a, b, 0, mpmath.mpf(x), regularized=True)


def binom_sup_k_bisect(n: int, eps: float, delta: float) -> int:
    """``binom_sup_k`` as a plain bisection that calls binom_cdf at every probe."""
    if binom_cdf(0, n, eps) > delta:
        return -1
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if binom_cdf(mid, n, eps) <= delta:
            lo = mid
        else:
            hi = mid
    return lo


def binom_inf_p_bisect(k: int, n: int, delta: float) -> float:
    """``binom_inf_p`` as a plain bisection that calls binom_cdf at every probe."""
    k = math.floor(k)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if binom_cdf(k, n, mid) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def ltt_walk(losses, eps: float, delta: float, grid=None) -> float:
    """``ltt_lambda`` as a p-value per grid point and a loop down the grid.

    p_j = Bin(count_j; n, eps) with count_j the exact 0-1 loss sum at
    lam_j.  The walk starts at the largest threshold, keeps every lam_j
    with p_j <= delta and stops at the first one above; the smallest kept
    threshold is returned, +inf when none is kept.
    """
    lam = losses.lambdas if grid is None else np.asarray(grid, dtype=float)
    pvals = []
    for l in lam.tolist():
        total = losses.total(l)
        count = int(total)
        assert count == total, "the binomial p-value needs 0-1 losses"
        pvals.append(binom_cdf(count, losses.n, eps))
    chosen = []
    for l, p in zip(lam.tolist()[::-1], pvals[::-1]):
        if p > delta:
            break
        chosen.append(l)
    return min(chosen) if chosen else math.inf


def ucb_scan(losses, eps: float, delta: float) -> float:
    """Exact-binomial ``ucb_lambda`` as one ``binom_inf_p`` per candidate.

    The candidates are +inf, the finite breakpoints from the top down and
    -inf.  The scan keeps each while the smallest p with
    Bin(count; n, p) <= delta stays within eps, stops at the first one
    that fails and returns the last one kept, +inf when none is.
    """
    lam = losses.lambdas
    finite = lam[np.isfinite(lam)].tolist()
    kept = math.inf
    for l in [math.inf, *finite[::-1], -math.inf]:
        total = losses.total(l)
        count = int(total)
        assert count == total, "the binomial bound needs 0-1 losses"
        if binom_inf_p(count, losses.n, delta) > eps:
            break
        kept = l
    return kept


def crc_scan(losses, alpha) -> float:
    """``crc_lambda`` as one exact comparison per candidate threshold.

    The candidates are -inf, the finite breakpoints from the bottom up and
    +inf.  The scan returns the first whose loss sum s meets
    s + B <= alpha (n + 1) in Fraction arithmetic, alpha moved onto the
    grid j/(n + 1) by ``on_grid``, and +inf when none does.
    """
    n, bound = losses.n, Fraction(losses.bound)
    level = on_grid(alpha, n + 1)
    finite = losses.lambdas[np.isfinite(losses.lambdas)].tolist()
    for l in [-math.inf, *finite, math.inf]:
        if Fraction(losses.total(l)) + bound <= level * (n + 1):
            return l
    return math.inf


def sort_scores(values) -> np.ndarray:
    """Naive full-sort order-statistic oracle."""
    return np.sort(np.asarray(values, dtype=float))


def save_csv(dataset, path, label_column: str = "label") -> None:
    """Write a dataset as CSV (features first, label column last)."""
    p = dataset.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(p)] + [label_column])
        for row, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(y))])


def tune_per_fit(train, candidates, target, folds: int, k: int, seed: int):
    """(mean_lengths, selected) of the tuner, one k-NN fit per candidate and fold."""
    features, labels = train.features, train.labels
    n = labels.size
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = np.array_split(rng.permutation(n), folds)
    means = []
    for lo_level, hi_level in candidates:
        cfg = KnnQuantileConfig(k=k, lo_level=lo_level, hi_level=hi_level)
        fold_lengths = []
        for held in parts:
            mask = np.ones(n, dtype=bool)
            mask[held] = False
            pred = fit_knn_quantile(Dataset(features[mask], labels[mask]), cfg)
            lo, hi = pred.predict(features[held])
            scores = np.maximum(lo - labels[held], labels[held] - hi)
            rank = plan(held.size, target).order_index
            lam = NonconformityScores(scores).order_stat(rank)
            lengths = np.maximum(0.0, (hi - lo) + 2.0 * lam)
            fold_lengths.append(float(np.mean(lengths)))
        means.append(sum(fold_lengths) / folds)
    means = np.asarray(means)
    return means, tuple(candidates[int(np.argmin(means))])


def trials_per_gather(base, pool, n, n_test, R, target, master_seed):
    """The trial reports, gathering lo, hi and labels anew in every trial."""
    lo, hi = base.predict(pool.features)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    labels = pool.labels
    reports = []
    for j in range(R):
        seq = np.random.SeedSequence(master_seed, spawn_key=(j,))
        perm = np.random.default_rng(seq).permutation(labels.size)
        cal = perm[:n]
        test = perm[n : n + n_test]
        cal_scores = np.maximum(lo[cal] - labels[cal], labels[cal] - hi[cal])
        rank = plan(n, target).order_index
        lam = NonconformityScores(cal_scores).order_stat(rank)
        test_scores = np.maximum(lo[test] - labels[test], labels[test] - hi[test])
        lengths = np.maximum(0.0, (hi[test] - lo[test]) + 2.0 * lam)
        reports.append(
            TrialReport(
                trial_index=j,
                lambda_hat=float(lam),
                coverage=float(np.mean(test_scores <= lam)),
                avg_length=float(np.mean(lengths)),
                n=n,
                n_test=n_test,
            )
        )
    return reports


def float_bits(values) -> bytes:
    """The IEEE bytes of a sequence of floats, for bitwise comparison."""
    return np.asarray(values, dtype=float).tobytes()

"""Quantile and tolerance calibration, duality, and coverage laws."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_kit.calibration import (
    DualAlpha,
    DualTolerance,
    Marginal,
    NonconformityScores,
    Tolerance,
    marginal_bounds,
    p_hat,
    plan,
    q_hat,
    tolerance_delta_given_alpha,
    tolerance_eps_given_alpha,
)
from conformal_kit.dists import BetaParams, beta_reg
from conformal_kit.risk import Losses, crc_lambda

from helpers import sort_scores


def test_scores_sorted_with_sentinels():
    s = NonconformityScores([4.0, -1.0, 2.5, 2.5])
    assert s.n == 4
    assert list(s.values) == [-1.0, 2.5, 2.5, 4.0]
    assert s.order_stat(0) == -math.inf
    assert s.order_stat(5) == math.inf
    assert s.order_stat(1) == -1.0
    with pytest.raises(IndexError):
        s.order_stat(6)
    with pytest.raises(ValueError):
        NonconformityScores([])
    with pytest.raises(ValueError):
        NonconformityScores([1.0, float("nan")])


def test_q_hat_selects_order_statistic():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        vals = rng.normal(size=n)
        alpha = float(rng.uniform(0.005, 0.95))
        res = q_hat(NonconformityScores(vals), alpha)
        idx = math.ceil((1 - alpha) * (n + 1) - 1e-12)
        assert res.order_index == idx
        ordered = sort_scores(vals)
        if idx <= n:
            assert res.lambda_hat == ordered[idx - 1]
            assert not res.full_set
            assert res.law.a == idx and res.law.b == n + 1 - idx
        else:
            assert math.isinf(res.lambda_hat)
            assert res.full_set
            assert res.law is None


def test_q_hat_small_alpha_full_set():
    res = q_hat(NonconformityScores([1.0, 2.0, 3.0]), 0.05)
    assert res.order_index == 4
    assert res.lambda_hat == math.inf
    assert res.full_set
    assert res.law is None


def test_q_hat_boundary_rank_arithmetic():
    # alpha (n+1) integral: the rank must not slip by one ulp
    res = q_hat(NonconformityScores(np.arange(1.0, 10.0)), 0.1)
    assert res.order_index == 9 and res.lambda_hat == 9.0
    res = q_hat(NonconformityScores(np.arange(1.0, 20.0)), 0.2)
    assert res.order_index == 16 and res.lambda_hat == 16.0


def test_q_hat_dual_report():
    scores = NonconformityScores(np.arange(1.0, 1001.0))
    res = q_hat(scores, 0.1, eps=0.1, delta=0.1)
    assert isinstance(res.dual, DualTolerance)
    assert res.dual.delta_min == pytest.approx(0.48458229043407947, rel=1e-12)
    assert res.dual.eps_min == 0.11220307321122522
    bare = q_hat(scores, 0.1)
    assert bare.dual.delta_min is None and bare.dual.eps_min is None


def test_p_hat_reference_case():
    scores = NonconformityScores(np.arange(1.0, 1001.0))
    res = p_hat(scores, 0.1, 0.1)
    assert res.order_index == 913
    assert res.lambda_hat == 913.0
    assert res.law.a == 913 and res.law.b == 88
    assert isinstance(res.dual, DualAlpha)
    assert res.dual.alpha == Fraction(88, 1001)
    assert res.dual.interval == (Fraction(88, 1001), Fraction(89, 1001))
    assert not res.full_set


def test_p_hat_infeasible_pair():
    scores = NonconformityScores(np.arange(1.0, 51.0))
    res = p_hat(scores, 0.01, 0.05)  # 0.99^50 = 0.605 > 0.05
    assert res.full_set
    assert res.order_index == 51
    assert math.isinf(res.lambda_hat)
    assert res.law is None
    assert res.dual.alpha == Fraction(1, 51)


def test_p_hat_matches_rank_oracle():
    rng = np.random.default_rng(37)
    for _ in range(60):
        n = int(rng.integers(1, 400))
        vals = rng.normal(size=n)
        eps = float(rng.uniform(0.02, 0.5))
        delta = float(rng.uniform(0.02, 0.5))
        res = p_hat(NonconformityScores(vals), eps, delta)
        # independent route: largest k with exact binomial mass below delta
        k, total = None, 0.0
        for i in range(n + 1):
            total = scipy.stats.binom.cdf(i, n, eps)
            if total <= delta:
                k = i
            else:
                break
        if k is None:
            assert res.full_set
        else:
            assert res.order_index == n - k
            assert res.lambda_hat == sort_scores(vals)[n - k - 1]


def test_guarantee_validation():
    with pytest.raises(ValueError):
        Marginal(0.0)
    with pytest.raises(ValueError):
        Marginal(1.0)
    with pytest.raises(ValueError):
        Tolerance(0.1, 0.0)
    with pytest.raises(ValueError):
        Tolerance(1.2, 0.1)
    with pytest.raises(TypeError):
        plan(10, 0.1)


def test_delta_given_alpha_values():
    assert tolerance_delta_given_alpha(100, 0.005, 0.1) == 0.0
    got = tolerance_delta_given_alpha(1000, 0.1, 0.1)
    assert got == pytest.approx(scipy.stats.binom.cdf(99, 1000, 0.1), rel=1e-12)
    # non-trivial alpha floor: k = floor(alpha (n+1) - 1)
    got = tolerance_delta_given_alpha(57, 0.23, 0.4)
    assert got == pytest.approx(scipy.stats.binom.cdf(12, 57, 0.4), rel=1e-12)


def test_duality_round_trips():
    rng = np.random.default_rng(43)
    for _ in range(80):
        n = int(rng.integers(1, 500))
        alpha = float(rng.uniform(0.01, 0.6))
        delta = float(rng.uniform(0.01, 0.6))
        eps_min = tolerance_eps_given_alpha(n, alpha, delta)
        if 0.0 < eps_min < 1.0:
            assert tolerance_delta_given_alpha(n, alpha, eps_min) <= delta


@st.composite
def grid_levels(draw, n):
    """A level j/(n + 1), j in 1..n, or one ulp to either side of it."""
    base = draw(st.integers(1, n)) / (n + 1)
    return draw(
        st.sampled_from([math.nextafter(base, 0.0), base, math.nextafter(base, 1.0)])
    )


def near(level: Fraction) -> list:
    """The exact level and the floats at and one ulp either side of it."""
    x = float(level)
    return [level, math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


sizes = st.integers(1, 2000)
free_levels = st.floats(1e-3, 0.999)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_alpha_given_tolerance_round_trip_property(data):
    # every level in the dual interval [j, j + 1)/(n + 1) selects the
    # tolerance rank; the right end already selects the next one down
    n = data.draw(sizes)
    eps = data.draw(st.one_of(grid_levels(n), free_levels))
    delta = data.draw(st.one_of(grid_levels(n), free_levels))
    tol = plan(n, Tolerance(eps, delta))
    dual = tol.dual
    rank = tol.order_index
    j = dual.alpha * (n + 1)
    assert j.denominator == 1
    if tol.full_set:
        assert rank == n + 1 and plan(n, Marginal(dual.alpha / 2)).full_set
        return
    for alpha in near(dual.alpha):
        assert plan(n, Marginal(alpha)).order_index == rank, alpha
    if j + 1 <= n:
        for alpha in near(Fraction(j + 1, n + 1)):
            assert plan(n, Marginal(alpha)).order_index == rank - 1, alpha


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_delta_given_alpha_round_trip_property(data):
    # the smallest delta admits the marginal rank; one ulp less does not
    n = data.draw(sizes)
    alpha = data.draw(grid_levels(n))
    eps = data.draw(st.one_of(grid_levels(n), free_levels))
    d = tolerance_delta_given_alpha(n, alpha, eps)
    rank = plan(n, Marginal(alpha)).order_index
    if 0.0 < d < 1.0:
        assert plan(n, Tolerance(eps, d)).order_index <= rank
    below = math.nextafter(d, 0.0)
    if 0.0 < below < 1.0:
        assert plan(n, Tolerance(eps, below)).order_index > rank


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_eps_given_alpha_round_trip_property(data):
    # the smallest eps admits the marginal rank; one ulp less does not
    n = data.draw(sizes)
    alpha = data.draw(grid_levels(n))
    delta = data.draw(st.one_of(grid_levels(n), free_levels))
    e = tolerance_eps_given_alpha(n, alpha, delta)
    rank = plan(n, Marginal(alpha)).order_index
    if 0.0 < e < 1.0:
        assert plan(n, Tolerance(e, delta)).order_index <= rank
        assert tolerance_delta_given_alpha(n, alpha, e) <= delta
    below = math.nextafter(e, 0.0)
    if 0.0 < below < 1.0:
        assert plan(n, Tolerance(below, delta)).order_index > rank


@pytest.mark.parametrize(
    "n, coverage_pct",
    [(1000, 91.21), (4354, 90.59), (864, 91.33), (797, 91.35), (412, 92.01)],
)
def test_alpha_given_tolerance_dataset_targets(n, coverage_pct):
    alpha = plan(n, Tolerance(0.1, 0.1)).dual.alpha
    assert round(100 * (1 - float(alpha)), 2) == coverage_pct


def test_alpha_equivalence_interval_shares_index():
    # every alpha in [ (k+1)/(n+1), (k+2)/(n+1) ) picks the same rank
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(2, 300))
        eps = float(rng.uniform(0.05, 0.5))
        delta = float(rng.uniform(0.05, 0.5))
        tol = plan(n, Tolerance(eps, delta))
        dual = tol.dual
        if tol.full_set:
            continue
        vals = rng.normal(size=n)
        scores = NonconformityScores(vals)
        idx = p_hat(scores, eps, delta).order_index
        k = int(dual.alpha * (n + 1)) - 1
        inside = (dual.alpha + Fraction(k + 2, n + 1)) / 2
        assert q_hat(scores, dual.alpha).order_index == idx
        assert q_hat(scores, inside).order_index == idx
        just_above = Fraction(k + 2, n + 1)
        if just_above < 1:
            assert q_hat(scores, just_above).order_index == idx - 1


def test_marginal_bounds_exact():
    b = marginal_bounds(10, 0.2)
    assert b.lo == 0.8
    assert b.hi == pytest.approx(0.8 + 1 / 11, rel=1e-15)
    assert b.exact_mean == Fraction(9, 11)
    rng = np.random.default_rng(53)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        alpha = float(rng.uniform(0.01, 0.9))
        bb = marginal_bounds(n, alpha)
        assert bb.lo <= float(bb.exact_mean) <= bb.hi + 1e-15
        assert bb.hi <= 1.0


@pytest.mark.parametrize("m", [10**8, 10**9])
def test_decimal_levels_land_on_grid_at_large_n(m):
    # m = n + 1 and every level i/100 is a grid point j/m
    n = m - 1
    for i in range(1, 100):
        alpha = float(f"0.{i:02d}")
        j = i * m // 100
        assert marginal_bounds(n, alpha).exact_mean == 1 - Fraction(i, 100)
        p = plan(n, Marginal(alpha))
        assert p.order_index == m - j
        assert p.law.a == m - j and p.law.b == j


def test_fraction_levels_stay_exact():
    # the binary value of 0.3 lies below 3/10: taken exactly, 2 of 10 exceed
    exact = Fraction(0.3)
    assert plan(9, Marginal(exact)).order_index == 8
    assert plan(9, Marginal(0.3)).order_index == 7
    assert marginal_bounds(9, exact).exact_mean == Fraction(8, 10)
    assert marginal_bounds(9, 0.3).exact_mean == Fraction(7, 10)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_levels_just_below_one_keep_a_rank(k):
    # 1 - k 2^-53 lies within the snap window of 10/10 but is a level
    # below 1: it selects the smallest score, not the empty set
    alpha = 1 - k * 2**-53
    assert alpha < 1
    assert plan(9, Marginal(alpha)).order_index == 1
    assert marginal_bounds(9, alpha).exact_mean == Fraction(1, 10)
    values = np.arange(1.0, 10.0)
    lam = q_hat(NonconformityScores(values), alpha).lambda_hat
    assert lam == 1.0
    assert crc_lambda(Losses.zero_one(values), alpha) == lam


def test_plan_matches_calibrators():
    scores = NonconformityScores(np.arange(1.0, 1001.0))
    for target, res in (
        (Marginal(0.1), q_hat(scores, 0.1)),
        (Tolerance(0.1, 0.1), p_hat(scores, 0.1, 0.1)),
        (Tolerance(0.001, 0.1), p_hat(scores, 0.001, 0.1)),
    ):
        p = plan(scores.n, target)
        assert (p.order_index, p.law, p.dual, p.marginal_bounds, p.full_set) == (
            res.order_index, res.law, res.dual, res.marginal_bounds, res.full_set
        )
    with pytest.raises(TypeError):
        plan(10, "not a guarantee")


def test_exhaustive_coverage_sandwich_small_n():
    # leave-one-in enumeration over distinct values: exact rational coverage
    for n in range(2, 7):
        base = np.arange(1.0, n + 2.0)
        for alpha in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 10)):
            covered = 0
            for t in range(n + 1):
                cal = np.delete(base, t)
                lam = q_hat(NonconformityScores(cal), alpha).lambda_hat
                covered += float(base[t]) <= lam
            cov = Fraction(int(covered), n + 1)
            assert 1 - alpha <= cov <= 1 - alpha + Fraction(1, n + 1)


def test_threshold_law_is_beta():
    # with U(0,1) scores the selected threshold is itself the conditional
    # coverage, distributed Beta(idx, n + 1 - idx)
    rng = np.random.default_rng(59)
    n, alpha = 50, 0.15
    idx = math.ceil((1 - alpha) * (n + 1))
    lams = []
    for _ in range(2000):
        res = q_hat(NonconformityScores(rng.uniform(size=n)), alpha)
        lams.append(res.lambda_hat)
    stat, pvalue = scipy.stats.kstest(lams, scipy.stats.beta(idx, n + 1 - idx).cdf)
    assert pvalue > 0.01
    want_mean = idx / (n + 1)
    se = math.sqrt(idx * (n + 1 - idx) / ((n + 1) ** 2 * (n + 2)) / 2000)
    assert abs(np.mean(lams) - want_mean) < 4 * se


def test_tolerance_failure_rate_matches_law():
    # fraction of calibrations with conditional coverage below 1 - eps
    # equals the beta tail mass, which is at most delta
    rng = np.random.default_rng(61)
    n, eps, delta = 120, 0.15, 0.2
    res_idx = p_hat(NonconformityScores(rng.uniform(size=n)), eps, delta).order_index
    fails = 0
    m = 3000
    for _ in range(m):
        lam = p_hat(NonconformityScores(rng.uniform(size=n)), eps, delta).lambda_hat
        fails += lam < 1 - eps
    want = beta_reg(1 - eps, BetaParams(res_idx, n + 1 - res_idx))
    assert want <= delta
    se = math.sqrt(want * (1 - want) / m)
    assert abs(fails / m - want) < 3.5 * se


tolerance_levels = st.one_of(
    st.integers(1, 50).map(lambda i: i / 100),
    st.floats(math.log(1e-6), math.log(0.5)).map(math.exp),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 5000), tolerance_levels, tolerance_levels)
def test_tolerance_rank_is_wilks_limit(n, eps, delta):
    # the tolerance rank is the smallest order statistic whose Beta
    # coverage law puts at most delta below 1 - eps (Wilks' criterion)
    p = plan(n, Tolerance(eps, delta))
    idx = p.order_index
    if p.full_set:
        assert p.law is None
        assert beta_reg(1 - eps, BetaParams(n, 1)) > delta * (1 - 1e-9)
        return
    assert p.law == BetaParams(idx, n + 1 - idx)
    assert beta_reg(1 - eps, p.law) <= delta * (1 + 1e-9)
    if idx > 1:
        below = BetaParams(idx - 1, n + 2 - idx)
        assert beta_reg(1 - eps, below) > delta * (1 - 1e-9)

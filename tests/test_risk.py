"""Risk control calibrators and their agreement with the rank-based ones."""

import math

import numpy as np
import pytest

from conformal_kit import dists, risk
from conformal_kit.calibration import NonconformityScores, p_hat, q_hat
from conformal_kit.dists import binom_cdf
from conformal_kit.risk import Losses, crc_lambda, ltt_lambda, ucb_lambda

from helpers import ltt_walk


def test_zero_one_curve_shape():
    c = Losses.zero_one([2.0])
    assert c.total(1.9) == 1.0
    assert c.total(2.0) == 0.0
    assert c.total(5.0) == 0.0
    assert c.bound == 1.0 and c.n == 1
    assert c.lambdas.tolist() == [2.0]
    tied = Losses.zero_one([math.inf, 1.0, -math.inf, 1.0, 3.0])
    assert tied.lambdas.tolist() == [-math.inf, 1.0, 3.0, math.inf]
    assert tied.totals.tolist() == [5.0, 4.0, 2.0, 1.0, 0.0]
    assert tied.total(-math.inf) == 4.0 and tied.total(math.inf) == 0.0


def test_total_rejects_a_nan_threshold():
    losses = Losses.zero_one([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="NaN"):
        losses.total(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        losses.total(np.array([1.5, math.nan, 2.5]))


def test_losses_validation():
    with pytest.raises(ValueError):
        Losses(np.array([2.0, 1.0]), np.zeros(3), 1, bound=1.0)
    with pytest.raises(ValueError):
        Losses(np.array([1.0, 2.0]), np.zeros(2), 1, bound=1.0)
    with pytest.raises(ValueError):
        Losses.zero_one([1.0, math.nan])
    with pytest.raises(ValueError):
        Losses.steps([1.0], [0.0, 1.0], bound=1.0)


def test_losses_rejects_bad_totals():
    with pytest.raises(ValueError, match="non-increasing"):
        Losses(np.array([1.0, 2.0]), np.array([2.0, 0.0, 1.0]), 2, bound=2.0)
    with pytest.raises(ValueError, match="NaN"):
        Losses(np.array([1.0]), np.array([math.nan, 0.0]), 1, bound=1.0)
    # crc would trust bound 1.0 for a sum of 20 over 4 observations
    with pytest.raises(ValueError, match="bound"):
        Losses(np.array([1.0]), np.array([20.0, 0.0]), 4, bound=1.0)


def test_losses_rejects_negative_totals():
    # Hoeffding ucb would return 1.0 and crc at alpha = 1 would return -inf
    with pytest.raises(ValueError, match="bound"):
        Losses(np.array([1.0, 2.0]), np.array([0.0, -30.0, -40.0]), 4, bound=1.0)


def test_losses_need_an_integer_count():
    # crc returned -inf and Hoeffding ucb inf on n = 2.5
    for n in (2.5, 0):
        with pytest.raises(ValueError, match="n must"):
            Losses(np.array([1.0]), np.array([2.0, 0.0]), n, bound=1.0)
    losses = Losses(np.array([1.0]), np.array([2.0, 0.0]), np.int64(3), bound=1.0)
    assert type(losses.n) is int


def test_losses_need_a_positive_finite_bound():
    for bound in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bound"):
            Losses(np.array([1.0]), np.array([0.0, 0.0]), 1, bound=bound)
    with pytest.raises(TypeError):
        Losses(np.array([1.0]), np.array([0.0, 0.0]), 1)
    with pytest.raises(TypeError):
        Losses.steps([1.0], [[0.0, 0.0]])


def test_steps_rejects_nan_losses():
    with pytest.raises(ValueError, match="NaN"):
        Losses.steps([1.0], [[math.nan, 0.0]], bound=1.0)


def test_steps_rejects_increasing_rows():
    # the search would skip the candidate -inf, which already meets
    # (0 + 1)/11 <= 0.5, and return 3.0
    with pytest.raises(ValueError, match="non-increasing"):
        Losses.steps([1.0, 2.0, 3.0], [[0, 0, 1, 0]] * 9 + [[0, 0, 0, 0]], bound=1.0)
    # a row that rises and falls back leaves the totals non-increasing
    with pytest.raises(ValueError, match="non-increasing"):
        Losses.steps([1.0, 2.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], bound=1.0)


def test_steps_rejects_losses_above_bound():
    # crc and hoeffding would both trust bound 1.0 and return 1.0
    with pytest.raises(ValueError, match="bound"):
        Losses.steps([1.0], [[5.0, 0.0]] * 4, bound=1.0)
    assert Losses.steps([1.0], [[5.0, 0.0]] * 4, bound=5.0).totals.tolist() == [
        20.0,
        0.0,
    ]


def test_steps_rejects_negative_losses():
    with pytest.raises(ValueError, match="bound"):
        Losses.steps([1.0], [[-5.0, -6.0]] * 4, bound=1.0)
    # a negative entry that leaves every total in [0, n B]
    with pytest.raises(ValueError, match="bound"):
        Losses.steps([1.0], [[0.5, -0.5], [0.5, 0.5]], bound=1.0)


def test_steps_sum_exactly():
    # 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 when added left to right
    losses = Losses.steps([1.0], [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]], bound=1.0)
    assert losses.totals.tolist() == [0.6, 0.0]
    assert losses.n == 3 and losses.bound == 1.0


def test_empirical_risk():
    losses = Losses.zero_one([1.0, 2.0, 3.0, 4.0])
    assert losses.total(2.5) / losses.n == 0.5 and losses.n == 4
    assert losses.total(0.0) / losses.n == 1.0
    with pytest.raises(ValueError):
        Losses.zero_one([])


def test_crc_matches_quantile_rule_on_level_boundaries():
    # alpha (n + 1) is an integer for every level here, and the float of
    # about half of them lies below the decimal
    n = 9999
    losses = Losses.zero_one(range(1, n + 1))
    scores = NonconformityScores(np.arange(1.0, n + 1.0))
    for i in range(50, 201):
        alpha = float(f"0.{i:03d}")
        assert crc_lambda(losses, alpha) == q_hat(
            scores, alpha
        ).lambda_hat, alpha


def test_crc_validation():
    losses = Losses.zero_one([1.0])
    with pytest.raises(ValueError):
        crc_lambda(losses, 0.0)
    with pytest.raises(ValueError):
        crc_lambda(losses, 1.5)


def test_crc_domain_sentinels():
    losses = Losses.zero_one(range(1, 6))
    # alpha below B/(n+1): no threshold qualifies
    assert crc_lambda(losses, 0.1) == math.inf
    # alpha = B: condition already holds at the bottom
    assert crc_lambda(losses, 1.0) == -math.inf


def test_crc_fractional_losses_exact_boundary():
    # two staircases on the breakpoints 0.0, 0.5, 1.0
    losses = Losses.steps(
        [0.0, 0.5, 1.0], [[1.0, 0.4, 0.4, 0.0], [0.9, 0.9, 0.1, 0.1]], bound=1.0
    )
    # sum at 0.5 is exactly alpha (n+1) - B: boundary must count as inside
    lam = crc_lambda(losses, 0.5)
    assert lam == 0.5


def test_crc_expected_risk_sandwich():
    rng = np.random.default_rng(71)
    n, alpha, trials = 40, 0.2, 2000
    risks = []
    for _ in range(trials):
        u = rng.uniform(size=n)
        losses = Losses.zero_one(u)
        lam = crc_lambda(losses, alpha)
        risks.append(1.0 - lam)  # true miscoverage of U(0,1) at lam
    mean = float(np.mean(risks))
    se = float(np.std(risks)) / math.sqrt(trials)
    assert mean <= alpha + 3 * se
    assert mean >= alpha - 1.0 / (n + 1) - 3 * se


def test_ucb_hoeffding_formula():
    losses = Losses.zero_one(range(1, 51))
    n, delta = 50, 0.05
    # at lam = 35 the empirical risk is 15/50; eps is exactly its bound there
    eps = 15 / n + 1.0 * math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    assert ucb_lambda(losses, eps, delta, method="hoeffding") == 35.0
    below = math.nextafter(eps, 0.0)
    assert ucb_lambda(losses, below, delta, method="hoeffding") == 36.0
    with pytest.raises(ValueError):
        ucb_lambda(losses, eps, 0.0, method="hoeffding")


@pytest.mark.parametrize("method", ["exact-binomial", "hoeffding"])
def test_ucb_rejects_nan_eps(method):
    losses = Losses.zero_one(range(1, 51))
    with pytest.raises(ValueError, match="eps"):
        ucb_lambda(losses, math.nan, 0.1, method=method)


def test_ucb_rejects_eps_outside_its_range():
    losses = Losses.zero_one(range(1, 101))
    for eps in (0.0, -1.0, 1.0, 1.5, math.inf):
        with pytest.raises(ValueError, match="eps"):
            ucb_lambda(losses, eps, 0.1)
    for eps in (0.0, -1.0, 1.5, math.inf):
        with pytest.raises(ValueError, match="eps"):
            ucb_lambda(losses, eps, 0.1, method="hoeffding")
    # eps up to the loss bound B stays a Hoeffding level
    assert ucb_lambda(losses, 1.0, 0.1, method="hoeffding") == 11.0
    halves = Losses.steps([1.0], [[2.0, 0.5]] * 100, bound=2.0)
    assert ucb_lambda(halves, 1.5, 0.1, method="hoeffding") == 1.0


def test_ucb_infeasible_returns_top():
    losses = Losses.zero_one(range(1, 21))
    # 0.99^20 = 0.818 > 0.1: even zero exceedances cannot certify eps
    assert ucb_lambda(losses, 0.01, 0.1) == math.inf


def test_ucb_hoeffding_never_tighter():
    rng = np.random.default_rng(79)
    for _ in range(50):
        n = int(rng.integers(5, 150))
        vals = rng.normal(size=n)
        eps = float(rng.uniform(0.1, 0.6))
        delta = float(rng.uniform(0.05, 0.5))
        losses = Losses.zero_one(vals)
        lam_e = ucb_lambda(losses, eps, delta)
        lam_h = ucb_lambda(losses, eps, delta, method="hoeffding")
        assert lam_h >= lam_e


def test_ucb_checks_every_sum_is_a_count():
    # one sum of 2001 is not a count; a route that reads the bound at a few
    # sums only misses it (1.31510376473437 here), and ltt rejects it
    s = np.sort(np.random.default_rng(0).standard_normal(2000))
    mat = (s[:, None] > np.concatenate(([-math.inf], s))).astype(float)
    mat[0, 1] = 0.5  # the smallest score's loss on the first finite step
    losses = Losses.steps(s, mat, bound=1.0)
    assert losses.totals[1] == 1999.5
    for route in (ucb_lambda, ltt_lambda):
        with pytest.raises(ValueError, match="0-1 losses"):
            route(losses, 0.1, 0.1)


def test_exact_routes_refuse_sums_above_n():
    # bound 2 admits sums up to 20 over n = 10; the sum 12 is an integer
    # but no count of 10 observations, so the losses are not 0-1
    losses = Losses.steps(
        [1.0, 2.0, 3.0], [[2, 2, 0, 0]] * 6 + [[2, 0, 0, 0]] * 4, bound=2.0
    )
    assert losses.totals.tolist() == [20.0, 12.0, 0.0, 0.0] and losses.n == 10
    full = Losses.steps([1.0, 2.0, 3.0], [[1, 1, 0, 0]] * 10, bound=2.0)
    assert full.totals.tolist() == [10.0, 10.0, 0.0, 0.0]
    for route in (ucb_lambda, ltt_lambda):
        with pytest.raises(ValueError, match="not a count in 0..10"):
            route(losses, 0.3, 0.1)
        assert route(full, 0.3, 0.1) == 2.0


def test_ucb_method_validation():
    losses = Losses.zero_one([1.0])
    with pytest.raises(ValueError):
        ucb_lambda(losses, 0.1, 0.1, method="bootstrap")
    half = Losses.steps([1.0], [[0.5, 0.5]] * 3, bound=1.0)
    with pytest.raises(ValueError):
        ucb_lambda(half, 0.1, 0.1)  # exact bound needs 0-1 losses
    with pytest.raises(ValueError):
        ltt_lambda(half, 0.1, 0.1, [1.0])


def test_ltt_lambda_validation():
    losses = Losses.zero_one([1.0, 2.0])
    for grid in ([1.0, 1.0], [2.0, 1.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            ltt_lambda(losses, 0.1, 0.1, grid)
    with pytest.raises(ValueError, match="ascending"):
        ltt_lambda(losses, 0.1, 0.1, [1.0, math.nan])
    levels = [(0.0, 0.1), (1.0, 0.1), (math.nan, 0.1)]
    levels += [(0.1, 0.0), (0.1, 1.0), (0.1, math.nan)]
    for eps, delta in levels:
        with pytest.raises(ValueError):
            ltt_lambda(losses, eps, delta)


def test_ltt_pvalues_spot_and_monotone():
    # the walk keeps lam exactly when the p-values from lam up are within
    # delta, so a delta on each p-value and one ulp below it pin the
    # p-value to the bit; they fall along the grid
    scores = (1.0, 2.0, 3.0, 4.0)
    losses = Losses.zero_one(scores)
    grid = [0.5, 1.5, 2.5, 3.5, 4.5]
    pvals = [binom_cdf(sum(s > lam for s in scores), 4, 0.3) for lam in grid]
    assert np.all(np.diff(pvals) <= 0)
    for j, p in enumerate(pvals):
        if p < 1.0:
            above = grid[j + 1] if j + 1 < len(grid) else math.inf
            assert ltt_lambda(losses, 0.3, p, grid) == grid[j]
            assert ltt_lambda(losses, 0.3, math.nextafter(p, 0.0), grid) == above
    # on the default grid, the breakpoints 1..4
    assert ltt_lambda(losses, 0.3, pvals[-1]) == 4.0
    assert ltt_lambda(losses, 0.3, math.nextafter(pvals[-1], 0.0)) == math.inf


def test_ltt_selection_brackets_ucb():
    rng = np.random.default_rng(83)
    for _ in range(30):
        n = int(rng.integers(10, 120))
        vals = np.sort(rng.normal(size=n))
        eps = float(rng.uniform(0.05, 0.5))
        delta = float(rng.uniform(0.05, 0.5))
        losses = Losses.zero_one(vals)
        lam_u = ucb_lambda(losses, eps, delta)
        grid = np.linspace(vals[0] - 0.5, vals[-1] + 0.5, 2001)
        step = grid[1] - grid[0]
        lam_l = ltt_lambda(losses, eps, delta, grid)
        if math.isinf(lam_u):
            assert lam_l == math.inf
        else:
            assert lam_u <= lam_l <= lam_u + step


def test_ltt_fwer_simulation():
    # worlds where some grid risks sit above eps: probability any bad
    # threshold is selected stays within delta
    rng = np.random.default_rng(97)
    n, eps, delta, trials = 80, 0.2, 0.1, 1500
    lam_grid = np.arange(1.0, 6.0)
    risks = eps + 0.05 * (len(lam_grid) - 1 - np.arange(len(lam_grid)))
    bad = set(np.flatnonzero(risks > eps).tolist())
    hits = 0
    for _ in range(trials):
        u = rng.uniform(size=n)
        # loss 1 below the grid, then 1{u_i < R(lam_j)} on each step
        steps = np.column_stack([np.ones(n), u[:, None] < risks])
        losses = Losses.steps(lam_grid, steps, bound=1.0)
        # the walk keeps every grid point from the returned one up
        kept = lam_grid[lam_grid >= ltt_lambda(losses, eps, delta, lam_grid)]
        chosen = {int(np.searchsorted(lam_grid, l)) for l in kept}
        hits += bool(chosen & bad)
    rate = hits / trials
    assert rate <= delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)


def _counted(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ltt_reads_one_table(monkeypatch):
    # one binom_cdf per distinct count would be 10^5 calls here; ltt reads
    # the count binom_sup_k gives, whose table leaves only values within
    # the margin of delta to binom_cdf
    calls = _counted(monkeypatch, dists, "binom_cdf")
    scores = np.random.default_rng(1501).standard_normal(10**5)
    lam = ltt_lambda(Losses.zero_one(scores), 0.1, 0.1)
    assert math.isfinite(lam) and len(calls) <= 3


def test_ltt_builds_a_chain_of_order_sigma(monkeypatch):
    # a table of every count on the grid would be 10^5 + 1 terms long;
    # binom_sup_k's read spans about 25 sigma plus two pads
    lengths = []
    real = dists._chain_ends

    def ends(*args):
        anchor, lo_end, hi_end = real(*args)
        lengths.append(hi_end - lo_end + 1)
        return anchor, lo_end, hi_end

    monkeypatch.setattr(dists, "_chain_ends", ends)
    n, eps = 10**5, 0.1
    scores = np.random.default_rng(1501).standard_normal(n)
    lam = ltt_lambda(Losses.zero_one(scores), eps, 0.1)
    sigma = math.sqrt(n * eps * (1 - eps))
    assert math.isfinite(lam) and lengths
    assert max(lengths) <= 30 * sigma + 2 * dists._WINDOW_PAD


def test_ltt_settles_only_up_to_the_walks_stop(monkeypatch):
    # with delta within the settle band of 1, every count of the upper
    # tail sits in the band; the walk stops at the first count it reads
    # that exceeds delta, and so does settling (847 calls when it went on
    # up to the largest count)
    calls = _counted(monkeypatch, dists, "binom_cdf")
    losses = Losses.zero_one(np.random.default_rng(2301).standard_normal(2000))
    lam = ltt_lambda(losses, 0.5, 1 - 1e-13)
    assert len(calls) <= 100
    assert lam == ltt_walk(losses, 0.5, 1 - 1e-13)


def test_ucb_searches_from_a_certified_bracket(monkeypatch):
    # the bound is read at binom_sup_k's count k* and at k* + 1 only; a
    # plain halving over the 7002 candidates makes about 13 calls
    calls = _counted(monkeypatch, risk, "binom_inf_p")
    scores = np.random.default_rng(1502).standard_normal(7000)
    losses = Losses.zero_one(scores)
    lam = ucb_lambda(losses, 0.1, 0.1)
    assert len(calls) == 2
    assert lam == p_hat(NonconformityScores(scores), 0.1, 0.1).lambda_hat

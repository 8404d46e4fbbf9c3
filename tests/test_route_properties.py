"""Property tests: the risk routes select the rank rules' order statistic.

Generated inputs cover what seeded draws rarely hit: heavy ties, +-inf
scores, a single calibration score, and levels on a rank boundary
j/(n + 1) or one ulp to either side of it.  Thresholds must be the same
float, sign bit included: a zero threshold is 0.0 on every route even
when both 0.0 and -0.0 are among the scores.  Learn-then-test has no rank
rule; it must match its oracle ``ltt_walk``, with delta also drawn on a
p-value or one ulp to either side of it, on a value of the table
``dists._binom_table`` gives, subnormal, or at 1 - j 2^-53 for j in 1,
2, 3, 64 and 4096, where the upper tail's p-values lie closest together.
Exact-binomial upper-confidence-bound calibration must also match its
own oracle ``ucb_scan``, with its count guess as given or 10 sigma off
either way, and conformal risk control on fractional losses its oracle
``crc_scan``, with a sum at the double nearest its rational threshold or
one ulp to either side of it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_kit import dists, risk
from conformal_kit._rational import on_grid
from conformal_kit.calibration import NonconformityScores, p_hat, q_hat
from conformal_kit.dists import binom_cdf
from conformal_kit.risk import Losses, crc_lambda, ltt_lambda, ucb_lambda

from helpers import crc_scan, ltt_walk, ucb_scan


def same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# a few shared values force ties, 0.0 and -0.0 among them; the infinities
# sit among them
scores = st.lists(
    st.one_of(
        st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 2.0, math.inf]),
        st.floats(-100.0, 100.0),
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def levels(draw, n):
    """A rank boundary j/(n + 1) in (0, 1), one ulp off it, or any level."""
    base = draw(st.integers(1, n)) / (n + 1)
    return draw(
        st.one_of(
            st.sampled_from(
                [math.nextafter(base, 0.0), base, math.nextafter(base, 1.0)]
            ),
            st.floats(1e-3, 1 - 1e-3),
        )
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_crc_is_q_hat(data):
    vals = data.draw(scores)
    alpha = data.draw(levels(len(vals)))
    want = q_hat(NonconformityScores(vals), alpha).lambda_hat
    got = crc_lambda(Losses.zero_one(vals), alpha)
    assert same_float(got, want), (vals, alpha)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_ucb_is_p_hat(data):
    vals = data.draw(scores)
    eps = data.draw(levels(len(vals)))
    delta = data.draw(st.floats(0.01, 0.99))
    want = p_hat(NonconformityScores(vals), eps, delta).lambda_hat
    got = ucb_lambda(Losses.zero_one(vals), eps, delta)
    assert same_float(got, want), (vals, eps, delta)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    st.one_of(
        st.sampled_from([-math.inf, 0.0, math.inf]), st.floats(-100.0, 100.0)
    ),
    st.data(),
)
def test_single_score_routes(score, data):
    alpha = data.draw(levels(1))
    delta = data.draw(st.floats(0.01, 0.99))
    cal = NonconformityScores([score])
    losses = Losses.zero_one([score])
    assert same_float(
        crc_lambda(losses, alpha), q_hat(cal, alpha).lambda_hat
    )
    assert same_float(
        ucb_lambda(losses, alpha, delta), p_hat(cal, alpha, delta).lambda_hat
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_ltt_is_the_walk(data):
    vals = data.draw(scores)
    n = len(vals)
    eps = data.draw(levels(n))
    p = binom_cdf(data.draw(st.integers(0, n)), n, eps)
    delta = data.draw(
        st.one_of(
            st.sampled_from(
                [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)]
            ).filter(lambda d: 0.0 < d < 1.0),
            st.floats(0.01, 0.99),
            st.sampled_from([1 - j * 2.0**-53 for j in (1, 2, 3, 64, 4096)]),
        )
    )
    losses = Losses.zero_one(vals)
    got = ltt_lambda(losses, eps, delta)
    assert same_float(got, ltt_walk(losses, eps, delta)), (vals, eps, delta)

    finite = [v for v in vals if math.isfinite(v)] or [0.0]
    size = data.draw(st.integers(1, 60))
    grid = np.linspace(min(finite) - 0.5, max(finite) + 0.5, size)
    got = ltt_lambda(losses, eps, delta, grid)
    assert same_float(got, ltt_walk(losses, eps, delta, grid)), (vals, eps, delta)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_zero_one_total_counts_exceedances(data):
    vals = data.draw(scores)
    v = data.draw(st.sampled_from(vals))
    lam = data.draw(
        st.one_of(
            st.sampled_from(
                [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
            ),
            st.sampled_from([-math.inf, math.inf]),
            st.floats(-200.0, 200.0),
        )
    )
    assert Losses.zero_one(vals).total(lam) == sum(s > lam for s in vals)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(scores)
def test_total_of_an_array_is_the_scalar_totals(vals):
    losses = Losses.zero_one(vals)
    lam = losses.lambdas
    between = (lam[:-1] + lam[1:]) / 2  # NaN between -inf and +inf
    below = np.nextafter(lam, -math.inf)
    grid = np.concatenate(([-math.inf, math.inf], lam, below, between))
    grid = grid[~np.isnan(grid)]
    want = [losses.total(x) for x in grid.tolist()]
    assert all(type(t) is float for t in want)
    assert losses.total(grid).tolist() == want


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_ltt_is_the_walk_at_table_values(data):
    vals = data.draw(scores)
    n = len(vals)
    eps = data.draw(levels(n))
    p = float(dists._binom_table(n, eps, 0, n)[data.draw(st.integers(0, n))])
    delta = data.draw(
        st.sampled_from(
            [math.nextafter(p, 0.0), p, math.nextafter(p, 1.0), 5e-324]
        ).filter(lambda d: 0.0 < d < 1.0)
    )
    losses = Losses.zero_one(vals)
    got = ltt_lambda(losses, eps, delta)
    assert same_float(got, ltt_walk(losses, eps, delta)), (vals, eps, delta)


@pytest.mark.parametrize(
    "n, eps", [(100, 0.5), (200, 0.05), (1000, 0.3), (1100, 0.5)]
)
def test_ltt_is_the_walk_where_an_ulp_decides(n, eps):
    # a few table values here sit an ulp off binom_cdf's, and
    # Bin(k; 1100, 1/2) is subnormal for k = 3..9, where an ulp is 2^-1074
    losses = Losses.zero_one(np.arange(float(n)))
    table = dists._binom_table(n, eps, 0, n)
    deltas = {5e-324}
    for k in range(n):
        p = binom_cdf(k, n, eps)
        if table[k] != p or 0.0 < p < 2.0**-1022:
            deltas |= {math.nextafter(p, 0.0), p, math.nextafter(p, 1.0)}
            deltas.add(float(table[k]))
    for delta in sorted(d for d in deltas if 0.0 < d < 1.0):
        got = ltt_lambda(losses, eps, delta)
        assert same_float(got, ltt_walk(losses, eps, delta)), delta


@pytest.mark.parametrize("sigmas", [None, 10.0, -10.0], ids=["sup_k", "10.0", "-10.0"])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_ucb_is_the_scan(sigmas, data):
    vals = data.draw(st.one_of(scores, scores.map(lambda v: v[:1])))
    n = len(vals)
    eps = data.draw(levels(n))
    delta = data.draw(st.floats(1e-6, 0.99))
    losses = Losses.zero_one(vals)
    with pytest.MonkeyPatch.context() as mp:
        if sigmas is not None:
            # the guess then certifies only the bracket end on its own side
            # of the boundary
            sup_k = dists.binom_sup_k
            mp.setattr(
                risk,
                "binom_sup_k",
                lambda n, p, y: sup_k(n, p, y) + sigmas * math.sqrt(n * p * (1 - p)),
            )
        got = ucb_lambda(losses, eps, delta)
    assert same_float(got, ucb_scan(losses, eps, delta)), (vals, eps, delta)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_crc_is_the_scan_at_its_threshold(data):
    # with n = 2 the threshold T = 3 alpha - B is seldom a double, so a sum
    # at the double nearest T can lie either side of it
    bound = data.draw(st.sampled_from([1.0, 1 / 3]))
    alpha = data.draw(st.floats(bound / 3, 2 * bound / 3))
    t = float(on_grid(alpha, 3) * 3 - Fraction(bound))
    x = data.draw(
        st.sampled_from(
            [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)]
        ).filter(lambda x: 0.0 <= x <= bound)
    )
    losses = Losses.steps([0.0, 1.0], [[bound, x, 0.0], [bound, 0.0, 0.0]], bound)
    got = crc_lambda(losses, alpha)
    assert same_float(got, crc_scan(losses, alpha)), (bound, alpha, x)

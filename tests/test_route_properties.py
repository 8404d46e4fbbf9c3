"""Property tests: the risk routes select the rank rules' order statistic.

Generated inputs cover what seeded draws rarely hit: heavy ties, +-inf
scores, a single calibration score, and levels on a rank boundary
j/(n + 1) or one ulp to either side of it.  Thresholds must be the same
float, sign bit included: a zero threshold is 0.0 on every route even
when both 0.0 and -0.0 are among the scores.  Learn-then-test has no rank
rule; it must match its oracle ``ltt_walk``, with delta also drawn on a
p-value or one ulp to either side of it.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_kit.calibration import NonconformityScores, p_hat, q_hat
from conformal_kit.dists import binom_cdf
from conformal_kit.risk import Losses, crc_lambda, ltt_lambda, ucb_lambda

from helpers import ltt_walk


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

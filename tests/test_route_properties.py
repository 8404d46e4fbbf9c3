"""Property tests: the risk routes select the rank rules' order statistic.

Generated inputs cover what seeded draws rarely hit: heavy ties, +-inf
scores, a single calibration score, and levels on a rank boundary
j/(n + 1) or one ulp to either side of it.  Thresholds must be the same
float, sign bit included: a zero threshold is 0.0 on every route even
when both 0.0 and -0.0 are among the scores.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_kit.calibration import NonconformityScores, p_hat, q_hat
from conformal_kit.risk import Losses, crc_lambda, ucb_lambda


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
    got = crc_lambda(Losses.zero_one(vals), 1.0, alpha)
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
        crc_lambda(losses, 1.0, alpha), q_hat(cal, alpha).lambda_hat
    )
    assert same_float(
        ucb_lambda(losses, alpha, delta), p_hat(cal, alpha, delta).lambda_hat
    )


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

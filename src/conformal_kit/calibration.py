"""Split conformal calibrators and their finite-sample coverage laws.

Two ways of choosing the threshold from calibration scores live here.  The
marginal calibrator ``q_hat`` picks the ceil((1 - alpha) (n + 1))-th
smallest score and controls coverage on average over everything.  The
tolerance calibrator ``p_hat`` inverts a binomial tail so that, with
probability 1 - delta over the calibration draw, the resulting set covers
at least 1 - eps of future points.  The two are linked by an exact duality:
every tolerance pair (eps, delta) maps to the marginal level alpha =
(k* + 1)/(n + 1), ``plan(n, Tolerance(eps, delta)).dual.alpha``, and both
calibrators then select the same order statistic.  That tolerance rank is
Wilks' one-sided tolerance limit, and ``plan(n, t).law`` is its Beta
coverage law.

Index arithmetic runs on exact rationals.  The guarantees hinge on
half-open level intervals of width 1/(n + 1), and a float alpha sitting one
ulp off a grid point would silently shift the selected rank.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rational import as_fraction, on_grid
from .dists import (
    BetaParams,
    _check_prob,
    _check_trials,
    binom_cdf,
    binom_inf_p,
    binom_sup_k,
)

__all__ = [
    "NonconformityScores",
    "Marginal",
    "Tolerance",
    "MarginalBounds",
    "DualAlpha",
    "DualTolerance",
    "CalibrationPlan",
    "CalibrationResult",
    "plan",
    "q_hat",
    "p_hat",
    "tolerance_delta_given_alpha",
    "tolerance_eps_given_alpha",
    "marginal_bounds",
]


class NonconformityScores:
    """Calibration scores, sorted ascending, with sentinel order statistics.

    The virtual extremes r_(0) = -inf and r_(n+1) = +inf make every rank
    formula total: rank n + 1 selects the full label space.

    Parameters
    ----------
    values : array_like
        Scores r_i = r(X_i, Y_i) of the calibration pairs, in any order.

    Examples
    --------
    >>> s = NonconformityScores([3.0, 1.0, 2.0])
    >>> s.n
    3
    >>> s.order_stat(2)
    2.0
    >>> s.order_stat(4)
    inf
    """

    def __init__(self, values):
        # + 0.0 turns -0.0 into 0.0, so a zero threshold is always 0.0
        arr = np.sort(np.asarray(values, dtype=float).ravel()) + 0.0
        if arr.size == 0:
            raise ValueError("need at least one calibration score")
        if np.isnan(arr).any():
            raise ValueError("scores must not contain NaN")
        self.values = arr

    @property
    def n(self) -> int:
        return int(self.values.size)

    def order_stat(self, i: int) -> float:
        """The i-th smallest score, i in {0, ..., n + 1} with sentinels."""
        if not 0 <= i <= self.n + 1:
            raise IndexError(f"order statistic index {i} outside 0..{self.n + 1}")
        if i == 0:
            return -math.inf
        if i == self.n + 1:
            return math.inf
        return float(self.values[i - 1])


@dataclass(frozen=True)
class Marginal:
    """Target: coverage at least 1 - alpha on average."""

    alpha: float

    def __post_init__(self):
        _check_prob("alpha", float(self.alpha), open_interval=True)


@dataclass(frozen=True)
class Tolerance:
    """Target: cover 1 - eps of the population with probability 1 - delta."""

    eps: float
    delta: float

    def __post_init__(self):
        _check_prob("eps", float(self.eps), open_interval=True)
        _check_prob("delta", float(self.delta), open_interval=True)


@dataclass(frozen=True)
class MarginalBounds:
    """Two-sided coverage bounds and the exact mean under distinct scores.

    ``lo`` and ``hi`` sandwich the marginal coverage per the split
    conformal guarantee (width 1/(n + 1), upper end clipped at one);
    ``exact_mean`` is 1 - floor(alpha (n + 1))/(n + 1), kept rational.
    """

    lo: float
    hi: float
    exact_mean: Fraction


@dataclass(frozen=True)
class DualAlpha:
    """Marginal level implied by a tolerance calibration.

    ``alpha`` is the smallest usable level; every level in ``interval``
    (closed left, open right) selects the same order statistic, so the
    tolerance guarantee is shared by the whole interval.
    """

    alpha: Fraction
    interval: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DualTolerance:
    """Tolerance parameters implied by a marginal calibration.

    ``delta_min`` is the smallest failure probability at the reference
    eps, ``eps_min`` the smallest miscoverage at the reference delta.
    Entries are None when the corresponding reference level was not
    supplied.
    """

    delta_min: float | None
    eps_min: float | None


@dataclass(frozen=True)
class CalibrationPlan:
    """What calibrating n scores at a target fixes before seeing the scores.

    Parameters
    ----------
    order_index : int
        Rank of the selected score, in {1, ..., n + 1}.
    law : BetaParams or None
        Exact coverage law Beta(order_index, n + 1 - order_index) under
        almost-surely distinct scores, a stochastic lower bound otherwise;
        None in the degenerate full-set case.
    dual : DualAlpha or DualTolerance
        The other guarantee's implied parameters (a marginal plan has no
        reference levels, so both DualTolerance entries are None).
    marginal_bounds : MarginalBounds
        Two-sided coverage bounds at the (implied) marginal level.
    full_set : bool
        Whether order_index = n + 1, i.e. the threshold is +inf.
    """

    order_index: int
    law: BetaParams | None
    dual: DualAlpha | DualTolerance
    marginal_bounds: MarginalBounds
    full_set: bool


@dataclass(frozen=True)
class CalibrationResult(CalibrationPlan):
    """Outcome of a split conformal calibration: its plan and the threshold.

    ``lambda_hat`` is the selected score, +inf when only the full set
    qualifies.
    """

    lambda_hat: float


def plan(n, target) -> CalibrationPlan:
    """The order statistic, coverage law, dual and bounds of (n, target).

    This is the one place that decides which order statistic a target
    selects: rank ceil((1 - alpha) (n + 1)) for Marginal(alpha), rank
    n - k* with k* = sup{k : Bin(k; n, eps) <= delta} for
    Tolerance(eps, delta), and n + 1 (the full label space) when that
    rank exceeds n or the sup is over an empty set.  None of it depends
    on the scores, so a caller calibrating many score sets of one size
    plans once.

    Examples
    --------
    >>> plan(1000, Tolerance(0.1, 0.1)).order_index
    913
    >>> plan(9, Marginal(0.05)).full_set
    True
    """
    n = _check_trials("n", n)
    if isinstance(target, Marginal):
        # the threshold is the j-th largest score, +inf when j = 0
        j = math.floor(on_grid(target.alpha, n + 1) * (n + 1))
        dual = DualTolerance(delta_min=None, eps_min=None)
        bounds = marginal_bounds(n, target.alpha)
    elif isinstance(target, Tolerance):
        j = binom_sup_k(n, target.eps, target.delta) + 1
        # an infeasible pair reports the limiting level 1/(n + 1)
        dual = DualAlpha(
            alpha=Fraction(max(j, 1), n + 1),
            interval=(Fraction(j, n + 1), Fraction(j + 1, n + 1)),
        )
        bounds = marginal_bounds(n, dual.alpha)
    else:
        raise TypeError(f"unknown guarantee {target!r}")
    idx = n + 1 - j
    return CalibrationPlan(
        order_index=idx,
        law=None if j == 0 else BetaParams(idx, j),
        dual=dual,
        marginal_bounds=bounds,
        full_set=j == 0,
    )


def _floor_rank(n, alpha) -> int:
    """floor(alpha (n + 1) - 1), the duality's binomial argument; checks n, alpha."""
    return n - plan(n, Marginal(alpha)).order_index


def tolerance_delta_given_alpha(n, alpha, eps: float) -> float:
    """Smallest delta making the level-alpha set an (eps, delta) region.

    Evaluates Bin(floor(alpha (n + 1) - 1); n, eps); an empty summation
    range gives 0.

    Examples
    --------
    >>> tolerance_delta_given_alpha(100, 0.005, 0.1)
    0.0
    """
    k = _floor_rank(n, alpha)
    eps = _check_prob("eps", eps, open_interval=True)
    return binom_cdf(k, n, eps)


def tolerance_eps_given_alpha(n, alpha, delta: float) -> float:
    """Smallest eps at which the level-alpha set holds with 1 - delta.

    Inverts the binomial tail in its success probability at
    k = floor(alpha (n + 1) - 1); k < 0 gives 0.

    Examples
    --------
    >>> round(tolerance_eps_given_alpha(100, 0.1, 0.1), 6)
    0.138352
    """
    k = _floor_rank(n, alpha)
    delta = _check_prob("delta", delta, open_interval=True)
    return binom_inf_p(k, n, delta)


def marginal_bounds(n, alpha) -> MarginalBounds:
    """Coverage sandwich [1 - alpha, 1 - alpha + 1/(n + 1)] and exact mean.

    The mean is exact for almost-surely distinct scores:
    1 - floor(alpha (n + 1))/(n + 1).

    Examples
    --------
    >>> marginal_bounds(1000, Fraction(88, 1001)).exact_mean  # 913/1001
    Fraction(83, 91)
    """
    n = _check_trials("n", n)
    a = as_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    mean = 1 - Fraction(math.floor(on_grid(alpha, n + 1) * (n + 1)), n + 1)
    return MarginalBounds(
        lo=float(1 - a),
        hi=min(1.0, float(1 - a + Fraction(1, n + 1))),
        exact_mean=mean,
    )


def _calibrated(scores: NonconformityScores, p: CalibrationPlan) -> CalibrationResult:
    return CalibrationResult(lambda_hat=scores.order_stat(p.order_index), **vars(p))


def q_hat(
    scores: NonconformityScores,
    alpha,
    *,
    eps: float | None = None,
    delta: float | None = None,
) -> CalibrationResult:
    """Marginal split conformal calibration at level alpha.

    Selects the ceil((1 - alpha) (n + 1))-th smallest calibration score; a
    rank beyond n means even the largest score is not conservative enough
    and the full label space is returned (lambda_hat = +inf).

    Parameters
    ----------
    scores : NonconformityScores
        Calibration scores.
    alpha : float or Fraction
        Miscoverage level in (0, 1).
    eps, delta : float, optional
        Reference levels at which to report the implied tolerance
        parameters (dual.delta_min at eps, dual.eps_min at delta).

    Examples
    --------
    >>> r = q_hat(NonconformityScores(range(1, 10)), 0.1)
    >>> r.order_index, r.lambda_hat
    (9, 9.0)
    >>> q_hat(NonconformityScores(range(1, 10)), 0.05).lambda_hat
    inf
    """
    n = scores.n
    p = plan(n, Marginal(alpha))
    dual = DualTolerance(
        delta_min=None if eps is None else tolerance_delta_given_alpha(n, alpha, eps),
        eps_min=None if delta is None else tolerance_eps_given_alpha(n, alpha, delta),
    )
    return dataclasses.replace(_calibrated(scores, p), dual=dual)


def p_hat(scores: NonconformityScores, eps: float, delta: float) -> CalibrationResult:
    """Tolerance-region calibration: cover 1 - eps with probability 1 - delta.

    Selects the (n - k*)-th smallest score, k* = sup{k : Bin(k; n, eps) <=
    delta}.  When the sup is over an empty set (already zero exceedances
    fail, i.e. (1 - eps)^n > delta) the full label space is the only valid
    region.  The dual marginal level and its sharing interval come along
    in ``dual``.

    Examples
    --------
    >>> r = p_hat(NonconformityScores(range(1000)), 0.1, 0.1)
    >>> r.order_index
    913
    >>> r.dual.alpha  # 88/1001 reduced
    Fraction(8, 91)
    """
    return _calibrated(scores, plan(scores.n, Tolerance(eps, delta)))


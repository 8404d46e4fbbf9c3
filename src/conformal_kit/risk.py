"""Risk-controlling threshold selection for monotone bounded losses.

Three calibrators generalize the split conformal ones from miscoverage to
arbitrary non-increasing losses bounded by B.  Conformal risk control picks
the smallest threshold where the inflated empirical risk
(n R_hat(lam) + B)/(n + 1) stays within alpha.  Upper-confidence-bound
calibration walks down from the top of the domain while a pointwise upper
bound on the risk stays within eps; with the exact binomial (Clopper-
Pearson style) bound and 0-1 loss it reproduces the tolerance calibrator
threshold for threshold.  Learn-then-test recasts the grid search as
multiple testing with binomial p-values under FWER control.

Loss curves carry their step structure, so infima over lambda are taken
over exact breakpoints, and the threshold conditions are compared in exact
rational arithmetic.  The equivalence with the rank-based calibrators is a
theorem, and these routes are kept independent enough that the test suite
can actually check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ._rational import as_fraction, on_grid
from .dists import _check_prob, binom_cdf, binom_inf_p
from .nested import LambdaDomain

__all__ = [
    "LossCurve",
    "RiskEstimate",
    "PValueGrid",
    "empirical_risk",
    "crc_lambda",
    "ucb_exact_binomial",
    "ucb_hoeffding",
    "ucb_lambda",
    "ltt_pvalues",
    "ltt_bonferroni",
    "ltt_fixed_sequence",
]

_COUNT_TOL = 1e-9


@dataclass(frozen=True)
class LossCurve:
    """One observation's loss as a function of the threshold.

    Parameters
    ----------
    eval : callable
        Map lambda -> loss, non-increasing, minimal at the top of the
        domain.
    bound : float, optional
        Uniform upper bound B on the loss, when known.
    breakpoints : tuple of float
        Where the step structure changes; calibrators take infima over
        these exactly instead of grid-searching.  For general smooth
        losses the caller supplies its evaluation grid here.
    """

    eval: Callable[[float], float]
    bound: float | None = None
    breakpoints: tuple[float, ...] = ()

    @classmethod
    def zero_one(cls, score: float) -> "LossCurve":
        """Miscoverage loss 1{score > lam} of a calibration score."""
        return cls(
            eval=lambda lam, _s=float(score): 1.0 if lam < _s else 0.0,
            bound=1.0,
            breakpoints=(float(score),),
        )


@dataclass(frozen=True)
class RiskEstimate:
    """Empirical risk R_hat = (1/n) sum of losses at a threshold."""

    r_hat: float
    n: int


@dataclass(frozen=True)
class PValueGrid:
    """An ascending threshold grid with one p-value per null R(lam_j) > eps."""

    lambdas: np.ndarray
    pvals: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        pv = np.asarray(self.pvals, dtype=float)
        if lam.ndim != 1 or lam.shape != pv.shape:
            raise ValueError("lambdas and pvals must be 1-d of equal length")
        if lam.size and np.any(np.diff(lam) <= 0):
            raise ValueError("lambdas must be strictly ascending")
        if pv.size and (pv.min() < 0.0 or pv.max() > 1.0):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "pvals", pv)


def _loss_sum(curves, lam: float) -> float:
    return math.fsum(c.eval(lam) for c in curves)


def empirical_risk(curves, lam: float) -> RiskEstimate:
    """Average loss over the curves at threshold lam.

    Examples
    --------
    >>> curves = [LossCurve.zero_one(s) for s in (1.0, 2.0, 3.0)]
    >>> empirical_risk(curves, 2.5).r_hat
    0.3333333333333333
    """
    n = len(curves)
    if n < 1:
        raise ValueError("need at least one loss curve")
    return RiskEstimate(r_hat=_loss_sum(curves, lam) / n, n=n)


def _candidates(curves, domain: LambdaDomain) -> list[float]:
    """Domain endpoints plus every interior breakpoint, ascending."""
    pts = {
        float(b)
        for c in curves
        for b in c.breakpoints
        if domain.lo < b < domain.hi
    }
    return [domain.lo, *sorted(pts), domain.hi]


def crc_lambda(curves, B: float, alpha, domain: LambdaDomain) -> float:
    """Conformal risk control: inf{lam : (n R_hat(lam) + B)/(n+1) <= alpha}.

    The condition is monotone for non-increasing curves, so the infimum is
    located by binary search over the exact breakpoint candidates; the
    comparison n R_hat + B <= alpha (n + 1) runs in rational arithmetic,
    with a float alpha moved onto the grid j/(n + 1) it rounds from, so
    grid-boundary levels never misclassify.  Returns the top of the domain
    when only the minimal achievable risk qualifies there, which for 0-1
    loss is the full-set sentinel.

    Examples
    --------
    >>> curves = [LossCurve.zero_one(float(s)) for s in range(1, 10)]
    >>> crc_lambda(curves, 1.0, 0.1, LambdaDomain(-math.inf, math.inf))
    9.0
    """
    n = len(curves)
    if n < 1:
        raise ValueError("need at least one loss curve")
    B = float(B)
    if B <= 0:
        raise ValueError(f"loss bound must be positive, got B={B}")
    a = as_fraction(alpha)
    if not 0 < a <= as_fraction(B):
        raise ValueError(
            f"need 0 < alpha <= B for a non-vacuous guarantee, got "
            f"alpha={alpha}, B={B}"
        )
    for c in curves:
        if c.bound is not None and c.bound > B:
            raise ValueError(f"curve bound {c.bound} exceeds B={B}")

    # sum of losses <= alpha (n + 1) - B, exactly
    threshold = on_grid(alpha, n + 1) * (n + 1) - as_fraction(B)

    def ok(lam: float) -> bool:
        return Fraction(_loss_sum(curves, lam)) <= threshold

    cands = _candidates(curves, domain)
    if not ok(cands[-1]):
        return domain.hi
    if ok(cands[0]):
        return domain.lo
    # ok is False at index lo, True at index hi; curves are non-increasing
    lo, hi = 0, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(cands[mid]):
            hi = mid
        else:
            lo = mid
    return cands[hi]


def ucb_exact_binomial(count: int, n: int, delta: float) -> float:
    """Exact binomial upper confidence bound on a 0-1 risk.

    The smallest p whose lower binomial tail at the observed exceedance
    count stays within delta.

    Examples
    --------
    >>> round(ucb_exact_binomial(0, 100, 0.1), 5)
    0.02276
    """
    return binom_inf_p(count, n, delta)


def ucb_hoeffding(r_hat: float, n: int, delta: float, B: float) -> float:
    """One-sided Hoeffding upper confidence bound r_hat + B sqrt(ln(1/d)/2n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if B <= 0:
        raise ValueError(f"loss bound must be positive, got B={B}")
    return r_hat + B * math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def _zero_one_count(curves, lam: float) -> int:
    total = _loss_sum(curves, lam)
    count = round(total)
    if abs(total - count) > _COUNT_TOL * max(1, len(curves)):
        raise ValueError(
            "exact binomial bound needs 0-1 losses; "
            f"sum of losses {total} is not an integer"
        )
    return int(count)


def ucb_lambda(
    curves,
    eps: float,
    delta: float,
    method: str = "exact-binomial",
    domain: LambdaDomain = LambdaDomain(-math.inf, math.inf),
) -> float:
    """Upper-confidence-bound calibration.

    Selects inf{lam : R_hat_plus(lam') <= eps for all lam' >= lam}, where
    R_hat_plus is a pointwise 1 - delta upper confidence bound on the
    risk.  Both shipped bounds are monotone in the empirical risk, so for
    non-increasing curves the condition is a suffix property of the
    breakpoint candidates and binary search locates the boundary exactly.
    Returns the top of the domain when no threshold qualifies.

    Parameters
    ----------
    curves : sequence of LossCurve
        Non-increasing losses.
    eps : float
        Risk level to control.
    delta : float
        Confidence budget of the pointwise bound.
    method : {"exact-binomial", "hoeffding"}
        Bound used for R_hat_plus.  The exact binomial one requires 0-1
        losses and is never looser; the Hoeffding variant works for any
        bounded loss (B taken from the curve bounds).
    domain : LambdaDomain
        Threshold domain.
    """
    n = len(curves)
    if n < 1:
        raise ValueError("need at least one loss curve")
    eps = float(eps)
    delta = _check_prob("delta", delta, open_interval=True)

    if method == "exact-binomial":

        def upper(lam: float) -> float:
            return ucb_exact_binomial(_zero_one_count(curves, lam), n, delta)

    elif method == "hoeffding":
        bounds = [c.bound for c in curves]
        if any(b is None for b in bounds):
            raise ValueError("hoeffding bound needs every curve bound set")
        B = max(bounds)

        def upper(lam: float) -> float:
            return ucb_hoeffding(_loss_sum(curves, lam) / n, n, delta, B)

    else:
        raise ValueError(f"unknown method {method!r}")

    cands = _candidates(curves, domain)
    if upper(cands[-1]) > eps:
        return domain.hi
    if upper(cands[0]) <= eps:
        return domain.lo
    lo, hi = 0, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if upper(cands[mid]) <= eps:
            hi = mid
        else:
            lo = mid
    return cands[hi]


def ltt_pvalues(grid, curves, eps: float) -> PValueGrid:
    """Binomial p-values for the nulls R(lam_j) > eps on a threshold grid.

    p_j = Bin(n R_hat(lam_j); n, eps), super-uniform under the null for
    0-1 losses.

    Examples
    --------
    >>> curves = [LossCurve.zero_one(s) for s in (1.0, 2.0)]
    >>> round(float(ltt_pvalues([3.0], curves, 0.1).pvals[0]), 10)
    0.81
    """
    n = len(curves)
    if n < 1:
        raise ValueError("need at least one loss curve")
    eps = _check_prob("eps", eps, open_interval=True)
    lam = np.asarray(grid, dtype=float)
    pv = np.array(
        [binom_cdf(_zero_one_count(curves, la), n, eps) for la in lam]
    )
    return PValueGrid(lambdas=lam, pvals=pv)


def ltt_bonferroni(pgrid: PValueGrid, delta: float) -> list[float]:
    """Thresholds passing the Bonferroni test p_j < delta / N (strict).

    Examples
    --------
    >>> g = PValueGrid(np.array([1.0, 2.0]), np.array([0.01, 0.2]))
    >>> ltt_bonferroni(g, 0.1)
    [1.0]
    """
    delta = _check_prob("delta", delta, open_interval=True)
    cut = delta / len(pgrid.pvals)
    return [float(l) for l, p in zip(pgrid.lambdas, pgrid.pvals) if p < cut]


def ltt_fixed_sequence(pgrid: PValueGrid, delta: float) -> list[float]:
    """Fixed-sequence testing from the top of the grid downward.

    Walks from the largest threshold toward the smallest, keeping every
    lam_j with p_j <= delta and stopping at the first failure to reject.
    The full budget delta is spent on each test, no correction for the
    grid size.  Returns the selected thresholds in ascending order.

    Examples
    --------
    >>> g = PValueGrid(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.02, 0.01]))
    >>> ltt_fixed_sequence(g, 0.1)
    [2.0, 3.0]
    """
    delta = _check_prob("delta", delta, open_interval=True)
    chosen = []
    for l, p in zip(pgrid.lambdas[::-1], pgrid.pvals[::-1]):
        if p > delta:
            break
        chosen.append(float(l))
    return chosen[::-1]

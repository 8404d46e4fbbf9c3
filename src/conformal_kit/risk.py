"""Risk-controlling threshold selection for monotone bounded losses.

Three calibrators generalize the split conformal ones from miscoverage to
arbitrary non-increasing losses bounded by B.  Conformal risk control picks
the smallest threshold where the inflated empirical risk
(n R_hat(lam) + B)/(n + 1) stays within alpha.  Upper-confidence-bound
calibration walks down from lambda = +inf while a pointwise upper bound
on the risk stays within eps; with the exact binomial (Clopper-Pearson
style) bound and 0-1 loss it reproduces the tolerance calibrator
threshold for threshold.  Learn-then-test recasts the grid search as
multiple testing with binomial p-values under FWER control.

Every route reads the calibration losses through one ``Losses``: their sum
over the n observations as a step function of lambda, held as its exact
breakpoints and the sum on each step.  Infima over lambda are taken over
those breakpoints, and the threshold conditions are compared in exact
rational arithmetic.  The equivalence with the rank-based calibrators is a
theorem, and these routes are kept independent enough that the test suite
can actually check it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rational import as_fraction, on_grid
from .dists import _check_prob, binom_cdf, binom_inf_p

__all__ = [
    "Losses",
    "PValueGrid",
    "crc_lambda",
    "ucb_lambda",
    "ltt_pvalues",
    "ltt_fixed_sequence",
]

_COUNT_TOL = 1e-9


@dataclass(frozen=True)
class Losses:
    """Summed loss of n observations, a non-increasing step function of lambda.

    Parameters
    ----------
    lambdas : ndarray, shape (G,)
        Strictly ascending breakpoints, where the sum may step down.
    totals : ndarray, shape (G + 1,)
        The sum on each step: ``totals[0]`` below ``lambdas[0]``,
        ``totals[j]`` on [lambdas[j - 1], lambdas[j]), ``totals[G]`` from
        ``lambdas[-1]`` up.
    n : int
        Number of observations.
    bound : float, optional
        Uniform upper bound B on each observation's loss, when known.

    Examples
    --------
    >>> losses = Losses.zero_one([3.0, 1.0, 2.0, 2.0])
    >>> losses.lambdas, losses.totals
    (array([1., 2., 3.]), array([4., 3., 1., 0.]))
    >>> losses.total(2.5) / losses.n
    0.25
    """

    lambdas: np.ndarray
    totals: np.ndarray
    n: int
    bound: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        tot = np.asarray(self.totals, dtype=float)
        if lam.ndim != 1 or tot.shape != (lam.size + 1,):
            raise ValueError("need 1-d lambdas and one more total than lambdas")
        if np.isnan(lam).any() or np.any(np.diff(lam) <= 0):
            raise ValueError("lambdas must be strictly ascending")
        if np.isnan(tot).any() or np.any(np.diff(tot) > 0):
            raise ValueError("totals must be non-increasing and not NaN")
        if self.n < 1:
            raise ValueError("need at least one observation")
        if self.bound is not None and tot[0] > self.n * self.bound:
            raise ValueError(f"totals exceed n times their bound {self.bound}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "totals", tot)

    @classmethod
    def zero_one(cls, scores) -> "Losses":
        """Miscoverage losses 1{score > lam} of calibration scores."""
        # + 0.0 turns -0.0 into 0.0, as NonconformityScores does
        s = np.sort(np.asarray(scores, dtype=float).ravel()) + 0.0
        lam = np.unique(s)
        above = s.size - np.searchsorted(s, lam, side="right")
        return cls(lam, np.concatenate(([s.size], above)), s.size, bound=1.0)

    @classmethod
    def steps(cls, lambdas, losses, bound: float | None = None) -> "Losses":
        """Per-observation losses on the steps of ``lambdas``, summed exactly.

        ``losses`` is an (n, G + 1) matrix whose row i holds observation
        i's loss on each step, laid out like ``totals``.  Each column is
        summed with math.fsum, so the totals are correctly rounded.  Every
        row must be non-increasing and, when ``bound`` is given, within it.
        """
        mat = np.asarray(losses, dtype=float)
        if mat.ndim != 2:
            raise ValueError("losses must be an (n, G + 1) matrix")
        if np.isnan(mat).any():
            raise ValueError("losses must not contain NaN")
        if np.any(np.diff(mat, axis=1) > 0):
            raise ValueError("each observation's losses must be non-increasing")
        if bound is not None and np.any(mat > bound):
            raise ValueError(f"losses exceed their bound {bound}")
        totals = [math.fsum(col) for col in mat.T.tolist()]
        return cls(lambdas, totals, mat.shape[0], bound)

    def total(self, lam: float) -> float:
        """Sum of the losses at threshold lam."""
        return float(self.totals[np.searchsorted(self.lambdas, lam, side="right")])


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
        if np.isnan(lam).any() or np.any(np.diff(lam) <= 0):
            raise ValueError("lambdas must be strictly ascending")
        if not np.all((pv >= 0.0) & (pv <= 1.0)):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "pvals", pv)


def _first_ok(losses: Losses, ok) -> float:
    """Smallest candidate threshold whose loss sum passes ok, else +inf.

    The candidates are -inf, every finite breakpoint and +inf.  ok must
    fail on a prefix of them and hold on the rest, as any condition
    monotone in the sum does for non-increasing losses, so binary search
    locates the boundary exactly.
    """
    lam = losses.lambdas
    inner = lam[np.isfinite(lam)]

    def cand(k: int) -> float:
        if k == 0:
            return -math.inf
        return float(inner[k - 1]) if k <= inner.size else math.inf

    k = bisect.bisect_left(
        range(inner.size + 2), True, key=lambda k: ok(losses.total(cand(k)))
    )
    return cand(k)


def crc_lambda(losses: Losses, B: float, alpha) -> float:
    """Conformal risk control: inf{lam : (n R_hat(lam) + B)/(n+1) <= alpha}.

    The condition is monotone for non-increasing losses, so the infimum is
    located by binary search over the exact breakpoint candidates; the
    comparison n R_hat + B <= alpha (n + 1) runs in rational arithmetic,
    with a float alpha moved onto the grid j/(n + 1) it rounds from, so
    grid-boundary levels never misclassify.  Returns +inf when no finite
    threshold qualifies, which for 0-1 loss is the full-set sentinel.

    Examples
    --------
    >>> losses = Losses.zero_one(range(1, 10))
    >>> crc_lambda(losses, 1.0, 0.1)
    9.0
    """
    B = float(B)
    if B <= 0:
        raise ValueError(f"loss bound must be positive, got B={B}")
    a = as_fraction(alpha)
    if not 0 < a <= as_fraction(B):
        raise ValueError(
            f"need 0 < alpha <= B for a non-vacuous guarantee, got "
            f"alpha={alpha}, B={B}"
        )
    if losses.bound is not None and losses.bound > B:
        raise ValueError(f"loss bound {losses.bound} exceeds B={B}")

    # sum of losses <= alpha (n + 1) - B, exactly
    n = losses.n
    threshold = on_grid(alpha, n + 1) * (n + 1) - as_fraction(B)
    return _first_ok(losses, lambda total: Fraction(total) <= threshold)


def _zero_one_count(total: float, n: int) -> int:
    count = round(total)
    if abs(total - count) > _COUNT_TOL * max(1, n):
        raise ValueError(
            "exact binomial bound needs 0-1 losses; "
            f"sum of losses {total} is not an integer"
        )
    return int(count)


def ucb_lambda(
    losses: Losses,
    eps: float,
    delta: float,
    method: str = "exact-binomial",
) -> float:
    """Upper-confidence-bound calibration.

    Selects inf{lam : R_hat_plus(lam') <= eps for all lam' >= lam}, where
    R_hat_plus is a pointwise 1 - delta upper confidence bound on the
    risk.  Both shipped bounds are monotone in the empirical risk, so for
    non-increasing losses the condition is a suffix property of the
    breakpoint candidates and binary search locates the boundary exactly.
    Returns +inf when no threshold qualifies.

    Parameters
    ----------
    losses : Losses
        Non-increasing losses of the calibration observations.
    eps : float
        Risk level to control.
    delta : float
        Confidence budget of the pointwise bound.
    method : {"exact-binomial", "hoeffding"}
        Bound used for R_hat_plus.  The exact binomial one, the smallest p
        whose lower binomial tail at the observed exceedance count stays
        within delta, requires 0-1 losses and is never looser; the
        Hoeffding one, R_hat + B sqrt(ln(1/delta)/2n), works for any
        bounded loss (B from the loss bound).
    """
    n = losses.n
    eps = float(eps)
    delta = _check_prob("delta", delta, open_interval=True)

    if method == "exact-binomial":

        def ok(total: float) -> bool:
            return binom_inf_p(_zero_one_count(total, n), n, delta) <= eps

    elif method == "hoeffding":
        B = losses.bound
        if B is None:
            raise ValueError("hoeffding bound needs the loss bound set")
        if B <= 0:
            raise ValueError(f"loss bound must be positive, got B={B}")
        margin = B * math.sqrt(math.log(1.0 / delta) / (2.0 * n))

        def ok(total: float) -> bool:
            return total / n + margin <= eps

    else:
        raise ValueError(f"unknown method {method!r}")

    return _first_ok(losses, ok)


def ltt_pvalues(grid, losses: Losses, eps: float) -> PValueGrid:
    """Binomial p-values for the nulls R(lam_j) > eps on a threshold grid.

    p_j = Bin(n R_hat(lam_j); n, eps), super-uniform under the null for
    0-1 losses.

    Examples
    --------
    >>> losses = Losses.zero_one([1.0, 2.0])
    >>> round(float(ltt_pvalues([3.0], losses, 0.1).pvals[0]), 10)
    0.81
    """
    n = losses.n
    eps = _check_prob("eps", eps, open_interval=True)
    lam = np.asarray(grid, dtype=float)
    totals = losses.totals[np.searchsorted(losses.lambdas, lam, side="right")]
    counts = [_zero_one_count(t, n) for t in totals.tolist()]
    # one CDF per distinct count: a fine grid repeats them
    cdf = {k: binom_cdf(k, n, eps) for k in set(counts)}
    return PValueGrid(lambdas=lam, pvals=np.array([cdf[k] for k in counts]))


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

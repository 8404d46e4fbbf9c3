"""Risk-controlling threshold selection for monotone bounded losses.

Three calibrators generalize the split conformal ones from miscoverage to
arbitrary non-increasing losses in [0, B].  Conformal risk control picks
the smallest threshold where the inflated empirical risk
(n R_hat(lam) + B)/(n + 1) stays within alpha.  Upper-confidence-bound
calibration walks down from lambda = +inf while a pointwise upper bound
on the risk stays within eps; with the exact binomial (Clopper-Pearson
style) bound and 0-1 loss it reproduces the tolerance calibrator
threshold for threshold.  Learn-then-test recasts the grid search as
multiple testing with binomial p-values under FWER control.

Every route reads the calibration losses through one ``Losses``: their sum
over the n observations as a step function of lambda, held as its exact
breakpoints and the sum on each step, together with the bound B.  Each
route takes the losses and its levels and returns ``lambda_hat``, +inf
when no threshold qualifies.  Infima over lambda are taken over the
breakpoints, and the threshold conditions are compared in exact
rational arithmetic.  The exact binomial routes read the binomial a few
times per calibration: learn-then-test cuts its grid's counts at the one
count ``binom_sup_k`` gives, and upper-confidence-bound calibration
checks its bound at that count and the next.  Each route then cuts the
candidates' loss sums once.  The equivalence with the rank-based
calibrators is a theorem, and these routes are kept independent enough
that the test suite can check it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._rational import as_fraction, on_grid
from .dists import _check_prob, _check_trials, binom_inf_p, binom_sup_k

__all__ = ["Losses", "crc_lambda", "ucb_lambda", "ltt_lambda"]

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
    bound : float
        The bound B: each observation's loss lies in [0, B], with B
        positive and finite.

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
    bound: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        tot = np.asarray(self.totals, dtype=float)
        if lam.ndim != 1 or tot.shape != (lam.size + 1,):
            raise ValueError("need 1-d lambdas and one more total than lambdas")
        if np.isnan(lam).any() or np.any(np.diff(lam) <= 0):
            raise ValueError("lambdas must be strictly ascending")
        if np.isnan(tot).any() or np.any(np.diff(tot) > 0):
            raise ValueError("totals must be non-increasing and not NaN")
        try:
            n = _check_trials("n", self.n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {self.n!r}") from None
        bound = float(self.bound)
        if not 0 < bound < math.inf:
            raise ValueError(f"loss bound must be positive and finite, got {bound}")
        # the sums of losses in [0, B] lie in [0, n B]
        if not (tot[-1] >= 0 and tot[0] <= n * bound):
            raise ValueError(f"totals must lie in [0, n B] for the bound B={bound}")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "totals", tot)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bound", bound)

    @classmethod
    def zero_one(cls, scores) -> "Losses":
        """Miscoverage losses 1{score > lam} of calibration scores."""
        # + 0.0 turns -0.0 into 0.0, as NonconformityScores does
        s = np.sort(np.asarray(scores, dtype=float).ravel()) + 0.0
        lam = np.unique(s)
        above = s.size - np.searchsorted(s, lam, side="right")
        return cls(lam, np.concatenate(([s.size], above)), s.size, bound=1.0)

    @classmethod
    def steps(cls, lambdas, losses, bound: float) -> "Losses":
        """Per-observation losses on the steps of ``lambdas``, summed exactly.

        ``losses`` is an (n, G + 1) matrix whose row i holds observation
        i's loss on each step, laid out like ``totals``.  Each column is
        summed with math.fsum, so the totals are correctly rounded.  Every
        row must be non-increasing, and every entry must lie in [0, bound].
        """
        mat = np.asarray(losses, dtype=float)
        if mat.ndim != 2:
            raise ValueError("losses must be an (n, G + 1) matrix")
        if np.isnan(mat).any():
            raise ValueError("losses must not contain NaN")
        if np.any(np.diff(mat, axis=1) > 0):
            raise ValueError("each observation's losses must be non-increasing")
        if np.any(mat < 0) or np.any(mat > bound):
            raise ValueError(f"losses must lie in [0, B] for the bound B={bound}")
        totals = [math.fsum(col) for col in mat.T.tolist()]
        return cls(lambdas, totals, mat.shape[0], bound)

    def total(self, lam):
        """Sum of the losses at threshold lam, a float; an array for an array.

        A NaN threshold, alone or inside an array, raises ValueError.
        """
        if np.isnan(np.asarray(lam, dtype=float)).any():
            raise ValueError("threshold must not be NaN")
        t = self.totals[np.searchsorted(self.lambdas, lam, side="right")]
        return float(t) if np.ndim(t) == 0 else t


def _first_ok(losses: Losses, ok) -> float:
    """Smallest candidate threshold whose loss sum passes ok, else +inf.

    The candidates are -inf, every finite breakpoint and +inf.  ok maps
    the array of their sums to a bool array that fails on a prefix and
    holds on the rest, as any condition monotone in the sum does for
    non-increasing losses, so the number of failures indexes the answer.
    """
    lam = losses.lambdas
    # the finite breakpoints are lam[a:b]; candidate k's loss sum is sums[k]
    a = np.searchsorted(lam, -math.inf, side="right")
    b = np.searchsorted(lam, math.inf)
    sums = np.append(losses.totals[a : b + 1], losses.totals[-1])
    k = np.count_nonzero(~ok(sums))
    return float(np.concatenate(([-math.inf], lam[a:b], [math.inf] * 2))[k])


def crc_lambda(losses: Losses, alpha) -> float:
    """Conformal risk control: inf{lam : (n R_hat(lam) + B)/(n+1) <= alpha}.

    The condition is monotone for non-increasing losses, so the infimum is
    the first breakpoint candidate that meets it.  The comparison
    n R_hat + B <= alpha (n + 1) is exact: a float alpha moves onto the
    grid j/(n + 1) it rounds from, so grid-boundary levels never
    misclassify, and a sum passes when it is at most the largest double
    within the rational bound.  B is the bound of the losses.
    Returns +inf when no finite threshold qualifies, which for 0-1 loss is
    the full-set sentinel.

    Examples
    --------
    >>> losses = Losses.zero_one(range(1, 10))
    >>> crc_lambda(losses, 0.1)
    9.0
    """
    B = losses.bound
    a = as_fraction(alpha)
    if not 0 < a <= as_fraction(B):
        raise ValueError(
            f"need 0 < alpha <= B for a non-vacuous guarantee, got "
            f"alpha={alpha}, B={B}"
        )

    # sum of losses <= alpha (n + 1) - B, exactly
    n = losses.n
    threshold = on_grid(alpha, n + 1) * (n + 1) - as_fraction(B)
    cut = float(threshold)
    if Fraction(cut) > threshold:
        cut = math.nextafter(cut, -math.inf)
    return _first_ok(losses, lambda sums: sums <= cut)


def _zero_one_counts(totals, n: int) -> np.ndarray:
    """Exceedance counts behind an array of sums of 0-1 losses, as int64.

    A sum further than the tolerance from an integer, or above n, means
    the losses are not 0-1, which the exact binomial routes need.
    """
    t = np.asarray(totals, dtype=float)
    counts = np.round(t)
    off = (np.abs(t - counts) > _COUNT_TOL * max(1, n)) | (counts > n)
    if off.any():
        raise ValueError(
            "exact binomial bound needs 0-1 losses; "
            f"sum of losses {float(t[off].flat[0])} is not a count in 0..{n}"
        )
    return counts.astype(np.int64)


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
    non-increasing losses the condition holds on a suffix of the
    breakpoint candidates, and one cut over their sums finds it.  The
    exact binomial bound, assumed monotone in the count, admits the counts
    up to the largest k* with Bin(k*; n, eps) <= delta (``binom_sup_k``),
    which the bound itself certifies at k* and k* + 1; if it does not,
    a bisection over the counts finds the largest it admits.  Returns +inf
    when no threshold qualifies.

    Parameters
    ----------
    losses : Losses
        Non-increasing losses of the calibration observations.
    eps : float
        Risk level to control, in (0, 1) for the exact binomial bound and
        in (0, B] for Hoeffding's.
    delta : float
        Confidence budget of the pointwise bound.
    method : {"exact-binomial", "hoeffding"}
        Bound used for R_hat_plus.  The exact binomial one, the smallest p
        whose lower binomial tail at the observed exceedance count stays
        within delta, requires 0-1 losses (each candidate's sum a count
        in 0..n, else ValueError) and is never looser; the
        Hoeffding one, R_hat + B sqrt(ln(1/delta)/2n), works for any
        bounded loss (B from the loss bound).
    """
    n = losses.n
    delta = _check_prob("delta", delta, open_interval=True)

    if method == "exact-binomial":
        eps = _check_prob("eps", eps, open_interval=True)

        def over(count: int) -> bool:
            return binom_inf_p(count, n, delta) > eps

        def ok(sums):
            counts = _zero_one_counts(sums, n)  # every sum, before any bound
            k = binom_sup_k(n, eps, delta)
            if over(k) or not over(k + 1):
                # the first count over eps, from -1 (never) to n (always)
                k = bisect.bisect_left(range(-1, n + 1), True, key=over) - 2
            return counts <= k

    elif method == "hoeffding":
        eps = float(eps)
        if not 0 < eps <= losses.bound:
            raise ValueError(
                f"need 0 < eps <= B for a non-vacuous guarantee, got "
                f"eps={eps}, B={losses.bound}"
            )
        margin = losses.bound * math.sqrt(math.log(1.0 / delta) / (2.0 * n))

        def ok(sums):
            return sums / n + margin <= eps

    else:
        raise ValueError(f"unknown method {method!r}")

    return _first_ok(losses, ok)


def ltt_lambda(losses: Losses, eps: float, delta: float, grid=None) -> float:
    """Learn-then-test: fixed-sequence testing down a threshold grid.

    Each grid point lam_j carries the binomial p-value
    p_j = Bin(n R_hat(lam_j); n, eps) of the null R(lam_j) > eps,
    super-uniform under the null for 0-1 losses.  The walk goes from the
    largest threshold toward the smallest, spends the full budget delta on
    each test, no correction for the grid size, and stops at the first
    p-value above delta.  Returns the smallest threshold it rejects, one
    past the last grid point whose p-value exceeds delta, or +inf when
    that is the top one.  The grid's loss sums come from
    ``Losses.total``; the counts they hold fall as lambda rises and the
    p-values rise with the count, so the walk keeps exactly the points
    whose count is at most k* = sup{k : Bin(k; n, eps) <= delta}.  The
    route cuts the counts at the k* of ``binom_sup_k``, so it costs the
    grid's totals plus one inversion.

    Parameters
    ----------
    losses : Losses
        0-1 losses of the calibration observations: every sum on the grid
        must be a count in 0..n, else ValueError.
    eps, delta : float
        Risk level and family-wise error budget, each in (0, 1).
    grid : array_like, optional
        Strictly ascending thresholds to test; the breakpoints of the
        losses by default.

    Examples
    --------
    >>> losses = Losses.zero_one([1.0, 2.0])
    >>> ltt_lambda(losses, 0.1, 0.9, grid=[1.5, 3.0])  # p-values 0.99, 0.81
    3.0
    """
    eps = _check_prob("eps", eps, open_interval=True)
    delta = _check_prob("delta", delta, open_interval=True)
    lam = losses.lambdas if grid is None else np.asarray(grid, dtype=float)
    if lam.ndim != 1 or np.isnan(lam).any() or np.any(np.diff(lam) <= 0):
        raise ValueError("grid must be 1-d and strictly ascending")
    n = losses.n
    counts = _zero_one_counts(losses.total(lam), n)
    # the walk keeps the points after the last whose count exceeds k*
    first = np.count_nonzero(counts > binom_sup_k(n, eps, delta))
    return float(lam[first]) if first < lam.size else math.inf

"""Exact tail probabilities for binomial, beta and beta-binomial laws.

Every calibrator in this package reduces to inverting one of three
cumulative distribution functions, and the printed reference tables
require those inversions to be exact.  The binomial and beta-binomial
CDFs are therefore evaluated from first principles: pmf terms are generated
by the ratio recurrence between neighbours, anchored at the mode,
accumulated in extended precision and normalized by their own total, so no
cancellation and no external special function enters the result.  The
regularized incomplete beta function comes from scipy, which evaluates the
standard continued fraction.

The binomial inversions ``binom_sup_k`` (in k) and ``binom_inf_p`` (in p)
are bisections on the exact CDF.  Each starts from a certified bracket:
scipy's continuous inversion (``bdtrik``, ``betaincinv``) gives a guess,
and an end beside it counts once the exact CDF there clears the level by
the relative ``_MARGIN``, far above the CDF's own error.  For p the first
ends tried sit as close to the guess as the CDF's slope allows (its normal
approximation puts about two margins between guess and end), so the
bracket is narrower the larger n is.  The CDF is
monotone, so every probe beyond a certified end has that end's outcome
and skips the CDF; only probes inside the bracket evaluate it, near the
root, where its chains are short.  The probe sequence and the result are
those of the plain bisection, bit for bit; an end that fails to certify,
or a guess that is not finite, leaves that side to the plain bisection.

Integer inversions follow the lower quantile convention throughout: the
largest k whose CDF does not exceed the level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from scipy.special import bdtrik as _bdtrik
from scipy.special import betainc as _scipy_betainc
from scipy.special import betaincinv as _betaincinv

__all__ = [
    "BetaParams",
    "BetaBinParams",
    "SupKResult",
    "binom_cdf",
    "binom_sup_k",
    "binom_inf_p",
    "beta_reg",
    "betabin_pmf",
    "betabin_quantile",
]

# Terms farther than 12 sigma from the requested index add less than
# exp(-72) of the total mass (log-concavity of the binomial pmf); the pad
# keeps the window honest when sigma is small.
_WINDOW_SIGMAS = 12.0
_WINDOW_PAD = 64

# Enough halvings of [0, 1] to reach adjacent doubles anywhere in it,
# subnormals included; running out raises instead of returning early.
_BISECT_MAX_ITER = 1100

# A bracket end is certified when its exact CDF clears the level by this
# relative margin, 1000 times binom_cdf's relative error; a probe beyond a
# certified end then has the outcome its own evaluation would give.
_MARGIN = 1e-9
_GUESS_STEPS = (1e-9, 1e-6, 1e-3)
_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution.

    Parameters
    ----------
    a, b : float
        Strictly positive shapes.  Calibration laws use the integer pair
        (ceil((1 - alpha) (n + 1)), floor(alpha (n + 1))).
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError(
                f"beta shapes must be positive, got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class BetaBinParams:
    """Trial count and mixing-Beta shapes of a beta-binomial law.

    Parameters
    ----------
    trials : int
        Number of draws, at least 1 (the evaluation-set size when the law
        describes empirical coverage).
    a, b : float
        Strictly positive shapes of the mixing Beta distribution.
    """

    trials: int
    a: float
    b: float

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (self.a > 0 and self.b > 0):
            raise ValueError(
                f"beta shapes must be positive, got a={self.a}, b={self.b}"
            )


@dataclass(frozen=True)
class SupKResult:
    """Outcome of the integer inversion sup{k : Bin(k; n, eps) <= delta}.

    ``value`` is None exactly when no k in {0..n} meets the bound, i.e.
    when already (1 - eps)^n > delta.  Callers map that to the degenerate
    full-set calibration; collapsing it to k = 0 would silently weaken the
    guarantee.
    """

    value: int | None

    @property
    def infeasible(self) -> bool:
        return self.value is None


def _check_prob(name: str, x: float, *, open_interval: bool = False) -> float:
    x = float(x)
    if open_interval:
        ok = 0.0 < x < 1.0
    else:
        ok = 0.0 <= x <= 1.0
    if not ok:
        bounds = "(0, 1)" if open_interval else "[0, 1]"
        raise ValueError(f"{name} must lie in {bounds}, got {x}")
    return x


def _check_trials(name: str, n) -> int:
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return n


def _binom_chains(n: int, p: float, anchor: int, lo_end: int, hi_end: int):
    """Relative pmf terms around ``anchor``.

    Returns (down, up) where down[j] = pmf(anchor-1-j)/pmf(anchor) covers
    indices anchor-1 .. lo_end and up[j] = pmf(anchor+1+j)/pmf(anchor)
    covers anchor+1 .. hi_end.
    """
    one = np.longdouble(1)
    pl = np.longdouble(p)
    ql = one - pl
    down = up = np.empty(0, dtype=np.longdouble)
    if anchor > lo_end:
        i = np.arange(anchor, lo_end, -1, dtype=np.longdouble)
        down = np.cumprod(i * ql / ((n - i + one) * pl))
    if hi_end > anchor:
        i = np.arange(anchor, hi_end, dtype=np.longdouble)
        up = np.cumprod((n - i) * pl / ((i + one) * ql))
    return down, up


def binom_cdf(k, n, p: float) -> float:
    """Binomial CDF Bin(k; n, p) = sum_{i<=k} C(n,i) p^i (1-p)^(n-i).

    Parameters
    ----------
    k : int
        Success count; any integer is accepted (k < 0 gives 0, k >= n
        gives 1).
    n : int
        Number of trials, at least 1.
    p : float
        Success probability in [0, 1].

    Returns
    -------
    float
        The lower tail probability, with relative error well below 1e-12
        for n up to 10^6.

    Examples
    --------
    >>> round(binom_cdf(0, 100, 0.1), 9)
    2.6561e-05
    >>> binom_cdf(100, 100, 0.1)
    1.0
    """
    n = _check_trials("n", n)
    p = _check_prob("p", p)
    k = math.floor(k)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0

    window = int(_WINDOW_SIGMAS * math.sqrt(n * p * (1.0 - p))) + _WINDOW_PAD
    anchor = min(n, int((n + 1) * p))
    one = np.longdouble(1)
    if k <= anchor:
        lo_end = max(0, k - window)
        hi_end = min(n, anchor + window)
        down, up = _binom_chains(n, p, anchor, lo_end, hi_end)
        total = one + down.sum() + up.sum()
        if k == anchor:
            lower = one + down.sum()
        else:
            lower = down[anchor - 1 - k :].sum()
        return float(lower / total)
    first_above = k + 1
    lo_end = max(0, anchor - window)
    hi_end = min(n, first_above + window)
    down, up = _binom_chains(n, p, anchor, lo_end, hi_end)
    total = one + down.sum() + up.sum()
    upper = up[first_above - anchor - 1 :].sum()
    return float((total - upper) / total)


def _sup_k_bracket(n: int, eps: float, delta: float) -> tuple[int, int]:
    """Certified ends (a, b): every k <= a meets delta, every k >= b does not.

    The ends sit one count beyond scipy's ``bdtrik`` guess either way; one
    that fails to certify stays at -1 or n, which certifies nothing.
    """
    a, b = -1, n
    g = float(_bdtrik(delta, n, eps))
    if math.isfinite(g):
        ga = min(max(math.floor(g) - 1, 0), n)
        gb = min(max(math.ceil(g) + 1, 0), n)
        if binom_cdf(ga, n, eps) <= delta * (1.0 - _MARGIN):
            a = ga
        if binom_cdf(gb, n, eps) > delta * (1.0 + _MARGIN):
            b = gb
    return a, b


def binom_sup_k(n, eps: float, delta: float) -> SupKResult:
    """Largest k in {0..n} with Bin(k; n, eps) <= delta.

    Monotone binary search over k; the CDF is non-decreasing in k, so the
    bracket invariant is exact.  Returns an infeasible result when even
    k = 0 exceeds delta, which happens iff (1 - eps)^n > delta.

    Probes outside the certified bracket of ``_sup_k_bracket`` take its
    ends' outcomes, so only probes near the root call ``binom_cdf``; the
    result is the plain search's (see the module docstring).

    Examples
    --------
    >>> binom_sup_k(1000, 0.1, 0.1).value
    87
    >>> binom_sup_k(100, 0.001, 0.1).infeasible
    True
    """
    n = _check_trials("n", n)
    eps = _check_prob("eps", eps, open_interval=True)
    delta = _check_prob("delta", delta, open_interval=True)
    a, b = _sup_k_bracket(n, eps, delta)
    if a < 0 and binom_cdf(0, n, eps) > delta:
        return SupKResult(None)
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid <= a or (mid < b and binom_cdf(mid, n, eps) <= delta):
            lo = mid
        else:
            hi = mid
    return SupKResult(lo)


def _inf_p_slope(n: int, delta: float, g: float) -> float:
    """Normal-approximation slope of -ln Bin(k; n, p) in ln p at p = g.

    With z = Phi^-1(delta), the CDF near its root g behaves like
    Phi(z - (p - g) sqrt(n / (g (1 - g)))), whose log moves at the rate
    sqrt(n g / (1 - g)) phi(z) / delta per unit of ln p.
    """
    z = _STD_NORMAL.inv_cdf(delta)
    return math.sqrt(n * g / (1.0 - g)) * _STD_NORMAL.pdf(z) / delta


def _inf_p_bracket(k: int, n: int, delta: float) -> tuple[float, float]:
    """Certified ends (a, b): every p <= a misses delta, every p >= b meets it.

    The ends are tried at relative steps either side of scipy's
    ``betaincinv`` root (``bdtri`` is NaN for n >= 10^12): first at the
    step over which ``_inf_p_slope`` puts two margins of CDF change, when
    that step is below 1e-9, then at 1e-9, 1e-6 and 1e-3.  The narrower the
    bracket, the fewer bisection probes call the CDF.  A wrong slope only
    costs calls, since every end is certified by the exact CDF; one that
    fails at every step stays at 0 or 1, which certifies nothing.
    """
    a, b = 0.0, 1.0
    g = float(_betaincinv(k + 1, n - k, 1.0 - delta))
    if not 0.0 < g < 1.0:
        return a, b
    steps = _GUESS_STEPS
    slope = _inf_p_slope(n, delta, g)
    if slope * _GUESS_STEPS[0] > 2.0 * _MARGIN:
        steps = (2.0 * _MARGIN / slope, *_GUESS_STEPS)
    for r in steps:
        lo, hi = g * (1.0 - r), g * (1.0 + r)
        if a == 0.0 and binom_cdf(k, n, lo) > delta * (1.0 + _MARGIN):
            a = lo
        if b == 1.0 and hi < 1.0 and binom_cdf(k, n, hi) <= delta * (1.0 - _MARGIN):
            b = hi
    return a, b


def binom_inf_p(k, n, delta: float) -> float:
    """Smallest p with Bin(k; n, p) <= delta.

    The CDF decreases strictly in p for 0 <= k < n, so the infimum is the
    unique root of Bin(k; n, p) = delta, located by bisection on [0, 1]
    and returned from the admissible (upper) side of the final bracket.
    k < 0 gives 0 (the CDF is identically zero) and k >= n gives 1 (the
    CDF is identically one, so only the limit qualifies).

    Probes outside the certified bracket of ``_inf_p_bracket`` take its
    ends' outcomes, so only probes near the root call ``binom_cdf``; the
    result is the plain bisection's (see the module docstring).  Raises
    ArithmeticError if ``_BISECT_MAX_ITER`` halvings do not reach
    adjacent doubles.

    Examples
    --------
    >>> round(binom_inf_p(99, 1000, 0.1), 6)
    0.112203
    >>> binom_inf_p(-1, 100, 0.1)
    0.0
    """
    n = _check_trials("n", n)
    delta = _check_prob("delta", delta, open_interval=True)
    k = math.floor(k)
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    a, b = _inf_p_bracket(k, n, delta)
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if mid >= b or (mid > a and binom_cdf(k, n, mid) <= delta):
            hi = mid
        else:
            lo = mid
    raise ArithmeticError(
        f"binom_inf_p({k}, {n}, {delta}) did not converge in"
        f" {_BISECT_MAX_ITER} halvings"
    )


def beta_reg(x: float, params: BetaParams) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Examples
    --------
    >>> beta_reg(0.5, BetaParams(1, 1))
    0.5
    >>> beta_reg(1.0, BetaParams(3.2, 0.7))
    1.0
    """
    x = _check_prob("x", x)
    return float(_scipy_betainc(params.a, params.b, x))


def _betabin_terms(params: BetaBinParams) -> np.ndarray:
    """Unnormalized pmf terms over {0..trials}, 1 at the mode, longdouble."""
    n = params.trials
    a = np.longdouble(params.a)
    b = np.longdouble(params.b)
    one = np.longdouble(1)

    def up_ratio(i: int) -> float:
        # pmf(i+1) / pmf(i)
        return float((n - i) * (a + i) / ((i + 1) * (b + n - i - one)))

    # Start at the mean and walk to the argmax so every term is <= 1.
    anchor = min(n, max(0, round(n * params.a / (params.a + params.b))))
    while anchor < n and up_ratio(anchor) >= 1.0:
        anchor += 1
    while anchor > 0 and up_ratio(anchor - 1) < 1.0:
        anchor -= 1

    terms = np.empty(n + 1, dtype=np.longdouble)
    terms[anchor] = one
    if anchor > 0:
        i = np.arange(anchor, 0, -1, dtype=np.longdouble)
        down = np.cumprod(i * (b + n - i) / ((n - i + one) * (a + i - one)))
        terms[anchor - 1 :: -1] = down
    if anchor < n:
        i = np.arange(anchor, n, dtype=np.longdouble)
        up = np.cumprod((n - i) * (a + i) / ((i + one) * (b + n - i - one)))
        terms[anchor + 1 :] = up
    return terms


def betabin_pmf(params: BetaBinParams) -> np.ndarray:
    """Full beta-binomial pmf over {0, ..., trials}.

    Convenience for histogram overlays and distance statistics; the vector
    is normalized to sum to one.

    Examples
    --------
    >>> pmf = betabin_pmf(BetaBinParams(10, 2.0, 3.0))
    >>> pmf.shape
    (11,)
    >>> round(float(pmf.sum()), 12)
    1.0
    """
    terms = _betabin_terms(params)
    return (terms / terms.sum()).astype(np.float64)


def betabin_quantile(q: float, params: BetaBinParams) -> int:
    """Largest k whose beta-binomial CDF is <= q (lower quantile convention).

    Returns -1 in the degenerate case where already the mass at zero
    exceeds q.

    Examples
    --------
    >>> betabin_quantile(0.5, BetaBinParams(100, 3.0, 3.0)) in range(40, 60)
    True
    """
    q = _check_prob("q", q, open_interval=True)
    cum = np.cumsum(_betabin_terms(params))
    cdf = cum / cum[-1]
    return int(np.searchsorted(cdf, np.longdouble(q), side="right")) - 1

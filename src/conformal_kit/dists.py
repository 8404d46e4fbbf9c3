"""Exact tail probabilities for binomial, beta and beta-binomial laws.

Every calibrator in this package reduces to inverting one of three
cumulative distribution functions, and the printed reference tables
require those inversions to be exact.  The binomial and beta-binomial
CDFs are therefore evaluated from first principles: pmf terms are generated
by the ratio recurrence between neighbours, anchored at the mode,
accumulated in extended precision and normalized by their own total, so no
cancellation and no external special function enters the result.  The
regularized incomplete beta function comes from scipy, which evaluates the
standard continued fraction.  scipy.special is imported at the first call
that needs it (an inversion's guess or ``beta_reg``), not with the module,
so code that only reads order statistics never loads it.

The binomial inversions ``binom_sup_k`` (in k) and ``binom_inf_p`` (in p)
are one bracketed bisection on the exact CDF, ``_boundary``.  scipy's
continuous inversion (``bdtrik``, ``betainccinv``) gives a guess, and an
end beside it counts once the exact CDF there clears the level by 1000
times ``_cdf_err``, the stated worst-case relative error of ``binom_cdf``
at that point (about 1.1e-14 at n = 10^6).  The ends tried first sit as
close to the guess as that slack allows: the adjacent counts for k, and
for p the step over which the CDF's normal approximation puts two slacks
of change, so the bracket is narrower the larger n is.  The CDF is
monotone, so every probe beyond a certified end has that end's outcome
and skips the CDF; only probes inside the bracket evaluate it, near the
root, where its chains are short.  The probe sequence and the result are
those of the plain bisection, bit for bit; an end that fails to certify,
or a guess that is not finite, leaves that side to the plain bisection.

Integer inversions follow the lower quantile convention throughout: the
largest k whose CDF does not exceed the level, -1 when there is none.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "BetaParams",
    "BetaBinParams",
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
# subnormals included, and of any count range binom_cdf can evaluate;
# running out raises instead of returning early.
_BISECT_MAX_ITER = 1100

# A bracket end is certified when its exact CDF clears the level by this
# many times binom_cdf's error bound there (``_cdf_err``); a probe beyond a
# certified end then has the outcome its own evaluation would give.  The
# factor also covers the bound's growth from an end to the probes beyond
# it, whose chains are longer only where the CDF has moved far more.
_SLACK = 1000.0
# Integers below this are exact in long double; its machine epsilon is the
# u of ``_cdf_err``.
_EXACT_COUNTS = 2 ** (np.finfo(np.longdouble).nmant + 1)
_LD_EPS = float(np.finfo(np.longdouble).eps)
_GUESS_STEPS = (1e-9, 1e-6, 1e-3)
_STD_NORMAL = NormalDist()


def _bdtrik(y, n, p):
    from scipy.special import bdtrik  # loaded at the first inversion

    return bdtrik(y, n, p)


def _betainccinv(a, b, y):
    from scipy.special import betainccinv  # loaded at the first inversion

    return betainccinv(a, b, y)


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


def _window(n: int, p: float):
    """Mode of Bin(n, p), where the pmf chains are anchored, and how many
    counts a chain runs past those it covers (12 sigma plus the pad)."""
    window = int(_WINDOW_SIGMAS * math.sqrt(n * p * (1.0 - p))) + _WINDOW_PAD
    return min(n, int((n + 1) * p)), window


def _cdf_ends(k: int, n: int, p: float):
    """Anchor and end counts of the chain ``binom_cdf`` builds, 0 <= k < n.

    The chain covers k..anchor, or anchor..k + 1 when k lies above the
    anchor, and the window past both sides, within 0..n.
    """
    anchor, window = _window(n, p)
    if k <= anchor:
        return anchor, max(0, k - window), min(n, anchor + window)
    return anchor, max(0, anchor - window), min(n, k + 1 + window)


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
        The lower tail probability, within the relative error
        ``_cdf_err(k, n, p)`` states (at p = 0.1 and k = n p, about
        7.6e-16 at n = 2000 and 1.1e-14 at n = 10^6).

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

    anchor, lo_end, hi_end = _cdf_ends(k, n, p)
    down, up = _binom_chains(n, p, anchor, lo_end, hi_end)
    one = np.longdouble(1)
    total = one + down.sum() + up.sum()
    if k > anchor:
        return float((total - up[k - anchor :].sum()) / total)
    lower = one + down.sum() if k == anchor else down[anchor - 1 - k :].sum()
    return float(lower / total)


def _chain_err(n: int, lo_end: int, hi_end: int) -> float:
    """``_cdf_err`` of a value read from the pmf chain over lo_end..hi_end."""
    if hi_end >= _EXACT_COUNTS:
        return math.inf
    r = 4 if n < _EXACT_COUNTS else 7
    length = hi_end - lo_end + 1
    return ((2 * r + 6) * length + 2) * _LD_EPS + 2.0**-53 + 4 * math.exp(-72)


def _cdf_err(k, n: int, p: float) -> float:
    """Stated worst-case relative error of ``binom_cdf(k, n, p)``.

    Zero where ``binom_cdf`` returns an exact 0 or 1.  Otherwise let u be
    the long-double machine epsilon, twice its unit roundoff, which
    absorbs the second-order terms (m roundings anywhere in a product or
    quotient move it by at most m u while m u <= 1), and L the length of
    the chain ``_cdf_ends`` gives.

    - Each ratio of neighbouring pmf terms takes r = 4 roundings (1 - p,
      two products, the quotient), its counts being exact in long double
      below ``_EXACT_COUNTS``.  For larger n, n's conversion and the two
      count sums add 3, so r = 7; counts in the chain past it have no
      bound (inf).
    - ``cumprod`` adds one rounding per step, so every term, and any sum
      of terms taken exactly, is within (r + 1) L u.
    - Each sum adds at most L roundings to each term, since numpy's
      pairwise sum stays within the linear bound.
    - At or below the anchor the value is lower / total: 2 (r + 1) L for
      the terms, 2 L for the sums and 1 for the quotient.
    - Above it the value is (total - upper) / total.  The terms' errors
      do not cancel, as total - upper is a sum of terms, but the sums'
      errors, L u (total + upper), grow by (total + upper) / (total -
      upper), which is at most 3 when the value is at least 1/2.  It is
      when k >= n p, since the median of Bin(n, p) is at most ceil(n p).
      So 2 (r + 1) L for the terms, 3 L + L for the sums and 2 for the
      difference and the quotient.  A k above the anchor but below n p
      takes float rounding of the anchor, so n >= 2^53 - 1; there no
      bound is stated (inf).

    To the larger count, ((2 r + 6) L + 2) u, add 2^-53 for the
    conversion to double (for results in its normal range) and e^-72 of
    the mass for each end the window drops (see ``_WINDOW_SIGMAS``),
    doubled for the cancellation above the anchor.  With the 80-bit long
    double (u = 2^-63) at p = 0.1 the bound is about 1.1e-14 at n = 10^6
    and reaches 1e-12 near n = 10^10; with a plain double (u = 2^-52) it
    is 2048 times as large.
    """
    k = math.floor(k)
    if k < 0 or k >= n or p == 0.0 or p == 1.0:
        return 0.0
    anchor, lo_end, hi_end = _cdf_ends(k, n, p)
    num, den = float(p).as_integer_ratio()
    if k > anchor and k * den < n * num:
        return math.inf
    return _chain_err(n, lo_end, hi_end)


def _slack(side: int, k, n: int, p: float) -> float:
    """``side`` times the certification slack at Bin(k; n, p), 0 if side is 0."""
    return side * _SLACK * _cdf_err(k, n, p) if side else 0.0


def _table_ends(n: int, p: float, kmax: int):
    """Anchor and top count of ``_binom_table``'s chain, which starts at 0."""
    anchor, window = _window(n, p)
    return anchor, min(n, max(anchor, kmax) + window)


def _binom_table(n: int, p: float, kmax: int) -> np.ndarray:
    """Bin(k; n, p) for k = 0..kmax and 0 < p < 1, from one pmf chain.

    ``binom_cdf``'s chain, run from the mode down to 0 and 12 sigma past
    max(mode, kmax), gives cumulative sums over its total, so a value can
    differ from ``binom_cdf``'s by an ulp.  Counts k >= n read 1.0.
    """
    anchor, top = _table_ends(n, p, kmax)
    down, up = _binom_chains(n, p, anchor, 0, top)
    cum = np.cumsum(np.concatenate((down[::-1], np.ones(1, np.longdouble), up)))
    table = np.ones(kmax + 1)
    stop = min(kmax + 1, n)
    table[:stop] = cum[:stop] / cum[-1]
    return table


def _table_err(n: int, p: float, kmax: int) -> float:
    """Relative error bound of every ``_binom_table(n, p, kmax)`` value.

    It is ``_chain_err`` of the table's chain: its cumulative sums never
    cancel, and that chain holds ``binom_cdf``'s for every k <= kmax but
    one count, so the bound covers those values too.
    """
    return _chain_err(n, 0, _table_ends(n, p, kmax)[1])


def _boundary(lo, hi, half, ok, ends):
    """Final bracket (lo, hi) of a bisection for the change of ``ok``.

    ``ok(x, side)`` is monotone in x, false at ``lo`` and true at ``hi``
    (neither end is evaluated).  ``side`` 0 asks the plain question; +1
    asks ``ok`` to hold, and -1 to fail, by a slack the caller computes at
    x, so that the answer there is every probe's beyond x.  Each (x, y)
    in ``ends`` is a pair of bracket ends beside a guess, tried in turn
    until one of each certifies: x once ``ok(x, -1)`` fails, y once
    ``ok(y, 1)`` holds.  Bisection by ``half`` then starts from (lo, hi),
    as the plain search does, and a probe beyond a certified end takes
    that end's outcome without calling ``ok``.  It stops when ``half``
    returns an end, i.e. at adjacent points, and raises ArithmeticError
    if ``_BISECT_MAX_ITER`` halvings do not get there.
    """
    a, b = lo, hi
    for x, y in ends:
        if a == lo and lo < x < hi and not ok(x, -1):
            a = x
        if b == hi and lo < y < hi and ok(y, 1):
            b = y
    for _ in range(_BISECT_MAX_ITER):
        mid = half(lo, hi)
        if mid == lo or mid == hi:
            return lo, hi
        if mid >= b or (mid > a and ok(mid, 0)):
            hi = mid
        else:
            lo = mid
    raise ArithmeticError(
        f"bisection did not reach adjacent points in {_BISECT_MAX_ITER} halvings"
    )


def binom_sup_k(n, eps: float, delta: float) -> int:
    """Largest k in {0..n} with Bin(k; n, eps) <= delta, -1 if there is none.

    The CDF is non-decreasing in k, so a binary search over (-1, n] finds
    the last k that meets delta.  It returns -1 exactly when even k = 0
    exceeds delta, i.e. (1 - eps)^n > delta; callers map that to the
    degenerate full-set calibration, since collapsing it to k = 0 would
    silently weaken the guarantee.  The bracket ends are the counts either
    side of scipy's ``bdtrik`` guess, then one count further out (see the
    module docstring).

    Examples
    --------
    >>> binom_sup_k(1000, 0.1, 0.1)
    87
    >>> binom_sup_k(100, 0.001, 0.1)
    -1
    """
    n = _check_trials("n", n)
    eps = _check_prob("eps", eps, open_interval=True)
    delta = _check_prob("delta", delta, open_interval=True)
    g = float(_bdtrik(delta, n, eps))
    ends = []
    if math.isfinite(g):
        ends = [(math.floor(g), math.ceil(g)), (math.floor(g) - 1, math.ceil(g) + 1)]
    lo, _ = _boundary(
        -1,
        n,
        lambda lo, hi: (lo + hi) // 2,
        lambda k, side: binom_cdf(k, n, eps) > delta * (1.0 + _slack(side, k, n, eps)),
        ends,
    )
    return lo


def _inf_p_slope(n: int, delta: float, g: float) -> float:
    """Normal-approximation slope of -ln Bin(k; n, p) in ln p at p = g.

    With z = Phi^-1(delta), the CDF near its root g behaves like
    Phi(z - (p - g) sqrt(n / (g (1 - g)))), whose log moves at the rate
    sqrt(n g / (1 - g)) phi(z) / delta per unit of ln p.
    """
    z = _STD_NORMAL.inv_cdf(delta)
    return math.sqrt(n * g / (1.0 - g)) * _STD_NORMAL.pdf(z) / delta


def binom_inf_p(k, n, delta: float) -> float:
    """Smallest p with Bin(k; n, p) <= delta.

    The CDF decreases strictly in p for 0 <= k < n, so the infimum is the
    unique root of Bin(k; n, p) = delta, located by bisection on (0, 1]
    and returned from the admissible (upper) side of the final bracket.
    k < 0 gives 0 (the CDF is identically zero) and k >= n gives 1 (the
    CDF is identically one, so only the limit qualifies).

    The bracket ends sit at relative steps either side of scipy's
    ``betainccinv`` root (``bdtri`` is NaN for n >= 10^12): first at the
    step over which ``_inf_p_slope`` puts two certification slacks of CDF
    change, when that step is below 1e-9, then at 1e-9, 1e-6 and 1e-3.
    A wrong slope only costs calls, since every end is certified by the
    exact CDF.
    Raises ArithmeticError if ``_BISECT_MAX_ITER`` halvings do not reach
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
    g = float(_betainccinv(k + 1, n - k, delta))
    ends = []
    if 0.0 < g < 1.0:
        steps = _GUESS_STEPS
        margin = _SLACK * _cdf_err(k, n, g)
        slope = _inf_p_slope(n, delta, g)
        if slope * _GUESS_STEPS[0] > 2.0 * margin:
            steps = (2.0 * margin / slope, *_GUESS_STEPS)
        ends = [(g * (1.0 - r), g * (1.0 + r)) for r in steps]
    _, hi = _boundary(
        0.0,
        1.0,
        lambda lo, hi: 0.5 * (lo + hi),
        lambda p, side: binom_cdf(k, n, p) <= delta * (1.0 - _slack(side, k, n, p)),
        ends,
    )
    return hi


def beta_reg(x: float, params: BetaParams) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Examples
    --------
    >>> beta_reg(0.5, BetaParams(1, 1))
    0.5
    >>> beta_reg(1.0, BetaParams(3.2, 0.7))
    1.0
    """
    from scipy.special import betainc  # loaded at the first Beta CDF

    x = _check_prob("x", x)
    return float(betainc(params.a, params.b, x))


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

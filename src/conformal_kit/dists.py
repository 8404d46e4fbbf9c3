"""Exact tail probabilities for binomial, beta and beta-binomial laws.

Every calibrator in this package reduces to inverting one of three
cumulative distribution functions, and the printed reference tables
require those inversions to be exact.  The binomial and beta-binomial
CDFs are therefore evaluated from first principles: pmf terms are generated
by the ratio recurrence between neighbours, anchored at the mode, and
accumulated in extended precision.  Every value, at every k, is a sum of
terms over the sum of all of them, so no cancellation and no external
special function enters the result.  One builder, ``_pmf_chain``, makes
the chain of either law, and one read, ``_cdf_table``, its CDF values.
The binomial chain serves ``binom_cdf`` and ``_binom_table`` under one
stated error bound, ``_chain_err``; its counts stay below 2^64, else
ValueError.  Only four array operations of a chain depend on p; its
counts depend on the chain's ends alone (``_chain_counts``), so one
inversion in p builds them once for all its probes near the root, and a
single read builds them in the arrays it then overwrites.
The regularized incomplete beta function comes from scipy, which evaluates
the standard continued fraction.  scipy.special is imported at the first
call that needs it (the guess of ``binom_inf_p``, or ``beta_reg``), not
with the module, so code that only reads order statistics or binomial
counts never loads it.

The decisions Bin(k; n, eps) <= delta over many counts are made in one
place, ``binom_sup_k`` (the inversion in k, whose count also cuts ltt's
grid): it reads one chain as a table of the counts from a guess below
the answer and lets ``binom_cdf`` settle the values near delta, up to
the first count that decides (``_first_exceeding``).  The inversion in p,
``binom_inf_p``, bisects the exact CDF from a bracket beside scipy's
``betainccinv`` guess: an end counts once the CDF there clears the level
by ``_SLACK`` = 4 times ``_cdf_err``, ``binom_cdf``'s stated worst-case
relative error (about 1.1e-14 at n = 10^6).  Four is the smallest whole
factor for which that bound proves both uses sound (the derivation is at
``_SLACK``).  The ends tried first sit where the CDF's normal
approximation puts two slacks of change, often within an ulp of the
guess, and wider steps from 3e-16 on follow (scipy's guess is mostly
within 2 ulp).  Every probe beyond a certified end takes its outcome without
the CDF, so the probe sequence and the result are the plain bisection's,
bit for bit; an end that fails to certify, or a guess that is not
finite, leaves that side to the plain bisection.

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

# A value is decided from a certified one by the slack S: with e(p) the
# stated relative error of binom_cdf (``_cdf_err``), c a computed and F the
# exact CDF, c(x) > delta (1 + S e(x)) gives F(x) > delta (1 + S e(x)) /
# (1 + e(x)), and any m with F(m) >= F(x) then computes c(m) >= F(m)
# (1 - e(m)) > delta when
#     e(m) (1 + S e(x)) <= (S - 1) e(x);                               (*)
# below delta (1 - S e(x)) the same holds with 1 - S e(x).  The bound is
# c0 + c1 L with c0 > 0 and L the chain's length (``_length_err``), so (*)
# holds at S = 4 whenever L(m) <= 2.9 L(x) and e(x) < 1/120, as it is for
# any chain that fits in memory.  Its two uses:
# - ``_first_exceeding``: binom_cdf's chain at a count of the table lies in
#   the table's chain, or runs at most one window past its top; the table
#   holds that window and the anchor below its top, so L(m) <= 2 L(x) - 1
#   and (*) needs S - 1 >= 2 (1 + S e(x)), i.e. S > 3.
# - ``binom_inf_p``: a probe m beyond a certified end x has F(m) on x's
#   side of delta (the CDF falls in p), and (*) covers it while its chain
#   is at most 2.9 times x's.  A longer chain reaches 1.9 L(x), at least
#   3.8 windows (45 sigma + 243 counts), past x's, so k lies that much
#   deeper in a tail of one of the two laws than of the other; a tail that
#   deep holds less than e^-360 of the mass (Bernstein), and the CDF has
#   moved by far more than any bound.  Only below the root can it not:
#   there F(m) may be within e^-360 of 1 already, so c(m) > delta needs
#   delta < 1 - 2 e' for an e' >= e(m) (``_err_below``), which a lower
#   end also checks.
_SLACK = 4.0
# Integers below this are exact in long double; its machine epsilon is the
# u of ``_chain_err``.
_EXACT_COUNTS = 2 ** (np.finfo(np.longdouble).nmant + 1)
_LD_EPS = float(np.finfo(np.longdouble).eps)
# binom_inf_p's relative bracket steps beyond its slope-sized first one:
# scipy's guess is mostly within 2 ulp (about 3e-16) of the root, and far
# off only at small k or a level near 1, where the last steps serve
_GUESS_STEPS = (3e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.03, 0.5)
# binom_sup_k's restarts, each step twice the last: count 0 from any below 2^64
_MAX_RESTARTS = 64
_STD_NORMAL = NormalDist()


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


def _chain_ends(n: int, p: float, lo: int, hi: int):
    """Anchor and end counts of the pmf chain that covers counts lo..hi.

    The anchor is the mode of Bin(n, p); the chain runs 12 sigma plus the
    pad past min(lo, mode) and max(hi, mode), within 0..n.  Raises
    ValueError when its top count reaches ``_EXACT_COUNTS``, where
    long-double counts are no longer exact.
    """
    window = int(_WINDOW_SIGMAS * math.sqrt(n * p * (1.0 - p))) + _WINDOW_PAD
    anchor = min(n, int((n + 1) * p))
    hi_end = min(n, max(hi, anchor) + window)
    if hi_end >= _EXACT_COUNTS:
        raise ValueError(
            f"Bin(n={n}, p={p}) needs pmf terms up to count {hi_end}; "
            f"long-double counts are exact only below {_EXACT_COUNTS}"
        )
    return anchor, max(0, min(lo, anchor) - window), hi_end


def _chain_counts(n: int, anchor: int, lo_end: int, hi_end: int):
    """The counts of the chain's ratios, one side at a time, in long double:
    (i, n - i + 1) for i = anchor down to lo_end + 1, then (n - i, i + 1)
    for i = anchor up to hi_end - 1.  Exact below ``_EXACT_COUNTS``, and
    rounded as each expression rounds past it.  A generator, so a caller
    that reuses the storage holds one side's counts at a time."""
    one = np.longdouble(1)
    i = np.arange(anchor, lo_end, -1, dtype=np.longdouble)
    b = np.subtract(n, i)
    yield i, np.add(b, one, out=b)
    del b
    i = np.arange(anchor, hi_end, dtype=np.longdouble)
    b = i + one
    yield np.subtract(n, i, out=i), b


def _pmf_chain(n: int, ends, down_xy, up_xy, memo=None):
    """(anchor, down, up) of a pmf chain over lo_end..hi_end, for
    ends = (anchor, lo_end, hi_end): down[j] = pmf(anchor-1-j)/pmf(anchor)
    runs down to the low end, and up[j] = pmf(anchor+1+j)/pmf(anchor) up to
    the top end.

    Each side is cumprod(a x / (b y)) over its counts (a, b) from
    ``_chain_counts``, where the law's ``down_xy`` and ``up_xy`` map that
    side's counts to its factors (x, y).  Without ``memo`` the counts are built
    here and overwritten in place; a dict ``memo`` holds the counts of the
    last chain ends it saw, so the probes of one inversion that share those
    ends only redo the operations that depend on the law, bit for bit as a
    fresh build."""
    if memo is not None and ends not in memo:
        memo.clear()
        memo[ends] = tuple(_chain_counts(n, *ends))
    counts = _chain_counts(n, *ends) if memo is None else iter(memo[ends])

    def side(a, b, factors):
        x, y = factors(a, b)
        ratio = np.multiply(a, x, out=a if memo is None else None)
        np.divide(ratio, np.multiply(b, y, out=b if memo is None else None), out=ratio)
        return np.cumprod(ratio, out=ratio)

    down = side(*next(counts), down_xy)
    return ends[0], down, side(*next(counts), up_xy)


def _binom_chains(n: int, p: float, lo: int, hi: int, memo=None):
    """``_pmf_chain`` of Bin(n, p) over ``_chain_ends`` for lo..hi, with
    (x, y) = (1 - p, p) down and (p, 1 - p) up; ``memo`` as there."""
    pl = np.longdouble(p)
    ql = np.longdouble(1) - pl
    return _pmf_chain(
        n, _chain_ends(n, p, lo, hi), lambda a, b: (ql, pl), lambda a, b: (pl, ql), memo
    )


def _cdf(k: int, n: int, p: float, memo=None) -> float:
    """``binom_cdf`` of checked arguments and an integer k; ``memo`` as in
    ``_binom_chains``."""
    if k < 0:
        return 0.0
    if k >= n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    anchor, down, up = _binom_chains(n, p, k, k, memo)
    below = np.longdouble(1) + down.sum()
    total = below + up.sum()
    if k < anchor:
        return float(down[anchor - 1 - k :].sum() / total)
    return float((below + up[: k - anchor].sum()) / total)


def binom_cdf(k, n, p: float) -> float:
    """Binomial CDF Bin(k; n, p) = sum_{i<=k} C(n,i) p^i (1-p)^(n-i).

    The sum of the chain's terms up to k over the sum of all of them, on
    either side of the mode, so nothing cancels.  Raises ValueError if the
    chain needs counts from 2^64 on (``_chain_ends``).

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
    return _cdf(math.floor(k), n, p)


def _chain_err(n: int, p: float, lo: int, hi: int) -> float:
    """Stated worst-case relative error of a value read from the chain
    over lo..hi as a sum of its terms over the sum of all of them.

    Let u be the long-double machine epsilon, twice its unit roundoff, so
    that it absorbs second-order terms (m roundings in a product or
    quotient move it by at most m u while m u <= 1), and L the length of
    the chain ``_chain_ends`` gives.

    - Each ratio of neighbouring terms takes r = 4 roundings (1 - p, two
      products, the quotient), its counts being exact below
      ``_EXACT_COUNTS``; past it n's conversion and the two count sums
      add 3, so r = 7 (the chain's own counts stay below it).
    - ``cumprod`` adds one rounding a step: each term is within (r + 1) L u.
    - Any sum of at most L terms (pairwise, over slices or cumulative) is
      a tree of depth below L, and a sum of positive terms keeps their
      relative error, so both sums are within (r + 2) L u and their
      quotient within ((2 r + 4) L + 1) u.

    The stated ((2 r + 6) L + 2) u covers that, plus 2^-53 for the
    conversion to double (results in its normal range) and 4 e^-72 for
    the mass the window drops (``_WINDOW_SIGMAS``): e^-72 at the
    numerator's low end and at each end of the total.  With the 80-bit
    long double (u = 2^-63) at p = 0.1 it is about 1.1e-14 at n = 10^6 and
    1e-12 near n = 10^10; with a plain double (u = 2^-52), 2048 times as
    large.  The chain over lo..hi holds every k..k chain inside it, so its
    bound covers their values too.
    """
    _, lo_end, hi_end = _chain_ends(n, p, lo, hi)
    return _length_err(n, hi_end - lo_end + 1)


def _length_err(n: int, length: int) -> float:
    """``_chain_err`` of a chain of Bin(n, .) with ``length`` terms."""
    r = 4 if n < _EXACT_COUNTS else 7
    return ((2 * r + 6) * length + 2) * _LD_EPS + 2.0**-53 + 4 * math.exp(-72)


def _err_below(k: int, n: int, x: float) -> float:
    """A bound on ``_cdf_err(k, n, m)`` for every m in (x / 2, x].

    The ``_length_err`` of the counts from min(k, mode at x / 2) to
    max(k, mode at x), with a window past each end as wide as at
    min(x, 1/2), the widest in that range (one count wider, for the
    rounding of n m (1 - m)): every chain ``_chain_ends`` gives in that
    range lies inside it.
    """
    h = min(x, 0.5)
    window = int(_WINDOW_SIGMAS * math.sqrt(n * h * (1.0 - h))) + _WINDOW_PAD + 1
    lo_end = max(0, min(k, int((n + 1) * (0.5 * x))) - window)
    hi_end = min(n, max(k, int((n + 1) * x)) + window)
    return _length_err(n, hi_end - lo_end + 1)


def _cdf_err(k, n: int, p: float) -> float:
    """Stated worst-case relative error of ``binom_cdf(k, n, p)``: zero
    where it returns an exact 0 or 1, else ``_chain_err`` of its chain."""
    k = math.floor(k)
    if k < 0 or k >= n or p == 0.0 or p == 1.0:
        return 0.0
    return _chain_err(n, p, k, k)


def _cdf_table(anchor: int, down, up, lo: int) -> np.ndarray:
    """CDF values for k = lo (at least the low end) up to the top of a
    ``_pmf_chain`` (anchor, down, up): cumulative sums over the total, so
    the top reads 1.0.  The sums run in place, up from the low end through
    ``down`` reversed, the anchor's 1 and ``up``; only the float64 values
    from lo on are new."""
    rev = down[::-1]
    np.cumsum(rev, out=rev)
    below = (rev[-1] if rev.size else 0) + np.longdouble(1)
    if up.size:
        up[0] += below
        np.cumsum(up, out=up)
    total = up[-1] if up.size else below
    at = anchor - lo  # the anchor's place among the values from lo on
    out = np.empty(at + 1 + up.size)
    np.divide(rev[rev.size - at :], total, out=out[: max(at, 0)])
    if at >= 0:
        out[at] = below / total
    np.divide(up[max(-at - 1, 0) :], total, out=out[max(at + 1, 0) :])
    return out


def _binom_table(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """Bin(k; n, p) for k = lo up to the top of its chain, and 0 < p < 1.

    The ``_cdf_table`` of the chain ``_binom_chains`` gives for lo..hi, so
    a value can differ from ``binom_cdf``'s by an ulp; each is within
    ``_chain_err(n, p, lo, hi)``.  The top count is at least min(hi, n).
    """
    return _cdf_table(*_binom_chains(n, p, lo, hi), lo)


def _first_exceeding(n: int, p: float, lo: int, delta: float):
    """Smallest count k from lo with Bin(k; n, p) > delta, and one past the
    top of the ``_binom_table`` from lo when there is none.

    The table's values decide, except those within max(``_SLACK`` times
    the table's bound times delta, 2^-1074) of delta, which ``binom_cdf``
    settles in ascending order up to the first count that exceeds.  Its
    chain at k lies inside the table's, or runs at most one window past its
    top, so it is at most twice as long and its bound at most twice the
    table's; then a slack S with S - 1 >= 2 (1 + S e) makes the two agree
    on every other value (the derivation at ``_SLACK``), and 4 does.
    """
    table = _binom_table(n, p, lo, lo)
    band = max(_SLACK * _chain_err(n, p, lo, lo) * delta, 2.0**-1074)
    near = np.abs(table - delta) <= band
    clear = (table > delta) & ~near
    stop = int(np.argmax(clear)) if clear.any() else table.size
    for i in np.flatnonzero(near[:stop]).tolist():
        if binom_cdf(lo + i, n, p) > delta:
            return lo + i
    return lo + stop


def binom_sup_k(n, eps: float, delta: float) -> int:
    """Largest k in {0..n} with Bin(k; n, eps) <= delta, -1 if there is none.

    It returns -1 exactly when even k = 0 exceeds delta, i.e.
    (1 - eps)^n > delta; callers map that to the degenerate full-set
    calibration, since collapsing it to k = 0 would silently weaken the
    guarantee.  The CDF is non-decreasing in k, so the answer is the count
    before the first that exceeds delta in one read from below it
    (``_first_exceeding``).  The read starts two counts below the
    skew-corrected normal quantile n eps + z sigma + (z^2 - 1)(1 - 2 eps)/6
    and, while its first count exceeds delta, restarts lower by steps that
    double from ``_WINDOW_PAD``, at most ``_MAX_RESTARTS`` times; then
    ArithmeticError.

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
    z = _STD_NORMAL.inv_cdf(delta)
    sigma = math.sqrt(n * eps * (1.0 - eps))
    skew = (z * z - 1.0) * (1.0 - 2.0 * eps) / 6.0
    lo = min(n, max(0, math.floor(n * eps + z * sigma + skew) - 2))
    for restart in range(_MAX_RESTARTS + 1):
        first = _first_exceeding(n, eps, lo, delta)
        if lo == 0 or first > lo:
            return first - 1
        lo = max(0, lo - (_WINDOW_PAD << restart))
    raise ArithmeticError(f"no read began below the answer in {_MAX_RESTARTS} restarts")


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
    ``betainccinv`` root (``bdtri`` is NaN for n >= 10^12), tried in turn
    until each side certifies: first at the step over which
    ``_inf_p_slope`` puts two certification slacks of CDF change (at most
    0.5), then at each of ``_GUESS_STEPS`` (3e-16 up to 0.5) beyond it.  A
    guess that rounds to 1 counts as the last double below it.  An end x
    below the guess certifies when Bin(k; n, x) > delta (1 + 4 e(x)) and
    delta < 1 - 2 ``_err_below(k, n, x)``, and an end y above it when
    Bin(k; n, y) <= delta (1 - 4 e(y)), for e = ``_cdf_err``.  The probes
    a plain bisection puts below x lie in (x / 2, x], and the derivation at
    ``_SLACK`` gives each probe beyond a certified end the end's outcome.
    A wrong guess or slope only costs calls, since every end is certified
    by the exact CDF.  Each probe point is evaluated once, and the probes
    read the CDF through one memo of chain counts that lives for this call
    only: the ones near the root share the chain's ends, so the counts are
    built once per inversion, not once per probe, at the cost of holding
    them (about 1.8 times the peak memory of a single CDF read).
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
    memo, values = {}, {}

    def cdf(p: float) -> float:
        # a step below half an ulp puts both ends of a pair on the guess
        if p not in values:
            values[p] = _cdf(k, n, p, memo)
        return values[p]

    # the CDF exceeds delta at lo and not at hi; a probe at or below a
    # fails, and one at or above b holds, without evaluating the CDF
    lo, hi = 0.0, 1.0
    a, b = lo, hi
    if 0.0 < g <= 1.0:
        g = min(g, 1.0 - 2.0**-53)  # a root past the last double below 1
        margin = 2.0 * _SLACK * _cdf_err(k, n, g)
        slope = _inf_p_slope(n, delta, g)
        last = _GUESS_STEPS[-1]
        first = margin / slope if margin < last * slope else last
        for r in (first, *(r for r in _GUESS_STEPS if r > first)):
            # every step is below 1, so x lies in (0, g]; only y can reach 1
            x, y = g * (1.0 - r), g * (1.0 + r)
            if a == lo and delta < 1.0 - 2.0 * _err_below(k, n, x):
                need = delta * (1.0 + _SLACK * _cdf_err(k, n, x))
                # a CDF value is a part of a sum over the whole: never above 1
                if need < 1.0 and cdf(x) > need:
                    a = x
            if b == hi and y < hi:
                if cdf(y) <= delta * (1.0 - _SLACK * _cdf_err(k, n, y)):
                    b = y
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if mid >= b or (mid > a and cdf(mid) <= delta):
            hi = mid
        else:
            lo = mid
    raise ArithmeticError(
        f"bisection did not reach adjacent doubles in {_BISECT_MAX_ITER} halvings"
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
    from scipy.special import betainc  # loaded at the first Beta CDF

    x = _check_prob("x", x)
    return float(betainc(params.a, params.b, x))


def _betabin_chain(params: BetaBinParams):
    """(anchor, down, up) of the beta-binomial pmf chain over {0..trials},
    anchored where a walk up the pmf from the mean stops: the mode, or for
    a, b < 1 (a U shape) the end of the support the walk reaches.

    Its factors over each side's counts (d, c) are (x, y) = (c - 1 + b,
    d - 1 + a) down and (c - 1 + a, d - 1 + b) up, so the ratios are
    pmf(i - 1)/pmf(i) = i (n - i + b) / ((n - i + 1)(i - 1 + a)) and
    pmf(i + 1)/pmf(i) = (n - i)(i + a) / ((i + 1)(n - i - 1 + b)).  Each
    shape is added once to an exact count, so a shape far below 1 keeps
    its digits.  Stated worst-case relative error, derived as
    ``_chain_err``'s: ((2 r + 6) L + 2) u + 2^-53 for pmf and CDF values in
    the double's normal range, with L = trials + 1 and no window term.
    Each ratio takes r = 5 roundings (x, y, two products, the quotient),
    or r = 3 for integer shapes, whose sums are exact.
    """
    n = params.trials
    a = np.longdouble(params.a)
    b = np.longdouble(params.b)
    one = np.longdouble(1)

    def up_ratio(i: int) -> float:
        # pmf(i+1) / pmf(i)
        return float((n - i) * (a + i) / ((i + 1) * (b + n - i - one)))

    # Start at the mean and walk uphill to a local maximum.
    anchor = min(n, max(0, round(n * params.a / (params.a + params.b))))
    while anchor < n and up_ratio(anchor) >= 1.0:
        anchor += 1
    while anchor > 0 and up_ratio(anchor - 1) < 1.0:
        anchor -= 1
    return _pmf_chain(
        n,
        (anchor, 0, n),
        lambda d, c: (c - one + b, d - one + a),
        lambda d, c: (c - one + a, d - one + b),
    )


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
    _, down, up = _betabin_chain(params)
    terms = np.concatenate((down[::-1], [np.longdouble(1)], up))
    return (terms / terms.sum()).astype(np.float64)

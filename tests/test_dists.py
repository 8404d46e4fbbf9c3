"""Binomial/beta tail machinery against independent oracles.

The binomial CDF ships as a mode-anchored ratio recurrence, so every
check here goes through a different route: exact rational summation,
multi-precision summation, or scipy's betainc-based reference.
"""

import itertools
import math
import struct
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conformal_kit import cli, dists
from conformal_kit.dists import (
    BetaBinParams,
    BetaParams,
    beta_reg,
    betabin_pmf,
    binom_cdf,
    binom_inf_p,
    binom_sup_k,
)

from helpers import (
    beta_cdf_mp,
    betabin_cdf_exact,
    betabin_pmf_exact,
    binom_cdf_exact,
    binom_cdf_mp,
    binom_cdf_mpsum,
    binom_inf_p_bisect,
    binom_inf_p_mp,
    binom_sup_k_bisect,
    binom_sup_k_exact,
)

# Smallest admissible double of Bin(k; n, p) = delta, frozen from the
# mpmath bisection oracle (binom_inf_p_mp at 50 digits) and re-verified
# below through the one-sided root property.
INF_P_CASES = {
    (99, 1000, 0.1): 0.11220307321122522,
    (49, 1000, 0.01): 0.06725790531021712,
    (33, 1000, 0.01): 0.04862070420365535,
    (0, 100, 0.1): 0.02276277904418932,
    (87, 1000, 0.05): 0.1030806244285018,
}

# binom_cdf values frozen bit for bit (repr round-trips a double), so that
# a refactor of the numerics that moves one shows; the comment says where
# k sits against the chain's anchor, the mode min(n, floor((n + 1) p)).
BINOM_CDF_BITS = {
    (0, 1, 0.25): 0.75,  # mode
    (2, 7, 0.5): 0.2265625,  # below
    (5, 7, 0.5): 0.9375,  # above
    (1, 37, 1e-06): 0.9999999993340155,  # above
    (1, 37, 0.1): 0.10363063790672018,  # below
    (6, 37, 0.1): 0.9289149417282427,  # above
    (87, 1000, 0.1): 0.09192916210560996,  # below
    (105, 1000, 0.1): 0.7220855940075,  # above
    (130, 1000, 0.1): 0.9990305585092043,  # above
    (998, 1000, 0.999999): 4.991677902470782e-07,  # below
    (1999, 2000, 0.999): 0.8648000746025005,  # above
    (950, 2000, 0.5): 0.013412073120140347,  # below
    (1050, 2000, 0.5): 0.9880525473354765,  # above
    (5, 100000, 0.0001): 0.06707650449728682,  # below
    (15, 100000, 0.0001): 0.9512682764014707,  # above
    (99500, 1000000, 0.1): 0.04787763846261579,  # below
    (100000, 1000000, 0.1): 0.5008422104052018,  # mode
    (100700, 1000000, 0.1): 0.9901766594627146,  # above
    (499000, 1000000, 0.5): 0.02280414993269104,  # below
    (501000, 1000000, 0.5): 0.9773038320453279,  # above
    (0, 1000000, 1e-06): 0.3678792572316451,  # below
    (3, 1000000, 1e-06): 0.9810119044370966,  # above
    (999998, 1000000, 0.999999): 0.26424111766766334,  # below
    # past 2^64 the counts n - i and n - i + 1 round, as n does
    (200, 2**70 + 3, 2e-19): 0.008915522148277193,  # below
    (26, 2**60 + 12345, 3e-17): 0.07999755929960711,  # below
}


def test_binom_cdf_edges():
    assert binom_cdf(-1, 10, 0.3) == 0.0
    assert binom_cdf(10, 10, 0.3) == 1.0
    assert binom_cdf(25, 10, 0.3) == 1.0
    assert binom_cdf(0, 1, 0.25) == 0.75
    assert binom_cdf(3, 10, 0.0) == 1.0
    assert binom_cdf(3, 10, 1.0) == 0.0
    # non-integer k truncates
    assert binom_cdf(2.7, 10, 0.3) == binom_cdf(2, 10, 0.3)


def test_binom_cdf_frozen_bits():
    for (k, n, p), want in BINOM_CDF_BITS.items():
        assert _bits(binom_cdf(k, n, p)) == _bits(want), (k, n, p)


def test_binom_cdf_validation():
    with pytest.raises(ValueError):
        binom_cdf(3, 10, -0.1)
    with pytest.raises(ValueError):
        binom_cdf(3, 10, 1.5)
    with pytest.raises(ValueError):
        binom_cdf(3, 0, 0.5)
    with pytest.raises(TypeError):
        binom_cdf(3, 10.5, 0.5)


def test_binom_cdf_exact_small():
    # every (k, n) pair up to n = 12 against exact rational summation
    for n in range(1, 13):
        for k in range(n):
            for p in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)):
                want = float(binom_cdf_exact(k, n, p))
                got = binom_cdf(k, n, float(p))
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize(
    "k, n, p",
    [
        (99, 1000, 0.1),
        (87, 1000, 0.1),
        (88, 1000, 0.1),
        (5, 1000, 0.1),
        (995, 1000, 0.9),
        (40, 1000, 0.05),
        (0, 1000, 0.004),
        (460, 500, 0.9),
    ],
)
def test_binom_cdf_moderate_vs_mp(k, n, p):
    want = float(binom_cdf_mp(k, n, p, dps=50))
    assert binom_cdf(k, n, p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "k, n, p",
    [
        (99_500, 1_000_000, 0.1),
        (100_000, 1_000_000, 0.1),
        (100_700, 1_000_000, 0.1),
        (996, 1_000_000, 0.001),
        (999_280, 1_000_000, 0.999),
        (49_000, 1_000_000, 0.05),
    ],
)
def test_binom_cdf_large_n_vs_mpsum(k, n, p):
    # the recurrence must hold its contract far beyond scipy's comfort zone
    want = float(binom_cdf_mpsum(k, n, p, dps=50))
    assert binom_cdf(k, n, p) == pytest.approx(want, rel=1e-12)


_BOUND_CASES = [
    (n, oracle, p)
    for n, oracle in [
        (37, binom_cdf_mp), (2000, binom_cdf_mp), (999_983, binom_cdf_mpsum)
    ]
    for p in (1e-6, 0.1, 0.5, 1 - 1e-6)
] + [
    (2**60 + 12345, binom_cdf_mpsum, 3e-17),
    (2**70 + 3, binom_cdf_mpsum, 2e-19),
]


@pytest.mark.parametrize(
    "n, oracle, p", _BOUND_CASES, ids=[f"{n}-{p}" for n, _, p in _BOUND_CASES]
)
def test_binom_cdf_within_its_stated_bound(n, oracle, p):
    # counts 8 sigma out in both tails, the extreme counts, and either side
    # of the delta = 0.1 quantile; betainc raises NoConvergence near 10^6.
    # Past 2^64 the bound takes r = 7 roundings per ratio.  Past 2^53 the
    # top count is left out, as its chain would hold all n counts.
    mean, sd = n * p, math.sqrt(n * p * (1 - p))
    k_delta = binom_sup_k(n, p, 0.1)
    counts = {0, math.floor(mean - 8 * sd), k_delta, k_delta + 1}
    counts |= {math.ceil(mean + 8 * sd), n - 1 if n < 2**53 else 0}
    for k in sorted(k for k in counts if 0 <= k < n):
        want = oracle(k, n, p, dps=60 if n > 2**53 else 50)
        if want < 2.0**-1022:
            continue  # the bound covers results in double's normal range
        err = abs(mpmath.mpf(binom_cdf(k, n, p)) - want) / want
        assert err <= dists._cdf_err(k, n, p), (k, n, p)


def test_binom_cdf_raises_past_exact_long_double_counts():
    # counts near 10^20 are 8 apart in long double, so the ratios between
    # neighbouring terms of this ~7300-term chain are wrong: its read gives
    # 1.0 where the exact value is about 0.5016
    with pytest.raises(ValueError, match="long-double counts are exact"):
        binom_cdf(10**20 - 88817, 10**20, 1 - 2**-50)


def test_binom_cdf_matches_scipy_on_grid():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5000))
        k = int(rng.integers(0, n))
        p = float(rng.uniform(0.001, 0.999))
        want = scipy.stats.binom.cdf(k, n, p)
        assert binom_cdf(k, n, p) == pytest.approx(want, rel=5e-12, abs=1e-280)


def test_binom_cdf_monotone_in_k_and_p():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 800))
        p = float(rng.uniform(0.01, 0.99))
        vals = [binom_cdf(k, n, p) for k in range(n + 1)]
        # exact, with no tolerance: ltt's cut at binom_sup_k's count is its
        # walk only where the doubles never decrease in k
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        k = int(rng.integers(0, n))
        ps = np.linspace(0.01, 0.99, 21)
        in_p = [binom_cdf(k, n, q) for q in ps]
        assert all(a >= b - 1e-15 for a, b in zip(in_p, in_p[1:]))


def test_binom_sup_k_brackets_delta():
    rng = np.random.default_rng(7)
    for _ in range(80):
        n = int(rng.integers(1, 300))
        eps = Fraction(int(rng.integers(1, 99)), 100)
        delta = Fraction(int(rng.integers(1, 99)), 100)
        got = binom_sup_k(n, float(eps), float(delta))
        want = binom_sup_k_exact(n, eps, delta)
        if want is None:
            assert got == -1
        else:
            assert got == want
            assert binom_cdf(want, n, float(eps)) <= float(delta)
            if want < n:
                assert binom_cdf(want + 1, n, float(eps)) > float(delta)


def test_binom_sup_k_past_the_range_of_a_continuous_guess():
    # scipy's bdtrik gives NaN from n = 10^18 on; the answer needs a chain
    # of about 160 terms
    n, eps = 2**60 + 12345, 3e-17
    k = binom_sup_k(n, eps, 0.1)
    assert k == 26
    assert binom_cdf(k, n, eps) <= 0.1 < binom_cdf(k + 1, n, eps)


def test_binom_sup_k_infeasible_iff_zero_count_fails():
    for n, eps, delta in [(50, 0.02, 0.3), (200, 0.05, 0.001), (10, 0.3, 0.01)]:
        infeasible = binom_sup_k(n, eps, delta) == -1
        assert infeasible == ((1 - eps) ** n > delta)


def test_binom_inf_p_frozen_values():
    for (k, n, delta), want in INF_P_CASES.items():
        assert binom_inf_p(k, n, delta) == want


def test_binom_inf_p_is_smallest_admissible_double():
    for (k, n, delta), want in INF_P_CASES.items():
        assert binom_cdf(k, n, want) <= delta
        below = np.nextafter(want, 0.0)
        assert binom_cdf(k, n, below) > delta


def test_binom_inf_p_edges_and_oracle():
    assert binom_inf_p(-1, 100, 0.1) == 0.0
    assert binom_inf_p(100, 100, 0.1) == 1.0
    assert binom_inf_p(260, 100, 0.1) == 1.0
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 2000))
        k = int(rng.integers(0, n))
        delta = float(rng.uniform(0.001, 0.5))
        want = float(binom_inf_p_mp(k, n, delta, dps=40))
        assert binom_inf_p(k, n, delta) == pytest.approx(want, rel=1e-12)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _levels(draw):
    """A two-decimal level, or log-uniform in [1e-9, 0.5], mirrored near 1."""
    tiny = math.exp(draw(st.floats(math.log(1e-9), math.log(0.5))))
    return draw(
        st.one_of(
            st.integers(1, 99).map(lambda j: j / 100),
            st.sampled_from([tiny, 1.0 - tiny]),
        )
    )


def _assert_replays_bisection(n, eps, delta, k):
    assert binom_sup_k(n, eps, delta) == binom_sup_k_bisect(n, eps, delta)
    got = binom_inf_p(k, n, delta)
    assert _bits(got) == _bits(binom_inf_p_bisect(k, n, delta)), (k, n, delta)


def _assert_inversions_match_bisection(n, data):
    eps = data.draw(_levels())
    delta = data.draw(_levels())
    near = math.floor(eps * n)
    k = data.draw(st.sampled_from([-1, 0, n - 1, n, near - 1, near, near + 1]))
    _assert_replays_bisection(n, eps, delta, k)


@st.composite
def _edge_levels(draw):
    """A level within 10^-15 to 10^-3 of 1, or in [1e-300, 1e-20]."""
    near_one = 1.0 - 10.0 ** -draw(st.integers(3, 15))
    tiny = 10.0 ** draw(st.floats(-300.0, -20.0))
    return draw(st.sampled_from([near_one, tiny]))


def _assert_edge_inversions_match_bisection(n, data):
    # the regimes a slack of 4 rests on: the CDF within an error bound of 1
    # or far below any normal value, eps near 1, and counts at either end
    delta = data.draw(_edge_levels())
    eps = data.draw(
        st.one_of(st.integers(1, 15).map(lambda x: 1.0 - 10.0**-x), _levels())
    )
    k = data.draw(
        st.sampled_from([0, 1, 2, 5, n - 2, n - 1, math.floor(n * eps) - 3])
    )
    _assert_replays_bisection(n, eps, delta, k)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 3000), st.data())
def test_inversions_replay_plain_bisection_at_edge_levels(n, data):
    _assert_edge_inversions_match_bisection(n, data)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(st.sampled_from([99_991, 1_000_003, 2_000_003]), st.data())
def test_inversions_replay_plain_bisection_at_edge_levels_large_n(n, data):
    _assert_edge_inversions_match_bisection(n, data)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 2000), st.data())
def test_inversions_replay_plain_bisection(n, data):
    _assert_inversions_match_bisection(n, data)


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(st.sampled_from([999_983, 1_000_000, 1_048_576]), st.data())
def test_inversions_replay_plain_bisection_near_a_million(n, data):
    _assert_inversions_match_bisection(n, data)


@pytest.mark.parametrize(
    "sigmas, slope_scale",
    [(math.nan, 1.0), (10.0, 1.0), (-10.0, 1.0), (0.0, 1e-6), (0.0, 1e6)],
    ids=["nan", "10.0", "-10.0", "slope-1e-06", "slope-1e+06"],
)
def test_inversions_without_a_usable_guess(monkeypatch, sigmas, slope_scale):
    # a NaN guess certifies no end; one 10 sigma off certifies at most the
    # end on its own side of the root; a slope 10^6 too small skips the
    # slope-sized step, one 10^6 too large certifies no end at it.  A z
    # 10 higher starts binom_sup_k's read 10 sigma above the answer, so it
    # restarts lower in several steps; 10 lower starts it a longer read.
    betainccinv = dists._betainccinv
    slope = dists._inf_p_slope
    if not math.isnan(sigmas):
        monkeypatch.setattr(dists, "_STD_NORMAL", NormalDist(mu=sigmas))

    def off_betainccinv(a, b, y):
        g = betainccinv(a, b, y)
        return g + sigmas * math.sqrt(g * (1 - g) / (a + b - 1))

    monkeypatch.setattr(dists, "_betainccinv", off_betainccinv)
    monkeypatch.setattr(
        dists, "_inf_p_slope", lambda n, delta, g: slope_scale * slope(n, delta, g)
    )
    for n, eps, delta, k in [
        (1, 0.5, 0.3, 0),
        (100, 0.1, 0.1, 9),
        (1000, 0.01, 0.05, 3),
        (2000, 0.9, 1e-6, 1790),
        (20_000, 0.05, 0.5, 999),
        (1, 4.127e-4, 2.735e-10, 0),
    ]:
        assert binom_sup_k(n, eps, delta) == binom_sup_k_bisect(n, eps, delta)
        got = binom_inf_p(k, n, delta)
        assert _bits(got) == _bits(binom_inf_p_bisect(k, n, delta))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    st.integers(1, 3000),
    st.floats(math.log(1e-6), math.log1p(-1e-6)),
    st.data(),
)
def test_binom_table_matches_binom_cdf(n, log_eps, data):
    eps = math.exp(log_eps)
    kmax = data.draw(st.integers(0, n + 2))
    table = dists._binom_table(n, eps, 0, kmax)[: kmax + 1]
    want = np.array([binom_cdf(k, n, eps) for k in range(min(kmax, n) + 1)])
    assert table.shape == want.shape
    # each is within its stated bound of the exact value, and the table's
    # chain holds every binom_cdf chain up to kmax, so ltt's settle band,
    # drawn from the table's bound alone, covers both
    bound = dists._chain_err(n, eps, 0, kmax)
    assert all(dists._chain_err(n, eps, k, k) <= bound for k in range(kmax + 1))
    normal = want >= 2.0**-1022
    err = np.abs(table - want)[normal]
    assert np.all(err <= 2 * bound * want[normal]), (n, eps, kmax)


def _counted(monkeypatch, name):
    calls = []
    real = getattr(dists, name)
    monkeypatch.setattr(dists, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.fixture
def chain_calls(monkeypatch):
    """Evaluations of the pmf chain, one per CDF value an inversion reads."""
    return _counted(monkeypatch, "_binom_chains")


def test_tables_probe_binom_cdf_only_near_the_roots(chain_calls, capsys):
    assert cli.main(["tables", "--n", "1000003", "--levels", "0.1"]) == 0
    capsys.readouterr()
    # a plain bisection over [0, n] and [0, 1] makes 77 CDF calls here, one
    # bracketed at a fixed 1e-9 step around the inf-p guess 31, one
    # certified at a flat relative margin of 1e-9 23, and one at a slack of
    # 1000 times the bound 13; at a slack of 4 it makes 6
    assert 0 < len(chain_calls) <= 8


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_binom_inf_p_brackets_at_the_slope_step(chain_calls, n):
    k = math.floor(0.1 * (n + 1) - 1)
    p = binom_inf_p(k, n, 0.1)
    # 5 at n = 10^5 and 4 at n = 10^6; 12 at a slack of 1000 times the
    # bound, and 27 with the bracket at the fixed 1e-9 step
    assert 0 < len(chain_calls) <= 6
    assert binom_cdf(k, n, p) <= 0.1 < binom_cdf(k, n, np.nextafter(p, 0.0))


@pytest.mark.parametrize(
    "k, n, delta, sparse_calls",
    [(5, 1262690, 0.1, 27), (7, 1635809, 0.1, 24), (20, 9896198, 0.01, 21)],
)
def test_binom_inf_p_costs_little_more_where_the_guess_is_poor(
    chain_calls, k, n, delta, sparse_calls
):
    # at small k and large n scipy's guess is 2e-12 to 1e-11 off (up to
    # 10^5 ulp), so the first steps fail on the root's side before one
    # certifies; the ladder from 3e-16 makes 26, 25 and 22 calls, against
    # the sparse_calls of the ladder from 1e-9 at a slack of 1000
    p = binom_inf_p(k, n, delta)
    assert 0 < len(chain_calls) <= sparse_calls + 3
    assert binom_cdf(k, n, p) <= delta < binom_cdf(k, n, np.nextafter(p, 0.0))


def test_binom_inf_p_builds_its_counts_once(monkeypatch, chain_calls):
    # the probes near the root share the chain's ends, so they share its
    # counts; a certified end whose ends differ may build them once more
    builds = _counted(monkeypatch, "_chain_counts")
    n = 10**6
    binom_inf_p(math.floor(0.1 * (n + 1) - 1), n, 0.1)
    assert 1 <= len(builds) <= 2 < len(chain_calls)


def test_binom_inf_p_states_its_error_only_at_bracket_ends(monkeypatch):
    # the slack enters only where a bracket end is certified: once for the
    # guess's margin and at most once per end tried, never at a plain
    # probe; at n = 10^6 both ends certify in the first pair, at the
    # slope's step, so the ladder's further pairs are never tried
    err_calls = _counted(monkeypatch, "_cdf_err")
    n = 10**6
    binom_inf_p(n // 10 - 1, n, 0.1)
    assert len(err_calls) == 1 + 2


def test_binom_sup_k_reads_one_chain(monkeypatch, chain_calls):
    # the read starts below the answer and no value sits near delta, so
    # one chain decides every count and binom_cdf settles none
    cdf_calls = _counted(monkeypatch, "binom_cdf")
    k = binom_sup_k(10**6, 0.1, 0.1)
    assert len(chain_calls) == 1 and not cdf_calls
    assert k == binom_sup_k_bisect(10**6, 0.1, 0.1)


def test_binom_sup_k_holds_its_chain_once(chain_calls):
    # the table's cumulative sums run in place in the chain's own arrays,
    # so the read never holds a second copy of it; summing a concatenated
    # copy peaks at twice the chain
    n, eps = 10**9, 0.1
    tracemalloc.start()
    try:
        binom_sup_k(n, eps, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (args,) = chain_calls
    _, lo_end, hi_end = dists._chain_ends(*args)
    chain_bytes = np.dtype(np.longdouble).itemsize * (hi_end - lo_end + 1)
    assert peak < 1.6 * chain_bytes


def test_binom_inf_p_brackets_a_tiny_level(chain_calls):
    # 1 - 1e-300 rounds to 1, so only the complemented inverse gives a guess
    k, n, delta = 3, 10**7, 1e-300
    p = binom_inf_p(k, n, delta)
    # 25 calls, as at a slack of 1000 times the bound; 66 without a guess
    assert 0 < len(chain_calls) <= 28
    assert binom_cdf(k, n, p) <= delta < binom_cdf(k, n, np.nextafter(p, 0.0))


def test_binom_inf_p_past_2_to_the_64():
    # the chain's counts round past 2^64, and the counts a probe reuses
    # must round as a fresh build's do; the plain bisection cannot run
    # here, since its first probe p = 1/2 needs counts past 2^64
    assert binom_inf_p(200, 2**70 + 3, 0.1) == 1.8581343080148762e-19


@pytest.mark.parametrize("digits", [15, 50, 100, 300])
def test_binom_inf_p_tiny_root_is_smallest_admissible_double(digits):
    n = 10**digits
    p = binom_inf_p(0, n, 0.1)
    assert binom_cdf(0, n, p) <= 0.1
    assert binom_cdf(0, n, np.nextafter(p, 0.0)) > 0.1


def test_binom_inf_p_raises_when_halvings_run_out(monkeypatch):
    monkeypatch.setattr(dists, "_BISECT_MAX_ITER", 30)
    with pytest.raises(ArithmeticError):
        binom_inf_p(99, 1000, 0.1)


def test_binom_sup_k_raises_when_restarts_run_out(monkeypatch):
    # the read starts at count 3, above the answer -1, and restarts at 0
    n, eps, delta = 128007, 1.5261415293276415e-06, 1.6180163021641802e-12
    assert binom_sup_k(n, eps, delta) == binom_sup_k_bisect(n, eps, delta) == -1
    monkeypatch.setattr(dists, "_MAX_RESTARTS", 0)
    with pytest.raises(ArithmeticError):
        binom_sup_k(n, eps, delta)


def test_beta_params_validation():
    with pytest.raises(ValueError):
        BetaParams(0, 3)
    with pytest.raises(ValueError):
        BetaParams(3, -1)


def test_beta_reg_against_mp():
    rng = np.random.default_rng(23)
    for _ in range(40):
        a = int(rng.integers(1, 1200))
        b = int(rng.integers(1, 1200))
        x = float(rng.uniform(0.0, 1.0))
        want = float(beta_cdf_mp(x, a, b, dps=40))
        assert beta_reg(x, BetaParams(a, b)) == pytest.approx(
            want, rel=1e-10, abs=1e-280
        )
    assert beta_reg(0.0, BetaParams(2, 3)) == 0.0
    assert beta_reg(1.0, BetaParams(2, 3)) == 1.0


def test_betabin_pmf_exact_small():
    params = BetaBinParams(8, 3, 2)
    pmf = betabin_pmf(params)
    assert pmf.shape == (9,)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-14)
    for i in range(9):
        want = float(betabin_pmf_exact(i, 8, 3, 2))
        assert pmf[i] == pytest.approx(want, rel=1e-13)


def _betabin_table(params):
    # the CDF summarize reads both delta_bar's cut and the KS reference from
    return dists._cdf_table(*dists._betabin_chain(params), 0)


def test_betabin_cdf_exact_and_scipy():
    cases = [(40, 9, 2), (200, 181, 20), (5000, 913, 88)]
    for trials, a, b in cases:
        cdf = _betabin_table(BetaBinParams(trials, a, b))
        assert cdf[-1] == 1.0
        ref = scipy.stats.betabinom.cdf(np.arange(trials + 1), trials, a, b)
        assert np.max(np.abs(cdf - ref)) < 5e-12
    # exact rational check on the small case
    cdf = _betabin_table(BetaBinParams(40, 9, 2))
    for k in (0, 3, 17, 39):
        want = float(betabin_cdf_exact(k, 40, 9, 2))
        assert cdf[k] == pytest.approx(want, rel=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(1, 120), st.integers(1, 300), st.integers(1, 300))
def test_betabin_within_its_stated_bound(trials, a, b):
    # the bound _betabin_chain states for integer shapes: r = 3 roundings
    # per ratio, L = trials + 1 terms and no window term
    r = 3
    bound = ((2 * r + 6) * (trials + 1) + 2) * dists._LD_EPS + 2.0**-53
    params = BetaBinParams(trials, a, b)
    pmf = [betabin_pmf_exact(i, trials, a, b) for i in range(trials + 1)]
    cdf = list(itertools.accumulate(pmf))
    for got, want in ((betabin_pmf(params), pmf), (_betabin_table(params), cdf)):
        for k, exact in enumerate(want):
            assert abs(Fraction(float(got[k])) - exact) <= bound * exact, (k, params)


def test_betabin_pmf_keeps_a_tiny_shape():
    # a shape far below 1 keeps its digits only when it is added once to an
    # exact count, not summed with n before counts are taken back off
    trials, a, b = 10, 5.0, 1e-10
    bound = ((2 * 5 + 6) * (trials + 1) + 2) * dists._LD_EPS + 2.0**-53
    pmf = betabin_pmf(BetaBinParams(trials, a, b))
    with mpmath.workdps(40):
        norm = mpmath.beta(a, b)
        for k in range(trials + 1):
            want = mpmath.binomial(trials, k) * mpmath.beta(k + a, trials - k + b) / norm
            assert abs(pmf[k] - want) <= bound * want, k


def test_betabin_moments():
    params = BetaBinParams(5000, 913, 88)
    pmf = betabin_pmf(params)
    support = np.arange(5001)
    mean = float(pmf @ support)
    var = float(pmf @ (support - mean) ** 2)
    a, b, n = 913, 88, 5000
    assert mean == pytest.approx(n * a / (a + b), rel=1e-12)
    want_var = n * a * b * (a + b + n) / ((a + b) ** 2 * (a + b + 1))
    assert var == pytest.approx(want_var, rel=1e-9)


def test_betabin_matches_compound_monte_carlo():
    # BetaBin(n, a, b) is Bin(n, P) with P ~ Beta(a, b)
    rng = np.random.default_rng(101)
    trials, a, b = 300, 46, 5
    draws = 100_000
    sims = rng.binomial(trials, rng.beta(a, b, size=draws))
    cdf = np.cumsum(betabin_pmf(BetaBinParams(trials, a, b)))
    for k in (250, 265, 276, 290):
        p = float(cdf[k])
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(np.mean(sims <= k) - p) < 3 * sigma + 1e-12


def test_betabin_quantile_bracketing():
    # summarize's cut, the largest count whose CDF is <= q, brackets q
    cdf = _betabin_table(BetaBinParams(5000, 913, 88))
    for q in (0.001, 0.05, 0.1, 0.5, 0.9, 0.999):
        t = np.searchsorted(cdf, q, "right") - 1
        assert scipy.stats.betabinom.cdf(t, 5000, 913, 88) <= q
        assert scipy.stats.betabinom.cdf(t + 1, 5000, 913, 88) > q
    # mass at zero already exceeds q: nothing qualifies
    assert np.searchsorted(_betabin_table(BetaBinParams(10, 2, 3)), 0.001, "right") == 0


def test_betabin_params_validation():
    with pytest.raises(ValueError):
        BetaBinParams(0, 2, 3)
    with pytest.raises(ValueError):
        BetaBinParams(10, 0, 3)

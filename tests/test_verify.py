"""The self-check suites pass, and actually catch injected breakage."""

import dataclasses
import math
from fractions import Fraction

import pytest

from conformal_kit import verify
from conformal_kit.verify import (
    SUITE_NAMES,
    duality_suite,
    equivalence_suite,
    identity_suite,
    run_suites,
    sandwich_suite,
)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_passes(name):
    (result,) = run_suites([name])
    assert result.name == name
    assert result.passed, result.detail
    assert isinstance(result.detail, dict) and result.detail


def test_run_suites_unknown_name():
    with pytest.raises(ValueError):
        run_suites(["telepathy"])


def test_equivalence_catches_shifted_quantile(monkeypatch):
    real = verify.q_hat

    def off_by_one(scores, alpha):
        result = real(scores, alpha)
        if math.isinf(result.lambda_hat):
            return result
        above = scores.values[scores.values > result.lambda_hat]
        lam = float(above[0]) if above.size else math.inf
        return dataclasses.replace(result, lambda_hat=lam)

    monkeypatch.setattr(verify, "q_hat", off_by_one)
    result = equivalence_suite(trials=60, seed=0)
    assert not result.passed
    assert result.detail["crc_mismatches"] > 0


def test_equivalence_catches_inflated_tolerance(monkeypatch):
    real = verify.p_hat
    monkeypatch.setattr(
        verify, "p_hat", lambda s, eps, delta: real(s, min(0.99, 2 * eps), delta)
    )
    result = equivalence_suite(trials=60, seed=0)
    assert not result.passed
    assert result.detail["ucb_mismatches"] > 0


def test_sandwich_catches_a_rank_too_low(monkeypatch):
    real = verify.q_hat
    monkeypatch.setattr(verify, "q_hat", lambda s, a: real(s, a + Fraction(1, s.n + 1)))
    result = sandwich_suite()
    assert not result.passed and result.detail["violations"]


def test_identity_catches_a_skewed_binomial_tail(monkeypatch):
    real = verify.binom_cdf
    monkeypatch.setattr(verify, "binom_cdf", lambda *a: real(*a) * (1 + 1e-9))
    result = identity_suite()
    assert not result.passed and result.detail["max_abs_diff"] >= 1e-10


def test_duality_reads_the_plans_order_index(monkeypatch):
    real = verify.plan

    def one_rank_high(n, target):
        planned = real(n, target)
        if isinstance(target, verify.Tolerance):
            return dataclasses.replace(planned, order_index=planned.order_index + 1)
        return planned

    monkeypatch.setattr(verify, "plan", one_rank_high)
    result = duality_suite(trials=50)
    assert not result.passed and result.detail["failures"] > 0


def test_trial_override_reaches_suites():
    (fast,) = run_suites(["duality"], trials=10)
    assert fast.detail["trials"] == 10
    (seeded,) = run_suites(["duality"], trials=10, seed=123)
    assert seeded.passed
    (equivalence,) = run_suites(["equivalence"], trials=6, seed=5)
    assert equivalence.detail["trials"] == 6
    (superuniform,) = run_suites(["superuniform"], trials=40, seed=5)
    assert superuniform.detail["worlds"] == 40


def test_fixed_suites_ignore_overrides():
    results = run_suites(["sandwich", "identity"], trials=3, seed=9)
    assert [r.name for r in results] == ["sandwich", "identity"]
    assert all(r.passed for r in results)

"""Synthetic generator, CSV handling, trial harness, and lookup tables."""

import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from conformal_kit import calibration
from conformal_kit.calibration import Marginal, Tolerance
from conformal_kit.dists import (
    BetaParams,
    beta_reg,
    binom_inf_p,
    binom_sup_k,
)
from conformal_kit.experiments import (
    Dataset,
    ParseError,
    TrialReport,
    gen_synthetic,
    load_csv,
    reference_law,
    run_trials,
    standardize,
    summarize,
    tolerance_tables,
)
from conformal_kit.predictors import (
    IntervalPredictor,
    KnnQuantileConfig,
    fit_knn_quantile,
    tune_nominal_quantiles,
)

from helpers import betabin_cdf_exact, float_bits, save_csv, trials_per_gather


def test_dataset_shapes():
    ds = Dataset(np.array([1.0, 2.0, 3.0]), np.array([4, 5, 6]))
    assert ds.features.shape == (3, 1)
    assert ds.labels.dtype == float
    assert ds.size == 3
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))


def test_gen_synthetic_basic():
    ds = gen_synthetic(500, seed=0)
    assert ds.features.shape == (500, 1)
    assert np.all((ds.features >= 1.0) & (ds.features <= 5.0))
    with pytest.raises(ValueError):
        gen_synthetic(0, seed=0)


def test_gen_synthetic_mean_matches_integral():
    # E[Y] = E[sin^2 X] + 0.1 with X ~ U[1, 5]; noise and outliers are
    # mean zero
    ds = gen_synthetic(200_000, seed=19)
    want = (2.0 - (math.sin(10.0) - math.sin(2.0)) / 4.0) / 4.0 + 0.1
    se = float(np.std(ds.labels)) / math.sqrt(ds.size)
    assert abs(float(np.mean(ds.labels)) - want) < 4 * se


def test_gen_synthetic_outlier_stream():
    n = 100_000
    full = gen_synthetic(n, seed=23)
    quiet = gen_synthetic(n, seed=23, outlier_rate=0.0)
    assert np.array_equal(full.features, quiet.features)
    fired = full.labels != quiet.labels
    assert abs(int(fired.sum()) - 0.01 * n) < 4 * math.sqrt(n * 0.01 * 0.99)
    # the indicator stream does not depend on the noise knob
    bare = gen_synthetic(n, seed=23, noise_scale=0.0)
    bare_quiet = gen_synthetic(n, seed=23, noise_scale=0.0, outlier_rate=0.0)
    assert np.array_equal(fired, bare.labels != bare_quiet.labels)


def test_gen_synthetic_poisson_backbone():
    ds = gen_synthetic(5000, seed=29, noise_scale=0.0, outlier_rate=0.0)
    assert np.all(ds.labels >= 0)
    assert np.array_equal(ds.labels, np.rint(ds.labels))


def test_csv_round_trip(tmp_path):
    ds = gen_synthetic(40, seed=31)
    path = tmp_path / "data.csv"
    save_csv(ds, path, label_column="y")
    back = load_csv(path, label_column="y")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_label_column_position(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("a,y,b\n1,10,2\n3,20,4\n\n5,30,6\n")
    ds = load_csv(path, label_column="y")
    assert np.array_equal(ds.labels, [10.0, 20.0, 30.0])
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_csv_errors(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(OSError):
        load_csv(missing, label_column="y")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_csv(empty, label_column="y")
    no_col = tmp_path / "no_col.csv"
    no_col.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError, match="'y'"):
        load_csv(no_col, label_column="y")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,y\n1,2\n3\n")
    with pytest.raises(ParseError, match=":3:"):
        load_csv(ragged, label_column="y")
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("a,y\n1,2\nx,4\n")
    with pytest.raises(ParseError, match=":3:"):
        load_csv(bad_cell, label_column="y")
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,y\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(header_only, label_column="y")
    one_col = tmp_path / "one.csv"
    one_col.write_text("y\n1\n")
    with pytest.raises(ParseError, match="feature column"):
        load_csv(one_col, label_column="y")


def test_standardize_hand_case():
    train = Dataset(np.array([[1.0, 5.0], [3.0, 5.0]]), np.array([2.0, -2.0]))
    rest = Dataset(np.array([[5.0, 7.0]]), np.array([4.0]))
    # column means (2, 5), scales (1, 1) with the second constant, labels / 2
    tr, rs = standardize(train, rest)
    assert np.array_equal(tr.features, [[-1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(tr.labels, [1.0, -1.0])
    assert np.array_equal(rs.features, [[3.0, 2.0]])
    assert np.array_equal(rs.labels, [2.0])


def test_standardize_degenerate_labels():
    train = Dataset(np.array([[1.0], [2.0]]), np.array([0.0, 0.0]))
    rest = Dataset(np.array([[3.0]]), np.array([5.0]))
    _, rs = standardize(train, rest)
    assert rs.labels[0] == 5.0  # all-zero training labels keep scale 1
    with pytest.raises(ValueError):
        standardize(train, Dataset(np.zeros((2, 3)), np.zeros(2)))


def test_reference_law():
    assert reference_law(1000, Marginal(0.1)) == BetaParams(901, 100)
    assert reference_law(1000, Tolerance(0.1, 0.1)) == BetaParams(913, 88)
    with pytest.raises(ValueError):
        reference_law(1000, Marginal(0.0005))
    with pytest.raises(ValueError):
        reference_law(50, Tolerance(0.01, 0.05))
    with pytest.raises(TypeError):
        reference_law(1000, 0.1)


def _flat_predictor():
    return IntervalPredictor(
        lambda x: (np.full(len(np.atleast_2d(x)), -0.5), np.full(len(np.atleast_2d(x)), 0.5))
    )


def test_run_trials_deterministic():
    pool = gen_synthetic(300, seed=37)
    train = gen_synthetic(100, seed=38)
    base = fit_knn_quantile(train, KnnQuantileConfig(k=20))
    kw = dict(pool=pool, n=60, n_test=90, R=8, target=Marginal(0.2), master_seed=5)
    serial = run_trials(base, **kw)
    assert [r.trial_index for r in serial] == list(range(8))
    again = run_trials(base, **kw)
    assert serial == again


def _tied_pool(count: int, seed: int) -> Dataset:
    # every feature row four times, small integer labels: ties in the
    # neighbour distances, the labels and the scores
    rng = np.random.default_rng(seed)
    x = np.repeat(rng.uniform(1.0, 5.0, count // 4), 4)
    return Dataset(x, rng.integers(0, 4, x.size).astype(float))


def _report_bits(reports):
    ints = [(r.trial_index, r.n, r.n_test) for r in reports]
    floats = [(r.lambda_hat, r.coverage, r.avg_length) for r in reports]
    return ints, float_bits(floats)


@pytest.mark.parametrize("case", ["marginal", "tolerance", "full_set", "ties"])
def test_run_trials_matches_per_trial_oracle(case):
    pool = _tied_pool(400, 231) if case == "ties" else gen_synthetic(400, seed=232)
    train = _tied_pool(160, 233) if case == "ties" else gen_synthetic(160, seed=234)
    base = fit_knn_quantile(train, KnnQuantileConfig(k=15, lo_level=0.1, hi_level=0.9))
    target = {
        "tolerance": Tolerance(0.2, 0.1),
        # (0.99)^60 > 0.01: no finite threshold qualifies
        "full_set": Tolerance(0.01, 0.01),
    }.get(case, Marginal(0.1))
    kw = dict(pool=pool, n=60, n_test=300, R=12, target=target, master_seed=235)
    got = run_trials(base, **kw)
    want = trials_per_gather(base, **kw)
    assert _report_bits(got) == _report_bits(want)
    if case == "full_set":
        assert all(math.isinf(r.avg_length) for r in got)


def test_one_inversion_per_distinct_n(monkeypatch):
    calls = []

    def counting_sup_k(n, eps, delta):
        calls.append(n)
        return binom_sup_k(n, eps, delta)

    monkeypatch.setattr(calibration, "binom_sup_k", counting_sup_k)
    target = Tolerance(0.1, 0.1)
    pool = gen_synthetic(400, seed=44)
    run_trials(_flat_predictor(), pool, 100, 200, 50, target, master_seed=6)
    tune_nominal_quantiles(gen_synthetic(200, seed=45), target=target, k=10)
    assert sorted(calls) == [20, 100]


def test_run_trials_prefix_stable():
    pool = gen_synthetic(200, seed=41)
    base = _flat_predictor()
    kw = dict(pool=pool, n=40, n_test=60, target=Tolerance(0.2, 0.2), master_seed=9)
    short = run_trials(base, R=3, **kw)
    long = run_trials(base, R=7, **kw)
    assert long[:3] == short


def test_run_trials_validation():
    pool = gen_synthetic(50, seed=43)
    base = _flat_predictor()
    with pytest.raises(ValueError):
        run_trials(base, pool, 40, 20, 5, Marginal(0.2), master_seed=0)
    with pytest.raises(ValueError):
        run_trials(base, pool, 10, 10, 0, Marginal(0.2), master_seed=0)


def test_summarize_hand_computed():
    n_test = 10
    counts = [10, 9, 9, 8, 6]
    reports = [
        TrialReport(j, 0.0, c / n_test, float(j), 10, n_test)
        for j, c in enumerate(counts)
    ]
    law = BetaParams(9, 2)
    s = summarize(reports, law, eps=0.2, delta=0.3, n_test=n_test)
    assert s.c_bar == pytest.approx(0.84, rel=1e-15)
    assert s.mean_length == pytest.approx(2.0, rel=1e-15)
    # floor(0.8 * 10) = 8: trials with count <= 8
    assert s.delta_hat == pytest.approx(0.4, rel=1e-15)
    assert s.theoretical.beta_cdf[8] == pytest.approx(beta_reg(0.8, law), rel=1e-12)
    assert s.histogram.counts.sum() == 5
    assert len(s.histogram.edges) == math.ceil(math.sqrt(5)) + 1
    # the second law's CDF at 15 is exactly 1/2 = delta, so its cut counts 15
    for n_test, counts, (a, b), delta in [
        (10, counts, (9, 2), 0.3),
        (20, [20, 17, 15, 15, 12], (16, 5), 0.5),
    ]:
        reports = [
            TrialReport(j, 0.0, c / n_test, 1.0, n_test, n_test)
            for j, c in enumerate(counts)
        ]
        s = summarize(reports, BetaParams(a, b), eps=0.2, delta=delta, n_test=n_test)
        exact = [betabin_cdf_exact(k, n_test, a, b) for k in range(n_test + 1)]
        # independent quantile: largest t with exact BetaBin cdf <= delta
        cut = max(t for t in range(-1, n_test + 1) if t < 0 or exact[t] <= delta)
        assert s.delta_bar == np.mean(np.array(counts) <= cut)
        ref = np.array([float(c) for c in exact])
        ecdf = np.cumsum(np.bincount(counts, minlength=n_test + 1)) / len(counts)
        assert s.ks_distance == pytest.approx(np.max(np.abs(ecdf - ref)), rel=1e-9)
        assert s.dominance_gap == pytest.approx(np.max(ecdf - ref), rel=1e-9)
        assert s.dominance_gap <= s.ks_distance


def test_summarize_beta_cdf_matches_scalar_path():
    n_test = 5000
    law = BetaParams(913, 88)
    reports = [TrialReport(j, 0.0, c / n_test, 1.0, 1000, n_test)
               for j, c in enumerate((4500, 4560, 4610))]
    got = summarize(reports, law, eps=0.1, delta=0.1, n_test=n_test)
    scalar = [beta_reg(k / n_test, law) for k in range(n_test + 1)]
    assert np.array_equal(got.theoretical.beta_cdf, scalar)


def test_summarize_validation():
    law = BetaParams(9, 2)
    with pytest.raises(ValueError):
        summarize([], law, 0.2, 0.3, 10)
    bad = [TrialReport(0, 0.0, 0.85, 1.0, 10, 10)]
    with pytest.raises(ValueError):
        summarize(bad, law, 0.2, 0.3, 10)
    wrong = [TrialReport(0, 0.0, 0.9, 1.0, 10, 20)]
    with pytest.raises(ValueError):
        summarize(wrong, law, 0.2, 0.3, 10)


def _block(table: str, n: int):
    lines = table.splitlines()
    start = lines.index(f"n = {n}") + 2
    return [line.split()[1:] for line in lines[start : start + 5]]


def test_tables_custom_inputs():
    counts, eps_table = tolerance_tables(n_values=(50,), levels=(0.1, 0.5))
    assert "n = 50" in counts and "n = 50" in eps_table
    block = _block(counts, 50)
    assert len(block) == 2 and len(block[0]) == 2


def test_tables_truncate_not_round():
    # true smallest eps at (n=100, alpha=10%, delta=10%) is 13.83518...%,
    # which half-up rounding would print as 13.8352
    value = binom_inf_p(9, 100, 0.1)
    half_up = str((Decimal(value) * 100).quantize(Decimal("0.0001"), ROUND_HALF_UP))
    assert half_up == "13.8352"
    _, eps_table = tolerance_tables()
    assert _block(eps_table, 100)[0][0] == "13.8351"

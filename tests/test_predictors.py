"""k-NN quantile intervals, conformalization scores, and level tuning."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial

from conformal_kit import predictors
from conformal_kit.calibration import Marginal, Tolerance
from conformal_kit.experiments import Dataset, gen_synthetic
from conformal_kit.predictors import (
    DEFAULT_LEVEL_GRID,
    IntervalPredictor,
    KnnQuantileConfig,
    PredictionInterval,
    cqr_score,
    cqr_set,
    fit_knn_quantile,
    tune_nominal_quantiles,
)

from helpers import float_bits, tune_per_fit


def test_config_validation():
    with pytest.raises(ValueError):
        KnnQuantileConfig(k=0)
    with pytest.raises(ValueError):
        KnnQuantileConfig(lo_level=0.9, hi_level=0.1)
    with pytest.raises(ValueError):
        KnnQuantileConfig(lo_level=0.0)
    with pytest.raises(ValueError):
        KnnQuantileConfig(hi_level=1.0)
    assert KnnQuantileConfig().k == 50


def test_default_level_grid():
    assert DEFAULT_LEVEL_GRID[0] == (0.025, 0.975)
    assert DEFAULT_LEVEL_GRID[-1] == (0.2, 0.8)
    assert len(DEFAULT_LEVEL_GRID) == 8


def test_knn_exact_order_statistics():
    # train size equals k: every query sees all labels
    labels = np.arange(1.0, 51.0)
    train = Dataset(np.linspace(0.0, 1.0, 50), labels)
    pred = fit_knn_quantile(train, KnnQuantileConfig(k=50, lo_level=0.1, hi_level=0.9))
    lo, hi = pred.predict(np.array([0.3]))
    # ceil(0.1 * 50) = 5 exactly; float fuzz must not push it to 6
    assert (lo, hi) == (5.0, 45.0)


def test_knn_nearest_neighbourhood():
    feats = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    labels = np.array([5.0, 6.0, 7.0, 50.0, 60.0, 70.0])
    train = Dataset(feats, labels)
    pred = fit_knn_quantile(
        train, KnnQuantileConfig(k=3, lo_level=0.25, hi_level=0.75)
    )
    lo, hi = pred.predict(np.array([1.2]))
    assert (lo, hi) == (5.0, 7.0)
    lo, hi = pred.predict(np.array([11.4]))
    assert (lo, hi) == (50.0, 70.0)


def test_knn_single_neighbour():
    train = Dataset(np.array([0.0, 1.0, 2.0]), np.array([3.0, 4.0, 5.0]))
    pred = fit_knn_quantile(train, KnnQuantileConfig(k=1, lo_level=0.4, hi_level=0.6))
    assert pred.predict(np.array([0.9])) == (4.0, 4.0)


def test_knn_matrix_and_vector_shapes():
    rng = np.random.default_rng(101)
    train = Dataset(rng.normal(size=(80, 2)), rng.normal(size=80))
    pred = fit_knn_quantile(train, KnnQuantileConfig(k=10))
    lo, hi = pred.predict(rng.normal(size=(7, 2)))
    assert lo.shape == (7,) and hi.shape == (7,)
    assert np.all(lo <= hi)
    slo, shi = pred.predict(rng.normal(size=2))
    assert isinstance(slo, float) and isinstance(shi, float)


def test_knn_k_exceeds_train():
    train = Dataset(np.arange(5.0), np.arange(5.0))
    with pytest.raises(ValueError):
        fit_knn_quantile(train, KnnQuantileConfig(k=6))


def test_knn_endpoints_never_cross():
    rng = np.random.default_rng(103)
    train = Dataset(rng.normal(size=(200, 3)), rng.normal(size=200))
    for k, levels in [(5, (0.3, 0.7)), (60, (0.025, 0.975))]:
        pred = fit_knn_quantile(
            train, KnnQuantileConfig(k=k, lo_level=levels[0], hi_level=levels[1])
        )
        lo, hi = pred.predict(rng.normal(size=(50, 3)))
        assert np.all(lo <= hi)


def _one_shot_ends(train, rows, k, i_lo, i_hi):
    """Every row's k nearest labels from one query and one full sort."""
    _, idx = scipy.spatial.cKDTree(train.features).query(rows, k=k)
    neigh = np.sort(train.labels[np.reshape(idx, (rows.shape[0], k))], axis=1)
    return neigh[:, i_lo], neigh[:, i_hi]


@pytest.mark.parametrize("k, levels", [(1, (0.4, 0.6)), (50, (0.1, 0.9))])
def test_blocked_predict_matches_one_shot_query(k, levels):
    # integer grid features and labels: distances and labels tie heavily
    rng = np.random.default_rng(109)
    train = Dataset(
        rng.integers(0, 6, size=(400, 2)).astype(float),
        rng.integers(0, 5, size=400).astype(float),
    )
    pred = fit_knn_quantile(train, KnnQuantileConfig(k, *levels))
    i_lo, i_hi = (math.ceil(level * k) - 1 for level in levels)
    step = predictors._QUERY_CELLS // k
    for rows in (step - 1, step, step + 1, 3 * step + 7):
        x = rng.integers(-1, 7, size=(rows, 2)).astype(float)
        lo, hi = pred.predict(x)
        ref_lo, ref_hi = _one_shot_ends(train, x, k, i_lo, i_hi)
        assert float_bits(lo) == float_bits(ref_lo)
        assert float_bits(hi) == float_bits(ref_hi)


def test_predict_memory_does_not_grow_with_rows():
    rng = np.random.default_rng(113)
    train = Dataset(rng.normal(size=(2000, 3)), rng.normal(size=2000))
    pred = fit_knn_quantile(train, KnnQuantileConfig(k=50))
    x = rng.normal(size=(20_000, 3))
    tracemalloc.start()
    try:
        pred.predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (rows, k) float array alone would take 8 MB
    assert peak < 4 * 2**20


def test_prediction_interval():
    iv = PredictionInterval(2.0, 5.0)
    assert not iv.empty
    assert iv.length == 3.0
    assert iv.contains(2.0) and iv.contains(5.0) and not iv.contains(5.1)
    hollow = PredictionInterval(3.0, 1.0)
    assert hollow.empty
    assert hollow.length == 0.0
    assert not hollow.contains(2.0)


def test_cqr_score_values():
    flat = IntervalPredictor(lambda x: (2.0, 5.0))
    assert cqr_score(flat, None, 7.0) == 2.0
    assert cqr_score(flat, None, 3.0) == -1.0
    assert cqr_score(flat, None, 2.0) == 0.0
    got = cqr_score(flat, None, np.array([1.0, 6.0]))
    assert np.array_equal(got, [1.0, 1.0])


def test_cqr_set_membership_equivalence():
    flat = IntervalPredictor(lambda x: (2.0, 5.0))
    assert cqr_set(flat, 0.0, None) == PredictionInterval(2.0, 5.0)
    assert cqr_set(flat, -2.0, None).empty
    assert cqr_set(flat, math.inf, None).contains(1e300)
    rng = np.random.default_rng(107)
    for _ in range(200):
        y = float(rng.normal(scale=4.0))
        lam = float(rng.normal())
        inside = cqr_set(flat, lam, None).contains(y)
        assert inside == (cqr_score(flat, None, y) <= lam)


def test_tune_selected_and_determinism():
    train = gen_synthetic(150, seed=11)
    cands = ((0.05, 0.95), (0.25, 0.75), (0.45, 0.55))
    rep1 = tune_nominal_quantiles(train, cands, Marginal(0.1), folds=5, k=10, seed=3)
    rep2 = tune_nominal_quantiles(train, cands, Marginal(0.1), folds=5, k=10, seed=3)
    assert rep1.selected in cands
    assert rep1.levels == cands
    assert np.array_equal(rep1.mean_lengths, rep2.mean_lengths)
    assert rep1.selected == rep2.selected
    assert rep1.mean_lengths[list(cands).index(rep1.selected)] == min(
        rep1.mean_lengths
    )


def test_tune_tolerance_target():
    train = gen_synthetic(200, seed=13)
    rep = tune_nominal_quantiles(
        train,
        ((0.05, 0.95), (0.1, 0.9)),
        Tolerance(0.2, 0.2),
        folds=4,
        k=15,
        seed=1,
    )
    assert rep.selected in ((0.05, 0.95), (0.1, 0.9))
    assert np.all(np.isfinite(rep.mean_lengths))


def test_tune_validation():
    train = gen_synthetic(60, seed=17)
    with pytest.raises(ValueError):
        tune_nominal_quantiles(train, (), folds=3, k=5)
    with pytest.raises(ValueError):
        tune_nominal_quantiles(train, ((0.05, 0.95),), folds=1, k=5)
    with pytest.raises(ValueError):
        tune_nominal_quantiles(train, ((0.05, 0.95),), folds=2, k=40)


def _tuner_case(name: str):
    """(train, target, folds, k) for one oracle comparison."""
    rng = np.random.default_rng(241)
    synth = gen_synthetic(103, seed=242)
    if name == "ties":
        # every feature row four times: tied neighbour distances
        x = np.repeat(rng.uniform(size=30), 4)
        ds = Dataset(x, rng.integers(0, 5, x.size).astype(float))
        return ds, Marginal(0.1), 10, 8
    if name == "two_columns":
        ds = Dataset(rng.standard_normal((90, 2)), rng.standard_normal(90))
        return ds, Marginal(0.2), 5, 7
    if name == "k1":
        return synth, Marginal(0.1), 5, 1
    if name == "k_max":
        # folds of 21, 21, 21, 20, 20 rows: the smallest fitting part has 82
        return synth, Marginal(0.1), 5, 82
    # (0.99)^10 > 0.01 on every held-out fold: full set, infinite lengths
    return synth, Tolerance(0.01, 0.01), 10, 10


@pytest.mark.parametrize("name", ["ties", "two_columns", "k1", "k_max", "full_set"])
def test_tune_matches_per_fit_oracle(name):
    train, target, folds, k = _tuner_case(name)
    got = tune_nominal_quantiles(
        train, DEFAULT_LEVEL_GRID, target, folds=folds, k=k, seed=243
    )
    means, selected = tune_per_fit(
        train, DEFAULT_LEVEL_GRID, target, folds=folds, k=k, seed=243
    )
    assert float_bits(got.mean_lengths) == float_bits(means)
    assert got.selected == selected
    if name == "full_set":
        assert np.all(np.isinf(got.mean_lengths))


def test_tune_builds_one_tree_per_fold(monkeypatch):
    built = []
    real = scipy.spatial.cKDTree

    def counting_tree(data):
        built.append(len(data))
        return real(data)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counting_tree)
    train = gen_synthetic(120, seed=244)
    tune_nominal_quantiles(train, DEFAULT_LEVEL_GRID, folds=6, k=10)
    assert built == [100] * 6

"""Interval base predictors and the conformalized quantile construction.

The calibration guarantees hold for any base predictor, so the one shipped
here is deliberately simple: conditional quantiles estimated from the k
nearest neighbours in feature space (Euclidean metric; standardize the
features first).  On top of any interval predictor sit the signed
conformalization score max(lo - y, y - hi) and the symmetric expansion
[lo - lam, hi + lam], which together form a nested family over the whole
real line: in real arithmetic the set at lam contains y exactly when the
score is at most lam, and for lam below -(hi - lo)/2 the set is empty.

Nominal quantile levels of the base predictor are a free knob that changes
interval lengths but never validity; ``tune_nominal_quantiles`` picks them
by cross-validated post-calibration length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._rational import on_grid
from .calibration import Marginal, NonconformityScores, plan

__all__ = [
    "IntervalPredictor",
    "KnnQuantileConfig",
    "PredictionInterval",
    "TuneReport",
    "DEFAULT_LEVEL_GRID",
    "fit_knn_quantile",
    "cqr_score",
    "cqr_set",
    "tune_nominal_quantiles",
]

# Candidate nominal levels (beta/2, 1 - beta/2) for the tuner, beta from
# 5% to 40% in 5% steps.
DEFAULT_LEVEL_GRID: tuple[tuple[float, float], ...] = tuple(
    (b / 200.0, 1.0 - b / 200.0) for b in range(5, 45, 5)
)


@dataclass(frozen=True)
class IntervalPredictor:
    """A fitted predictor returning one interval per feature vector.

    ``predict`` accepts a single feature vector or a matrix of rows and
    returns a (lo, hi) pair of scalars or arrays; lo <= hi always.
    """

    predict: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class KnnQuantileConfig:
    """Neighbour count and nominal quantile levels for the k-NN predictor.

    Distances are Euclidean in the supplied feature space; features are
    expected to be standardized upstream.
    """

    k: int = 50
    lo_level: float = 0.05
    hi_level: float = 0.95

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.lo_level < self.hi_level < 1.0:
            raise ValueError(
                f"need 0 < lo_level < hi_level < 1, got "
                f"({self.lo_level}, {self.hi_level})"
            )


@dataclass(frozen=True)
class PredictionInterval:
    """A possibly-empty interval; empty is encoded by lo > hi.

    Examples
    --------
    >>> PredictionInterval(2.0, 5.0).length
    3.0
    >>> PredictionInterval(3.0, 1.0).empty
    True
    """

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def length(self) -> float:
        return max(0.0, self.hi - self.lo)

    def contains(self, y: float) -> bool:
        return self.lo <= y <= self.hi


@dataclass(frozen=True)
class TuneReport:
    """Cross-validation record of the nominal-level search.

    ``levels[i]`` produced mean post-calibration length ``mean_lengths[i]``
    averaged over folds; ``selected`` is the minimizer (first one on ties).
    """

    levels: tuple[tuple[float, float], ...]
    mean_lengths: np.ndarray
    selected: tuple[float, float]


def _order_index(level: float, k: int) -> int:
    """0-based index of the ceil(level * k)-th order statistic."""
    return max(1, math.ceil(on_grid(level, k) * k)) - 1


# Elements per k-NN query block, which holds at most _QUERY_CELLS // k rows.
_QUERY_CELLS = 2**15


def _neighbour_labels(features: np.ndarray, labels: np.ndarray, k: int):
    """(rows, columns) -> each row's sorted k nearest labels at those positions.

    Rows are answered in blocks of at most _QUERY_CELLS // k (at least
    one), and only the requested columns outlive a block, so the scratch
    memory is bounded by _QUERY_CELLS elements per array, not rows * k.
    Each row's neighbours are found on their own: blocking changes nothing.
    """
    from scipy.spatial import cKDTree  # only the k-NN predictor needs it

    tree = cKDTree(features)
    step = max(1, _QUERY_CELLS // k)

    def query(rows: np.ndarray, columns) -> np.ndarray:
        out = np.empty((rows.shape[0], len(columns)))
        for start in range(0, rows.shape[0], step):
            block = rows[start : start + step]
            _, idx = tree.query(block, k=k)
            neigh = np.sort(labels[np.reshape(idx, (block.shape[0], k))], axis=1)
            out[start : start + step] = neigh[:, columns]
        return out

    return query


def fit_knn_quantile(train, config: KnnQuantileConfig) -> IntervalPredictor:
    """Conditional-quantile intervals from the k nearest training labels.

    predict(x) sorts the labels of the k nearest neighbours of x and
    reads two order statistics: the ceil(lo_level k)-th and the
    ceil(hi_level k)-th (lower empirical quantiles).  Coming from one
    sorted sample, the endpoints cannot cross.  Rows are predicted in
    blocks, so the scratch memory does not grow with the row count.

    Parameters
    ----------
    train : Dataset
        Fitting split (the proper training set).
    config : KnnQuantileConfig
        Neighbour count and nominal levels; k must not exceed the
        training size.
    """
    features = np.asarray(train.features, dtype=float)
    labels = np.asarray(train.labels, dtype=float)
    if config.k > labels.size:
        raise ValueError(
            f"k={config.k} exceeds training size {labels.size}"
        )
    neighbours = _neighbour_labels(features, labels, config.k)
    i_lo = _order_index(config.lo_level, config.k)
    i_hi = _order_index(config.hi_level, config.k)

    def predict(x: np.ndarray):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        lo, hi = neighbours(np.atleast_2d(pts), [i_lo, i_hi]).T
        if single:
            return float(lo[0]), float(hi[0])
        return lo, hi

    return IntervalPredictor(predict=predict)


def _cqr_scores(lo, hi, y):
    """max(lo - y, y - hi), the signed score of labels y against [lo, hi]."""
    return np.maximum(lo - y, np.asarray(y) - hi)


def _cqr_lengths(width, lam):
    """Lengths of [lo - lam, hi + lam] from widths hi - lo, 0 where empty."""
    return np.maximum(0.0, width + 2.0 * lam)


def cqr_score(predictor: IntervalPredictor, x, y):
    """Signed conformalization score max(lo(x) - y, y - hi(x)).

    Negative iff y lies strictly inside the base interval; the magnitude
    is the distance to the nearest endpoint.  Vectorizes over rows of x.

    Examples
    --------
    >>> flat = IntervalPredictor(lambda x: (2.0, 5.0))
    >>> cqr_score(flat, None, 7.0)
    2.0
    >>> cqr_score(flat, None, 3.0)
    -1.0
    """
    lo, hi = predictor.predict(x)
    score = _cqr_scores(np.asarray(lo), np.asarray(hi), y)
    if np.ndim(score) == 0:
        return float(score)
    return score


def cqr_set(predictor: IntervalPredictor, lam: float, x) -> PredictionInterval:
    """Symmetric expansion [lo(x) - lam, hi(x) + lam] of the base interval.

    lam = +inf gives the whole line; lam below -(hi - lo)/2 gives the
    (explicitly represented) empty interval.  In real arithmetic membership
    is equivalent to cqr_score(x, y) <= lam; in floats the two can disagree
    when y lies within one rounding of an endpoint.

    Examples
    --------
    >>> flat = IntervalPredictor(lambda x: (2.0, 5.0))
    >>> cqr_set(flat, 0.0, None)
    PredictionInterval(lo=2.0, hi=5.0)
    >>> cqr_set(flat, -2.0, None).empty
    True
    """
    lo, hi = predictor.predict(x)
    return PredictionInterval(lo=float(lo) - lam, hi=float(hi) + lam)


def _fold_slices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return np.array_split(rng.permutation(n), folds)


def tune_nominal_quantiles(
    train,
    candidates: Sequence[tuple[float, float]] | None = None,
    target=Marginal(alpha=0.1),
    folds: int = 10,
    *,
    k: int = 50,
    seed: int = 0,
) -> TuneReport:
    """Pick nominal quantile levels by cross-validated calibrated length.

    For every candidate (lo_level, hi_level): split the training set into
    ``folds`` parts with a seeded permutation; for each part, fit the k-NN
    predictor on the remainder, calibrate on the held-out part at the
    requested guarantee, and record the mean length of the calibrated
    intervals over that part (empty intervals count 0, a full-set
    calibration counts +inf).  The candidate with the smallest fold-mean
    wins.  Neighbour sets do not depend on the levels, so each fold
    queries its held-out part once and serves every candidate from it;
    the held-out part keeps only the order statistics some candidate
    reads, not all k.

    Parameters
    ----------
    train : Dataset
        Proper training data; never sees the real calibration split.
    candidates : sequence of (float, float), optional
        Level pairs to try; defaults to DEFAULT_LEVEL_GRID.
    target : Marginal or Tolerance
        Guarantee the fold-wise calibration aims at.
    folds : int
        Cross-validation fold count, at least 2.
    k : int
        Neighbour count handed to every fitted predictor.
    seed : int
        Seed of the fold assignment.
    """
    if candidates is None:
        candidates = DEFAULT_LEVEL_GRID
    if not candidates:
        raise ValueError("need at least one candidate level pair")
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    features = np.asarray(train.features, dtype=float)
    labels = np.asarray(train.labels, dtype=float)
    n = labels.size
    parts = _fold_slices(n, folds, seed)
    if min(p.size for p in parts) < 1:
        raise ValueError(f"{folds} folds over {n} points leave an empty fold")
    if n - max(p.size for p in parts) < k:
        raise ValueError(
            f"folds too large: fitting parts have fewer than k={k} points"
        )
    # Each candidate's two order statistics, every pair checked up front.
    orders = []
    for lo_level, hi_level in candidates:
        cfg = KnnQuantileConfig(k=k, lo_level=lo_level, hi_level=hi_level)
        orders.append((_order_index(cfg.lo_level, k), _order_index(cfg.hi_level, k)))
    # Held-out folds keep the union of those columns; pairs index into it.
    columns = sorted({i for pair in orders for i in pair})
    places = [(columns.index(i_lo), columns.index(i_hi)) for i_lo, i_hi in orders]
    # The selected rank depends only on the fold size, of which there are two at most.
    ranks = {size: plan(size, target).order_index for size in {p.size for p in parts}}
    held_out = []
    for held in parts:
        fit_x, fit_y = np.delete(features, held, axis=0), np.delete(labels, held)
        neigh = _neighbour_labels(fit_x, fit_y, k)(features[held], columns)
        held_out.append((neigh, labels[held]))
    means = []
    for j_lo, j_hi in places:
        fold_lengths = []
        for neigh, y in held_out:
            lo, hi = neigh[:, j_lo], neigh[:, j_hi]
            scores = NonconformityScores(_cqr_scores(lo, hi, y))
            lengths = _cqr_lengths(hi - lo, scores.order_stat(ranks[y.size]))
            fold_lengths.append(float(np.mean(lengths)))
        means.append(sum(fold_lengths) / folds)
    means = np.asarray(means)
    best = int(np.argmin(means))
    return TuneReport(
        levels=tuple(tuple(c) for c in candidates),
        mean_lengths=means,
        selected=tuple(candidates[best]),
    )

"""Data handling and the repeated-split coverage experiment harness.

The harness follows the protocol behind the coverage-law results: fit a
base predictor once on a proper training set, then repeatedly (R trials)
draw a fresh calibration/test split from a held-out pool, calibrate a
threshold on the calibration part, and score empirical coverage C_j and
mean interval length on the test part.  Under a continuous score
distribution the C_j are beta-binomial across trials, which is what the
summary statistics quantify: the coverage mean, the exceedance estimates
delta_hat and delta_bar, and the KS distance between the empirical
coverage law and its theoretical reference.

Each trial derives its own random stream from the master seed and the
trial index, so results are bitwise reproducible for a fixed seed.

Also here: the synthetic heavy-tailed regression generator, CSV ingestion
and standardization for real datasets, and the pair of reference tables
mapping sample sizes and levels to exceedance counts and smallest
achievable eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal

import numpy as np

from ._rational import on_grid
from .calibration import (
    CalibrationPlan,
    Marginal,
    NonconformityScores,
    plan,
    tolerance_eps_given_alpha,
)
from .dists import BetaBinParams, BetaParams, _betabin_chain, _cdf_table, binom_sup_k
from .predictors import _cqr_lengths, _cqr_scores

__all__ = [
    "DEFAULT_SEED",
    "Dataset",
    "TrialReport",
    "Histogram",
    "TheoreticalLaw",
    "ExperimentSummary",
    "ParseError",
    "gen_synthetic",
    "load_csv",
    "standardize",
    "reference_law",
    "run_trials",
    "summarize",
    "tolerance_tables",
]

DEFAULT_SEED = 7

_TABLE_N = (100, 1000, 10000, 100000)
_TABLE_LEVELS = (0.1, 0.05, 0.01, 0.005, 0.001)


class ParseError(ValueError):
    """Malformed input file (ragged row, non-numeric cell, missing column)."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (rows are examples) plus one numeric label per row."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.features, dtype=float)
        if f.ndim == 1:
            f = f[:, None]
        y = np.asarray(self.labels, dtype=float).ravel()
        if f.ndim != 2 or f.shape[1] < 1:
            raise ValueError("features must be a matrix with at least one column")
        if f.shape[0] != y.size:
            raise ValueError(
                f"feature rows ({f.shape[0]}) and labels ({y.size}) disagree"
            )
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return int(self.labels.size)


@dataclass(frozen=True)
class TrialReport:
    """One calibrate/test split: threshold, coverage and mean set length."""

    trial_index: int
    lambda_hat: float
    coverage: float
    avg_length: float
    n: int
    n_test: int


@dataclass(frozen=True)
class Histogram:
    """Plot-ready fixed-width histogram of the trial coverages."""

    edges: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class TheoreticalLaw:
    """Reference coverage laws sampled on the test-set support atoms.

    ``betabin_cdf`` is the finite-test-set law of C_j, ``beta_cdf`` its
    infinite-test-set limit, both evaluated at coverage = k / n_test.
    """

    coverage: np.ndarray
    betabin_cdf: np.ndarray
    beta_cdf: np.ndarray


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate coverage statistics over the R trials.

    delta_hat is the fraction of trials with coverage at most 1 - eps;
    delta_bar counts against the delta-quantile of the reference
    beta-binomial law instead, which removes the finite-test-set bias
    when estimating the tolerance failure rate; its cut and the distances
    below read one table of the reference CDF.  ks_distance is the
    sup-norm gap between the empirical law of C_j and the reference;
    dominance_gap is the signed one-sided part max(ecdf - reference),
    small whenever the realized coverage stochastically dominates the
    reference the way the theory says it should.  ecdf is that empirical
    law, sampled on the atoms of ``theoretical.coverage``.
    """

    c_bar: float
    delta_hat: float
    delta_bar: float
    mean_length: float
    histogram: Histogram
    theoretical: TheoreticalLaw
    ks_distance: float
    dominance_gap: float
    ecdf: np.ndarray


def gen_synthetic(
    count: int,
    seed: int,
    *,
    noise_scale: float = 0.03,
    outlier_rate: float = 0.01,
    outlier_scale: float = 25.0,
) -> Dataset:
    """Heavy-tailed synthetic regression sample.

    X ~ Uniform[1, 5] and

        Y = Pois(sin^2(X) + 0.1) + noise_scale * X * g1
            + outlier_scale * 1{U < outlier_rate} * g2

    with independent standard normals g1, g2 and U ~ Uniform[0, 1], each
    driven by its own child stream of the seed, so switching one term off
    never shifts the others.  The keyword knobs exist for tests; defaults
    are the generative recipe itself.

    Examples
    --------
    >>> ds = gen_synthetic(4, seed=0)
    >>> ds.features.shape, ds.labels.shape
    ((4, 1), (4,))
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    kids = np.random.SeedSequence(seed).spawn(5)
    rng_x, rng_pois, rng_noise, rng_u, rng_out = map(np.random.default_rng, kids)
    x = rng_x.uniform(1.0, 5.0, count)
    y = rng_pois.poisson(np.sin(x) ** 2 + 0.1).astype(float)
    y += noise_scale * x * rng_noise.standard_normal(count)
    fires = rng_u.uniform(size=count) < outlier_rate
    y += outlier_scale * fires * rng_out.standard_normal(count)
    return Dataset(x[:, None], y)


def load_csv(path, label_column: str) -> Dataset:
    """Read a rectangular numeric CSV with a header row.

    The named column becomes the labels; every other column, in file
    order, becomes a feature.  Ragged rows and non-numeric cells raise
    ParseError with the offending line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if label_column not in header:
            raise ParseError(
                f"{path}: no column named {label_column!r}; columns are {header}"
            )
        if len(header) < 2:
            raise ParseError(f"{path}: need at least one feature column")
        label_pos = header.index(label_column)
        feats: list[list[float]] = []
        labels: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                vals = [float(cell) for cell in row]
            except ValueError:
                raise ParseError(
                    f"{path}:{line_no}: non-numeric cell in {row!r}"
                ) from None
            labels.append(vals.pop(label_pos))
            feats.append(vals)
    if not labels:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.asarray(feats), np.asarray(labels))


def standardize(train_part: Dataset, rest: Dataset):
    """Standardize features and rescale labels, statistics from train only.

    Features are centred and divided by the training standard deviation
    (population convention); labels are divided by the training mean
    absolute value.  The second dataset is transformed with the first
    one's statistics, never its own.

    Returns
    -------
    (Dataset, Dataset)
    """
    if train_part.features.shape[1] != rest.features.shape[1]:
        raise ValueError("train and rest have different feature counts")
    mean = train_part.features.mean(axis=0)
    sd = train_part.features.std(axis=0)
    scale = np.where(sd == 0.0, 1.0, sd)
    label_scale = float(np.mean(np.abs(train_part.labels)))
    if label_scale == 0.0:
        label_scale = 1.0

    def apply(ds: Dataset) -> Dataset:
        return Dataset((ds.features - mean) / scale, ds.labels / label_scale)

    return apply(train_part), apply(rest)


def reference_law(n: int, target) -> BetaParams:
    """Coverage law implied by calibrating n scores at the given target.

    Beta(i, n + 1 - i) with i the selected order index; raises in the
    degenerate full-set case, which has no nondegenerate law.
    """
    law = plan(n, target).law
    if law is None:
        if isinstance(target, Marginal):
            raise ValueError("alpha below 1/(n+1): full-set calibration")
        raise ValueError("infeasible tolerance pair: full-set calibration")
    return law


def run_trials(
    base,
    pool: Dataset,
    n: int,
    n_test: int,
    R: int,
    target,
    master_seed: int,
) -> list[TrialReport]:
    """Repeated random calibration/test splits of a held-out pool.

    The base predictor is evaluated on the pool once, and the pool's
    scores and interval widths with it, and the rank to select is planned
    once for n and the target, unless the caller hands in that plan; each
    trial then permutes the pool with its own seed stream (derived from the
    master seed and the trial index), calibrates on the first n scores and
    evaluates coverage and mean interval length on the next n_test.

    Parameters
    ----------
    base : IntervalPredictor
        Fixed base predictor (fit on data disjoint from the pool).
    pool : Dataset
        Held-out data to split, at least n + n_test rows.
    n, n_test : int
        Calibration and test sizes per trial.
    R : int
        Number of trials.
    target : Marginal, Tolerance or CalibrationPlan
        Guarantee to calibrate at, or its ``plan(n, target)``.
    master_seed : int
        Root of every trial's random stream.

    Examples
    --------
    >>> from conformal_kit.predictors import IntervalPredictor
    >>> ds = gen_synthetic(60, seed=1)
    >>> flat = IntervalPredictor(lambda x: (np.zeros(len(x)), np.zeros(len(x))))
    >>> reps = run_trials(flat, ds, 20, 30, 2, Marginal(0.2), master_seed=3)
    >>> [r.trial_index for r in reps]
    [0, 1]
    """
    if min(n, n_test, R) < 1:
        raise ValueError("n, n_test and R must all be >= 1")
    if n + n_test > pool.size:
        raise ValueError(
            f"pool has {pool.size} rows; need n + n_test = {n + n_test}"
        )
    lo, hi = base.predict(pool.features)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    scores = _cqr_scores(lo, hi, pool.labels)
    widths = hi - lo
    planned = target if isinstance(target, CalibrationPlan) else plan(n, target)
    rank = planned.order_index

    reports = []
    for j in range(R):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(j,))
        )
        perm = rng.permutation(scores.size)
        cal = perm[:n]
        test = perm[n : n + n_test]
        lam = NonconformityScores(scores[cal]).order_stat(rank)
        reports.append(
            TrialReport(
                trial_index=j,
                lambda_hat=float(lam),
                coverage=float(np.mean(scores[test] <= lam)),
                avg_length=float(np.mean(_cqr_lengths(widths[test], lam))),
                n=n,
                n_test=n_test,
            )
        )
    return reports


def summarize(
    reports,
    law: BetaParams,
    eps: float,
    delta: float,
    n_test: int,
) -> ExperimentSummary:
    """Aggregate trial coverages against their theoretical law.

    See ExperimentSummary for the statistics.  Coverages are converted
    back to integer covered counts so the threshold comparisons never
    depend on float rounding of C_j.
    """
    from scipy.special import betainc  # only the Beta reference needs it

    R = len(reports)
    if R < 1:
        raise ValueError("need at least one trial report")
    if any(r.n_test != n_test for r in reports):
        raise ValueError("reports disagree with the stated n_test")
    coverages = np.array([r.coverage for r in reports])
    counts = np.rint(coverages * n_test).astype(int)
    if np.max(np.abs(counts - coverages * n_test)) > 1e-6:
        raise ValueError("coverages are not multiples of 1/n_test")

    c_bar = float(math.fsum(coverages) / R)
    mean_length = float(math.fsum(r.avg_length for r in reports) / R)

    hat_cut = n_test - math.ceil(on_grid(eps, n_test) * n_test)
    delta_hat = float(np.mean(counts <= hat_cut))

    ref_cdf = _cdf_table(*_betabin_chain(BetaBinParams(n_test, law.a, law.b)), 0)
    bar_cut = np.searchsorted(ref_cdf, delta, "right") - 1
    delta_bar = float(np.mean(counts <= bar_cut))

    ecdf = np.cumsum(np.bincount(counts, minlength=n_test + 1)) / R
    ks = float(np.max(np.abs(ecdf - ref_cdf)))
    dominance = float(np.max(ecdf - ref_cdf))

    atoms = np.arange(n_test + 1) / n_test
    beta_cdf = betainc(law.a, law.b, atoms)
    bins = max(1, math.ceil(math.sqrt(R)))
    counts_hist, edges = np.histogram(coverages, bins=bins)

    return ExperimentSummary(
        c_bar=c_bar,
        delta_hat=delta_hat,
        delta_bar=delta_bar,
        mean_length=mean_length,
        histogram=Histogram(edges=edges, counts=counts_hist),
        theoretical=TheoreticalLaw(
            coverage=atoms, betabin_cdf=ref_cdf, beta_cdf=beta_cdf
        ),
        ks_distance=ks,
        dominance_gap=dominance,
        ecdf=ecdf,
    )


def _pct_floor4(value: float) -> str:
    """Percentage with exactly 4 decimals, truncated (never rounded up)."""
    cell = (Decimal(value) * 100).quantize(Decimal("0.0001"), rounding=ROUND_FLOOR)
    return str(cell)


def _level_label(prefix: str, level: float) -> str:
    return f"{prefix}={100 * level:g}%"


def tolerance_tables(n_values=_TABLE_N, levels=_TABLE_LEVELS) -> tuple[str, str]:
    """Render the two calibration lookup tables as aligned text.

    The first table gives the largest exceedance count
    k = sup{k : Bin(k; n, eps) <= delta} whose order statistic still
    yields an (eps, delta) tolerance region; infeasible cells print 0.
    The second gives the smallest achievable eps (in percent, truncated
    to 4 decimals) when calibrating at marginal level alpha with failure
    budget delta, i.e. the binomial-tail root at
    k = floor(alpha (n + 1) - 1); degenerate cells print 0.0000.

    Returns
    -------
    (str, str)
        Count table and smallest-eps table, byte-stable for fixed inputs.
    """
    col_labels_eps = [_level_label("eps", l) for l in levels]
    col_labels_alpha = [_level_label("alpha", l) for l in levels]
    row_labels = [_level_label("delta", l) for l in levels]

    def render(title: str, col_labels, cell_fn) -> str:
        width = max(9, *(len(c) for c in col_labels)) + 2
        left = max(len(r) for r in row_labels)
        lines = [title]
        for n in n_values:
            lines.append("")
            lines.append(f"n = {n}")
            lines.append(" " * left + "".join(c.rjust(width) for c in col_labels))
            for delta in levels:
                cells = [cell_fn(n, level, delta) for level in levels]
                lines.append(
                    _level_label("delta", delta).ljust(left)
                    + "".join(c.rjust(width) for c in cells)
                )
        return "\n".join(lines) + "\n"

    def count_cell(n: int, eps: float, delta: float) -> str:
        return str(max(binom_sup_k(n, eps, delta), 0))

    def eps_cell(n: int, alpha: float, delta: float) -> str:
        return _pct_floor4(tolerance_eps_given_alpha(n, alpha, delta))

    counts = render(
        "largest calibration exceedance count k with Bin(k; n, eps) <= delta"
        " (0 = infeasible)",
        col_labels_eps,
        count_cell,
    )
    eps_table = render(
        "smallest achievable eps in percent at marginal level alpha with"
        " failure budget delta (truncated to 4 decimals)",
        col_labels_alpha,
        eps_cell,
    )
    return counts, eps_table

"""Command line entry point.

Four subcommands: ``calibrate`` turns a file of nonconformity scores into
a threshold with its guarantee metadata, via the quantile, crc, ucb or
ltt route; ``tables`` prints the exceedance-count and smallest-eps lookup
tables; ``experiment`` runs the repeated-split coverage experiment on
synthetic or CSV data; ``verify`` runs the self-check suites.

All output is JSON (or aligned text for tables) on stdout, deterministic
for fixed flags and seed.  The JSON is the library's own records,
serialized field by field.  ``calibrate`` prints the fields of
``CalibrationResult`` (order index, law, dual, marginal bounds, full-set
flag) with ``lambda_hat`` taken from the chosen route, plus ``method``,
``n`` and ``guarantee`` (the target's fields plus its ``kind``).
Infinities are serialized as the strings "inf"/"-inf" since JSON has no
literal for them, and exact rationals as {"fraction": "88/1001",
"value": 0.0879...} pairs.  Exit codes: 0 on success, 2 on a domain error
(invalid level, empty scores, degenerate configuration), 1 on an I/O or
parse failure; ``verify`` exits 1 when a suite fails.  A closed stdout
(say, piping into ``head``) ends the run quietly with exit code 0.

The seed comes from --seed, else the CONFORMAL_KIT_SEED environment
variable, else a fixed default.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .calibration import Marginal, NonconformityScores, Tolerance, p_hat, plan, q_hat
from .experiments import (
    DEFAULT_SEED,
    Dataset,
    ParseError,
    gen_synthetic,
    load_csv,
    reference_law,
    run_trials,
    standardize,
    summarize,
    tolerance_tables,
)
from .predictors import KnnQuantileConfig, fit_knn_quantile, tune_nominal_quantiles
from .risk import Losses, crc_lambda, ltt_lambda, ucb_lambda
from .verify import SUITE_NAMES, run_suites


def _json_default(obj):
    if isinstance(obj, Fraction):
        return _frac(obj)
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)


def _num(x: float):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _frac(fr: Fraction) -> dict:
    return {"fraction": f"{fr.numerator}/{fr.denominator}", "value": float(fr)}


def _guarantee(target) -> dict:
    """A Marginal or Tolerance target's fields, tagged with its kind."""
    return {"kind": type(target).__name__.lower(), **vars(target)}


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("CONFORMAL_KIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(
                f"CONFORMAL_KIT_SEED must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _read_scores(path) -> np.ndarray:
    """Whitespace-separated floats; parse failures carry the bad token."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        return np.array(tokens, dtype=float)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _check_levels(args) -> None:
    for name in ("alpha", "eps", "delta"):
        value = getattr(args, name, None)
        if value is not None and not 0.0 < value < 1.0:
            raise ValueError(f"--{name} must be in (0, 1), got {value}")


def cmd_calibrate(args) -> int:
    _check_levels(args)
    scores = NonconformityScores(_read_scores(args.scores))
    method = args.method
    if (args.eps is None) != (args.delta is None):
        raise ValueError("--eps and --delta must be given together")
    if method in ("ucb", "ltt"):
        if args.eps is None:
            raise ValueError(f"--method {method} requires --eps and --delta")
        if args.alpha is not None:
            raise ValueError(f"--method {method} takes no --alpha")
    elif args.alpha is None:
        if args.eps is None:
            raise ValueError("need --alpha, or --eps with --delta")
        if method == "crc":
            raise ValueError("--method crc requires --alpha (0-1 loss risk)")

    # The rank rule's order index, law, dual and bounds annotate every
    # route; the risk routes compute their own lambda_hat from the losses.
    if args.alpha is not None:
        target = Marginal(args.alpha)
        res = q_hat(scores, args.alpha, eps=args.eps, delta=args.delta)
    else:
        target = Tolerance(args.eps, args.delta)
        res = p_hat(scores, args.eps, args.delta)
    lam = res.lambda_hat
    if method != "split":
        losses = Losses.zero_one(scores.values)
        if method == "crc":
            lam = crc_lambda(losses, args.alpha)
        elif method == "ucb":
            lam = ucb_lambda(losses, args.eps, args.delta)
        else:
            lam = ltt_lambda(losses, args.eps, args.delta)

    payload = {
        **vars(res),
        "method": method,
        "n": scores.n,
        "guarantee": _guarantee(target),
        "lambda_hat": _num(lam),
    }
    print(_dumps(payload))
    return 0


def cmd_tables(args) -> int:
    counts, eps_table = tolerance_tables(tuple(args.n), tuple(args.levels))
    sys.stdout.write(counts)
    sys.stdout.write("\n")
    sys.stdout.write(eps_table)
    return 0


def _experiment_data(args, seed: int):
    """Build (train, pool, n, n_test, source) for the experiment."""
    root = np.random.SeedSequence(seed)
    train_seq, pool_seq = root.spawn(2)
    if args.data is None:
        n = args.n if args.n is not None else 1000
        n_test = args.n_test if args.n_test is not None else 5000
        train = gen_synthetic(1000, int(train_seq.generate_state(1)[0]))
        pool = gen_synthetic(n + n_test, int(pool_seq.generate_state(1)[0]))
        return train, pool, n, n_test, "synthetic"
    ds = load_csv(args.data, args.label_col)
    total = ds.size
    n_train = round(0.4 * total)
    n = args.n if args.n is not None else round(0.4 * total)
    n_test = args.n_test if args.n_test is not None else total - n_train - n
    if n_train < 1 or n < 1 or n_test < 1:
        raise ValueError("dataset too small for a 40/40/20 split")
    if n_train + n + n_test > total:
        raise ValueError(
            f"{total} rows cannot supply train {n_train} + calibration {n}"
            f" + test {n_test}"
        )
    perm = np.random.default_rng(train_seq).permutation(total)
    train = Dataset(ds.features[perm[:n_train]], ds.labels[perm[:n_train]])
    rest = Dataset(ds.features[perm[n_train:]], ds.labels[perm[n_train:]])
    train, rest = standardize(train, rest)
    return train, rest, n, n_test, str(args.data)


def cmd_experiment(args) -> int:
    _check_levels(args)
    seed = _resolve_seed(args.seed)
    eps = args.eps if args.eps is not None else 0.1
    delta = args.delta if args.delta is not None else 0.1
    target = Marginal(args.alpha) if args.alpha is not None else Tolerance(eps, delta)

    train, pool, n, n_test, source = _experiment_data(args, seed)
    planned = plan(n, target)
    # a full-set plan has no law, and reference_law raises its error before
    # any tuning or fitting
    law = planned.law if planned.law is not None else reference_law(n, target)
    report = tune_nominal_quantiles(train, target=target, k=args.k_neighbors, seed=seed)
    config = KnnQuantileConfig(args.k_neighbors, *report.selected)
    base = fit_knn_quantile(train, config)
    reports = run_trials(base, pool, n, n_test, args.trials, planned, master_seed=seed)
    summary = summarize(reports, law, eps=eps, delta=delta, n_test=n_test)

    payload = {
        "source": source,
        "guarantee": _guarantee(target),
        "n": n,
        "n_test": n_test,
        "trials": args.trials,
        "seed": seed,
        "base": config,
        "law": law,
        "c_bar": summary.c_bar,
        "delta_hat": summary.delta_hat,
        "delta_bar": summary.delta_bar,
        "mean_length": _num(summary.mean_length),
        "ks_distance": summary.ks_distance,
        "dominance_gap": summary.dominance_gap,
    }

    text = _dumps(payload)
    print(text)
    if args.out is not None:
        _write_artifacts(Path(args.out), text, reports, summary)
    return 0


def _write_artifacts(out: Path, summary_json: str, reports, summary) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(summary_json + "\n")
    with open(out / "trials.csv", "w") as fh:
        fh.write("trial_index,lambda_hat,coverage,avg_length\n")
        for r in reports:
            fh.write(
                f"{r.trial_index},{_num(r.lambda_hat)},{r.coverage!r},"
                f"{r.avg_length!r}\n"
            )
    with open(out / "histogram.csv", "w") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        # tolist() yields Python floats and ints, whose repr is the cell
        edges = summary.histogram.edges.tolist()
        counts = summary.histogram.counts.tolist()
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write(f"{lo!r},{hi!r},{c}\n")
    with open(out / "ecdf.csv", "w") as fh:
        fh.write("coverage,empirical_cdf,betabin_cdf,beta_cdf\n")
        t = summary.theoretical
        columns = (t.coverage, summary.ecdf, t.betabin_cdf, t.beta_cdf)
        for cov, e, bb, b in zip(*(c.tolist() for c in columns)):
            fh.write(f"{cov!r},{e!r},{bb!r},{b!r}\n")


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    seed = args.seed
    if seed is None and "CONFORMAL_KIT_SEED" in os.environ:
        seed = _resolve_seed(None)
    results = run_suites(names, trials=args.trials, seed=seed)
    payload = {
        "all_passed": all(r.passed for r in results),
        "suites": results,
    }
    print(_dumps(payload))
    return 0 if payload["all_passed"] else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; the handlers only read the list defaults
    # that every later call shares.
    parser = argparse.ArgumentParser(
        prog="conformal-kit",
        description=(
            "Split conformal calibration, tolerance regions and"
            " distribution-free risk control."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cal = sub.add_parser(
        "calibrate", help="calibrate a threshold from a file of scores"
    )
    cal.add_argument("--scores", required=True, help="whitespace-separated scores")
    cal.add_argument("--alpha", type=float, help="marginal miscoverage level")
    cal.add_argument("--eps", type=float, help="tolerance miscoverage level")
    cal.add_argument("--delta", type=float, help="tolerance failure probability")
    cal.add_argument(
        "--method",
        choices=("split", "crc", "ucb", "ltt"),
        default="split",
        help="calibration route (all agree on 0-1 loss)",
    )
    cal.set_defaults(handler=cmd_calibrate)

    tab = sub.add_parser("tables", help="print the two calibration lookup tables")
    tab.add_argument(
        "--n", type=int, nargs="+", default=[100, 1000, 10000, 100000],
        help="calibration sizes, one table block each",
    )
    tab.add_argument(
        "--levels", type=float, nargs="+",
        default=[0.1, 0.05, 0.01, 0.005, 0.001],
        help="levels used for rows (delta) and columns (eps or alpha)",
    )
    tab.set_defaults(handler=cmd_tables)

    exp = sub.add_parser(
        "experiment", help="repeated-split coverage experiment"
    )
    exp.add_argument("--data", help="CSV dataset; omit for synthetic data")
    exp.add_argument("--label-col", default="label", help="label column name")
    exp.add_argument("--n", type=int, help="calibration size per trial")
    exp.add_argument("--n-test", type=int, help="test size per trial")
    exp.add_argument("--trials", type=int, default=1000, help="number of trials")
    exp.add_argument("--seed", type=int, help="master seed")
    exp.add_argument(
        "--k-neighbors", type=int, default=50, help="k for the base predictor"
    )
    exp.add_argument("--alpha", type=float, help="calibrate marginally instead")
    exp.add_argument("--eps", type=float, help="tolerance miscoverage (default 0.1)")
    exp.add_argument(
        "--delta", type=float, help="tolerance failure probability (default 0.1)"
    )
    exp.add_argument("--out", help="directory for summary, trial and ecdf files")
    exp.set_defaults(handler=cmd_experiment)

    ver = sub.add_parser("verify", help="run the self-check suites")
    ver.add_argument(
        "--suite", choices=("all",) + SUITE_NAMES, default="all",
        help="which suite to run",
    )
    ver.add_argument("--trials", type=int, help="override suite trial counts")
    ver.add_argument("--seed", type=int, help="override suite seeds")
    ver.set_defaults(handler=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone; point stdout at devnull so that the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

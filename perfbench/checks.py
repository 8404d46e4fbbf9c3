"""Output checks made apart from the program under test.

Nothing here calls conformal_kit.  Binomial tails come from
``scipy.special.bdtr`` (the Cephes incomplete beta), and from a windowed
multi-precision sum in mpmath when a bdtr value sits within bdtr's own
error of the level it is compared with.  Levels are the decimal strings
passed on the command line, turned into exact fractions, so the expected
ranks are the rational ones.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  ``wrong_rank``, ``bump_count_cell`` and
``nudge_c_bar`` each make one wrong output that its checker must reject.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from scipy.special import bdtr

# bdtr's relative error reaches ~2e-9 at n = 10^6; a comparison closer than
# this to the level is settled in multi-precision instead.
BDTR_RTOL = 1e-7
# False-alarm probability of each statistical check on correct output.
FALSE_ALARM = 1e-6


def _binom_cdf_mp(k: int, n: int, p: float):
    """Bin(k; n, p) summed in mpmath over 14 sigma + 80 terms of the near tail."""
    import mpmath

    with mpmath.workdps(40):
        pp = mpmath.mpf(p)
        q = 1 - pp
        width = int(14 * math.sqrt(n * p * (1 - p))) + 80
        lower = k <= n * p
        i = k if lower else k + 1
        term = mpmath.exp(
            mpmath.loggamma(n + 1) - mpmath.loggamma(i + 1)
            - mpmath.loggamma(n - i + 1) + i * mpmath.log(pp)
            + (n - i) * mpmath.log(q)
        )
        total = term
        if lower:
            for j in range(i, max(0, i - width), -1):
                term = term * j * q / ((n - j + 1) * pp)
                total += term
            return total
        for j in range(i, min(n, i + width)):
            term = term * (n - j) * pp / ((j + 1) * q)
            total += term
        return 1 - total


def cdf_at_most(k: int, n: int, p: float, level: float) -> bool:
    """Whether Bin(k; n, p) <= level."""
    if k < 0:
        return 0.0 <= level
    if k >= n:
        return 1.0 <= level
    value = float(bdtr(k, n, p))
    if abs(value - level) > BDTR_RTOL * level:
        return value <= level
    return _binom_cdf_mp(k, n, p) <= level


def sup_k(n: int, eps: float, delta: float) -> int | None:
    """Largest k with Bin(k; n, eps) <= delta, None when there is none."""
    lo, hi = -1, n  # Bin(-1) = 0 <= delta < 1 = Bin(n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cdf_at_most(mid, n, eps, delta):
            lo = mid
        else:
            hi = mid
    return None if lo < 0 else lo


def _frac_text(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


# --- calibrate ------------------------------------------------------------


def expected_rank(n: int, levels: dict) -> tuple[int, Fraction]:
    """(order index, exact marginal mean) that the rank rule selects."""
    if "alpha" in levels:
        alpha = Fraction(levels["alpha"])
        idx = math.ceil((1 - alpha) * (n + 1))
        mean = 1 - Fraction(math.floor(alpha * (n + 1)), n + 1)
        return idx, mean
    k = sup_k(n, float(levels["eps"]), float(levels["delta"]))
    if k is None:
        return n + 1, 1 - Fraction(1, n + 1)
    return n - k, Fraction(n - k, n + 1)


def check_calibrate(payload: dict, sorted_scores, method: str, levels: dict) -> list[str]:
    """Every route must select the rank rule's order statistic."""
    n = len(sorted_scores)
    idx, mean = expected_rank(n, levels)
    full = idx > n
    want_lambda = "inf" if full else float(sorted_scores[idx - 1])
    problems = []

    def expect(key, got, want):
        if got != want:
            problems.append(f"{key}: got {got!r}, want {want!r}")

    expect("method", payload.get("method"), method)
    expect("n", payload.get("n"), n)
    expect("order_index", payload.get("order_index"), idx)
    expect("full_set", payload.get("full_set"), full)
    expect("lambda_hat", payload.get("lambda_hat"), want_lambda)
    expect("law", payload.get("law"), None if full else {"a": idx, "b": n + 1 - idx})
    bounds = payload.get("marginal_bounds") or {}
    expect(
        "exact_mean",
        (bounds.get("exact_mean") or {}).get("fraction"),
        _frac_text(mean),
    )
    if "alpha" not in levels and not full:
        dual = payload.get("dual") or {}
        expect(
            "dual.alpha",
            (dual.get("alpha") or {}).get("fraction"),
            _frac_text(Fraction(n - idx + 1, n + 1)),
        )
    return problems


def wrong_rank(payload: dict, sorted_scores) -> dict:
    """The same payload with the next order statistic selected."""
    bad = json.loads(json.dumps(payload))
    n = len(sorted_scores)
    idx = bad["order_index"] + 1 if bad["order_index"] < n else n - 1
    bad["order_index"] = idx
    bad["lambda_hat"] = float(sorted_scores[idx - 1])
    bad["law"] = {"a": idx, "b": n + 1 - idx}
    return bad


# --- tables -----------------------------------------------------------------


def parse_tables(text: str) -> tuple[dict, dict]:
    """Cells of the count and eps tables as {(n, row level, col level): text}."""
    tables = ({}, {})
    which = -1
    n = None
    header = None
    for line in text.splitlines():
        if line.startswith("largest calibration exceedance count"):
            which, n = 0, None
        elif line.startswith("smallest achievable eps"):
            which, n = 1, None
        elif line.startswith("n = "):
            n = int(line[4:])
            header = None
        elif line.strip() and n is not None:
            if header is None:
                header = [_level_of(label) for label in line.split()]
            else:
                label, *cells = line.split()
                row = _level_of(label)
                for col, cell in zip(header, cells, strict=True):
                    tables[which][(n, row, col)] = cell
    return tables


def _level_of(label: str) -> Fraction:
    # "eps=10%" -> 1/10
    return Fraction(label.split("=", 1)[1].rstrip("%")) / 100


def check_tables(text: str, n: int, levels: list[str]) -> list[str]:
    """Bracket every cell of both tables with independent binomial tails."""
    counts, eps_cells = parse_tables(text)
    problems = []
    want_keys = {(n, Fraction(r), Fraction(c)) for r in levels for c in levels}
    for name, table in (("count", counts), ("eps", eps_cells)):
        if set(table) != want_keys:
            problems.append(f"{name} table cells {sorted(table)} != {sorted(want_keys)}")
    for key in want_keys & set(counts):
        _, delta, eps = key
        cell = counts[key]
        k = int(cell)
        # k is the largest count with Bin(k; n, eps) <= delta; 0 also marks
        # an infeasible cell, where even Bin(0) exceeds delta.
        above = not cdf_at_most(k + 1, n, float(eps), float(delta))
        if not (above and (k == 0 or cdf_at_most(k, n, float(eps), float(delta)))):
            problems.append(f"count cell {key}: {cell} is not sup k")
    for key in want_keys & set(eps_cells):
        _, delta, alpha = key
        cell = eps_cells[key]
        kk = math.floor(alpha * (n + 1) - 1)
        lo = Fraction(cell) / 100
        hi = lo + Fraction(1, 10**6)
        # The root p* of Bin(kk; n, p) = delta must lie in [lo, hi).
        if kk < 0:
            ok = cell == "0.0000"
        else:
            ok = not cdf_at_most(kk, n, float(lo), float(delta)) and cdf_at_most(
                kk, n, float(hi), float(delta)
            )
        if not ok:
            problems.append(f"eps cell {key}: {cell}% does not bracket the root")
    return problems


def bump_count_cell(text: str) -> str:
    """The same tables with the first count cell increased by one."""
    lines = text.splitlines(keepends=True)
    # The count table comes first, so its first row is the first "delta=" row.
    i = next(i for i, line in enumerate(lines) if line.startswith("delta="))
    label, cell = lines[i].split()[:2]
    pos = lines[i].index(cell, len(label))
    lines[i] = lines[i][:pos] + str(int(cell) + 1) + lines[i][pos + len(cell):]
    return "".join(lines)


# --- experiment -------------------------------------------------------------


def dkw_bound(trials: int) -> float:
    """sup |ecdf - cdf| exceeds this with probability <= FALSE_ALARM."""
    return math.sqrt(math.log(2.0 / FALSE_ALARM) / (2.0 * trials))


def delta_bar_bound(delta: float, trials: int) -> float:
    """Smallest c/R with P(Bin(R, delta) > c) <= FALSE_ALARM.

    Each trial falls below the beta-binomial delta-quantile with
    probability at most delta, independently across trials.
    """
    c = math.ceil(delta * trials)
    while 1.0 - float(bdtr(c, trials, delta)) > FALSE_ALARM:
        c += 1
    return c / trials


def read_trials(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [
            {k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)
        ]


def check_experiment(payload: dict, summary: dict, rows: list[dict], spec: dict) -> list[str]:
    """Recompute the summary from trials.csv and test the coverage law."""
    problems = []

    def expect(key, got, want):
        if got != want:
            problems.append(f"{key}: got {got!r}, want {want!r}")

    n, n_test, trials = spec["n"], spec["n_test"], spec["trials"]
    eps, delta = spec["eps"], spec["delta"]
    for key in ("n", "n_test", "trials", "seed"):
        expect(key, payload.get(key), spec[key])
    expect("guarantee", payload.get("guarantee"),
           {"kind": "tolerance", "eps": eps, "delta": delta})
    expect("summary.json", summary, payload)
    k = sup_k(n, eps, delta)
    expect("law", payload.get("law"), {"a": n - k, "b": k + 1})

    expect("trial_index", [int(r["trial_index"]) for r in rows], list(range(trials)))
    if problems:
        return problems
    cover = [r["coverage"] for r in rows]
    covered = [round(c * n_test) for c in cover]
    if any(c != m / n_test for c, m in zip(cover, covered)):
        problems.append("a trial coverage is not a multiple of 1/n_test")
    expect("c_bar", payload["c_bar"], math.fsum(cover) / trials)
    expect("mean_length", payload["mean_length"],
           math.fsum(r["avg_length"] for r in rows) / trials)
    cut = math.floor((1 - Fraction(str(eps))) * n_test)
    expect("delta_hat", payload["delta_hat"], sum(m <= cut for m in covered) / trials)
    if not payload["delta_bar"] <= delta_bar_bound(delta, trials):
        problems.append(
            f"delta_bar {payload['delta_bar']} above {delta_bar_bound(delta, trials)}"
        )
    if not 0.0 <= payload["ks_distance"] <= dkw_bound(trials):
        problems.append(f"ks_distance {payload['ks_distance']} outside the DKW bound")
    return problems


def nudge_c_bar(payload: dict) -> dict:
    """The same payload with c_bar off by 1e-9."""
    bad = dict(payload)
    bad["c_bar"] = payload["c_bar"] + 1e-9
    return bad

"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules at
every module binding it has: the modules import names directly, so
``calibration.binom_sup_k`` and ``dists.binom_sup_k`` are two bindings of
one function and both are wrapped.  Calls inside a module go through its
globals, so they are traced too.  The predict closures that
``fit_knn_quantile`` returns are wrapped as ``predictors.predict``.

Spans stay in memory as [name, parent, op, start, end, key] and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children (calls are nested and single
threaded, so children never overlap).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("dists", "calibration", "risk", "predictors", "experiments", "cli")
# Functions whose argument tuples are kept, to count repeated calls.
KEYED = {"dists.binom_sup_k"}
INVERSIONS = ("dists.binom_sup_k", "dists.binom_inf_p")

METRICS = (
    ("dists.binom_sup_k.calls", "count/op"),
    ("dists.binom_sup_k.s", "s/op"),
    ("dists.binom_sup_k.repeat_share", "ratio"),
    ("dists.binom_inf_p.calls", "count/op"),
    ("dists.binom_inf_p.s", "s/op"),
    ("dists.binom_cdf.calls", "count/op"),
    ("dists.binom_cdf.s", "s/op"),
    ("dists.cdf_calls_per_inversion", "count"),
    ("dists.beta_reg.calls", "count/op"),
    ("dists.betabin.s", "s/op"),
    ("calibration.calls", "count/op"),
    ("calibration.self_s", "s/op"),
    ("risk.crc_lambda.s", "s/op"),
    ("risk.ucb_lambda.s", "s/op"),
    ("risk.ltt.s", "s/op"),
    ("risk.self_s", "s/op"),
    ("predictors.tune_nominal_quantiles.s", "s/op"),
    ("predictors.predict.s", "s/op"),
    ("experiments.run_trials.self_s", "s/op"),
    ("experiments.summarize.self_s", "s/op"),
    ("experiments.tolerance_tables.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("setup.import_s", "s"),
)

NAME, PARENT, OP, START, END, KEY = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, post=None):
        spans, stack = self.spans, self.stack
        keyed = name in KEYED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            key = repr((args, sorted(kwargs.items()))) if keyed else None
            spans.append([name, stack[-1] if stack else -1, self.op, 0.0, 0.0, key])
            stack.append(sid)
            spans[sid][START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][END] = time.perf_counter()
                stack.pop()
            return post(result) if post else result

        return traced

    def install(self, package: str = "conformal_kit") -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == package or k.startswith(package + ".")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    post = self._trace_predict if name == "fit_knn_quantile" else None
                    wrapped[fn] = self.wrap(f"{layer}.{name}", fn, post)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, name, wrapped[value])

    def _trace_predict(self, predictor):
        return dataclasses.replace(
            predictor, predict=self.wrap("predictors.predict", predictor.predict)
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(spans, op_count: int, import_s: float) -> dict:
    """Per-op layer figures over all spans of a traced run."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    seen: dict[int, set] = {}
    repeats = inversion_cdf = 0
    for sid, s in enumerate(spans):
        name = s[NAME]
        if name == "op":
            continue
        calls[name] += 1
        total[name] += s[END] - s[START]
        own[name] += s[END] - s[START] - child_time[sid]
        if s[KEY] is not None:
            op_keys = seen.setdefault(s[OP], set())
            repeats += s[KEY] in op_keys
            op_keys.add(s[KEY])
        if name == "dists.binom_cdf" and spans[s[PARENT]][NAME] in INVERSIONS:
            inversion_cdf += 1
    for name in list(own):
        own[name.split(".")[0]] += own[name]

    count = max(1, op_count)
    sup = calls["dists.binom_sup_k"]
    inversions = sup + calls["dists.binom_inf_p"]

    def per_op(table, *names):
        return sum(table[n] for n in names) / count

    values = {
        "dists.binom_sup_k.calls": per_op(calls, "dists.binom_sup_k"),
        "dists.binom_sup_k.s": per_op(total, "dists.binom_sup_k"),
        "dists.binom_sup_k.repeat_share": repeats / sup if sup else 0.0,
        "dists.binom_inf_p.calls": per_op(calls, "dists.binom_inf_p"),
        "dists.binom_inf_p.s": per_op(total, "dists.binom_inf_p"),
        "dists.binom_cdf.calls": per_op(calls, "dists.binom_cdf"),
        "dists.binom_cdf.s": per_op(total, "dists.binom_cdf"),
        "dists.cdf_calls_per_inversion": inversion_cdf / inversions if inversions else 0.0,
        "dists.beta_reg.calls": per_op(calls, "dists.beta_reg"),
        "dists.betabin.s": per_op(
            total, "dists.betabin_pmf", "dists.betabin_cdf", "dists.betabin_quantile"
        ),
        "calibration.calls": sum(
            v for k, v in calls.items() if k.startswith("calibration.")
        ) / count,
        "calibration.self_s": per_op(own, "calibration"),
        "risk.crc_lambda.s": per_op(total, "risk.crc_lambda"),
        "risk.ucb_lambda.s": per_op(total, "risk.ucb_lambda"),
        "risk.ltt.s": per_op(
            total, "risk.ltt_pvalues", "risk.ltt_fixed_sequence", "risk.ltt_bonferroni"
        ),
        "risk.self_s": per_op(own, "risk"),
        "predictors.tune_nominal_quantiles.s": per_op(
            total, "predictors.tune_nominal_quantiles"
        ),
        "predictors.predict.s": per_op(total, "predictors.predict"),
        "experiments.run_trials.self_s": per_op(own, "experiments.run_trials"),
        "experiments.summarize.self_s": per_op(own, "experiments.summarize"),
        "experiments.tolerance_tables.self_s": per_op(own, "experiments.tolerance_tables"),
        "cli.self_s": per_op(own, "cli"),
        "setup.import_s": import_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}

"""Golden stdout and exit codes of a fixed list of CLI invocations.

Every case runs ``cli.main`` in-process and must reproduce, byte for byte,
the stdout and exit code stored in ``data/cli_golden.json``.  Score files
are written by the test from seeded draws, so the recorded outputs cover
every calibrate method and guarantee on continuous scores, one-decimal
ties, signed zeros, +-inf among normals, n = 1 and a rank-boundary level
at n = 9999, plus ``tables``, ``experiment`` (tolerance and marginal),
``verify`` and the error exit codes.  stderr is not compared.

The data file was recorded by running this module as a script,

    PYTHONPATH=src python tests/test_cli_golden.py

on the commit before the CLI serialized the library's records itself, on
an x86-64 build whose long double has a 64-bit mantissa; the
``experiment-json-marginal`` case was recorded the same way on the
commit before ``experiment`` lost its CSV output.  The binomial
tails run in long double, so the file pins that build; elsewhere the
test is skipped.  A change that means to alter CLI output re-records the
file the same way and says so in its change notes.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_kit import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _score_files() -> dict:
    rng = np.random.default_rng(20221027)
    return {
        "continuous": rng.standard_normal(300),
        "ties": np.round(rng.standard_normal(300), 1),
        "zeros": [0.0, -0.0, 1.0, 1.0],
        "inf": np.concatenate((rng.standard_normal(50), [np.inf, -np.inf, np.inf])),
        "single": [0.5],
        "large": rng.standard_normal(9999),
        "empty": [],
    }


# file -> (alpha, eps, delta) for the method x guarantee grid
_LEVELS = {
    "continuous": ("0.1", "0.1", "0.1"),
    "ties": ("0.1", "0.1", "0.05"),
    "zeros": ("0.6", "0.5", "0.5"),
    "inf": ("0.2", "0.2", "0.1"),
    "single": (repr(1 - 2**-53), "0.6", "0.6"),
}


def _calibrate_cases() -> list:
    cases = []
    for name, (alpha, eps, delta) in _LEVELS.items():
        scores = ["calibrate", "--scores", "{%s}" % name]
        tol = ["--eps", eps, "--delta", delta]
        grid = [
            ("split-marginal", ["--alpha", alpha]),
            ("split-tolerance", tol),
            ("split-marginal-refs", ["--alpha", alpha] + tol),
            ("crc-marginal", ["--alpha", alpha, "--method", "crc"]),
            ("crc-marginal-refs", ["--alpha", alpha, "--method", "crc"] + tol),
            ("ucb-tolerance", tol + ["--method", "ucb"]),
            ("ltt-tolerance", tol + ["--method", "ltt"]),
        ]
        cases += [(f"calibrate-{name}-{label}", scores + argv) for label, argv in grid]
    for method in ("split", "crc"):
        cases.append((
            f"calibrate-large-{method}-boundary",
            ["calibrate", "--scores", "{large}", "--alpha", "0.072",
             "--method", method],
        ))
    for method in ("ucb", "ltt"):
        cases.append((
            f"calibrate-large-{method}-tolerance",
            ["calibrate", "--scores", "{large}", "--eps", "0.1",
             "--delta", "0.1", "--method", method],
        ))
    return cases


def _error_cases() -> list:
    def cal(scores, *argv):
        return ["calibrate", "--scores", "{%s}" % scores, *argv]

    alpha, tol = ("--alpha", "0.1"), ("--eps", "0.1", "--delta", "0.1")
    return [
        ("error-alpha-range", cal("continuous", "--alpha", "1.5")),
        ("error-eps-range", cal("continuous", "--eps", "0", "--delta", "0.1")),
        ("error-delta-range", cal("continuous", "--eps", "0.1", "--delta", "1")),
        ("error-missing-file", cal("missing", *alpha)),
        ("error-parse", cal("bad", *alpha)),
        ("error-empty", cal("empty", *alpha)),
        ("error-nan", cal("nan", *alpha)),
        ("error-eps-alone", cal("continuous", "--eps", "0.1")),
        ("error-no-level", cal("continuous")),
        ("error-crc-tolerance", cal("continuous", *tol, "--method", "crc")),
        ("error-ucb-alpha", cal("continuous", *alpha, "--method", "ucb")),
        ("error-ltt-alpha", cal("continuous", *alpha, *tol, "--method", "ltt")),
        ("error-read-first", cal("bad", "--eps", "0.1", "--method", "ucb")),
        ("error-level-first", cal("bad", "--alpha", "1.5")),
        ("error-experiment-missing-data", ["experiment", "--data", "{missing}"]),
    ]


_EXPERIMENT = ["experiment", "--n", "100", "--n-test", "200", "--trials", "20"]

CASES = _calibrate_cases() + [
    ("tables", ["tables", "--n", "1000003", "--levels", "0.1", "0.05"]),
    ("experiment-json", _EXPERIMENT),
    ("experiment-json-marginal", _EXPERIMENT + ["--alpha", "0.1"]),
    ("verify-duality", ["verify", "--suite", "duality", "--trials", "20"]),
    ("verify-sandwich", ["verify", "--suite", "sandwich"]),
] + _error_cases()


def _write_inputs(root: Path) -> dict:
    paths = {"missing": str(root / "missing.txt")}
    for name, values in _score_files().items():
        path = root / f"{name}.txt"
        path.write_text("\n".join(repr(float(v)) for v in values))
        paths[name] = str(path)
    for name, text in (("bad", "1.0 2.0 zebra"), ("nan", "1.0 nan 2.0")):
        (root / f"{name}.txt").write_text(text)
        paths[name] = str(root / f"{name}.txt")
    return paths


def _run(argv, paths) -> dict:
    argv = [a.format(**paths) for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case(golden):
    assert list(golden) == [name for name, _ in CASES]


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63,
    reason="recorded with an 80-bit x86-64 long double",
)
@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv, inputs, golden, monkeypatch):
    monkeypatch.delenv("CONFORMAL_KIT_SEED", raising=False)
    assert _run(argv, inputs) == golden[name]


if __name__ == "__main__":
    import tempfile

    os.environ.pop("CONFORMAL_KIT_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(Path(tmp))
        recorded = {name: _run(argv, paths) for name, argv in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)

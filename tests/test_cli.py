"""End-to-end coverage of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_kit import calibration, cli, predictors
from conformal_kit.experiments import gen_synthetic
from conformal_kit.verify import SuiteResult

from helpers import float_bits, save_csv


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scores(tmp_path, values, name="scores.txt"):
    path = tmp_path / name
    path.write_text("\n".join(repr(float(v)) for v in values))
    return str(path)


@pytest.fixture
def scores_1000(tmp_path):
    return write_scores(tmp_path, np.arange(1.0, 1001.0))


def test_calibrate_marginal(scores_1000, capsys):
    code, out, _ = run(
        capsys, "calibrate", "--scores", scores_1000, "--alpha", "0.1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "split"
    assert payload["n"] == 1000
    assert payload["guarantee"] == {"kind": "marginal", "alpha": 0.1}
    assert payload["order_index"] == 901
    assert payload["lambda_hat"] == 901.0
    assert payload["law"] == {"a": 901, "b": 100}
    assert not payload["full_set"]
    assert payload["dual"] == {"delta_min": None, "eps_min": None}
    assert payload["marginal_bounds"]["lo"] == 0.9
    assert payload["marginal_bounds"]["exact_mean"]["fraction"] == "901/1001"


def test_calibrate_tolerance(scores_1000, capsys):
    code, out, _ = run(
        capsys,
        "calibrate", "--scores", scores_1000, "--eps", "0.1", "--delta", "0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order_index"] == 913
    assert payload["lambda_hat"] == 913.0
    assert payload["law"] == {"a": 913, "b": 88}
    assert payload["dual"]["alpha"]["fraction"] == "8/91"  # 88/1001 reduced
    assert payload["dual"]["alpha"]["value"] == pytest.approx(0.0879, abs=5e-5)
    assert [f["fraction"] for f in payload["dual"]["interval"]] == [
        "8/91",
        "89/1001",
    ]


def test_calibrate_marginal_with_dual_refs(scores_1000, capsys):
    code, out, _ = run(
        capsys,
        "calibrate", "--scores", scores_1000, "--alpha", "0.1",
        "--eps", "0.1", "--delta", "0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dual"]["delta_min"] == pytest.approx(0.4845822904, rel=1e-9)
    assert payload["dual"]["eps_min"] == pytest.approx(0.1122030732, rel=1e-9)


def test_calibrate_route_agreement(scores_1000, capsys):
    def payload_of(*argv):
        code, out, _ = run(capsys, "calibrate", "--scores", scores_1000, *argv)
        assert code == 0
        p = json.loads(out)
        p.pop("method")
        return p

    assert payload_of("--alpha", "0.1") == payload_of(
        "--alpha", "0.1", "--method", "crc"
    )
    split = payload_of("--eps", "0.1", "--delta", "0.1")
    assert split == payload_of("--eps", "0.1", "--delta", "0.1", "--method", "ucb")
    assert split == payload_of("--eps", "0.1", "--delta", "0.1", "--method", "ltt")


@pytest.mark.parametrize("values", [[0.0, -0.0, 1.0, 1.0], [-0.0, 0.0, 1.0, 1.0]])
@pytest.mark.parametrize("method", ["split", "crc"])
def test_calibrate_zero_threshold_prints_positive_zero(tmp_path, capsys, values, method):
    path = write_scores(tmp_path, values)
    code, out, _ = run(
        capsys,
        "calibrate", "--scores", path, "--alpha", "0.6", "--method", method,
    )
    assert code == 0
    assert '"lambda_hat": 0.0,' in out


def test_calibrate_infeasible_tolerance(tmp_path, capsys):
    path = write_scores(tmp_path, np.arange(1.0, 21.0))
    for method in ("split", "ucb", "ltt"):
        code, out, _ = run(
            capsys,
            "calibrate", "--scores", path,
            "--eps", "0.01", "--delta", "0.1", "--method", method,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_hat"] == "inf"
        assert payload["order_index"] == 21
        assert payload["full_set"] is True
        assert payload["law"] is None


def test_calibrate_domain_errors(tmp_path, capsys, scores_1000):
    empty = write_scores(tmp_path, [], name="empty.txt")
    code, _, err = run(capsys, "calibrate", "--scores", empty, "--alpha", "0.1")
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "calibrate", "--scores", scores_1000, "--alpha", "1.5"
    )
    assert code == 2 and "--alpha must be in (0, 1)" in err
    code, _, err = run(
        capsys, "calibrate", "--scores", scores_1000, "--eps", "0.1"
    )
    assert code == 2 and "together" in err
    code, _, err = run(capsys, "calibrate", "--scores", scores_1000)
    assert code == 2
    code, _, err = run(
        capsys,
        "calibrate", "--scores", scores_1000,
        "--eps", "0.1", "--delta", "0.1", "--method", "crc",
    )
    assert code == 2 and "crc" in err
    code, _, err = run(
        capsys,
        "calibrate", "--scores", scores_1000,
        "--alpha", "0.1", "--eps", "0.1", "--delta", "0.1", "--method", "ltt",
    )
    assert code == 2


def test_calibrate_io_errors(tmp_path, capsys):
    code, _, err = run(
        capsys, "calibrate", "--scores", str(tmp_path / "gone.txt"),
        "--alpha", "0.1",
    )
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0 zebra")
    code, _, err = run(capsys, "calibrate", "--scores", str(bad), "--alpha", "0.1")
    assert code == 1 and "zebra" in err


def test_read_scores_parses_like_float(tmp_path):
    tokens = ["1_000", "inf", "-Infinity", "nan", "1e-400", "4.9e-324", "1e309", "+5"]
    path = tmp_path / "tokens.txt"
    path.write_text(" ".join(tokens))
    assert float_bits(cli._read_scores(path)) == float_bits([float(t) for t in tokens])
    for bad in ("zebra", "0x10"):
        path.write_text(f"1.0 {bad} 2.0")
        with pytest.raises(cli.ParseError, match=repr(bad)):
            cli._read_scores(path)


def test_tables_output(capsys):
    code, out1, _ = run(capsys, "tables")
    assert code == 0
    code, out2, _ = run(capsys, "tables")
    assert out1 == out2
    assert "n = 1000" in out1
    assert "11.2203" in out1
    assert "eps=10%" in out1 and "alpha=10%" in out1


def test_tables_custom_sizes(capsys):
    code, out, _ = run(capsys, "tables", "--n", "50", "--levels", "0.1", "0.5")
    assert code == 0
    assert "n = 50" in out
    assert "n = 100000" not in out


def test_cached_parser_keeps_its_defaults(capsys):
    # the parser is built once per process, so its list defaults are shared
    cli._build_parser.cache_clear()
    code, first, _ = run(capsys, "tables", "--levels", "0.1")
    assert code == 0 and first.count("n = ") == 8
    run(capsys, "tables", "--n", "100", "--levels", "0.1")
    code, again, _ = run(capsys, "tables", "--levels", "0.1")
    assert code == 0 and again == first


def test_import_leaves_scipy_spatial_unloaded(tmp_path):
    # a marginal split or crc calibration needs no special function, and
    # neither does a split or ltt tolerance one, whose binomial decisions
    # are one chain read, so none of them pays for importing scipy; ucb's
    # binom_inf_p loads scipy.special, and only the k-NN predictor needs
    # scipy.spatial
    src = str(Path(cli.__file__).resolve().parents[1])
    scores = write_scores(tmp_path, np.arange(1.0, 101.0))
    script = f"""
import contextlib, io, sys
import conformal_kit.cli as cli

def calibrate(*flags):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["calibrate", "--scores", {scores!r}, *flags]) == 0

for method in ("split", "crc"):
    calibrate("--alpha", "0.1", "--method", method)
for method in ("split", "ltt"):
    calibrate("--eps", "0.1", "--delta", "0.1", "--method", method)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
calibrate("--eps", "0.1", "--delta", "0.1", "--method", "ucb")
print("scipy.special" in sys.modules, "scipy.spatial" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False"]


def test_closed_stdout_exits_quietly():
    # ~150 kB of tables: more than a pipe holds, so the writer is still
    # writing when the reader goes away
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from conformal_kit.cli import main; sys.exit(main())",
            "tables", "--n", *["10"] * 1500, "--levels", "0.1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"largest")
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


EXP_ARGS = (
    "experiment", "--seed", "55", "--n", "100", "--n-test", "200",
    "--trials", "2", "--k-neighbors", "10",
)


def test_experiment_deterministic_output(capsys):
    code, out1, _ = run(capsys, *EXP_ARGS)
    assert code == 0
    payload = json.loads(out1)
    assert payload["source"] == "synthetic"
    assert payload["guarantee"] == {"kind": "tolerance", "eps": 0.1, "delta": 0.1}
    assert payload["n"] == 100 and payload["n_test"] == 200
    assert payload["trials"] == 2 and payload["seed"] == 55
    assert 0.0 <= payload["c_bar"] <= 1.0
    assert set(payload) == {
        "source", "guarantee", "n", "n_test", "trials", "seed", "base",
        "law", "c_bar", "delta_hat", "delta_bar", "mean_length",
        "ks_distance", "dominance_gap",
    }
    _, out2, _ = run(capsys, *EXP_ARGS)
    assert out1 == out2


def test_experiment_env_seed(capsys, monkeypatch):
    _, flagged, _ = run(capsys, *EXP_ARGS)
    monkeypatch.setenv("CONFORMAL_KIT_SEED", "55")
    _, from_env, _ = run(capsys, *EXP_ARGS[:1], *EXP_ARGS[3:])
    assert from_env == flagged
    monkeypatch.setenv("CONFORMAL_KIT_SEED", "not-a-number")
    code, _, err = run(capsys, *EXP_ARGS[:1], *EXP_ARGS[3:])
    assert code == 2 and "CONFORMAL_KIT_SEED" in err


def test_experiment_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, *EXP_ARGS, "--out", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary == json.loads(out)
    trials = (out_dir / "trials.csv").read_text().splitlines()
    assert trials[0] == "trial_index,lambda_hat,coverage,avg_length"
    assert len(trials) == 3
    hist = (out_dir / "histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    ecdf = (out_dir / "ecdf.csv").read_text().splitlines()
    assert ecdf[0] == "coverage,empirical_cdf,betabin_cdf,beta_cdf"
    assert len(ecdf) == 200 + 2


def test_artifact_cells_are_the_summarys_values(tmp_path, capsys, monkeypatch):
    seen = []
    real = cli.summarize

    def kept(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, "summarize", kept)
    code, _, _ = run(capsys, *EXP_ARGS, "--out", str(tmp_path))
    assert code == 0
    (summary,) = seen
    h, t = summary.histogram, summary.theoretical

    def cells(name):
        rows = (tmp_path / name).read_text().splitlines()[1:]
        return [row.split(",") for row in rows]

    assert cells("histogram.csv") == [
        [repr(float(lo)), repr(float(hi)), repr(int(c))]
        for lo, hi, c in zip(h.edges[:-1], h.edges[1:], h.counts)
    ]
    columns = (t.coverage, summary.ecdf, t.betabin_cdf, t.beta_cdf)
    assert cells("ecdf.csv") == [[repr(float(v)) for v in row] for row in zip(*columns)]


def test_experiment_blocks_change_nothing(tmp_path, capsys, monkeypatch):
    # the default pool (6000 rows at least) spans several k = 50 blocks
    assert predictors._QUERY_CELLS // 50 < 6000
    code, blocked, _ = run(capsys, "experiment", "--out", str(tmp_path / "blocked"))
    assert code == 0
    monkeypatch.setattr(predictors, "_QUERY_CELLS", 2**62)
    code, whole, _ = run(capsys, "experiment", "--out", str(tmp_path / "whole"))
    assert code == 0 and whole == blocked
    for name in ("summary.json", "trials.csv", "histogram.csv", "ecdf.csv"):
        got = (tmp_path / "blocked" / name).read_bytes()
        assert got == (tmp_path / "whole" / name).read_bytes()


def test_experiment_marginal_target(capsys):
    code, out, _ = run(capsys, *EXP_ARGS, "--alpha", "0.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["guarantee"] == {"kind": "marginal", "alpha": 0.2}
    # ceil(0.8 * 101) = 81
    assert payload["law"] == {"a": 81, "b": 20}


def test_experiment_plans_each_size_once(capsys, monkeypatch):
    calls = []
    real = calibration.binom_sup_k

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(calibration, "binom_sup_k", counted)
    code, _, _ = run(capsys, "experiment", "--trials", "20", "--seed", "1")
    # one plan for the tuning folds' size and one for the calibration size
    assert code == 0 and sorted(calls) == [(100, 0.1, 0.1), (1000, 0.1, 0.1)]


def test_experiment_full_set_is_a_domain_error(capsys):
    code, out, err = run(capsys, *EXP_ARGS, "--eps", "0.001", "--delta", "0.01")
    assert code == 2 and out == "" and "full-set" in err


@pytest.mark.parametrize(
    "levels", [("--alpha", "0.0005"), ("--eps", "0.001", "--delta", "0.01")],
    ids=["marginal", "tolerance"],
)
def test_experiment_rejects_a_full_set_plan_before_tuning(capsys, monkeypatch, levels):
    def tune(*args, **kwargs):
        raise AssertionError("tuned before the plan was checked")

    monkeypatch.setattr(cli, "tune_nominal_quantiles", tune)
    code, out, err = run(capsys, *EXP_ARGS, *levels)
    assert code == 2 and out == "" and "full-set" in err


def test_experiment_csv_data(tmp_path, capsys):
    data = tmp_path / "data.csv"
    save_csv(gen_synthetic(200, seed=47), data, label_column="label")
    code, out, _ = run(
        capsys,
        "experiment", "--data", str(data), "--seed", "3",
        "--n", "30", "--n-test", "40", "--trials", "2", "--k-neighbors", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["source"].endswith("data.csv")
    assert payload["n"] == 30 and payload["n_test"] == 40


def test_experiment_csv_too_small(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("x1,label\n1.0,2.0\n3.0,4.0\n")
    code, _, err = run(capsys, "experiment", "--data", str(data), "--trials", "2")
    assert code == 2 and "too small" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identity")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert [s["name"] for s in payload["suites"]] == ["identity"]
    assert payload["suites"][0]["passed"] is True


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("suite", ["duality", "equivalence", "ks", "superuniform"])
def test_verify_needs_a_trial(capsys, suite, trials):
    code, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials)
    assert code == 2 and out == "" and "trials must be at least 1" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "run_suites", lambda *a, **k: [SuiteResult("fake", False, "boom")]
    )
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert json.loads(out)["all_passed"] is False

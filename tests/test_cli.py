"""CLI verbs, exit codes, and the run_benchmark pipeline."""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import reprlib
import shlex
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from airbench import baselines, harness
from airbench.cli import main
from airbench.errors import AirbenchError, FormatError
from airbench.harness import (
    LeaderboardEntry,
    PredictorSpec,
    append_leaderboard_entry,
    leaderboard_list,
    run_benchmark,
)
from airbench.io import (
    Manifest,
    RunMetrics,
    SampleSidecar,
    dataset_digest,
    decode,
    read_dataset,
    read_json,
    write_json,
)
from airbench.metrics import SplitMetrics
from airbench.scoring import ML_CRITERIA, ScoreReport, default_scoring_config, score_from_values
from airbench.synthflow import GenerationConfig, generate_benchmark

from conftest import TINY_CONFIG

SOLVER_TOTAL = TINY_CONFIG.n_test * TINY_CONFIG.solver_time_s  # equal for test and ood here


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-bench")
    generate_benchmark(TINY_CONFIG, out)
    return out


class TestRunBenchmark:
    def test_oracle_with_capped_speed_scores_one(self, bench, tmp_path):
        report, entry = run_benchmark(
            PredictorSpec(label="oracle", builtin="oracle"),
            bench,
            default_scoring_config(),
            out_dir=tmp_path / "run",
            fixed_inference_time_s=SOLVER_TOTAL / 10000,
        )
        assert report.ml.score == 1.0
        assert report.ood.score == 1.0
        assert report.physics.score == 1.0
        assert report.global_score == 1.0
        assert entry.speedups == {"test": 10000.0, "ood": 10000.0}

    def test_reference_echo_with_unit_speedup_scores_0825(self, bench, tmp_path):
        report, _ = run_benchmark(
            PredictorSpec(label="reference", builtin="oracle"),
            bench,
            default_scoring_config(),
            out_dir=tmp_path / "run",
            fixed_inference_time_s=SOLVER_TOTAL,
        )
        assert (report.ml.score, report.ood.score, report.physics.score) == (0.75, 0.75, 1.0)
        assert report.global_score == 0.825

    def test_rejected_training_zeroes_entry(self, bench, tmp_path):
        spec = PredictorSpec(
            label="sleeper",
            command=[sys.executable, "-c", "pass"],
            training_command=[sys.executable, "-c", "import time; time.sleep(60)"],
        )
        store = tmp_path / "lb.jsonl"
        report, entry = run_benchmark(
            spec, bench, replace(default_scoring_config(), training_budget_s=1.0),
            out_dir=tmp_path / "run", store_path=store,
        )
        assert report.rejected and report.global_score == 0.0
        assert entry.rejection_reason and "budget" in entry.rejection_reason
        listed = leaderboard_list(store)
        assert len(listed) == 1 and listed[0].global_score == 0.0

    def test_outputs_written(self, bench, tmp_path):
        run_benchmark(
            PredictorSpec(label="const", builtin="constant"),
            bench,
            default_scoring_config(),
            out_dir=tmp_path / "run",
            fixed_inference_time_s=1.0,
        )
        for name in ("metrics.json", "score_report.json", "report.txt"):
            assert (tmp_path / "run" / name).exists()
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert set(metrics) == {"test", "ood"}
        assert metrics["test"]["total_inference_time_s"] == 1.0


class TestCli:
    def test_generate_and_run_and_leaderboard(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(asdict(TINY_CONFIG)))
        bench = tmp_path / "bench"
        assert main(["generate", "--config", str(gen_cfg), "--out", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "train: 3 samples" in out

        store = tmp_path / "lb.jsonl"
        rc = main([
            "run", "--predictor", "oracle", "--bench", str(bench),
            "--out", str(tmp_path / "run-oracle"), "--store", str(store),
            "--fixed-time", str(SOLVER_TOTAL / 10000), "--no-timestamp",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.0%" in out

        rc = main([
            "run", "--predictor", "constant", "--bench", str(bench),
            "--out", str(tmp_path / "run-const"), "--store", str(store),
            "--fixed-time", "1.0", "--no-timestamp",
        ])
        assert rc == 0
        capsys.readouterr()

        assert main(["leaderboard", "--store", str(store)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[1] == "oracle"  # best first

    def test_evaluate_then_score_matches_run(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(asdict(replace(TINY_CONFIG, solver_time_s=100.0))))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        score_cfg = tmp_path / "score.json"
        write_json(score_cfg, asdict(default_scoring_config()))
        common = ["--config", str(score_cfg), "--fixed-time", "1"]
        capsys.readouterr()

        rc = main([
            "run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp_path / "run"),
            "--store", str(tmp_path / "lb.jsonl"), "--no-timestamp", *common,
        ])
        assert rc == 0
        out = tmp_path / "eval"
        rc = main(["evaluate", "--predictor", "oracle", "--bench", str(bench), "--out", str(out), *common])
        assert rc == 0
        capsys.readouterr()
        rc = main(["score", "--metrics", str(out / "metrics.json"), "--config", str(score_cfg),
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 0
        assert (out / "metrics.json").read_bytes() == (tmp_path / "run" / "metrics.json").read_bytes()
        assert (tmp_path / "rep.json").read_bytes() == (tmp_path / "run" / "score_report.json").read_bytes()
        report = json.loads((tmp_path / "rep.json").read_text())
        # 3 samples at 100 s each over the fixed 1 s of inference.
        assert report["ml"]["speedup"] == report["ood"]["speedup"] == 300.0
        assert report["physics"]["score"] == 1.0

        rc = main(["report", str(tmp_path / "rep.json"), "--label", "echo"])
        assert rc == 0
        assert "label: echo" in capsys.readouterr().out

    def test_missing_bench_is_validation_error(self, tmp_path, capsys):
        rc = main(["run", "--predictor", "oracle", "--bench", str(tmp_path / "nowhere")])
        assert rc == 2
        assert "airbench:" in capsys.readouterr().err

    def test_unknown_predictor_is_validation_error(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(asdict(TINY_CONFIG)))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        capsys.readouterr()
        rc = main(["run", "--predictor", "knn:zero", "--bench", str(bench)])
        assert rc == 2

    def test_store_env_var(self, tmp_path, capsys, monkeypatch):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(asdict(TINY_CONFIG)))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        store = tmp_path / "env-store.jsonl"
        monkeypatch.setenv("AIRBENCH_STORE", str(store))
        rc = main([
            "run", "--predictor", "oracle", "--bench", str(bench),
            "--out", str(tmp_path / "r"), "--fixed-time", "1.0", "--no-timestamp",
        ])
        assert rc == 0
        capsys.readouterr()
        assert len(leaderboard_list(store)) == 1

    @pytest.mark.parametrize("verb", ["evaluate", "run"])
    @pytest.mark.parametrize("fixed_time", ["0", "-1", "nan", "inf"])
    def test_fixed_time_not_positive_and_finite_is_refused(self, bench, tmp_path, capsys, verb, fixed_time):
        store = ["--store", str(tmp_path / "lb.jsonl")] if verb == "run" else []
        rc = main([verb, "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp_path / "out"),
                   "--fixed-time", fixed_time, *store])
        assert rc == 2
        assert "fixed inference time must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()
        assert not (tmp_path / "out" / "pred").exists()

    def test_an_external_predictor_is_not_scored_on_an_earlier_runs_files(self, bench, tmp_path, capsys):
        common = ["--bench", str(bench), "--out", str(tmp_path / "out"), "--store", str(tmp_path / "lb.jsonl"),
                  "--fixed-time", "1"]
        external = shlex.join([sys.executable, "-m", "airbench.cli", "predict", "oracle"])
        assert main(["run", "--predictor", external, *common]) == 0
        other = tmp_path / "out" / "pred" / "test" / "notes.txt"
        other.write_text("kept\n")
        capsys.readouterr()
        assert main(["run", "--predictor", "true", "--label", "nothing", *common]) == 2
        ids = [s.id for s in read_dataset(bench / "test").samples]
        assert capsys.readouterr().err == f"airbench: missing prediction files for sample ids: {ids}\n"
        assert len((tmp_path / "lb.jsonl").read_text().splitlines()) == 1
        assert other.read_text() == "kept\n"  # only the files the split expects are removed

    @staticmethod
    def _expected_predictions(bench, out):
        return [out / "pred" / name / f"{s.id}.csv" for name in ("test", "ood") for s in read_dataset(bench / name).samples]

    @pytest.mark.parametrize("verb", ["evaluate", "run"])
    def test_a_rejected_run_leaves_no_earlier_metrics(self, bench, tmp_path, capsys, verb):
        config = tmp_path / "scoring.json"
        write_json(config, asdict(replace(default_scoring_config(), training_budget_s=1e-9)))
        store = ["--store", str(tmp_path / "lb.jsonl")] if verb == "run" else []
        out = tmp_path / "out"
        common = [verb, "--bench", str(bench), "--out", str(out), *store]
        assert main([*common, "--predictor", "oracle", "--fixed-time", "1"]) == 0
        assert (out / "metrics.json").exists()
        assert all(p.exists() for p in self._expected_predictions(bench, out))
        (out / "pred" / "test" / "notes.txt").write_text("kept\n")
        assert main([*common, "--predictor", "knn:3", "--config", str(config)]) == 4
        assert not (out / "metrics.json").exists()
        assert [p for p in self._expected_predictions(bench, out) if p.exists()] == []
        assert (out / "pred" / "test" / "notes.txt").read_text() == "kept\n"
        if verb == "run":
            assert read_json(out / "score_report.json")["rejected"] is True

    @pytest.mark.parametrize("verb", ["evaluate", "run"])
    def test_a_failed_external_predictor_leaves_no_earlier_predictions(self, bench, tmp_path, capsys, verb):
        store = ["--store", str(tmp_path / "lb.jsonl")] if verb == "run" else []
        out = tmp_path / "out"
        common = [verb, "--bench", str(bench), "--out", str(out), "--fixed-time", "1", *store]
        assert main([*common, "--predictor", "oracle"]) == 0
        assert main([*common, "--predictor", "false"]) == 3
        assert "airbench: predictor failure: predictor exited with status 1" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert [p for p in self._expected_predictions(bench, out) if p.exists()] == []

    @pytest.mark.parametrize("verb", ["evaluate", "run"])
    def test_fixed_time_whose_speedup_overflows_is_refused(self, bench, tmp_path, capsys, verb):
        store = ["--store", str(tmp_path / "lb.jsonl")] if verb == "run" else []
        rc = main([verb, "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp_path / "out"),
                   "--fixed-time", "1e-320", *store])
        assert rc == 2
        assert "speed-up must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()
        assert not (tmp_path / "out" / "pred").exists()

    def test_run_whose_scoring_fails_writes_no_metrics(self, bench, tmp_path, capsys, monkeypatch):
        def refuse(**kwargs):
            raise AirbenchError("scoring refused")

        monkeypatch.setattr(harness, "score_from_values", refuse)
        rc = main(["run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp_path / "out"),
                   "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1"])
        assert rc == 2
        assert capsys.readouterr().err == "airbench: scoring refused\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["pred"]
        assert not (tmp_path / "lb.jsonl").exists()

    @pytest.mark.parametrize("flag", [["--workdir", "/"], ["--train-cmd", "true"]])
    def test_builtin_refuses_external_flags(self, bench, tmp_path, capsys, flag):
        rc = main(["run", "--predictor", "knn:3", "--bench", str(bench), "--out", str(tmp_path / "out"),
                   "--store", str(tmp_path / "lb.jsonl"), *flag])
        assert rc == 2
        assert "takes no working directory or training command" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["evaluate", "run"])
    def test_bench_missing_a_split_is_refused_before_work(self, bench, tmp_path, capsys, verb):
        partial = tmp_path / "bench"
        for name in ("train", "test"):
            shutil.copytree(bench / name, partial / name)
        store = ["--store", str(tmp_path / "lb.jsonl")] if verb == "run" else []
        rc = main([verb, "--predictor", "constant", "--bench", str(partial), "--out", str(tmp_path / "out"), *store])
        assert rc == 2
        assert "missing the 'ood' split" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pred").exists()

    def test_builtins_are_found_through_the_baselines_module(self, bench, tmp_path, monkeypatch, capsys):
        # Tracing wraps these module globals; a run must look them up when it runs, not earlier.
        calls = {"oracle_predict": 0, "knn_fit": 0, "knn_predict": 0}

        def counting(name):
            real = getattr(baselines, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(baselines, name, counting(name))
        for predictor in ("oracle", "knn:3"):
            assert main(["run", "--predictor", predictor, "--bench", str(bench), "--out", str(tmp_path / predictor),
                         "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1"]) == 0
        capsys.readouterr()
        n = TINY_CONFIG.n_test + TINY_CONFIG.n_ood
        assert calls == {"oracle_predict": n, "knn_fit": 1, "knn_predict": n}

    def test_a_run_parses_only_what_it_scores(self, bench, tmp_path, monkeypatch, capsys):
        # A fit reads the training split only if it uses it, builtin predictions are
        # scored from memory, and an external predictor's files are read back.
        calls = []

        def counting(name):
            real = getattr(harness, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)

            return wrapper

        for name in ("read_dataset", "read_predictions"):
            monkeypatch.setattr(harness, name, counting(name))
        external = shlex.join([sys.executable, "-m", "airbench.cli", "predict", "oracle"])
        for predictor, want in (
            ("oracle", ["read_dataset"] * 2),
            ("knn:3", ["read_dataset"] * 3),
            (external, ["read_dataset", "read_predictions"] * 2),
        ):
            calls.clear()
            assert main(["run", "--predictor", predictor, "--bench", str(bench), "--out", str(tmp_path / "out"),
                         "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1"]) == 0
            assert calls == want, predictor
        capsys.readouterr()

    @pytest.mark.parametrize("predictor, message", [
        ("knn:0", "k must be >= 1, got 0"),
        ("knn:x", "bad knn predictor name 'knn:x', expected knn:<k>"),
    ])
    def test_a_bad_builtin_name_is_refused_before_any_digest_or_read(
        self, bench, tmp_path, monkeypatch, capsys, predictor, message,
    ):
        calls = []
        for name in ("dataset_digest", "read_dataset"):
            monkeypatch.setattr(harness, name, lambda *args, name=name: calls.append(name))
        rc = main(["run", "--predictor", predictor, "--bench", str(bench), "--out", str(tmp_path / "out"),
                   "--store", str(tmp_path / "lb.jsonl")])
        assert (rc, calls) == (2, [])
        assert capsys.readouterr().err == f"airbench: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_only_a_fit_that_uses_the_training_split_reads_it(self, bench, tmp_path, capsys):
        copy = tmp_path / "bench"
        shutil.copytree(bench, copy)
        sample_csv = copy / "train" / "samples" / "train-0000.csv"
        sample_csv.write_bytes(b"not a sample\n")
        common = ["--bench", str(copy), "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1", "--no-timestamp"]
        assert main(["run", "--predictor", "oracle", "--out", str(tmp_path / "oracle"), *common]) == 0
        (line,) = (tmp_path / "lb.jsonl").read_text().splitlines()
        assert json.loads(line)["dataset_digests"]["train"] == dataset_digest(copy / "train")
        assert dataset_digest(copy / "train") != dataset_digest(bench / "train")
        capsys.readouterr()
        assert main(["run", "--predictor", "constant", "--out", str(tmp_path / "constant"), *common]) == 2
        assert capsys.readouterr().err == f"airbench: {sample_csv}:1: bad header 'not a sample'\n"

    def test_failing_external_predictor_exit_code(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(asdict(TINY_CONFIG)))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        capsys.readouterr()
        rc = main([
            "run", "--predictor", f"{sys.executable} -c 'import sys; sys.exit(9)'",
            "--bench", str(bench), "--out", str(tmp_path / "r"),
        ])
        assert rc == 3


# sha256 of what `run --predictor oracle --fixed-time 1 --no-timestamp` writes on
# the toy bench, and the digest of the shipped scoring config. The oracle's
# values are exact (zero errors, rank correlation 1, speed-up 10 * 1500 / 1),
# so these bytes do not depend on the platform's libm.
PINNED_ORACLE_RUN = {
    "metrics.json": "430aedd76d3f076e5718897c02a234af29b9b6e6fdc9929f5ea794d1ee62c55b",
    "score_report.json": "8050e86a0053d4307246cdb572274ac0efe33c8dfc606e1a68dcc23bd78c6eb2",
    "report.txt": "a9e6a6c93448a36bba3319f30740f12d4880dba44e20477f227653e9b17880fa",
}
PINNED_SCORING_CONFIG_DIGEST = "b97fb90897fd511873e8620e38a7184c2da2c5c239f020ce8069d337981a1e16"


def test_oracle_run_bytes_are_pinned(toy_bench_dir, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "run", "--predictor", "oracle", "--bench", str(toy_bench_dir), "--out", str(out),
        "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1", "--no-timestamp",
    ])
    assert rc == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_ORACLE_RUN}
    assert got == PINNED_ORACLE_RUN
    assert default_scoring_config().digest() == PINNED_SCORING_CONFIG_DIGEST


# Prints whether SciPy was loaded after generate, oracle and constant runs,
# leaderboard and report, and again after a k-NN run.
_SCIPY_SCRIPT = """
import contextlib, sys
from pathlib import Path
from airbench.cli import main
out = Path(sys.argv[2])
(out / "gen.json").write_text(sys.argv[1])
def verb(*argv):
    with contextlib.redirect_stdout(sys.stderr):
        assert main(list(argv)) == 0, argv
def run(predictor):
    verb("run", "--predictor", predictor, "--bench", str(out / "bench"), "--out", str(out / predictor),
         "--store", str(out / "lb.jsonl"))
verb("generate", "--config", str(out / "gen.json"), "--out", str(out / "bench"))
run("oracle")
run("constant")
verb("leaderboard", "--store", str(out / "lb.jsonl"))
verb("report", str(out / "oracle" / "score_report.json"))
print("scipy" in sys.modules)
run("knn:3")
print("scipy" in sys.modules)
"""


def _python(*argv) -> subprocess.CompletedProcess:
    """Run a fresh interpreter; a conftest fixture puts this checkout's src/ first on its path."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=600)


def test_only_a_knn_fit_loads_scipy(tmp_path):
    proc = _python("-c", _SCIPY_SCRIPT, json.dumps(asdict(TINY_CONFIG)), str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# Runs generate, then prints which process-pool modules are loaded.
_POOL_SCRIPT = """
import contextlib, sys
from airbench.cli import main
with contextlib.redirect_stdout(sys.stderr):
    assert main(["generate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print([name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules])
"""


def test_generate_loads_no_process_pool_module(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(asdict(TINY_CONFIG)))
    proc = _python("-c", _POOL_SCRIPT, str(config), str(tmp_path / "bench"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


class TestPredict:
    """`airbench predict` runs a builtin through the external file protocol."""

    @pytest.mark.parametrize("name, train", [("oracle", False), ("knn:3", True)])
    def test_writes_the_builtin_run_bytes(self, bench, tmp_path, capsys, name, train):
        extra = ["--train", str(bench / "train")] if train else []
        proc = _python("-m", "airbench.cli", "predict", name, str(bench / "test"), str(tmp_path / "pred"), *extra)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert main([
            "run", "--predictor", name, "--bench", str(bench), "--out", str(tmp_path / "run"),
            "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1", "--no-timestamp",
        ]) == 0
        external = sorted((tmp_path / "pred").iterdir())
        builtin = sorted((tmp_path / "run" / "pred" / "test").iterdir())
        assert len(external) == TINY_CONFIG.n_test
        assert [p.name for p in external] == [p.name for p in builtin]
        assert [p.read_bytes() for p in external] == [p.read_bytes() for p in builtin]

    @pytest.mark.parametrize("name, split, message", [
        ("knn:x", "test", "bad knn predictor name"),
        ("oracle", "missing", "missing file"),
        ("constant", "test", "constant needs --train"),
        ("knn:3", "test", "knn:3 needs --train"),
    ])
    def test_failure_is_validation_error(self, bench, tmp_path, name, split, message):
        proc = _python("-m", "airbench.cli", "predict", name, str(bench / split), str(tmp_path / "pred"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("airbench: ") and message in proc.stderr

    def test_train_without_manifest_is_refused_before_work(self, bench, tmp_path, capsys):
        # The oracle never reads its training split, so a mistyped --train is caught here or not at all.
        rc = main(["predict", "oracle", str(bench / "test"), str(tmp_path / "pred"), "--train", str(tmp_path / "nowhere")])
        assert rc == 2
        assert capsys.readouterr().err == f"airbench: training split directory has no manifest.json: {tmp_path / 'nowhere'}\n"
        assert not (tmp_path / "pred").exists()


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _metrics_doc() -> dict:
    """A valid ``metrics.json`` object: both splits, every ML field error."""
    split = SplitMetrics(
        field_errors={name: 0.15 for name in ML_CRITERIA},
        c_d_rel_err=3.0, c_l_rel_err=0.3, spearman_d=0.6, spearman_l=0.95,
        spearman_d_degenerate=False, spearman_l_degenerate=False,
        total_inference_time_s=1.0, total_solver_time_s=1500.0,
    )
    return {"test": asdict(split), "ood": asdict(split)}


def _report_doc() -> dict:
    """The ``score_report.json`` object that scoring `_metrics_doc` gives."""
    split = SplitMetrics(**_metrics_doc()["test"])
    return asdict(score_from_values(RunMetrics(test=split, ood=split), default_scoring_config()))


def _metrics_with(edit):
    def argv(bench, tmp):
        doc = _metrics_doc()
        edit(doc)
        return ["score", "--metrics", _write(tmp / "m.json", json.dumps(doc))]

    return argv


def _report_with(edit):
    def argv(bench, tmp):
        doc = _report_doc()
        edit(doc)
        return ["report", _write(tmp / "r.json", json.dumps(doc))]

    return argv


def _metrics_not_json(bench, tmp):
    return ["score", "--metrics", _write(tmp / "m.json", "test: 0\n")]


def _report_category_without_name(bench, tmp):
    return ["report", _write(tmp / "r.json", json.dumps({"ml": {}}))]


def _bench_with(name, edit):
    def argv(bench, tmp):
        copy = tmp / "bench"
        shutil.copytree(bench, copy)
        path = copy / "test" / name
        doc = json.loads(path.read_text())
        edit(doc)
        _write(path, json.dumps(doc))
        return ["evaluate", "--predictor", "constant", "--bench", str(copy), "--out", str(tmp / "out")]

    return argv


def _scoring_config_with(edit):
    def argv(bench, tmp):
        doc = json.loads(json.dumps(asdict(default_scoring_config())))
        edit(doc)
        config = _write(tmp / "s.json", json.dumps(doc))
        return ["evaluate", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp / "out"),
                "--config", config]

    return argv


def _not_utf8(tmp):
    """A JSON file holding a byte that is not UTF-8."""
    path = tmp / "bad.json"
    path.write_bytes(b'{"ml": "\xff"}')
    return str(path)


def _sample_csv_not_utf8(bench, tmp):
    copy = tmp / "bench"
    shutil.copytree(bench, copy)
    path = copy / "test" / "samples" / "test-0000.csv"
    path.write_bytes(b"\xff" + path.read_bytes())
    return ["evaluate", "--predictor", "oracle", "--bench", str(copy), "--out", str(tmp / "out")]


def _predictions_not_utf8(bench, tmp):
    """An external predictor that writes, for every sample, a prediction file whose header is not UTF-8."""
    script = _write(tmp / "predict.py", (
        "import json, pathlib, sys\n"
        "for s in json.loads(pathlib.Path(sys.argv[1], 'manifest.json').read_text())['samples']:\n"
        "    pathlib.Path(sys.argv[2], s['id'] + '.csv').write_bytes(b'\\xffu_x,u_y,p_s,nu_t\\n')\n"
    ))
    return ["evaluate", "--predictor", shlex.join([sys.executable, script]), "--bench", str(bench),
            "--out", str(tmp / "out")]


def _file(tmp):
    """A regular file, to give where a directory or a file's parent directory is expected."""
    return _write(tmp / "file", "not a directory\n")


def _generation_config(doc):
    def argv(bench, tmp):
        return ["generate", "--config", _write(tmp / "g.json", json.dumps(doc)), "--out", str(tmp / "g")]

    return argv


MALFORMED = {
    "score-metrics-without-ood": _metrics_with(lambda doc: doc.pop("ood")),
    "score-metrics-not-json": _metrics_not_json,
    "report-category-without-name": _report_category_without_name,
    "meta-json-without-meta": _bench_with("samples/test-0000.meta.json", lambda doc: doc.pop("meta")),
    "meta-json-without-rho": _bench_with("samples/test-0000.meta.json", lambda doc: doc["meta"].pop("rho")),
    "manifest-entry-without-id": _bench_with("manifest.json", lambda doc: doc["samples"][0].pop("id")),
    "scoring-config-table-not-object": _scoring_config_with(lambda doc: doc["thresholds"].update(ml=[1])),
    "scoring-config-without-direction": _scoring_config_with(lambda doc: doc["thresholds"]["ood"]["rho_D"].pop("direction")),
    "scoring-config-without-speedup-max": _scoring_config_with(lambda doc: doc.pop("speedup_max")),
    "scoring-config-without-field-criteria": _scoring_config_with(lambda doc: doc.pop("field_criteria")),
    "scoring-config-with-solver-time-source": _scoring_config_with(lambda doc: doc.update(solver_time_source="constant")),
    "generate-n-train-string": _generation_config({"n_train": "3"}),
    "generate-range-number": _generation_config({"u_inf_range": 5}),
    "generate-n-train-bool": _generation_config({"n_train": True}),
    "test-split-without-samples": _bench_with("manifest.json", lambda doc: doc.update(samples=[])),
    "score-metrics-value-string": _metrics_with(lambda doc: doc["test"].update(c_d_rel_err="x")),
    "score-metrics-time-null": _metrics_with(lambda doc: doc["ood"].update(total_inference_time_s=None)),
    "score-metrics-without-value": _metrics_with(lambda doc: doc["test"].pop("c_d_rel_err")),
    "score-metrics-flag-string": _metrics_with(lambda doc: doc["test"].update(spearman_d_degenerate="yes")),
    "report-global-score-null": _report_with(lambda doc: doc.update(global_score=None)),
    "report-criterion-value-string": _report_with(lambda doc: doc["ml"]["criteria"][0].update(value="x")),
    "scoring-config-extra-category": _scoring_config_with(
        lambda doc: doc["thresholds"].update(extra=doc["thresholds"]["physics"])),
    "report-not-utf8": lambda bench, tmp: ["report", _not_utf8(tmp)],
    "sample-csv-not-utf8": _sample_csv_not_utf8,
    "prediction-csv-not-utf8": _predictions_not_utf8,
    "score-metrics-not-utf8": lambda bench, tmp: ["score", "--metrics", _not_utf8(tmp)],
    "score-metrics-is-a-directory": lambda bench, tmp: ["score", "--metrics", str(tmp)],
    "manifest-csv-is-a-directory": _bench_with("manifest.json", lambda doc: doc["samples"][0].update(csv="samples")),
    "run-config-not-utf8": lambda bench, tmp: [
        "run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp / "out"),
        "--store", str(tmp / "lb.jsonl"), "--config", _not_utf8(tmp)],
    "run-repeat": lambda bench, tmp: [
        "run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp / "out"),
        "--store", str(tmp / "lb.jsonl"), "--repeat", "2"],
    "run-train-budget": lambda bench, tmp: [
        "run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp / "out"),
        "--store", str(tmp / "lb.jsonl"), "--train-budget", "1"],
    "run-without-bench": lambda bench, tmp: ["run", "--predictor", "oracle"],
    "run-fixed-time-not-a-number": lambda bench, tmp: [
        "run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp / "out"),
        "--store", str(tmp / "lb.jsonl"), "--fixed-time", "abc"],
    "generate-out-is-a-file": lambda bench, tmp: ["generate", "--out", _file(tmp)],
    "evaluate-out-is-a-file": lambda bench, tmp: [
        "evaluate", "--predictor", "oracle", "--bench", str(bench), "--out", _file(tmp)],
    "run-out-is-a-file": lambda bench, tmp: [
        "run", "--predictor", "oracle", "--bench", str(bench), "--out", _file(tmp), "--store", str(tmp / "lb.jsonl")],
    "run-store-under-a-file": lambda bench, tmp: [
        "run", "--predictor", "oracle", "--bench", str(bench), "--out", str(tmp / "out"),
        "--store", str(Path(_file(tmp)) / "lb.jsonl"), "--fixed-time", "1"],
    "score-out-under-a-file": lambda bench, tmp: [
        *_metrics_with(lambda doc: None)(bench, tmp), "--out", str(Path(_file(tmp)) / "x.json")],
    "predict-pred-dir-is-a-file": lambda bench, tmp: ["predict", "oracle", str(bench / "test"), _file(tmp)],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_validation_error(bench, tmp_path, capsys, case):
    rc = main(MALFORMED[case](bench, tmp_path))
    assert rc == 2
    assert capsys.readouterr().err.startswith("airbench: ")


@pytest.mark.parametrize("store", ["F/lb.jsonl", "F/sub/lb.jsonl", "."])
def test_an_unwritable_store_is_refused_before_any_work(bench, tmp_path, capsys, store):
    (tmp_path / "F").write_text("")
    out = tmp_path / "out"
    rc = main(["run", "--predictor", "knn:3", "--bench", str(bench), "--out", str(out),
               "--store", str(tmp_path / store)])
    assert rc == 2
    assert capsys.readouterr().err == f"airbench: leaderboard store cannot be written: {tmp_path / store}\n"
    assert [name for name in ("pred", "metrics.json", "score_report.json", "report.txt") if (out / name).exists()] == []


def test_unknown_flag_is_named_and_help_exits_zero(bench, tmp_path, capsys):
    argv = ["run", "--predictor", "oracle", "--bench", str(bench), "--store", str(tmp_path / "lb.jsonl")]
    assert main(argv + ["--bogus"]) == 2
    assert capsys.readouterr().err == "airbench: unrecognized arguments: --bogus\n"
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "--fixed-time" in capsys.readouterr().out


@pytest.mark.parametrize("edit, got", [
    (lambda errors: errors.update(rho=0.1), "'nu_t', 'p', 'p_s', 'rho', 'u_x', 'u_y'"),
    (lambda errors: errors.pop("p_s"), "'nu_t', 'p', 'u_x', 'u_y'"),
], ids=["extra", "missing"])
def test_score_refuses_field_errors_other_than_the_ml_criteria(tmp_path, capsys, edit, got):
    argv = _metrics_with(lambda doc: edit(doc["test"]["field_errors"]))(None, tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"airbench: {tmp_path / 'm.json'}: test.field_errors: expected the keys {sorted(ML_CRITERIA)}, got [{got}]\n"
    )


@pytest.mark.parametrize("split", ["test", "ood"])
def test_score_names_the_file_and_split_of_a_refused_speedup(tmp_path, capsys, split):
    argv = _metrics_with(lambda doc: doc[split].update(total_inference_time_s=0))(None, tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"airbench: {tmp_path / 'm.json'}: {split}: inference time must be positive, got 0.0\n"
    )


def test_valid_metrics_and_report_docs_are_accepted(tmp_path, capsys):
    # The malformed cases above and the sweep below edit these documents; unedited they pass.
    assert main(_metrics_with(lambda doc: None)(None, tmp_path)) == 0
    assert main(_report_with(lambda doc: None)(None, tmp_path)) == 0
    capsys.readouterr()


def _paths(doc, prefix=()):
    """The key path of every value inside a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


_DELETE = object()
_SWEEP_VALUES = (_DELETE, "x", None, [], {}, 0, 2.5, True)


def _mutations(doc):
    """`doc` with one value deleted or replaced, for every value and every replacement.

    Yields the key path, the replacement (`_DELETE` for a deletion) and the edited copy.
    """
    for path in list(_paths(doc)):
        for value in _SWEEP_VALUES:
            copy = json.loads(json.dumps(doc))
            parent = copy
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield path, value, copy


def test_mutated_records_never_end_in_a_traceback(tmp_path, capsys):
    entry = asdict(LeaderboardEntry(
        label="run", timestamp="t", scoring_config_digest="cfg", dataset_digests={"test": "d"},
        global_score=0.5, score_ml=0.5, score_ood=0.5, score_physics=0.5,
        classifications={"ml": {"u_x": "G"}}, speedups={"test": 10.0}, rejection_reason=None,
        timing="builtin-loop",
    ))
    codes = set()
    for i, (_, _, doc) in enumerate(_mutations(_metrics_doc())):
        codes.add(main(["score", "--metrics", _write(tmp_path / f"m{i}.json", json.dumps(doc))]))
    for i, (path, value, doc) in enumerate(_mutations(_report_doc())):
        rc = main(["report", _write(tmp_path / f"r{i}.json", json.dumps(doc))])
        codes.add(rc)
        # Every object in a score report is a record, so each deleted key is a missing field.
        if value is _DELETE and isinstance(path[-1], str):
            assert rc == 2, path
    listed = set()
    for i, (path, value, doc) in enumerate(_mutations(entry)):
        store = tmp_path / f"lb{i}.jsonl"
        _write(store, json.dumps(doc) + "\n")
        codes.add(main(["leaderboard", "--store", str(store)]))
        n_listed = len(leaderboard_list(store))
        listed.add(n_listed)
        # A deleted top-level key is a missing field; the nested objects are maps, free to lose a key.
        if value is _DELETE and len(path) == 1:
            assert n_listed == 0, path
    capsys.readouterr()
    assert codes == {0, 2}
    assert listed == {0, 1}


def _at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def _split_file_mutations(doc):
    """`_mutations` of a manifest or sidecar, then an unknown key added to each of its objects.

    Yields the edited copy and whether it must be refused: every key of these
    records is required, so a deleted key must be, as must a value of another
    JSON type than the written one (an integer may stand for a float) and an
    unknown key.
    """
    for path, value, copy in _mutations(doc):
        if value is _DELETE:
            yield copy, isinstance(path[-1], str)
        else:
            old = _at(doc, path)
            yield copy, type(value) is not type(old) and not (type(old) is float and type(value) is int)
    for path in [(), *(p for p in _paths(doc) if isinstance(_at(doc, p), dict))]:
        copy = json.loads(json.dumps(doc))
        _at(copy, path)["unknown"] = 1
        yield copy, True


@pytest.mark.parametrize("name", ["manifest.json", "samples/test-0001.meta.json"])
def test_mutated_split_files_are_read_or_refused_naming_the_file(bench, tmp_path, name):
    split = tmp_path / "test"
    shutil.copytree(bench / "test", split)
    path = split / name
    doc = json.loads(path.read_text())
    readers = (read_dataset, dataset_digest) if name == "manifest.json" else (read_dataset,)
    refused = 0
    for copy, must_refuse in _split_file_mutations(doc):
        _write(path, json.dumps(copy))
        for read in readers:
            try:
                read(split)
            except FormatError as e:
                assert str(split) in str(e), (copy, e)
                assert str(e).startswith(f"{path}: ") or not must_refuse, (copy, e)
                refused += must_refuse
            else:
                assert not must_refuse, copy
    assert refused > 100


def _float_indices(doc):
    doc["surface_order"][:3] = [0.5, 1.7, True]


@pytest.mark.parametrize("name, edit, message", [
    ("samples/test-0000.meta.json", lambda doc: doc.update(inlet_velocity=["30", "1"]),
     "inlet_velocity[0]: expected float, got '30'"),
    ("samples/test-0000.meta.json", _float_indices, "surface_order[0]: expected int, got 0.5"),
    ("samples/test-0000.meta.json", lambda doc: doc["meta"].update(reynolds=1e6), "meta: unknown key 'reynolds'"),
    ("manifest.json", lambda doc: doc.update(version=2), "unknown key 'version'"),
    ("manifest.json", lambda doc: doc["samples"][2].update(md5="0"), "samples[2]: unknown key 'md5'"),
    ("manifest.json", lambda doc: doc["samples"][2].update(id="../../escaped"),
     "samples[2]: id '../../escaped' is not a plain file name"),
    ("samples/test-0000.meta.json", lambda doc: doc["meta"].update(solver_time_s=10**400),
     f"meta.solver_time_s: {reprlib.repr(10**400)} is too large for a float"),
])
def test_mutated_bench_is_refused_naming_file_and_field(bench, tmp_path, capsys, name, edit, message):
    _bench_with(name, edit)(bench, tmp_path)  # edits a copy at tmp_path / "bench"
    assert main(["run", "--predictor", "oracle", "--bench", str(tmp_path / "bench"), "--out", str(tmp_path / "out"),
                 "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1"]) == 2
    assert capsys.readouterr().err == f"airbench: {tmp_path / 'bench' / 'test' / name}: {message}\n"


def test_every_written_json_file_decodes_to_its_record_and_back(bench, tmp_path, capsys):
    assert main(["run", "--predictor", "knn:3", "--bench", str(bench), "--out", str(tmp_path / "run"),
                 "--store", str(tmp_path / "lb.jsonl"), "--fixed-time", "1", "--no-timestamp"]) == 0
    capsys.readouterr()
    records = {"generation_config.json": GenerationConfig, "manifest.json": Manifest,
               "metrics.json": RunMetrics, "score_report.json": ScoreReport}
    paths = sorted([*bench.rglob("*.json"), *(tmp_path / "run").glob("*.json")])
    assert len(paths) == 1 + 3 + 3 * 3 + 2
    for path in paths:
        tp = SampleSidecar if path.name.endswith(".meta.json") else records[path.name]
        record = decode(tp, read_json(path), path)
        write_json(tmp_path / "again.json", asdict(record))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), path
    line = (tmp_path / "lb.jsonl").read_text()
    append_leaderboard_entry(tmp_path / "again.jsonl", decode(LeaderboardEntry, json.loads(line), "lb.jsonl"))
    assert (tmp_path / "again.jsonl").read_text() == line

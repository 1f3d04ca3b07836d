"""CLI verbs, exit codes, and the run_benchmark pipeline."""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import pytest

from airbench import (
    PredictorSpec,
    default_scoring_config,
    generate_benchmark,
    leaderboard_list,
    run_benchmark,
)
from airbench.cli import main

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
            fixed_inference_time_s={"test": SOLVER_TOTAL / 10000, "ood": SOLVER_TOTAL / 10000},
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
            fixed_inference_time_s={"test": SOLVER_TOTAL, "ood": SOLVER_TOTAL},
        )
        assert (report.ml.score, report.ood.score, report.physics.score) == (0.75, 0.75, 1.0)
        assert report.global_score == 0.825

    def test_rejected_training_zeroes_entry(self, bench, tmp_path):
        spec = PredictorSpec(
            label="sleeper",
            command=[sys.executable, "-c", "pass"],
            training_command=[sys.executable, "-c", "import time; time.sleep(60)"],
            training_budget_s=1.0,
        )
        store = tmp_path / "lb.jsonl"
        report, entry = run_benchmark(
            spec, bench, default_scoring_config(), out_dir=tmp_path / "run", store_path=store
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
        gen_cfg.write_text(json.dumps(TINY_CONFIG.to_dict()))
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

    @pytest.mark.parametrize("solver_time_source", ["sample_meta", "constant"])
    def test_evaluate_then_score_matches_run(self, tmp_path, capsys, solver_time_source):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(replace(TINY_CONFIG, solver_time_s=100.0).to_dict()))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        score_cfg = tmp_path / "score.json"
        replace(default_scoring_config(), solver_time_source=solver_time_source).save(score_cfg)
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
        if solver_time_source == "constant":
            # 3 samples at the shipped 1500 s each over the fixed 1 s of inference.
            assert report["ml"]["speedup"] == report["ood"]["speedup"] == 4500.0
        else:
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
        gen_cfg.write_text(json.dumps(TINY_CONFIG.to_dict()))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        capsys.readouterr()
        rc = main(["run", "--predictor", "knn:zero", "--bench", str(bench)])
        assert rc == 2

    def test_store_env_var(self, tmp_path, capsys, monkeypatch):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(TINY_CONFIG.to_dict()))
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

    def test_failing_external_predictor_exit_code(self, tmp_path, capsys):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps(TINY_CONFIG.to_dict()))
        bench = tmp_path / "bench"
        main(["generate", "--config", str(gen_cfg), "--out", str(bench)])
        capsys.readouterr()
        rc = main([
            "run", "--predictor", f"{sys.executable} -c 'import sys; sys.exit(9)'",
            "--bench", str(bench), "--out", str(tmp_path / "r"),
        ])
        assert rc == 3

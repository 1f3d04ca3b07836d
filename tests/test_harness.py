"""Training budget, timed inference, leaderboard, report rendering."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

import numpy as np
import pytest

import airbench.harness as harness
from airbench.baselines import oracle_predict, resolve_builtin
from airbench.errors import AirbenchError, TrainingError
from airbench.harness import (
    LeaderboardEntry,
    PredictorSpec,
    append_leaderboard_entry,
    leaderboard_list,
    render_report,
    run_benchmark,
    run_inference,
    run_training,
)
from airbench.io import read_dataset, read_predictions
from airbench.metrics import evaluate_split
from airbench.model import FieldSet
from airbench.scoring import default_scoring_config, score_from_values
from airbench.synthflow import generate_benchmark

from conftest import TINY_CONFIG, run_metrics


@pytest.fixture(scope="module")
def small_bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("small-bench")
    generate_benchmark(TINY_CONFIG, out)
    return out


def _builtin_spec(name: str, **kw) -> PredictorSpec:
    return PredictorSpec(label=name, builtin=name, **kw)


class TestRunTraining:
    def test_builtin_noop_trains_instantly(self, small_bench):
        predict, rejection = run_training(_builtin_spec("oracle"), small_bench / "train", budget_s=60.0)
        assert rejection is None
        assert predict is oracle_predict

    def test_builtin_fit_over_budget_rejected(self, small_bench):
        ticks = iter([0.0, 2.0])
        _, rejection = run_training(
            _builtin_spec("constant"), small_bench / "train", budget_s=1.0, clock=lambda: next(ticks),
        )
        assert rejection == "training budget exceeded (1 s)"

    def test_external_sleep_rejected(self, small_bench):
        spec = PredictorSpec(
            label="sleeper",
            command=[sys.executable, "-c", "pass"],
            training_command=[sys.executable, "-c", "import time; time.sleep(60)"],
        )
        predict, rejection = run_training(spec, small_bench / "train", budget_s=1.0)
        assert predict is None
        assert rejection == "training budget exceeded (1 s)"

    def test_budget_kills_the_whole_process_group(self, small_bench, tmp_path):
        # The command's background child touches `started` at once and `late` 2 s in,
        # after the budget; it outlives the command unless the whole group is killed.
        started, late = tmp_path / "started", tmp_path / "late"
        spec = PredictorSpec(
            label="forker",
            command=[sys.executable, "-c", "pass"],
            training_command=["sh", "-c", '(touch "$1"; sleep 2; touch "$2") & wait', "sh", str(started), str(late)],
        )
        _, rejection = run_training(spec, small_bench / "train", budget_s=1.0)
        assert rejection is not None
        time.sleep(2.0)
        assert started.exists()
        assert not late.exists()

    @pytest.mark.parametrize("redirect", ["", " >/dev/null 2>&1"])
    def test_background_child_neither_holds_nor_outlives_training(self, small_bench, tmp_path, redirect):
        # The command exits at once, leaving a child that touches `late` 1 s in,
        # with or without the command's output: training ends at the exit and the child dies.
        late = tmp_path / "late"
        spec = PredictorSpec(
            label="forker",
            command=[sys.executable, "-c", "pass"],
            training_command=["sh", "-c", f'(sleep 1; touch "$1"){redirect} & exit 0', "sh", str(late)],
        )
        # Accepted under a 0.5 s budget: the command was not waited on past it.
        assert run_training(spec, small_bench / "train", budget_s=0.5) == (None, None)
        time.sleep(1.5)
        assert not late.exists()

    def test_external_failure_exit_code_surfaces(self, small_bench):
        spec = PredictorSpec(
            label="broken",
            command=[sys.executable, "-c", "pass"],
            training_command=[sys.executable, "-c", "import sys; sys.exit(3)"],
        )
        with pytest.raises(TrainingError, match="status 3"):
            run_training(spec, small_bench / "train", budget_s=30.0)

    def test_external_without_training_command_is_noop(self, small_bench):
        spec = PredictorSpec(label="x", command=[sys.executable, "-c", "pass"])
        assert run_training(spec, small_bench / "train", budget_s=1.0) == (None, None)


class TestRunInference:
    def test_builtin_oracle_covers_split(self, small_bench, tmp_path):
        dataset = read_dataset(small_bench / "test")
        elapsed, preds = run_inference(
            _builtin_spec("oracle"), small_bench / "test", dataset, tmp_path / "pred",
            predict=oracle_predict,
        )
        assert elapsed > 0.0
        assert len(preds) == TINY_CONFIG.n_test
        assert sorted(p.sample_id for p in preds) == sorted(s.id for s in dataset.samples)

    def test_missing_prediction_is_coverage_error(self, small_bench, tmp_path):
        # external predictor that drops one file
        code = (
            "import sys, pathlib, shutil\n"
            "from airbench.io import read_dataset, write_predictions\n"
            "from airbench.model import Prediction\n"
            "ds = read_dataset(sys.argv[1])\n"
            "preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in ds.samples[1:]]\n"
            "write_predictions(preds, sys.argv[2])\n"
        )
        spec = PredictorSpec(label="dropper", command=[sys.executable, "-c", code])
        with pytest.raises(AirbenchError, match="missing prediction files"):
            run_inference(
                spec, small_bench / "test", read_dataset(small_bench / "test"), tmp_path / "pred"
            )

    def test_deterministic_prediction_bytes(self, small_bench, tmp_path):
        spec = _builtin_spec("constant")
        predict = resolve_builtin("constant")(lambda: read_dataset(small_bench / "train"))
        dataset = read_dataset(small_bench / "test")
        run_inference(spec, small_bench / "test", dataset, tmp_path / "p1", predict=predict)
        run_inference(spec, small_bench / "test", dataset, tmp_path / "p2", predict=predict)
        files1 = sorted((tmp_path / "p1").glob("*.csv"))
        files2 = sorted((tmp_path / "p2").glob("*.csv"))
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_timer_excludes_verification(self, small_bench, tmp_path, monkeypatch):
        # The injected clock counts its reads; the shape checks and the write
        # must come after the second (final) clock read of the timed window.
        calls = []

        def fake_clock():
            calls.append("clock")
            return float(len(calls))

        seen_at = []

        def spy(name):
            real = getattr(harness, name)

            def wrapper(*args):
                seen_at.append((name, len(calls)))
                return real(*args)

            return wrapper

        for name in ("check_prediction", "write_predictions"):
            monkeypatch.setattr(harness, name, spy(name))
        elapsed, _ = harness.run_inference(
            _builtin_spec("oracle"),
            small_bench / "test",
            read_dataset(small_bench / "test"),
            tmp_path / "pred",
            predict=oracle_predict,
            clock=fake_clock,
        )
        # Both timer reads happened before every check and the write.
        assert seen_at == [("check_prediction", 2)] * TINY_CONFIG.n_test + [("write_predictions", 2)]
        assert elapsed == 1.0

    @pytest.mark.parametrize("name", ["oracle", "constant", "knn:3"])
    def test_builtin_predictions_score_as_their_files(self, small_bench, tmp_path, name):
        # The predictions a builtin returns from memory give the metrics that its written files give.
        predict = resolve_builtin(name)(lambda: read_dataset(small_bench / "train"))
        criteria = default_scoring_config().field_criteria
        for split in harness.SCORED_SPLITS:
            dataset = read_dataset(small_bench / split)
            _, preds = run_inference(_builtin_spec(name), small_bench / split, dataset, tmp_path / split, predict=predict)
            from_files = read_predictions(tmp_path / split, dataset)
            assert preds == from_files
            assert evaluate_split(dataset, preds, criteria) == evaluate_split(dataset, from_files, criteria)

    def test_wrong_shape_from_a_builtin_is_refused_before_writing(self, small_bench, tmp_path):
        dataset = read_dataset(small_bench / "test")

        def short(sample):
            return FieldSet(*(np.zeros(sample.n_nodes - 1) for _ in FieldSet.CHANNELS))

        with pytest.raises(AirbenchError, match=f"sample '{dataset.samples[0].id}': prediction has .* rows"):
            run_inference(_builtin_spec("oracle"), small_bench / "test", dataset, tmp_path / "pred", predict=short)
        assert list((tmp_path / "pred").iterdir()) == []

    def test_background_child_neither_holds_nor_outlives_inference(self, small_bench, tmp_path):
        # The predictor writes its predictions and exits, leaving a child that
        # touches `late` 2 s in; the timer stops at the exit and the child dies.
        late = tmp_path / "late"
        spec = PredictorSpec(label="forker", command=[
            "sh", "-c", '"$0" -m airbench.cli predict oracle "$2" "$3"; (sleep 2; touch "$1") &',
            sys.executable, str(late),
        ])
        elapsed, preds = run_inference(
            spec, small_bench / "test", read_dataset(small_bench / "test"), tmp_path / "pred"
        )
        assert len(preds) == TINY_CONFIG.n_test
        assert elapsed < 2.0
        time.sleep(2.5)
        assert not late.exists()


class TestExternalProtocolSelfTest:
    def test_builtin_runs_as_external_executable(self, small_bench, tmp_path):
        # `airbench predict` follows the same file protocol an external
        # submission would, so it exercises the process plumbing.
        spec = PredictorSpec(
            label="knn-external",
            command=[
                sys.executable, "-m", "airbench.cli", "predict", "knn:3",
                "--train", str(small_bench / "train"),
            ],
        )
        report, entry = run_benchmark(
            spec, small_bench, default_scoring_config(),
            out_dir=tmp_path / "run", fixed_inference_time_s=1.0,
        )
        assert not report.rejected
        assert entry.timing == "external-process"
        assert 0.0 < report.global_score < 1.0

    def test_external_matches_builtin_scores(self, small_bench, tmp_path):
        cfg = default_scoring_config()
        ext_spec = PredictorSpec(
            label="ext",
            command=[
                sys.executable, "-m", "airbench.cli", "predict", "constant",
                "--train", str(small_bench / "train"),
            ],
        )
        ext_report, _ = run_benchmark(
            ext_spec, small_bench, cfg, out_dir=tmp_path / "ext", fixed_inference_time_s=1.0
        )
        builtin_report, _ = run_benchmark(
            PredictorSpec(label="builtin", builtin="constant"),
            small_bench, cfg, out_dir=tmp_path / "builtin", fixed_inference_time_s=1.0,
        )
        assert ext_report == builtin_report


def _entry(label: str, score: float, ts: str) -> LeaderboardEntry:
    return LeaderboardEntry(
        label=label,
        timestamp=ts,
        scoring_config_digest="cfg",
        dataset_digests={},
        global_score=score,
        score_ml=score,
        score_ood=score,
        score_physics=score,
        classifications={},
        speedups={},
        rejection_reason=None,
        timing="builtin-loop",
    )


class TestLeaderboard:
    def test_empty_store(self, tmp_path):
        store = tmp_path / "lb.jsonl"
        store.write_text("")
        assert leaderboard_list(store) == []

    def test_missing_store_reads_empty(self, tmp_path):
        assert leaderboard_list(tmp_path / "nope.jsonl") == []

    def test_ordering_by_score_then_timestamp(self, tmp_path):
        store = tmp_path / "lb.jsonl"
        append_leaderboard_entry(store, _entry("fc", 0.3285, "2024-01-02T00:00:00Z"))
        append_leaderboard_entry(store, _entry("reference", 0.825, "2024-01-03T00:00:00Z"))
        append_leaderboard_entry(store, _entry("tie-late", 0.5, "2024-01-05T00:00:00Z"))
        append_leaderboard_entry(store, _entry("tie-early", 0.5, "2024-01-04T00:00:00Z"))
        labels = [e.label for e in leaderboard_list(store)]
        assert labels == ["reference", "tie-early", "tie-late", "fc"]

    def test_append_only(self, tmp_path):
        store = tmp_path / "lb.jsonl"
        append_leaderboard_entry(store, _entry("a", 0.1, "t1"))
        before = store.read_bytes()
        append_leaderboard_entry(store, _entry("b", 0.9, "t2"))
        after = store.read_bytes()
        assert after[: len(before)] == before
        assert after.count(b"\n") == 2

    def test_corrupt_line_skipped_with_warning(self, tmp_path, caplog):
        store = tmp_path / "lb.jsonl"
        append_leaderboard_entry(store, _entry("good", 0.7, "t"))
        with store.open("a") as fh:
            fh.write("{not json}\n")
        append_leaderboard_entry(store, _entry("second", 0.2, "t"))
        with caplog.at_level("WARNING"):
            entries = leaderboard_list(store)
        assert [e.label for e in entries] == ["good", "second"]
        assert any("corrupt" in r.message for r in caplog.records)

    def test_wrongly_typed_line_skipped_with_warning(self, tmp_path, caplog):
        store = tmp_path / "lb.jsonl"
        append_leaderboard_entry(store, _entry("good", 0.7, "t"))
        with store.open("a") as fh:
            fh.write(json.dumps({**asdict(_entry("bad", 0.5, "t")), "global_score": "x"}) + "\n")
        append_leaderboard_entry(store, _entry("second", 0.2, "t"))
        with caplog.at_level("WARNING"):
            entries = leaderboard_list(store)
        assert [e.label for e in entries] == ["good", "second"]
        assert any(":2: skipping corrupt" in r.message and "global_score" in r.message for r in caplog.records)

    def test_line_that_is_not_utf8_skipped_with_warning(self, tmp_path, caplog):
        store = tmp_path / "lb.jsonl"
        append_leaderboard_entry(store, _entry("good", 0.7, "t"))
        with store.open("ab") as fh:
            fh.write(b'{"label": "\xff"}\n')
        append_leaderboard_entry(store, _entry("second", 0.2, "t"))
        with caplog.at_level("WARNING"):
            entries = leaderboard_list(store)
        assert [e.label for e in entries] == ["good", "second"]
        assert any(":2: skipping corrupt" in r.message for r in caplog.records)


def _table_report():
    ml = {"u_x": 0.208965, "u_y": 0.144508, "p": 0.193066, "nu_t": 0.277285, "p_s": 0.425576}
    ood = {"u_x": 0.322766, "u_y": 0.199635, "p": 0.333169, "nu_t": 0.431288, "p_s": 0.805426,
           "C_D": 21.793367, "C_L": 0.711271, "rho_D": -0.043979, "rho_L": 0.917206}
    ph = {"C_D": 16.345740, "C_L": 0.365903, "rho_D": -0.043079, "rho_L": 0.957070}
    return score_from_values(run_metrics(ml, ood, ph, 750.0, 750.0), default_scoring_config())


class TestRenderReport:
    def test_reference_markers(self):
        text = render_report(_table_report())
        assert "U A U G U" in text
        assert "32.8%" in text

    def test_perfect_report(self):
        ml = {k: 0.0 for k in ("u_x", "u_y", "p", "nu_t", "p_s")}
        ood = dict({k: 0.0 for k in ml}, C_D=0.0, C_L=0.0, rho_D=1.0, rho_L=1.0)
        ph = {"C_D": 0.0, "C_L": 0.0, "rho_D": 1.0, "rho_L": 1.0}
        report = score_from_values(run_metrics(ml, ood, ph, 10000.0, 10000.0), default_scoring_config())
        text = render_report(report)
        assert "100.0%" in text
        markers = [ln for ln in text.splitlines() if "markers:" in ln]
        assert all(set(m.split(":")[1].split()) == {"G"} for m in markers)

    def test_rejected_banner(self):
        from airbench.scoring import rejected_report

        text = render_report(rejected_report("training budget exceeded (2 s)"))
        assert "REJECTED: training budget exceeded" in text
        assert "0.0%" in text

    def test_deterministic(self):
        assert render_report(_table_report()) == render_report(_table_report())

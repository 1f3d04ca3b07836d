"""Acceptance criteria for the full harness, one test per criterion.

Each test prints a PASS line when its assertions hold, so a verbose run
reads as a checklist of the shipped guarantees.
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from airbench.cli import main as cli_main
from airbench.harness import PredictorSpec, leaderboard_list, run_benchmark
from airbench.metrics import force_coefficients, spearman_with_flag
from airbench.scoring import classify, combine_global, default_scoring_config, score_from_values
from airbench.synthflow import JoukowskiParams, chord_length, circulation_kutta, sample_point_cloud

from conftest import TOY_CONFIG, run_metrics

SOLVER_TOTAL = TOY_CONFIG.n_test * TOY_CONFIG.solver_time_s

REFERENCE_ML = {"u_x": 0.208965, "u_y": 0.144508, "p": 0.193066, "nu_t": 0.277285, "p_s": 0.425576}
REFERENCE_OOD = {
    "u_x": 0.322766, "u_y": 0.199635, "p": 0.333169, "nu_t": 0.431288, "p_s": 0.805426,
    "C_D": 21.793367, "C_L": 0.711271, "rho_D": -0.043979, "rho_L": 0.917206,
}
REFERENCE_PHYSICS = {"C_D": 16.345740, "C_L": 0.365903, "rho_D": -0.043079, "rho_L": 0.957070}

REFERENCE_POINTS = [
    ("ml", "u_x", 0),
    ("ml", "u_y", 1),
    ("ml", "p", 0),
    ("ml", "nu_t", 2),
    ("ml", "p_s", 0),
    ("ood", "u_x", 0),
    ("ood", "u_y", 1),
    ("ood", "p", 0),
    ("ood", "nu_t", 2),
    ("ood", "p_s", 0),
    ("ood", "C_D", 0),
    ("ood", "C_L", 0),
    ("ood", "rho_D", 0),
    ("ood", "rho_L", 0),
    ("physics", "C_D", 0),
    ("physics", "C_L", 1),
    ("physics", "rho_D", 0),
    ("physics", "rho_L", 1),
]


def _pass(n: int, message: str) -> None:
    print(f"[acceptance] criterion {n}: PASS - {message}")


def test_criterion_1_golden_score_reproduction():
    config = default_scoring_config()
    report = score_from_values(run_metrics(REFERENCE_ML, REFERENCE_OOD, REFERENCE_PHYSICS, 750.0, 750.0), config)
    assert report.ml.score == pytest.approx(0.405, abs=5e-4)
    assert report.ood.score == pytest.approx(0.305, abs=5e-4)
    assert report.physics.score == pytest.approx(0.25, abs=5e-4)
    assert report.global_score == pytest.approx(0.3283, abs=5e-4)
    rounded = combine_global(0.405, 0.305, 0.25, config)
    assert rounded == pytest.approx(0.3285, abs=5e-4)
    _pass(1, f"sub-scores ({report.ml.score:.4f}, {report.ood.score:.4f}, "
             f"{report.physics.score:.4f}), global {report.global_score:.4f}, "
             f"rounded combination {rounded:.4f}")


def test_criterion_2_reference_solver_score():
    config = default_scoring_config()
    ml = {k: 0.0 for k in REFERENCE_ML}
    ood = dict({k: 0.0 for k in REFERENCE_OOD}, rho_D=1.0, rho_L=1.0)
    ph = {"C_D": 0.0, "C_L": 0.0, "rho_D": 1.0, "rho_L": 1.0}
    report = score_from_values(run_metrics(ml, ood, ph, 1.0, 1.0), config)
    assert report.ml.score == 0.75
    assert report.ood.score == 0.75
    assert report.physics.score == 1.0
    assert report.global_score == 0.825  # exact in the rational combination
    _pass(2, "perfect accuracy at unit speed-up gives exactly (0.75, 0.75, 1.0) and 0.825")


def test_criterion_3_physics_oracle():
    params = JoukowskiParams(mu=complex(-0.1, 0.08), a=1.0, alpha_rad=0.07, u_inf=10.0, rho=1.2)
    cl_exact = 2.0 * circulation_kutta(params) / (params.u_inf * chord_length(params))

    errors = {}
    for n_surface in (128, 512, 2048):
        sample = sample_point_cloud(params, 4 * n_surface, seed=77, sample_id=f"s{n_surface}")
        assert int(sample.is_surface.sum()) == n_surface
        cd, cl = force_coefficients(sample, sample.truth_fields)
        errors[n_surface] = abs(cl - cl_exact)
        if n_surface == 512:
            assert cl == pytest.approx(cl_exact, rel=0.02)
            assert abs(cd) < 1e-2
    assert errors[128] > errors[512] > errors[2048]
    _pass(3, f"C_L error vs analytic lift: {errors[128]:.2e} -> {errors[512]:.2e} -> "
             f"{errors[2048]:.2e} (monotone), |C_D| < 1e-2")


def _brute_force_spearman(x: np.ndarray, y: np.ndarray) -> float:
    def ranks(v):
        out = np.empty(len(v))
        for i, vi in enumerate(v):
            less = sum(1 for u in v if u < vi)
            equal = sum(1 for u in v if u == vi)
            out[i] = less + (equal + 1) / 2.0
        return out

    rx, ry = ranks(x), ranks(y)
    if np.all(rx == rx[0]) or np.all(ry == ry[0]):
        return 0.0
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def test_criterion_4_spearman_equivalence():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        x = rng.integers(0, 5, size=m).astype(float)
        y = rng.integers(0, 5, size=m).astype(float)
        rho, _ = spearman_with_flag(x, y)
        expect = _brute_force_spearman(x, y)
        worst = max(worst, abs(rho - expect))
    assert worst <= 1e-12
    _pass(4, f"1000 tied integer vectors match the rank-then-Pearson oracle (worst {worst:.1e})")


def test_criterion_5_end_to_end_monotonicity(toy_bench_dir, tmp_path):
    config = default_scoring_config()
    fixed = SOLVER_TOTAL / 10000
    scores = {}
    for name in ("oracle", "knn:5", "constant"):
        report, _ = run_benchmark(
            PredictorSpec(label=name, builtin=name),
            toy_bench_dir,
            config,
            out_dir=tmp_path / name.replace(":", ""),
            fixed_inference_time_s=fixed,
        )
        scores[name] = report.global_score
    assert scores["oracle"] == 1.0
    assert scores["oracle"] > scores["knn:5"] > scores["constant"]
    _pass(5, f"oracle {scores['oracle']:.4f} > knn:5 {scores['knn:5']:.4f} > "
             f"constant {scores['constant']:.4f}")


def test_criterion_6_classification_boundary_suite():
    config = default_scoring_config()
    values = {"ml": REFERENCE_ML, "ood": REFERENCE_OOD, "physics": REFERENCE_PHYSICS}
    for category, name, expected_points in REFERENCE_POINTS:
        got = classify(values[category][name], config.thresholds[category][name])
        assert int(got) == expected_points, (category, name)
    _pass(6, f"all {len(REFERENCE_POINTS)} reference rows reproduce their 0/1/2 points")


def test_criterion_7_determinism(toy_bench_dir, tmp_path):
    store = tmp_path / "lb.jsonl"
    argv_base = [
        "run", "--predictor", "knn:3", "--bench", str(toy_bench_dir),
        "--store", str(store), "--fixed-time", "1.5", "--no-timestamp", "--label", "stub",
    ]
    assert cli_main(argv_base + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(argv_base + ["--out", str(tmp_path / "r2")]) == 0

    for name in ("metrics.json", "score_report.json", "report.txt"):
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    lines = store.read_text().splitlines()
    assert len(lines) == 2 and lines[0] == lines[1]
    _pass(7, "repeated runs are byte-identical (metrics, score report, leaderboard entry)")


def test_criterion_8_rejection_rule(toy_bench_dir, tmp_path):
    spec = PredictorSpec(
        label="over-budget",
        command=[sys.executable, "-c", "pass"],
        training_command=[sys.executable, "-c", "import time; time.sleep(30)"],
    )
    store = tmp_path / "lb.jsonl"
    report, entry = run_benchmark(
        spec, toy_bench_dir, replace(default_scoring_config(), training_budget_s=2.0),
        out_dir=tmp_path / "run", store_path=store,
    )
    assert report.rejected
    assert report.global_score == 0.0
    assert "training budget exceeded" in entry.rejection_reason
    listed = leaderboard_list(store)
    assert len(listed) == 1
    assert listed[0].global_score == 0.0
    assert listed[0].rejection_reason == entry.rejection_reason
    _pass(8, f"over-budget training rejected: {entry.rejection_reason!r}, global score 0")

"""Classification, sub-scores, global combination, config handling."""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from importlib import resources

import numpy as np
import pytest

from airbench import scoring
from airbench.errors import AirbenchError
from airbench.harness import score_metrics
from airbench.io import RunMetrics, decode, read_json, write_json
from airbench.metrics import SplitMetrics
from airbench.scoring import (
    ML_CRITERIA,
    OOD_CRITERIA,
    PHYSICS_CRITERIA,
    Classification,
    Direction,
    ScoreReport,
    ScoringConfig,
    ThresholdSpec,
    accuracy_score,
    category_score,
    classify,
    combine_global,
    compute_speedup,
    default_scoring_config,
    rejected_report,
    score_from_values,
    speed_score,
)

G, A, U = Classification.GREAT, Classification.ACCEPTABLE, Classification.UNACCEPTABLE

# The reference threshold table: (criterion, value, t1, t2, direction, expected points)
REFERENCE_ROWS_ML = [
    ("u_x", 0.208965, 0.1, 0.2, "min", 0),
    ("u_y", 0.144508, 0.1, 0.2, "min", 1),
    ("p", 0.193066, 0.02, 0.1, "min", 0),
    ("nu_t", 0.277285, 0.5, 1.0, "min", 2),
    ("p_s", 0.425576, 0.08, 0.2, "min", 0),
]
REFERENCE_ROWS_OOD = [
    ("u_x", 0.322766, 0.1, 0.2, "min", 0),
    ("u_y", 0.199635, 0.1, 0.2, "min", 1),
    ("p", 0.333169, 0.02, 0.1, "min", 0),
    ("nu_t", 0.431288, 0.5, 1.0, "min", 2),
    ("p_s", 0.805426, 0.08, 0.2, "min", 0),
    ("C_D", 21.793367, 1.0, 10.0, "min", 0),
    ("C_L", 0.711271, 0.2, 0.5, "min", 0),
    ("rho_D", -0.043979, 0.5, 0.8, "max", 0),
    ("rho_L", 0.917206, 0.94, 0.98, "max", 0),
]
REFERENCE_ROWS_PHYSICS = [
    ("C_D", 16.345740, 1.0, 10.0, "min", 0),
    ("C_L", 0.365903, 0.2, 0.5, "min", 1),
    ("rho_D", -0.043079, 0.5, 0.8, "max", 0),
    ("rho_L", 0.957070, 0.94, 0.98, "max", 1),
]
ALL_REFERENCE_ROWS = REFERENCE_ROWS_ML + REFERENCE_ROWS_OOD + REFERENCE_ROWS_PHYSICS


class TestClassify:
    @pytest.mark.parametrize("name,value,t1,t2,direction,points", ALL_REFERENCE_ROWS)
    def test_reference_rows(self, name, value, t1, t2, direction, points):
        spec = ThresholdSpec(t1=t1, t2=t2, direction=Direction(direction))
        assert int(classify(value, spec)) == points

    def test_min_boundaries(self):
        spec = ThresholdSpec(t1=0.1, t2=0.2, direction=Direction.MIN)
        assert classify(0.1 - 1e-15, spec) is G
        assert classify(0.1, spec) is A          # t1 resolves to the better class
        assert classify(0.2 - 1e-15, spec) is A
        assert classify(0.2, spec) is U          # t2 resolves to the worse class
        assert classify(5.0, spec) is U

    def test_max_boundaries(self):
        spec = ThresholdSpec(t1=0.5, t2=0.8, direction=Direction.MAX)
        assert classify(0.5, spec) is U
        assert classify(0.5 + 1e-15, spec) is A
        assert classify(0.8, spec) is A
        assert classify(0.8 + 1e-15, spec) is G

    def test_non_finite_is_unacceptable(self):
        spec = ThresholdSpec(t1=0.1, t2=0.2, direction=Direction.MIN)
        assert classify(float("nan"), spec) is U
        assert classify(float("inf"), spec) is U
        assert classify(float("-inf"), spec) is U

    def test_step_function_has_three_plateaus(self):
        for direction in (Direction.MIN, Direction.MAX):
            spec = ThresholdSpec(t1=0.3, t2=0.7, direction=direction)
            grid = np.linspace(-0.2, 1.2, 2001)
            labels = [int(classify(float(v), spec)) for v in grid]
            # collapse runs
            runs = [labels[0]]
            for v in labels[1:]:
                if v != runs[-1]:
                    runs.append(v)
            assert runs == ([2, 1, 0] if direction is Direction.MIN else [0, 1, 2])

    def test_invalid_thresholds(self):
        with pytest.raises(AirbenchError, match="t1 < t2"):
            ThresholdSpec(t1=0.5, t2=0.5, direction=Direction.MIN)


class TestAccuracyScore:
    def test_reference_counts(self):
        assert accuracy_score(1, 1, 3) == pytest.approx(0.3)

    def test_all_great(self):
        assert accuracy_score(7, 0, 0) == 1.0

    def test_all_unacceptable(self):
        assert accuracy_score(0, 0, 4) == 0.0

    def test_points_are_integral(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ng, no, nr = (int(v) for v in rng.integers(0, 10, size=3))
            if ng + no + nr == 0:
                continue
            n = ng + no + nr
            points = accuracy_score(ng, no, nr) * 2 * n
            assert points == pytest.approx(round(points), abs=1e-9)
            assert round(points) == 2 * ng + no


class TestSpeedScore:
    def test_no_speedup_scores_zero(self):
        assert speed_score(1.0, 10000.0) == 0.0

    def test_cap(self):
        assert speed_score(10000.0, 10000.0) == 1.0
        assert speed_score(20000.0, 10000.0) == 1.0

    def test_log_scale_value(self):
        # log10(750)/log10(10000), evaluated at high precision
        assert speed_score(750.0, 10000.0) == pytest.approx(0.718765315847925, abs=1e-12)

    def test_slowdown_clamps_to_zero(self):
        assert speed_score(0.5, 10000.0) == 0.0

    def test_invalid_speedup(self, monkeypatch):
        # speed_score takes a positive, finite speed-up; scoring a metrics record refuses the
        # times that would give an infinite or a negative one in compute_speedup, before speed_score.
        def refuse(speedup, speedup_max):
            raise AssertionError(f"speed_score called with {speedup}")

        monkeypatch.setattr(scoring, "speed_score", refuse)
        for inference_time_s in (0.0, -1.0):
            split = SplitMetrics(
                field_errors=dict.fromkeys(ML_CRITERIA, 0.0), c_d_rel_err=0.0, c_l_rel_err=0.0,
                spearman_d=1.0, spearman_l=1.0, spearman_d_degenerate=False, spearman_l_degenerate=False,
                total_inference_time_s=inference_time_s, total_solver_time_s=3.0,
            )
            with pytest.raises(AirbenchError, match="inference time must be positive"):
                score_metrics(RunMetrics(test=split, ood=split), default_scoring_config())


class TestComputeSpeedup:
    def test_reference(self):
        assert compute_speedup(1500.0, 2.0) == 750.0

    def test_equal_times(self):
        assert compute_speedup(123.0, 123.0) == 1.0

    def test_capped_input(self):
        assert compute_speedup(1500.0, 0.15) == 10000.0

    def test_invalid(self):
        with pytest.raises(AirbenchError, match="solver time must be positive"):
            compute_speedup(0.0, 1.0)
        with pytest.raises(AirbenchError, match="inference time must be positive"):
            compute_speedup(10.0, 0.0)

    @pytest.mark.parametrize("solver, inference", [(1500.0, 1e-320), (1e300, 1e-10), (5e-324, 1e10)])
    def test_ratio_out_of_range(self, solver, inference):
        with pytest.raises(AirbenchError, match="speed-up must be positive and finite"):
            compute_speedup(solver, inference)


class TestCategoryScore:
    def test_reference_blend(self):
        got = category_score(0.3, 0.718765315847925, 0.75, 0.25)
        assert got == pytest.approx(0.4046913289619812, abs=1e-12)

    def test_accuracy_only_weighting(self):
        assert category_score(1.0, 0.0, 0.75, 0.25) == 0.75

    def test_perfect(self):
        assert category_score(1.0, 1.0, 0.75, 0.25) == 1.0

    def test_bad_weights(self):
        # category_score takes a config's weights; the config refuses a pair that does not sum to 1.
        with pytest.raises(AirbenchError, match="accuracy/speed weights must sum to 1"):
            replace(default_scoring_config(), alpha_a=0.7, alpha_s=0.2)


class TestGlobalCombination:
    def test_reference_rounded_subscores(self):
        cfg = default_scoring_config()
        assert combine_global(0.405, 0.305, 0.25, cfg) == pytest.approx(0.3285, abs=1e-12)

    def test_reference_exact(self):
        cfg = default_scoring_config()
        assert combine_global(0.75, 0.75, 1.0, cfg) == 0.825

    def test_zero(self):
        cfg = default_scoring_config()
        assert combine_global(0.0, 0.0, 0.0, cfg) == 0.0


def _table_values():
    ml = {name: v for name, v, *_ in REFERENCE_ROWS_ML}
    ood = {name: v for name, v, *_ in REFERENCE_ROWS_OOD}
    ph = {name: v for name, v, *_ in REFERENCE_ROWS_PHYSICS}
    return ml, ood, ph


def _counts(category):
    """The category's (Great, Acceptable, Unacceptable) criterion counts."""
    markers = category.markers().split()
    return markers.count("G"), markers.count("A"), markers.count("U")


class TestScoreFromValues:
    def test_reference_pipeline(self):
        ml, ood, ph = _table_values()
        report = score_from_values(ml, ood, ph, 750.0, 750.0, default_scoring_config())
        assert report.ml.score == pytest.approx(0.405, abs=5e-4)
        assert report.ood.score == pytest.approx(0.305, abs=5e-4)
        assert report.physics.score == 0.25
        assert report.global_score == pytest.approx(0.3283, abs=5e-4)
        assert report.ml.markers() == "U A U G U"
        assert _counts(report.ml) == (1, 1, 3)
        assert _counts(report.ood) == (1, 1, 7)
        assert _counts(report.physics) == (0, 2, 2)

    def test_rejection_zeroes_global(self):
        report = rejected_report("training budget exceeded (2 s)")
        assert report.rejected and report.global_score == 0.0
        assert report.rejection_reason == "training budget exceeded (2 s)"
        assert [c.criteria for c in (report.ml, report.ood, report.physics)] == [[], [], []]

    def test_nan_metric_is_scored_not_raised(self):
        ml, ood, ph = _table_values()
        ml = dict(ml, u_x=float("nan"))
        report = score_from_values(ml, ood, ph, 750.0, 750.0, default_scoring_config())
        assert report.ml.criteria[0].classification is U
        assert report.ml.criteria[0].non_finite

    def test_monotone_in_classifications(self):
        # Improving any single criterion never decreases the global score.
        cfg = default_scoring_config()
        rng = np.random.default_rng(17)
        mins = {"u_x": (0.1, 0.2), "u_y": (0.1, 0.2), "p": (0.02, 0.1), "nu_t": (0.5, 1.0),
                "p_s": (0.08, 0.2), "C_D": (1.0, 10.0), "C_L": (0.2, 0.5)}
        maxs = {"rho_D": (0.5, 0.8), "rho_L": (0.94, 0.98)}

        def random_values(names):
            vals = {}
            for n in names:
                if n in mins:
                    vals[n] = float(rng.uniform(0, 2.0 * mins[n][1]))
                else:
                    vals[n] = float(rng.uniform(-1, 1))
            return vals

        def improved(vals, name):
            out = dict(vals)
            out[name] = 0.0 if name in mins else 1.0  # best possible value
            return out

        for _ in range(20):
            ml, ood, ph = random_values(ML_CRITERIA), random_values(OOD_CRITERIA), random_values(PHYSICS_CRITERIA)
            sp = float(rng.uniform(0.5, 20000))
            base = score_from_values(ml, ood, ph, sp, sp, cfg).global_score
            for cat, names in (("ml", ML_CRITERIA), ("ood", OOD_CRITERIA), ("ph", PHYSICS_CRITERIA)):
                for name in names:
                    m, o, p = dict(ml), dict(ood), dict(ph)
                    if cat == "ml":
                        m = improved(m, name)
                    elif cat == "ood":
                        o = improved(o, name)
                    else:
                        p = improved(p, name)
                    better = score_from_values(m, o, p, sp, sp, cfg).global_score
                    assert better >= base - 1e-12

    def test_monotone_in_speedup(self):
        cfg = default_scoring_config()
        ml, ood, ph = _table_values()
        scores = [
            score_from_values(ml, ood, ph, sp, sp, cfg).global_score
            for sp in (0.5, 1.0, 10.0, 750.0, 10000.0, 50000.0)
        ]
        assert scores == sorted(scores)

    def test_boundedness(self):
        cfg = default_scoring_config()
        rng = np.random.default_rng(23)
        for _ in range(50):
            ml = {n: float(rng.uniform(-5, 25)) for n in ML_CRITERIA}
            ood = {n: float(rng.uniform(-5, 25)) for n in OOD_CRITERIA}
            ph = {n: float(rng.uniform(-5, 25)) for n in PHYSICS_CRITERIA}
            rep = score_from_values(ml, ood, ph, float(rng.uniform(0.1, 1e6)), 1.0, cfg)
            for s in (rep.ml.score, rep.ood.score, rep.physics.score, rep.global_score):
                assert 0.0 <= s <= 1.0


class TestScoringConfig:
    def test_default_is_valid_and_matches_reference_thresholds(self):
        cfg = default_scoring_config()
        assert cfg.alpha_ml == 0.4 and cfg.alpha_ood == 0.3 and cfg.alpha_ph == 0.3
        assert cfg.alpha_a == 0.75 and cfg.alpha_s == 0.25
        assert cfg.speedup_max == 10000.0
        for category, rows in (("ml", REFERENCE_ROWS_ML), ("ood", REFERENCE_ROWS_OOD),
                               ("physics", REFERENCE_ROWS_PHYSICS)):
            for name, _, t1, t2, direction, _ in rows:
                spec = cfg.thresholds[category][name]
                assert (spec.t1, spec.t2, spec.direction.value) == (t1, t2, direction)

    def test_weight_sum_enforced(self):
        cfg = default_scoring_config()
        with pytest.raises(AirbenchError, match="sum to 1"):
            replace(cfg, alpha_ml=0.5, alpha_ood=0.3, alpha_ph=0.3)

    @pytest.mark.parametrize("change, message", [
        (dict(alpha_a=1.5, alpha_s=-0.5), r"alpha_a must lie in \[0, 1\], got 1.5"),
        (dict(alpha_ml=float("nan")), r"alpha_ml must lie in \[0, 1\], got nan"),
        (dict(speedup_max=float("inf")), "speedup_max must be > 1 and finite, got inf"),
    ], ids=["weight-above-one", "weight-nan", "cap-infinite"])
    def test_weights_lie_in_the_unit_interval_and_the_cap_is_finite(self, change, message):
        # Scores stay in [0, 1] and are finite because the config is checked; scoring does not check again.
        with pytest.raises(AirbenchError, match=message):
            replace(default_scoring_config(), **change)

    def test_criterion_name_sets_enforced(self):
        cfg = default_scoring_config()
        with pytest.raises(AirbenchError, match="ml thresholds"):
            replace(cfg, thresholds={**cfg.thresholds,
                                     "ml": {**cfg.thresholds["ml"], "extra": ThresholdSpec(0, 1, Direction.MIN)}})
        with pytest.raises(AirbenchError, match="thresholds must hold exactly"):
            replace(cfg, thresholds={**cfg.thresholds, "extra": cfg.thresholds["physics"]})

    def test_json_roundtrip(self, tmp_path):
        cfg = default_scoring_config()
        path = tmp_path / "scoring.json"
        write_json(path, asdict(cfg))
        back = decode(ScoringConfig, read_json(path), path)
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_dataclass_layout_is_the_shipped_json_layout(self):
        shipped = resources.files("airbench.data") / "default_scoring.json"
        assert json.loads(json.dumps(asdict(default_scoring_config()))) == json.loads(shipped.read_text())

    def test_report_dict_roundtrip(self):
        ml, ood, ph = _table_values()
        report = score_from_values(ml, ood, ph, 750.0, 750.0, default_scoring_config())
        back = decode(ScoreReport, json.loads(json.dumps(asdict(report))), "report")
        assert back == report
        assert back.ml.criteria[0].classification is report.ml.criteria[0].classification

    @pytest.mark.parametrize("kind", ["nan-criterion", "rejected"])
    def test_report_file_roundtrip_keeps_bytes(self, tmp_path, kind):
        if kind == "rejected":
            report = rejected_report("training budget exceeded (2 s)")
        else:
            ml, ood, ph = _table_values()
            report = score_from_values(dict(ml, u_x=float("nan")), ood, ph, 750.0, 750.0,
                                       default_scoring_config())
        write_json(tmp_path / "a.json", asdict(report))
        back = decode(ScoreReport, read_json(tmp_path / "a.json"), tmp_path / "a.json")
        write_json(tmp_path / "b.json", asdict(back))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

"""Field errors, rank correlation, force integration, split evaluation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from airbench.errors import AirbenchError
from airbench.metrics import (
    evaluate_split,
    field_error,
    force_coefficients,
    mean_relative_error,
    spearman_with_flag,
)
from airbench.model import Dataset, FieldSet, Prediction, Sample, SampleMeta, Split
from airbench.synthflow import chord_length, circulation_kutta, sample_point_cloud

from conftest import CAMBERED, SYMMETRIC


class TestFieldError:
    def test_identical_is_zero(self):
        x = np.array([1.0, -2.0, 3.5])
        assert field_error(x, x) == 0.0
        assert field_error(x, x, kind="rmse") == 0.0

    def test_constant_offset_mae(self):
        truth = np.array([0.5, 1.5, -2.0, 7.0])
        assert field_error(truth + 3.25, truth) == pytest.approx(3.25, abs=1e-12)
        assert field_error(truth - 3.25, truth) == pytest.approx(3.25, abs=1e-12)

    def test_hand_arithmetic(self):
        assert field_error(np.array([1.0, 2.0, 4.0]), np.ones(3)) == pytest.approx(4.0 / 3.0)

    def test_rmse_hand_arithmetic(self):
        got = field_error(np.array([1.0, 2.0, 4.0]), np.ones(3), kind="rmse")
        assert got == pytest.approx(math.sqrt((0 + 1 + 9) / 3))

    def test_length_mismatch(self):
        with pytest.raises(AirbenchError, match="length mismatch"):
            field_error(np.ones(3), np.ones(4))

    def test_translation_detecting_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            truth = rng.normal(size=n)
            pred = truth + rng.normal(size=n)
            c = float(rng.normal())
            base = field_error(pred, truth)
            assert field_error(pred + c, truth) >= base - abs(c) - 1e-12


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    return spearman_with_flag(x, y)[0]


class TestSpearman:
    def test_identical_is_one(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(x, x) == 1.0

    def test_reversed_is_minus_one(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
        assert spearman(x, -x) == -1.0

    def test_simple_swap(self):
        # 1 - 6*sum(d^2)/(n(n^2-1)) with d = (0, 1, 1, 0): 1 - 12/60
        assert spearman(np.array([1, 2, 3, 4.0]), np.array([1, 3, 2, 4.0])) == pytest.approx(0.8)

    def test_degenerate_constant_flags(self):
        rho, degenerate = spearman_with_flag(np.array([1.0, 1.0, 1.0]), np.array([1, 2, 3.0]))
        assert rho == 0.0 and degenerate

    def test_too_short(self):
        with pytest.raises(AirbenchError, match="need at least 2 paired values"):
            spearman(np.array([1.0]), np.array([2.0]))

    def test_symmetry_and_monotone_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-13)
            # strictly monotone transform of either argument changes nothing
            assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)
            assert spearman(x, 3.0 * y + 1.0) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_nan_series_yields_nan(self):
        rho, degenerate = spearman_with_flag(np.array([1.0, np.nan, 2.0]), np.array([1, 2, 3.0]))
        assert math.isnan(rho) and not degenerate


class TestForceCoefficients:
    def test_uniform_pressure_closed_contour(self):
        s = sample_point_cloud(CAMBERED, 128, seed=1, sample_id="u")
        uniform = FieldSet(
            u_x=np.zeros(s.n_nodes),
            u_y=np.zeros(s.n_nodes),
            p_s=np.full(s.n_nodes, 37.5),
            nu_t=np.zeros(s.n_nodes),
        )
        cd, cl = force_coefficients(s, uniform)
        assert abs(cd) < 1e-12 and abs(cl) < 1e-12

    def test_symmetric_zero_alpha_zero_lift(self):
        s = sample_point_cloud(SYMMETRIC, 512, seed=2, sample_id="sym")
        cd, cl = force_coefficients(s, s.truth_fields)
        assert abs(cl) < 1e-3
        assert abs(cd) < 1e-3

    def test_cambered_matches_analytic_oracles(self):
        s = sample_point_cloud(CAMBERED, 2048, seed=3, sample_id="cam")
        cd, cl = force_coefficients(s, s.truth_fields)
        cl_exact = 2.0 * circulation_kutta(CAMBERED) / (CAMBERED.u_inf * chord_length(CAMBERED))
        assert cl == pytest.approx(cl_exact, rel=0.02)
        assert abs(cd) < 1e-2

    def test_too_few_surface_nodes(self):
        s = sample_point_cloud(CAMBERED, 128, seed=1, sample_id="u")
        trimmed = Sample(
            id=s.id,
            positions=s.positions,
            inlet_velocity=s.inlet_velocity,
            distance=s.distance,
            normals=s.normals,
            is_surface=s.is_surface,
            surface_order=s.surface_order[:6],
            truth_fields=s.truth_fields,
            meta=s.meta,
        )
        with pytest.raises(AirbenchError, match="need at least 8 surface nodes"):
            force_coefficients(trimmed, s.truth_fields)

    def test_pressure_offset_invariance(self):
        s = sample_point_cloud(CAMBERED, 512, seed=4, sample_id="o")
        cd0, cl0 = force_coefficients(s, s.truth_fields)
        shifted = FieldSet(
            u_x=s.truth_fields.u_x,
            u_y=s.truth_fields.u_y,
            p_s=s.truth_fields.p_s + 123.456,
            nu_t=s.truth_fields.nu_t,
        )
        cd1, cl1 = force_coefficients(s, shifted)
        assert abs(cd1 - cd0) < 1e-10 and abs(cl1 - cl0) < 1e-10

    def test_rotation_invariance(self):
        s = sample_point_cloud(CAMBERED, 512, seed=5, sample_id="r")
        theta = 0.31
        c, sn = math.cos(theta), math.sin(theta)
        rot = np.array([[c, -sn], [sn, c]])
        u = np.column_stack([s.truth_fields.u_x, s.truth_fields.u_y]) @ rot.T
        rotated = Sample(
            id=s.id,
            positions=s.positions @ rot.T,
            inlet_velocity=rot @ s.inlet_velocity,
            distance=s.distance,
            normals=s.normals @ rot.T,
            is_surface=s.is_surface,
            surface_order=s.surface_order,
            truth_fields=FieldSet(
                u_x=u[:, 0], u_y=u[:, 1], p_s=s.truth_fields.p_s, nu_t=s.truth_fields.nu_t
            ),
            meta=SampleMeta(
                alpha_rad=s.meta.alpha_rad + theta,
                u_inf=s.meta.u_inf,
                chord=s.meta.chord,
                rho=s.meta.rho,
                solver_time_s=s.meta.solver_time_s,
            ),
        )
        cd0, cl0 = force_coefficients(s, s.truth_fields)
        cd1, cl1 = force_coefficients(rotated, rotated.truth_fields)
        assert abs(cd1 - cd0) < 1e-10 and abs(cl1 - cl0) < 1e-10


def _toy_dataset(n: int = 3, nodes: int = 96, seed: int = 50) -> Dataset:
    from airbench.synthflow import JoukowskiParams

    samples = []
    for i in range(n):
        params = JoukowskiParams(
            mu=complex(-0.1 - 0.01 * i, 0.06 + 0.01 * i),
            a=1.0,
            alpha_rad=0.03 + 0.02 * i,
            u_inf=10.0 + 1.5 * i,
            rho=1.2,
        )
        samples.append(sample_point_cloud(params, nodes, seed=seed + i, sample_id=f"s-{i:02d}"))
    return Dataset(split=Split.TEST, samples=samples)


def _echo_predictions(ds: Dataset) -> list[Prediction]:
    return [Prediction(sample_id=s.id, fields=s.truth_fields) for s in ds.samples]


def _zero_predictions(ds: Dataset) -> list[Prediction]:
    return [
        Prediction(sample_id=s.id, fields=FieldSet(*(np.zeros(s.n_nodes) for _ in FieldSet.CHANNELS)))
        for s in ds.samples
    ]


def _series(ds: Dataset, preds: list[Prediction]) -> tuple[np.ndarray, ...]:
    """Per-sample (cd_true, cl_true, cd_pred, cl_pred), sorted by sample id, from single calls."""
    by_id = {p.sample_id: p.fields for p in preds}
    samples = sorted(ds.samples, key=lambda s: s.id)
    rows = [force_coefficients(s, s.truth_fields) + force_coefficients(s, by_id[s.id]) for s in samples]
    return tuple(np.array(rows).T)


class TestCoefficientSeries:
    """The drag and lift series that `evaluate_split` builds from `force_coefficients`."""

    def test_echo_predictions_reproduce_truth(self):
        ds = _toy_dataset()
        cd_true, cl_true, cd_pred, cl_pred = _series(ds, _echo_predictions(ds))
        np.testing.assert_array_equal(cd_true, cd_pred)
        np.testing.assert_array_equal(cl_true, cl_pred)
        m = evaluate_split(ds, _echo_predictions(ds))
        assert m.c_d_rel_err == 0.0 and m.c_l_rel_err == 0.0

    def test_matches_per_sample_calls(self):
        ds = _toy_dataset(n=4)
        preds = _zero_predictions(ds)
        cd_true, cl_true, cd_pred, cl_pred = _series(ds, preds)
        m = evaluate_split(ds, preds)
        assert m.c_d_rel_err == mean_relative_error(cd_pred, cd_true)
        assert m.c_l_rel_err == mean_relative_error(cl_pred, cl_true)
        assert (m.spearman_d, m.spearman_d_degenerate) == spearman_with_flag(cd_true, cd_pred)
        assert (m.spearman_l, m.spearman_l_degenerate) == spearman_with_flag(cl_true, cl_pred)


class TestMeanRelativeError:
    def test_identical_is_zero(self):
        assert mean_relative_error(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_single_pair(self):
        assert mean_relative_error(np.array([2.0]), np.array([1.0])) == 1.0

    def test_hand_arithmetic(self):
        got = mean_relative_error(np.array([1.0, 3.0]), np.array([1.0, 2.0]))
        assert got == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(AirbenchError, match="length mismatch"):
            mean_relative_error(np.ones(2), np.ones(3))


class TestEvaluateSplit:
    def test_oracle_predictor_is_perfect(self):
        ds = _toy_dataset()
        m = evaluate_split(ds, _echo_predictions(ds))
        assert all(v == 0.0 for v in m.field_errors.values())
        assert m.c_d_rel_err == 0.0 and m.c_l_rel_err == 0.0
        assert m.spearman_d == 1.0 and m.spearman_l == 1.0
        assert m.total_solver_time_s == pytest.approx(3 * 1500.0)

    def test_zero_predictor_matches_composed_operations(self):
        ds = _toy_dataset(n=5)
        zeros = _zero_predictions(ds)
        m = evaluate_split(ds, zeros)
        pooled = np.concatenate([s.truth_fields.u_x for s in sorted(ds.samples, key=lambda t: t.id)])
        assert m.field_errors["u_x"] == pytest.approx(np.mean(np.abs(pooled)), rel=1e-14)
        _, cl_true, _, cl_pred = _series(ds, zeros)
        assert m.c_l_rel_err == pytest.approx(mean_relative_error(cl_pred, cl_true), rel=1e-14)
        assert m.spearman_l == spearman(cl_true, cl_pred)

    def test_single_sample_split_degenerates(self):
        ds = _toy_dataset(n=1)
        m = evaluate_split(ds, _echo_predictions(ds))
        assert m.spearman_d == 0.0 and m.spearman_d_degenerate
        assert m.spearman_l == 0.0 and m.spearman_l_degenerate

    def test_order_independence(self):
        ds = _toy_dataset(n=4)
        preds = _echo_predictions(ds)
        m1 = evaluate_split(ds, preds)
        shuffled = Dataset(split=ds.split, samples=list(reversed(ds.samples)))
        m2 = evaluate_split(shuffled, list(reversed(preds)))
        assert m1 == m2

    def test_surface_subset_differs_from_volume(self):
        ds = _toy_dataset(n=2)
        zeros = [
            Prediction(
                sample_id=s.id,
                fields=FieldSet(
                    u_x=s.truth_fields.u_x,
                    u_y=s.truth_fields.u_y,
                    p_s=np.zeros(s.n_nodes),
                    nu_t=s.truth_fields.nu_t,
                ),
            )
            for s in ds.samples
        ]
        m = evaluate_split(ds, zeros)
        assert m.field_errors["p"] != m.field_errors["p_s"]
        assert m.field_errors["u_x"] == 0.0

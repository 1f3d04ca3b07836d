"""Baseline predictors: oracle echo, constant means, k-NN transfer."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from scipy.spatial import cKDTree

from airbench.baselines import (
    _nearest,
    _node_features,
    constant_predict,
    fit_channel_means,
    is_builtin,
    knn_fit,
    knn_predict,
    oracle_predict,
    resolve_builtin,
)
from airbench.errors import AirbenchError, FormatError
from airbench.io import Manifest, read_dataset, write_json
from airbench.metrics import evaluate_split, field_error, force_coefficients
from airbench.model import Dataset, Prediction, Split
from airbench.scoring import default_scoring_config
from airbench.synthflow import JoukowskiParams, sample_point_cloud

CRITERIA = default_scoring_config().field_criteria


def _varied_dataset(split: Split, n: int, nodes: int = 96, seed: int = 100) -> Dataset:
    samples = []
    for i in range(n):
        params = JoukowskiParams(
            mu=complex(-0.09 - 0.015 * i, 0.05 + 0.012 * i),
            a=1.0,
            alpha_rad=0.02 + 0.025 * i,
            u_inf=9.0 + 2.0 * i,
            rho=1.2,
        )
        samples.append(
            sample_point_cloud(params, nodes, seed=seed + i, sample_id=f"{split.value}-{i:02d}")
        )
    return Dataset(split=split, samples=samples)


def _fit_on_an_empty_split(name: str, directory) -> None:
    """Fit builtin `name` through a loader of a split directory whose manifest lists no samples."""
    directory.mkdir()
    write_json(directory / "manifest.json", asdict(Manifest(split=Split.TRAIN, generation_config_digest="", samples=[])))
    resolve_builtin(name)(lambda: read_dataset(directory))


@pytest.fixture(scope="module")
def train_ds():
    return _varied_dataset(Split.TRAIN, 4, seed=100)


@pytest.fixture(scope="module")
def test_ds():
    return _varied_dataset(Split.TEST, 3, seed=300)


class TestOracle:
    def test_zero_error_on_every_channel(self, test_ds):
        preds = [Prediction(sample_id=s.id, fields=oracle_predict(s)) for s in test_ds.samples]
        m = evaluate_split(test_ds, preds, CRITERIA)
        assert all(v == 0.0 for v in m.field_errors.values())

    def test_perfect_rank_correlation(self, test_ds):
        preds = [Prediction(sample_id=s.id, fields=oracle_predict(s)) for s in test_ds.samples]
        m = evaluate_split(test_ds, preds, CRITERIA)
        assert m.spearman_d == 1.0 and m.spearman_l == 1.0


class TestConstant:
    def test_mae_equals_mean_absolute_deviation(self, train_ds, test_ds):
        stats = fit_channel_means(train_ds)
        preds = [
            Prediction(sample_id=s.id, fields=constant_predict(stats, s)) for s in test_ds.samples
        ]
        m = evaluate_split(test_ds, preds, CRITERIA)
        pooled = np.concatenate(
            [s.truth_fields.u_x for s in sorted(test_ds.samples, key=lambda t: t.id)]
        )
        assert m.field_errors["u_x"] == pytest.approx(
            float(np.mean(np.abs(pooled - stats["u_x"]))), rel=1e-14
        )

    def test_constant_pressure_gives_unit_lift_error(self, train_ds, test_ds):
        stats = fit_channel_means(train_ds)
        preds = [
            Prediction(sample_id=s.id, fields=constant_predict(stats, s)) for s in test_ds.samples
        ]
        # uniform pressure -> zero predicted force on a closed contour
        cl_pred = [force_coefficients(s, p.fields)[1] for s, p in zip(test_ds.samples, preds)]
        assert np.all(np.abs(cl_pred) < 1e-10)
        m = evaluate_split(test_ds, preds, CRITERIA)
        assert m.c_l_rel_err == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_rank_correlation(self, train_ds, test_ds):
        stats = fit_channel_means(train_ds)
        preds = [
            Prediction(sample_id=s.id, fields=constant_predict(stats, s)) for s in test_ds.samples
        ]
        m = evaluate_split(test_ds, preds, CRITERIA)
        assert m.spearman_l == 0.0 and m.spearman_l_degenerate

    def test_empty_split_rejected(self, tmp_path):
        # The fit reads the split through its loader, and read_dataset refuses a split without samples.
        with pytest.raises(FormatError, match="dataset: no samples"):
            _fit_on_an_empty_split("constant", tmp_path / "train")


class TestKnn:
    def test_coincident_query_returns_training_outputs(self, train_ds):
        model = knn_fit(train_ds, k=1)
        s = train_ds.samples[0]
        pred = knn_predict(model, s)
        np.testing.assert_array_equal(pred.u_x, s.truth_fields.u_x)
        np.testing.assert_array_equal(pred.p_s, s.truth_fields.p_s)

    def test_coincident_query_with_k3(self, train_ds):
        model = knn_fit(train_ds, k=3)
        s = train_ds.samples[0]
        pred = knn_predict(model, s)
        np.testing.assert_array_equal(pred.u_x, s.truth_fields.u_x)

    def test_deterministic(self, train_ds, test_ds):
        m1 = knn_fit(train_ds, k=5)
        m2 = knn_fit(train_ds, k=5)
        s = test_ds.samples[0]
        p1, p2 = knn_predict(m1, s), knn_predict(m2, s)
        assert p1 == p2

    def test_k_clamped_to_pool(self, train_ds):
        model = knn_fit(train_ds, k=10**9)
        assert model.k == sum(s.n_nodes for s in train_ds.samples)

    def test_bad_k(self):
        # k is checked where the predictor name is parsed, before any fit.
        with pytest.raises(AirbenchError, match="k must be >= 1, got 0"):
            resolve_builtin("knn:0")

    def test_empty_split_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="dataset: no samples"):
            _fit_on_an_empty_split("knn:1", tmp_path / "train")

    @pytest.mark.parametrize("k", [1, 5, 70])
    def test_neighbors_equal_one_tree_over_the_pool(self, test_ds, k):
        # Unequal sample sizes; k=70 exceeds the smallest sample's 64 nodes.
        train = Dataset(
            split=Split.TRAIN,
            samples=[_varied_dataset(Split.TRAIN, i + 1, nodes=n).samples[i] for i, n in enumerate((96, 64, 150, 80))],
        )
        model = knn_fit(train, k=k)
        pool = cKDTree(model.features)
        for s in test_ds.samples + train.samples:
            q = _node_features(s) / model.scale
            want_d, want_i = (a.reshape(len(q), k) for a in pool.query(q, k=k))
            got_d, got_i = _nearest(model, q)
            for want, got in ((want_d, got_d), (want_i, got_i)):
                by_want = np.take_along_axis(want, np.lexsort((want_i, want_d), axis=1), axis=1)
                by_got = np.take_along_axis(got, np.lexsort((got_i, got_d), axis=1), axis=1)
                assert by_want.tobytes() == by_got.tobytes()

    def test_beats_constant_on_field_error(self, train_ds, test_ds):
        model = knn_fit(train_ds, k=5)
        stats = fit_channel_means(train_ds)
        knn_err, const_err = 0.0, 0.0
        for s in test_ds.samples:
            knn_err += field_error(knn_predict(model, s).u_x, s.truth_fields.u_x)
            const_err += field_error(constant_predict(stats, s).u_x, s.truth_fields.u_x)
        assert knn_err < const_err


class TestResolveBuiltin:
    def test_names(self, train_ds, test_ds):
        # Each name's fit function predicts as its module functions do, k=7 included.
        def unused():
            raise AssertionError("the oracle's fit loads the training split")

        oracle = resolve_builtin("oracle")(unused)
        constant = resolve_builtin("constant")(lambda: train_ds)
        knn7 = resolve_builtin("knn:7")(lambda: train_ds)
        stats, model = fit_channel_means(train_ds), knn_fit(train_ds, 7)
        for s in test_ds.samples:
            assert oracle(s) is s.truth_fields
            assert constant(s) == constant_predict(stats, s)
            assert knn7(s) == knn_predict(model, s)
        assert any(knn7(s) != knn_predict(knn_fit(train_ds, 6), s) for s in test_ds.samples)

    def test_is_builtin(self):
        assert all(is_builtin(name) for name in ("oracle", "constant", "knn:7", "knn:many"))
        assert not any(is_builtin(name) for name in ("python predict.py", "knn", "oracle2"))

    def test_unknown(self):
        with pytest.raises(AirbenchError, match="unknown builtin predictor"):
            resolve_builtin("transformer")
        with pytest.raises(AirbenchError, match="bad knn predictor name"):
            resolve_builtin("knn:many")

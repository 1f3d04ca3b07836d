"""Shared fixtures: pinned flow parameters and a small generated benchmark."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from airbench.io import RunMetrics
from airbench.metrics import ML_CRITERIA, SplitMetrics
from airbench.model import FieldSet, Sample, Split
from airbench.synthflow import (
    GenerationConfig,
    JoukowskiParams,
    generate_benchmark,
    generate_split,
)

# One cambered airfoil used across the flow tests.
CAMBERED = JoukowskiParams(mu=complex(-0.1, 0.08), a=1.0, alpha_rad=0.07, u_inf=10.0, rho=1.2)
SYMMETRIC = JoukowskiParams(mu=complex(-0.1, 0.0), a=1.0, alpha_rad=0.0, u_inf=10.0, rho=1.2)

TOY_CONFIG = GenerationConfig(
    n_train=10,
    n_test=10,
    n_ood=10,
    nodes_per_sample=2000,
    seed=2024,
)

TINY_CONFIG = GenerationConfig(
    n_train=3,
    n_test=3,
    n_ood=3,
    nodes_per_sample=96,
    seed=11,
)


@pytest.fixture(scope="session", autouse=True)
def checkout_on_subprocess_path():
    """Subprocesses that run airbench (`python -m airbench.cli`, an external predictor) import this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def cambered_params() -> JoukowskiParams:
    return CAMBERED


@pytest.fixture(scope="session")
def tiny_train():
    return generate_split(TINY_CONFIG, Split.TRAIN)


@pytest.fixture(scope="session")
def tiny_test():
    return generate_split(TINY_CONFIG, Split.TEST)


@pytest.fixture(scope="session")
def toy_bench_dir(tmp_path_factory):
    """A written 10/10/10 benchmark with 2000-node samples."""
    out = tmp_path_factory.mktemp("toy-bench")
    generate_benchmark(TOY_CONFIG, out)
    return out


def with_contour_nodes(sample: Sample, k: int) -> Sample:
    """A generated `sample` with only its first `k` surface nodes; its other surface nodes are dropped.

    A generated sample lists its surface nodes first, in contour order, so the
    result is consistent in every respect but the contour's length.
    """
    keep = np.r_[0:k, len(sample.surface_order):sample.n_nodes]
    return Sample(
        id=sample.id,
        positions=sample.positions[keep],
        inlet_velocity=sample.inlet_velocity,
        distance=sample.distance[keep],
        normals=sample.normals[keep],
        is_surface=sample.is_surface[keep],
        surface_order=np.arange(k),
        truth_fields=FieldSet(*(sample.truth_fields.channel(c)[keep] for c in FieldSet.CHANNELS)),
        meta=sample.meta,
    )


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def run_metrics(
    ml: dict[str, float], ood: dict[str, float], physics: dict[str, float], speedup_ml: float, speedup_ood: float,
) -> RunMetrics:
    """The raw metrics that score as these criterion values and speed-ups.

    The test split holds the `ml` field errors and the `physics` values, the
    OOD split the `ood` values. Each split's inference time is 1.0 and its
    solver time the wanted speed-up, so `compute_speedup` returns that
    speed-up exactly.
    """

    def split(field_errors, values, speedup):
        return SplitMetrics(
            field_errors={name: field_errors[name] for name in ML_CRITERIA},
            c_d_rel_err=values["C_D"], c_l_rel_err=values["C_L"],
            spearman_d=values["rho_D"], spearman_l=values["rho_L"],
            spearman_d_degenerate=False, spearman_l_degenerate=False,
            total_inference_time_s=1.0, total_solver_time_s=speedup,
        )

    return RunMetrics(test=split(ml, physics, speedup_ml), ood=split(ood, ood, speedup_ood))

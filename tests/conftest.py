"""Shared fixtures: pinned flow parameters and a small generated benchmark."""

from __future__ import annotations

import numpy as np
import pytest

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

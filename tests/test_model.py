"""Sample/dataset invariants and the contour simplicity check."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from airbench import (
    Dataset,
    FieldSet,
    Prediction,
    Sample,
    SampleMeta,
    Split,
    polygon_is_simple,
    sample_point_cloud,
    validate_sample,
)

from conftest import CAMBERED


def make_square_sample(**overrides) -> Sample:
    """A minimal hand-built sample: 4 surface nodes on a unit square + 2 field nodes."""
    s = 2.0 ** -0.5
    fields = dict(
        id="sq",
        positions=np.array([[0, 0], [1, 0], [1, 1], [0, 1], [3.0, 0.5], [4.0, 2.0]]),
        inlet_velocity=np.array([1.0, 0.0]),
        distance=np.array([0.0, 0.0, 0.0, 0.0, 2.0, 3.16]),
        normals=np.array([[-s, -s], [s, -s], [s, s], [-s, s], [0, 0], [0, 0]]),
        is_surface=np.array([True, True, True, True, False, False]),
        surface_order=np.array([0, 1, 2, 3]),
        truth_fields=FieldSet(
            u_x=np.ones(6), u_y=np.zeros(6), p_s=np.zeros(6), nu_t=np.zeros(6)
        ),
        meta=SampleMeta(alpha_rad=0.0, u_inf=1.0, chord=1.0, rho=1.0, solver_time_s=10.0),
    )
    fields.update(overrides)
    return Sample(**fields)


class TestValidateSample:
    def test_generated_sample_is_clean(self):
        s = sample_point_cloud(CAMBERED, 128, seed=5, sample_id="ok")
        assert validate_sample(s) == []

    def test_square_sample_is_clean(self):
        assert validate_sample(make_square_sample()) == []

    def test_non_unit_normal_named(self):
        s = make_square_sample(
            normals=np.array([[0.6, 0.6], [1, 0], [0, 1], [-1, 0], [0, 0], [0, 0]])
        )
        msgs = validate_sample(s)
        assert any(m.startswith("normals: not unit norm at index 0") for m in msgs)

    def test_negative_nu_t_named(self):
        bad = FieldSet(u_x=np.ones(6), u_y=np.zeros(6), p_s=np.zeros(6),
                       nu_t=np.array([0, 0, 0, 0, -1.0, 0]))
        msgs = validate_sample(make_square_sample(truth_fields=bad))
        assert any("nu_t: negative value" in m for m in msgs)

    def test_nan_field_named(self):
        bad = FieldSet(u_x=np.array([1, 1, np.nan, 1, 1, 1.0]), u_y=np.zeros(6),
                       p_s=np.zeros(6), nu_t=np.zeros(6))
        msgs = validate_sample(make_square_sample(truth_fields=bad))
        assert any("u_x: non-finite value at index 2" in m for m in msgs)

    def test_nonzero_distance_on_surface(self):
        s = make_square_sample(distance=np.array([0.5, 0, 0, 0, 2.0, 3.0]))
        msgs = validate_sample(s)
        assert any("distance: nonzero at surface index 0" in m for m in msgs)

    def test_zero_distance_off_surface(self):
        s = make_square_sample(distance=np.array([0, 0, 0, 0, 0.0, 3.0]))
        msgs = validate_sample(s)
        assert any("distance: zero at non-surface index 4" in m for m in msgs)

    def test_surface_order_must_cover_surface_nodes(self):
        s = make_square_sample(surface_order=np.array([0, 1, 2, 2]))
        msgs = validate_sample(s)
        assert any("surface_order" in m for m in msgs)

    def test_self_intersecting_contour_flagged(self):
        # Bowtie ordering of the square corners.
        s = make_square_sample(surface_order=np.array([0, 1, 3, 2]))
        msgs = validate_sample(s)
        assert any("not a simple closed polygon" in m for m in msgs)

    def test_nonzero_normal_off_surface(self):
        s = make_square_sample(
            normals=np.array([[-0.7071067811865476, -0.7071067811865476], [1, 0],
                              [0, 1], [-1, 0], [0.1, 0], [0, 0]])
        )
        msgs = validate_sample(s)
        assert any("nonzero normal at non-surface index 4" in m for m in msgs)

    def test_nonpositive_solver_time(self):
        s = make_square_sample(
            meta=SampleMeta(alpha_rad=0.0, u_inf=1.0, chord=1.0, rho=1.0, solver_time_s=0.0)
        )
        msgs = validate_sample(s)
        assert any("solver_time_s" in m for m in msgs)

    def test_too_few_nodes(self):
        s = Sample(
            id="tiny",
            positions=np.array([[0.0, 0], [1, 0]]),
            inlet_velocity=np.array([1.0, 0.0]),
            distance=np.array([1.0, 1.0]),
            normals=np.zeros((2, 2)),
            is_surface=np.array([False, False]),
            surface_order=np.array([], dtype=np.int64),
            truth_fields=FieldSet(u_x=np.ones(2), u_y=np.zeros(2), p_s=np.zeros(2), nu_t=np.zeros(2)),
            meta=SampleMeta(alpha_rad=0.0, u_inf=1.0, chord=1.0, rho=1.0, solver_time_s=1.0),
        )
        msgs = validate_sample(s)
        assert any("at least 3 nodes" in m for m in msgs)


class TestPolygonIsSimple:
    def test_square(self):
        assert polygon_is_simple(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))

    def test_bowtie(self):
        assert not polygon_is_simple(np.array([[0, 0], [1, 1], [1, 0], [0, 1.0]]))

    def test_touching_vertex(self):
        # Vertex 3 lies on edge 0-1.
        assert not polygon_is_simple(np.array([[0, 0], [2, 0], [2, 1], [1, 0.0], [0, 1]]))

    def test_degenerate(self):
        assert not polygon_is_simple(np.array([[0, 0], [1, 1.0]]))

    def test_generated_contours(self):
        for n in (32, 257):
            s = sample_point_cloud(CAMBERED, 4 * n, seed=9, sample_id="c")
            assert polygon_is_simple(s.surface_polygon())


class TestImmutability:
    def test_arrays_are_frozen(self):
        s = make_square_sample()
        with pytest.raises(ValueError):
            s.positions[0, 0] = 5.0
        with pytest.raises(ValueError):
            s.truth_fields.u_x[0] = 5.0

    def test_equality(self):
        assert make_square_sample() == make_square_sample()
        assert make_square_sample() != make_square_sample(id="other")

    def test_equality_compares_every_field(self):
        s = make_square_sample()
        assert make_square_sample(meta=replace(s.meta, rho=2.0)) != s
        assert make_square_sample(surface_order=s.surface_order.astype(np.int32)) == s  # frozen as int64
        nan = dict(u_x=np.full(6, np.nan), u_y=np.zeros(6), p_s=np.zeros(6), nu_t=np.zeros(6))
        assert Prediction("sq", FieldSet(**nan)) == Prediction("sq", FieldSet(**nan))
        assert Prediction("sq", FieldSet(**nan)) != Prediction("sq", s.truth_fields)
        assert Dataset(Split.TEST, [s]) == Dataset(Split.TEST, [make_square_sample()])
        assert Dataset(Split.TEST, [s]) != Dataset(Split.TEST, [s, s])
        assert Dataset(Split.TEST, [s]) != Dataset(Split.OOD_TEST, [s])

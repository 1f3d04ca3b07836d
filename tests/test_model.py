"""Sample/dataset invariants and the contour simplicity check."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from airbench import model
from airbench.model import (
    Dataset,
    FieldSet,
    Prediction,
    Sample,
    SampleMeta,
    Split,
    polygon_is_simple,
    validate_sample,
)
from airbench.synthflow import sample_point_cloud

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


def _reference_is_simple(points) -> bool:
    """The former O(S^2) check, edge by edge; the sweep must reach the same verdicts."""
    pts = np.asarray(points, dtype=np.float64)
    s = len(pts)
    if s < 3:
        return False
    nxt = np.roll(np.arange(s), -1)
    p1 = pts
    p2 = pts[nxt]
    for i in range(s - 2):
        # Candidate partner edges: j in [i+2, s-1], excluding the wrap pair (0, s-1).
        j0 = i + 2
        j1 = s - 1 if i == 0 else s
        if j0 >= j1:
            continue
        a1, a2 = p1[i], p2[i]
        b1 = p1[j0:j1]
        b2 = p2[j0:j1]
        d1 = model._cross(b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1], a1[0], a1[1])
        d2 = model._cross(b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1], a2[0], a2[1])
        d3 = model._cross(a1[0], a1[1], a2[0], a2[1], b1[:, 0], b1[:, 1])
        d4 = model._cross(a1[0], a1[1], a2[0], a2[1], b2[:, 0], b2[:, 1])
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return False
        # Collinear or endpoint contact: a zero cross product with the point
        # inside the other segment's bounding box counts as contact.
        if np.any(d1 == 0.0) or np.any(d2 == 0.0) or np.any(d3 == 0.0) or np.any(d4 == 0.0):
            lo_a, hi_a = np.minimum(a1, a2), np.maximum(a1, a2)
            lo_b, hi_b = np.minimum(b1, b2), np.maximum(b1, b2)
            if np.any((d3 == 0.0) & np.all((b1 >= lo_a) & (b1 <= hi_a), axis=1)):
                return False
            if np.any((d4 == 0.0) & np.all((b2 >= lo_a) & (b2 <= hi_a), axis=1)):
                return False
            if np.any((d1 == 0.0) & np.all((a1 >= lo_b) & (a1 <= hi_b), axis=1)):
                return False
            if np.any((d2 == 0.0) & np.all((a2 >= lo_b) & (a2 <= hi_b), axis=1)):
                return False
    return True


@pytest.fixture(params=[1 << 16, 1], ids=["default-pass", "one-pair-passes"])
def pairs_per_pass(request, monkeypatch):
    """Run a test with the default pass size and with one pair per pass."""
    monkeypatch.setattr(model, "_PAIRS_PER_PASS", request.param)


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

    def test_agrees_with_reference_on_small_integer_polygons(self, pairs_per_pass):
        # A 4x4 grid is dense in collinear, touching and repeated vertices, and its
        # cross products are exact, so every verdict is decided by the same tests.
        rng = np.random.default_rng(12)
        verdicts = []
        for _ in range(2000):
            pts = rng.integers(0, 4, size=(rng.integers(3, 14), 2)).astype(np.float64)
            verdicts.append(_reference_is_simple(pts))
            assert polygon_is_simple(pts) == verdicts[-1], pts.tolist()
        assert 0 < sum(verdicts) < len(verdicts)

    def test_agrees_with_reference_on_perturbed_contours(self, pairs_per_pass):
        rng = np.random.default_rng(13)
        contours = [
            sample_point_cloud(CAMBERED, 4 * n, seed=seed, sample_id="c").surface_polygon()
            for seed, n in ((1, 16), (2, 60), (3, 250))
        ]
        verdicts = []
        for k in range(90):
            pts = contours[k % 3].copy()
            a, b = rng.integers(0, len(pts), size=2)
            if k % 3 == 0:
                pts[[a, b]] = pts[[b, a]]  # swapped vertices
            elif k % 3 == 1:
                pts = np.insert(pts, a, pts[b], axis=0)  # a repeated vertex
            else:
                pts = pts + rng.normal(scale=10.0 ** rng.uniform(-6, -1), size=pts.shape)
            verdicts.append(_reference_is_simple(pts))
            assert polygon_is_simple(pts) == verdicts[-1], k
        assert 0 < sum(verdicts) < len(verdicts)

    def test_non_finite_vertex_is_not_simple(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        for bad in (np.nan, np.inf, -np.inf):
            pts = square.copy()
            pts[2, 1] = bad
            assert not polygon_is_simple(pts)

    def test_rounding_only_crossing_of_disjoint_edges_is_not_contact(self):
        # Edges 0 and 3 lie on y = 2.6x with a gap between them. The reference's
        # rounded cross products report a proper crossing; their bounding boxes
        # are disjoint, so the sweep never pairs them and the polygon is simple.
        pts = np.array([[-0.4, -1.04], [-0.2, -0.52], [0.15, 5.39], [0.5, 1.3],
                        [1.1, 2.8600000000000003], [0.15, -4.61]])
        assert not _reference_is_simple(pts)
        assert polygon_is_simple(pts)

    def test_memory_stays_bounded_on_a_zigzag(self):
        # Every zig-zag edge spans x in [0, 1], so all ~2e8 edge pairs overlap in x.
        n = 19998
        zigzag = np.column_stack([np.arange(n) % 2, np.arange(n)]).astype(np.float64)
        pts = np.vstack([zigzag, [[2.0, n], [2.0, -1.0]]])
        tracemalloc.start()
        try:
            assert polygon_is_simple(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak


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

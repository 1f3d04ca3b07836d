"""Flow-field correctness: Kutta condition, conformal velocities, generation."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from airbench.cli import main
from airbench.errors import AirbenchError
from airbench.io import decode, read_dataset
from airbench.model import Split, validate_sample
from airbench.synthflow import (
    GenerationConfig,
    JoukowskiParams,
    chord_length,
    circulation_kutta,
    distance_to_surface,
    generate_benchmark,
    generate_split,
    _VOL_FLOOR,
    _VOL_RMAX,
    _VOL_SCALE,
    _block_levels,
    _contour_cache,
    _min_distance_to_contour,
    sample_point_cloud,
    splitmix64,
    surface_nodes,
    truth_at,
)

from conftest import CAMBERED, SYMMETRIC, TINY_CONFIG


def truth(params, points):
    """The truth fields at a point or (M, 2) points, with the distances generation uses."""
    pts = np.atleast_2d(points)
    return truth_at(params, pts, distance_to_surface(params, pts))


def velocity(params, points):
    f = truth(params, points)
    return np.column_stack([f.u_x, f.u_y])


class TestCirculation:
    def test_symmetric_zero_alpha(self):
        assert circulation_kutta(SYMMETRIC) == 0.0

    def test_alpha_sign_flip_negates(self):
        pos = JoukowskiParams(mu=complex(-0.12, 0.0), alpha_rad=0.08, u_inf=7.0)
        neg = JoukowskiParams(mu=complex(-0.12, 0.0), alpha_rad=-0.08, u_inf=7.0)
        assert circulation_kutta(pos) == pytest.approx(-circulation_kutta(neg), rel=1e-15)

    def test_against_root_find_oracle(self):
        # Independently find the circulation that cancels the tangential
        # velocity at the trailing-edge preimage on the cylinder.
        p = JoukowskiParams(mu=complex(-0.1, 0.05), a=1.0, alpha_rad=0.1, u_inf=10.0)
        c, r = p.center, p.radius
        beta = math.asin(c.imag / r)
        zeta_te = c + r * np.exp(-1j * beta)
        tangent = 1j * np.exp(-1j * beta)

        def tangential_speed(gamma: float) -> float:
            zc = zeta_te - c
            w = (
                p.u_inf * np.exp(-1j * p.alpha_rad)
                - p.u_inf * r * r * np.exp(1j * p.alpha_rad) / (zc * zc)
                + 1j * gamma / (2.0 * np.pi * zc)
            )
            return float((w * tangent).real)

        gamma_oracle = brentq(tangential_speed, -1000.0, 1000.0, xtol=1e-14)
        gamma = circulation_kutta(p)
        assert gamma == pytest.approx(gamma_oracle, rel=1e-9)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(AirbenchError, match="degenerate geometry"):
            circulation_kutta(JoukowskiParams(mu=complex(1.0, 0.0), a=1.0, u_inf=1.0))


class TestVelocity:
    def test_far_field_asymptote(self):
        p = CAMBERED
        far = np.array([1e6 * p.a, 0.3 * p.a])
        u = velocity(p, far)[0]
        expect = p.u_inf * np.array([math.cos(p.alpha_rad), math.sin(p.alpha_rad)])
        assert np.linalg.norm(u - expect) < 1e-6 * p.u_inf

    def test_leading_edge_stagnation(self):
        # Stagnation preimage from the closed-form cylinder stagnation angle.
        p = CAMBERED
        theta = math.pi + 2.0 * p.alpha_rad + p.beta_rad
        zeta = p.center + p.radius * np.exp(1j * theta)
        z = zeta + p.a * p.a / zeta
        u = velocity(p, np.array([z.real, z.imag]))[0]
        assert np.linalg.norm(u) < 1e-9 * p.u_inf

    def test_impermeability_on_surface(self):
        pos, nrm = surface_nodes(CAMBERED, 256)
        u = velocity(CAMBERED, pos)
        u_dot_n = np.abs((u * nrm).sum(axis=1))
        assert u_dot_n.max() < 1e-8 * CAMBERED.u_inf

    def test_point_inside_is_domain_error(self):
        inside = np.array([0.0, 0.05])  # near the center of the mapped body
        with pytest.raises(AirbenchError, match="lies inside the airfoil"):
            truth(CAMBERED, inside)

    def test_trailing_edge_is_singular(self):
        te = np.array([2.0 * CAMBERED.a, 0.0])
        with pytest.raises(AirbenchError, match="inside the airfoil|mapped singularity"):
            truth(CAMBERED, te)


class TestPressure:
    def test_stagnation_pressure(self):
        p = CAMBERED
        theta = math.pi + 2.0 * p.alpha_rad + p.beta_rad
        zeta = p.center + p.radius * np.exp(1j * theta)
        z = zeta + p.a * p.a / zeta
        assert truth(p, np.array([z.real, z.imag])).p_s[0] == pytest.approx(
            0.5 * p.u_inf**2, rel=1e-12
        )

    def test_far_field_zero(self):
        p = CAMBERED
        assert abs(truth(p, np.array([1e7, 1e6])).p_s[0]) < 1e-4 * p.u_inf**2

    def test_freestream_speed_gives_zero(self):
        # Find a point where the local speed equals u_inf by bisection along a
        # vertical line upstream of the body (decelerated below, sped up above).
        p = CAMBERED

        def speed_minus_uinf(y):
            u = velocity(p, np.array([-3.0 * p.a, y]))[0]
            return float(np.hypot(*u) - p.u_inf)

        y0 = brentq(speed_minus_uinf, 0.0, 1.0 * p.a, xtol=1e-13)
        assert truth(p, np.array([-3.0 * p.a, y0])).p_s[0] == pytest.approx(
            0.0, abs=1e-9 * p.u_inf**2
        )


class TestNuT:
    def test_zero_on_surface(self):
        pos, _ = surface_nodes(CAMBERED, 64)
        vals = truth(CAMBERED, pos).nu_t
        assert np.all(vals == 0.0)

    def test_decays_far_away(self):
        assert truth(CAMBERED, np.array([300.0, 0.0])).nu_t[0] < 1e-30

    def test_interior_probe_matches_closed_form(self):
        p = CAMBERED
        probe = np.array([1.3, 0.9])
        d = float(distance_to_surface(p, probe)[0])
        speed = float(np.hypot(*velocity(p, probe)[0]))
        expect = 0.41 * d * speed * math.exp(-d / (0.5 * chord_length(p)))
        assert truth(p, probe).nu_t[0] == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_everywhere(self):
        # Probe points built in the preimage plane, so all lie outside the body.
        p = CAMBERED
        rng = np.random.default_rng(3)
        radii = p.radius * (1.0 + rng.uniform(0.01, 10.0, size=200))
        phis = rng.uniform(0.0, 2.0 * np.pi, size=200)
        zeta = p.center + radii * np.exp(1j * phis)
        z = zeta + p.a * p.a / zeta
        vals = truth(p, np.column_stack([z.real, z.imag])).nu_t
        assert np.all(vals >= 0.0)


def _brute_force_distance(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The contour distance as every point against every segment: the reference."""
    ax, ay = poly.real, poly.imag
    abx, aby = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    ab2 = np.maximum(abx * abx + aby * aby, 1e-300)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), 512):
        q = pts[lo : lo + 512]
        aqx = q[:, 0:1] - ax[None, :]
        aqy = q[:, 1:2] - ay[None, :]
        s = aqx * abx
        s += aqy * aby
        t = np.clip(s / ab2, 0.0, 1.0)
        # |aq - t*ab|^2 = |aq|^2 - t*(2*(aq.ab) - t*|ab|^2)
        s *= 2.0
        s -= t * ab2
        s *= t
        aqx *= aqx
        aqx += aqy * aqy
        aqx -= s
        d2 = np.maximum(aqx, 0.0, out=aqx)
        out[lo : lo + 512] = np.sqrt(np.min(d2, axis=1))
    return out


def _volume_points(p: JoukowskiParams, offsets: np.ndarray, rng) -> np.ndarray:
    """Points at the given radial offsets (in cylinder radii) around the preimage."""
    zeta = p.center + p.radius * (1.0 + offsets) * np.exp(1j * rng.uniform(0, 2 * np.pi, len(offsets)))
    z = zeta + p.a * p.a / zeta
    return np.column_stack([z.real, z.imag])


_CORNERS = [
    (camber, thickness)
    for camber in GenerationConfig().camber_range
    for thickness in GenerationConfig().thickness_range
]


class TestDistanceToSurface:
    @pytest.mark.parametrize("camber, thickness", _CORNERS)
    def test_bits_match_brute_force(self, camber, thickness):
        mu = complex(-thickness, camber)
        p = JoukowskiParams(mu=mu, a=1.0 / chord_length(JoukowskiParams(mu=mu)))
        poly, chord = _contour_cache(p.mu, p.a)
        rng = np.random.default_rng(31)
        vertices = np.column_stack([poly.real, poly.imag])
        ab = np.roll(vertices, -1, axis=0) - vertices
        mid = vertices + 0.5 * ab
        normal = np.column_stack([ab[:, 1], -ab[:, 0]]) / np.hypot(ab[:, 0], ab[:, 1])[:, None]
        off = 1e-12 * chord * normal[::4]
        beside_te = vertices[0] + rng.normal(size=(256, 2)) * np.logspace(-14, -2, 256)[:, None] * chord
        far = _volume_points(p, _VOL_RMAX * np.repeat([1.0, 2.0, 10.0, 1000.0], 128), rng)
        for name, pts in {
            "vertices": vertices,
            "midpoints": mid,
            "1e-12 chord off": np.vstack([mid[::4] + off, mid[::4] - off]),
            "beside the trailing edge": beside_te,
            "far field": far,
        }.items():
            got = _min_distance_to_contour(poly, pts)
            want = _brute_force_distance(poly, pts)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), name

    @pytest.mark.parametrize("camber, thickness", _CORNERS)
    def test_bits_match_brute_force_far_out_from_vertices(self, camber, thickness):
        # Far out along the normal at a vertex in a block's middle, the nearest
        # block's chord can lie farther than a vertex of another block; only
        # its h keeps it.
        mu = complex(-thickness, camber)
        poly, chord = _contour_cache(mu, 1.0 / chord_length(JoukowskiParams(mu=mu)))
        v = np.column_stack([poly.real, poly.imag])[2::4]
        tangent = np.roll(poly, -1)[2::4] - np.roll(poly, 1)[2::4]
        out = np.column_stack([tangent.imag, -tangent.real]) / np.abs(tangent)[:, None]
        pts = np.vstack([v + 10.0 * chord * out, v + 100.0 * chord * out])
        got = _min_distance_to_contour(poly, pts)
        assert np.array_equal(got.view(np.int64), _brute_force_distance(poly, pts).view(np.int64))

    @pytest.mark.parametrize("camber, thickness", _CORNERS)
    def test_block_vertices_lie_within_h_of_the_chord(self, camber, thickness):
        mu = complex(-thickness, camber)
        poly, _ = _contour_cache(mu, 1.0 / chord_length(JoukowskiParams(mu=mu)))
        l_max = float(np.abs(np.roll(poly, -1) - poly).max())
        levels = _block_levels(poly, l_max)
        assert [len(level[0]) for level in levels] == [16, 64, 256, 1024]
        # Distances in extended precision, to every vertex of each block,
        # the chord's end included.
        v = np.column_stack([poly.real, poly.imag]).astype(np.longdouble)
        for cx, cy, _, _, _, h in levels:
            a = np.column_stack([cx, cy]).astype(np.longdouble)
            w = np.roll(a, -1, axis=0) - a
            aq = np.concatenate([v.reshape(len(a), -1, 2), a[:, None] + w[:, None]], axis=1) - a[:, None]
            t = np.clip((aq * w[:, None]).sum(axis=2) / (w * w).sum(axis=1)[:, None], 0.0, 1.0)
            dist = np.sqrt(((aq - t[:, :, None] * w[:, None]) ** 2).sum(axis=2)).max(axis=1)
            assert (dist <= h).all()
            assert (h - dist < 1e-8 * l_max).all()  # and rounded up by little

    def test_empty_input(self):
        d = distance_to_surface(CAMBERED, np.empty((0, 2)))
        assert d.shape == (0,)

    def test_non_finite_rows_are_nan(self):
        pts = np.array([[1.3, 0.9], [np.nan, 0.0], [np.inf, 0.0], [0.2, -np.inf]])
        poly, _ = _contour_cache(CAMBERED.mu, CAMBERED.a)
        with np.errstate(invalid="ignore"):
            want = _brute_force_distance(poly, pts)
        d = _min_distance_to_contour(poly, pts)
        assert np.isnan(want[1:]).all() and np.isnan(d[1:]).all()
        assert d[0] == want[0]
        assert np.isnan(distance_to_surface(CAMBERED, pts)[1:]).all()

    def test_single_point(self):
        poly, _ = _contour_cache(CAMBERED.mu, CAMBERED.a)
        d = distance_to_surface(CAMBERED, [1.3, 0.9])
        assert d.shape == (1,)
        assert d[0] == _brute_force_distance(poly, np.array([[1.3, 0.9]]))[0] > 0.0

    def test_memory_stays_bounded(self):
        # Points are placed like the generator's volume nodes. The brute-force
        # pass peaks at about 118 MB on any input of more than 512 points.
        rng = np.random.default_rng(32)
        span = 1.0 - math.exp(-(_VOL_RMAX - _VOL_FLOOR) / _VOL_SCALE)
        offsets = _VOL_FLOOR - _VOL_SCALE * np.log1p(-rng.random(100_000) * span)
        pts = _volume_points(CAMBERED, offsets, rng)
        tracemalloc.start()
        try:
            distance_to_surface(CAMBERED, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak


class TestSamplePointCloud:
    def test_deterministic(self):
        a = sample_point_cloud(CAMBERED, 128, seed=12, sample_id="s")
        b = sample_point_cloud(CAMBERED, 128, seed=12, sample_id="s")
        assert a == b

    def test_per_field_queries_reproduce_truth_bitwise(self):
        s = sample_point_cloud(CAMBERED, 256, seed=5, sample_id="q")
        f = s.truth_fields
        q = truth(CAMBERED, s.positions)
        np.testing.assert_array_equal(q.u_x, f.u_x)
        np.testing.assert_array_equal(q.u_y, f.u_y)
        np.testing.assert_array_equal(q.p_s, f.p_s)
        np.testing.assert_array_equal(q.nu_t, f.nu_t)

    def test_seed_changes_cloud(self):
        a = sample_point_cloud(CAMBERED, 128, seed=12, sample_id="s")
        b = sample_point_cloud(CAMBERED, 128, seed=13, sample_id="s")
        assert a != b

    def test_validates_clean(self):
        for seed in (0, 1, 2):
            s = sample_point_cloud(CAMBERED, 96, seed=seed, sample_id=f"v{seed}")
            assert validate_sample(s) == []

    def test_surface_count_and_order(self):
        s = sample_point_cloud(CAMBERED, 130, seed=4, sample_id="c")
        n_surf = math.ceil(130 / 4)
        assert int(s.is_surface.sum()) == n_surf
        assert list(s.surface_order) == list(range(n_surf))
        poly = s.positions[s.surface_order]
        area = 0.5 * float(
            np.sum(poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1])
        )
        assert area > 0.0  # counter-clockwise

    def test_trailing_edge_excluded(self):
        s = sample_point_cloud(CAMBERED, 512, seed=4, sample_id="te")
        te = np.array([2.0 * CAMBERED.a, 0.0])
        gaps = np.linalg.norm(s.positions[s.surface_order] - te, axis=1)
        assert gaps.min() > 1e-6

    def test_normals_match_finite_difference_oracle(self):
        s = sample_point_cloud(CAMBERED, 2048, seed=8, sample_id="n")
        poly = s.positions[s.surface_order]
        t_fd = np.roll(poly, -1, axis=0) - np.roll(poly, 1, axis=0)
        t_fd /= np.linalg.norm(t_fd, axis=1, keepdims=True)
        n_fd = np.column_stack([t_fd[:, 1], -t_fd[:, 0]])
        stored = s.normals[s.surface_order]
        ang = np.degrees(np.arccos(np.clip((n_fd * stored).sum(axis=1), -1.0, 1.0)))
        assert ang.max() < 1.0

    def test_kutta_bounded_surface_speed(self):
        s = sample_point_cloud(CAMBERED, 512, seed=2, sample_id="k")
        surf = s.is_surface
        speed = np.hypot(s.truth_fields.u_x[surf], s.truth_fields.u_y[surf])
        assert np.isfinite(speed).all()
        assert speed.max() <= 10.0 * s.meta.u_inf

    def test_too_few_nodes_rejected(self):
        with pytest.raises(AirbenchError, match="need at least 64 nodes"):
            sample_point_cloud(CAMBERED, 63, seed=0)


class TestConservation:
    def test_circulation_and_flux_on_far_circle(self):
        p = CAMBERED
        gamma = circulation_kutta(p)
        n = 4096
        tt = 2.0 * np.pi * np.arange(n) / n
        rr = 5.0 * chord_length(p)
        circle = rr * np.column_stack([np.cos(tt), np.sin(tt)])
        u = velocity(p, circle)
        tangent = np.column_stack([-np.sin(tt), np.cos(tt)])
        normal = np.column_stack([np.cos(tt), np.sin(tt)])
        dl = 2.0 * np.pi * rr / n
        circ_clockwise = -float(np.sum((u * tangent).sum(axis=1))) * dl
        flux = float(np.sum((u * normal).sum(axis=1))) * dl
        assert circ_clockwise == pytest.approx(gamma, rel=0.01)
        assert abs(flux) < 1e-6 * p.u_inf * (2.0 * np.pi * rr)


class TestGenerationConfig:
    def test_defaults_match_reference_counts(self):
        cfg = GenerationConfig()
        assert (cfg.n_train, cfg.n_test, cfg.n_ood) == (103, 200, 496)

    def test_overlapping_ood_range_rejected(self):
        with pytest.raises(AirbenchError, match="overlaps"):
            GenerationConfig(u_inf_range=(30, 50), u_inf_range_ood=(45, 60))

    def test_json_roundtrip(self, tmp_path):
        cfg = GenerationConfig(n_train=5, seed=99, ood_camber_range=(0.13, 0.15))
        back = decode(GenerationConfig, json.loads(json.dumps(asdict(cfg))), "config")
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_splitmix_is_documented_mix(self):
        # Reference values of the splitmix64 finalizer stream for seed 0.
        assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
        assert splitmix64(0, 1) == 0x6E789E6AA1B965F4


class TestGenerateBenchmark:
    def test_counts_and_disjoint_ood(self, tmp_path):
        cfg = GenerationConfig(
            n_train=4, n_test=3, n_ood=5, nodes_per_sample=64, seed=21,
            u_inf_range=(30.0, 50.0), u_inf_range_ood=(55.0, 75.0),
        )
        counts = generate_benchmark(cfg, tmp_path / "bench")
        assert counts == {"train": 4, "test": 3, "ood": 5}
        datasets = {name: read_dataset(tmp_path / "bench" / name) for name in counts}
        assert [len(datasets[k].samples) for k in ("train", "test", "ood")] == [4, 3, 5]
        lo, hi = cfg.u_inf_range
        for s in datasets["ood"].samples:
            assert not (lo <= s.meta.u_inf <= hi)
        for s in datasets["train"].samples + datasets["test"].samples:
            assert lo <= s.meta.u_inf <= hi
        for s in datasets["train"].samples:
            assert s.meta.solver_time_s == cfg.solver_time_s

    def test_regeneration_reproduces_digests(self, tmp_path):
        from airbench.io import dataset_digest

        cfg = GenerationConfig(n_train=2, n_test=2, n_ood=2, nodes_per_sample=64, seed=33)
        generate_benchmark(cfg, tmp_path / "a")
        generate_benchmark(cfg, tmp_path / "b")
        for split in ("train", "test", "ood"):
            assert dataset_digest(tmp_path / "a" / split) == dataset_digest(tmp_path / "b" / split)

    def test_default_counts_on_disk(self, tmp_path):
        # Default split sizes at reduced per-sample resolution.
        cfg = GenerationConfig(nodes_per_sample=64, seed=5)
        generate_benchmark(cfg, tmp_path / "bench")
        expected = {"train": 103, "test": 200, "ood": 496}
        for split, count in expected.items():
            files = list((tmp_path / "bench" / split / "samples").glob("*.csv"))
            assert len(files) == count

    def test_ood_geometry_option_changes_ood_only(self):
        base = GenerationConfig(n_train=2, n_test=2, n_ood=2, nodes_per_sample=64, seed=44)
        shifted = GenerationConfig(
            n_train=2, n_test=2, n_ood=2, nodes_per_sample=64, seed=44,
            ood_camber_range=(0.2, 0.25), ood_thickness_range=(0.3, 0.35),
        )
        assert generate_split(base, Split.TRAIN).samples == generate_split(shifted, Split.TRAIN).samples
        assert generate_split(base, Split.OOD_TEST).samples != generate_split(shifted, Split.OOD_TEST).samples

    def test_normalized_chord(self):
        ds = generate_split(TINY_CONFIG, Split.TRAIN)
        for s in ds.samples:
            assert s.meta.chord == pytest.approx(1.0, rel=1e-12)


def _first_sample_of_each_share(cfg: GenerationConfig) -> list[tuple[str, str]]:
    """(split, sample id) of the first sample each worker of `generate_benchmark` writes, by its dealing rule."""
    work = [(split, f"{split}-{i:04d}") for split, n in (("train", cfg.n_train), ("test", cfg.n_test),
                                                        ("ood", cfg.n_ood)) for i in range(n)]
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return work[:min(workers, len(work))]


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestGenerationWorkers:
    """`generate_benchmark` deals the samples to one forked worker per available CPU."""

    CONFIG = GenerationConfig(n_train=3, n_test=2, n_ood=4, nodes_per_sample=64, seed=8)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
    def test_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps(asdict(self.CONFIG)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
        cpu = min(os.sched_getaffinity(0))
        outputs = {}
        for name, preexec in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "airbench.cli", "generate", "--config", str(config), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600, preexec_fn=preexec,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[name] = (proc.stdout, _tree(out))
        assert outputs["one"] == outputs["all"]
        assert len(outputs["all"][1]) == 1 + 3 + 2 * (3 + 2 + 4)  # config, manifests, CSV and sidecar per sample

    @pytest.mark.parametrize("older_bench", [False, True])
    def test_a_failed_worker_leaves_no_manifest(self, tmp_path, capsys, older_bench):
        out = tmp_path / "bench"
        if older_bench:
            generate_benchmark(self.CONFIG, out)
        blocked = []
        for split, sample_id in _first_sample_of_each_share(self.CONFIG):
            path = out / split / "samples" / f"{sample_id}.csv"
            path.unlink(missing_ok=True)
            path.mkdir(parents=True)
            blocked.append(str(path))
        capsys.readouterr()
        config = tmp_path / "gen.json"
        config.write_text(json.dumps(asdict(self.CONFIG)))
        assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("airbench: ") and any(path in err for path in blocked), err
        assert [split for split in ("train", "test", "ood") if (out / split / "manifest.json").exists()] == []
        _assert_no_child_left()
        assert main(["run", "--predictor", "oracle", "--bench", str(out), "--store", str(tmp_path / "lb.jsonl")]) == 2
        assert "missing the 'train' split" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked_share", ["none", "this process", "a forked worker"])
    def test_no_worker_outlives_the_call(self, tmp_path, blocked_share):
        firsts = _first_sample_of_each_share(self.CONFIG)
        if blocked_share == "a forked worker" and len(firsts) < 2:
            pytest.skip("one CPU available: no worker is forked")
        out = tmp_path / "bench"
        if blocked_share != "none":
            split, sample_id = firsts[0 if blocked_share == "this process" else 1]
            (out / split / "samples" / f"{sample_id}.csv").mkdir(parents=True)
            with pytest.raises((AirbenchError, OSError), match=sample_id):
                generate_benchmark(self.CONFIG, out)
        else:
            assert generate_benchmark(self.CONFIG, out) == {"train": 3, "test": 2, "ood": 4}
        _assert_no_child_left()

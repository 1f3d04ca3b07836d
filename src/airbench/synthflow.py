"""Analytic ground truth: incompressible potential flow around Joukowski airfoils.

The airfoil is the image of a circle under the conformal map z = zeta + a^2/zeta.
The circle has center c = mu*a (mu is the dimensionless offset, Re(mu) <= 0 for
thickness, Im(mu) >= 0 for camber) and radius R = |a - c|, so it passes through
zeta = a, whose image z = 2a is the sharp trailing edge. The cylinder-plane
potential is a uniform stream at the angle of attack plus a doublet plus a
vortex whose strength is fixed by the Kutta condition, which makes the mapped
trailing-edge velocity finite. Lift then follows the Kutta-Joukowski theorem
(L' = rho * u_inf * Gamma) and drag is exactly zero, which is what makes this
generator usable as a force oracle.

Sign convention: Gamma > 0 is clockwise circulation, the lift-positive sense,
so C_L = 2*Gamma / (u_inf * chord).

The turbulent-viscosity channel has no potential-flow counterpart; it is a
deterministic smooth surrogate nu_t = 0.41 * d * |u| * exp(-d / (0.5 * chord))
with d the distance to the surface, zero on the surface and decaying far away.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import AirbenchError
from .io import json_digest, write_json, write_manifest, write_samples
from .io import write_dataset  # unused here; perfbench/layers.py patches this name
from .model import Dataset, FieldSet, Sample, SampleMeta, Split

NU_T_KAPPA = 0.41          # prefactor of the viscosity surrogate
NU_T_DECAY = 0.5           # decay length as a fraction of chord
DIST_POLY_N = 4096         # contour polygonization used for distances and chord
DIST_SNAP_FRACTION = 1e-6  # distances below this fraction of chord collapse to 0
SINGULARITY_TOL = 1e-12    # |dz/dzeta| below this is a mapped singularity
INSIDE_TOL = 1e-9          # relative slack when testing "outside the cylinder"
_PIPE_MESSAGE_BYTES = 4096  # a worker's failure message fits the pipe buffer, so its write never blocks
_SIGKILL = 9               # fixed by POSIX; `signal` is not imported for it

# Volume-node placement, all in units of the cylinder radius R.
_VOL_FLOOR = 1e-2          # minimum radial standoff from the cylinder
_VOL_SCALE = 0.75          # exponential decay length of the radial offsets
_VOL_RMAX = 12.0           # truncation of the radial offsets


@dataclass(frozen=True)
class JoukowskiParams:
    """Shape and flow parameters of one analytic case.

    mu is the cylinder-center offset in units of the map parameter `a`;
    the actual center is mu*a.
    """

    mu: complex
    a: float = 1.0
    alpha_rad: float = 0.0
    u_inf: float = 1.0
    rho: float = 1.2

    def __post_init__(self):
        c = self.mu * self.a
        r = abs(self.a - c)
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise AirbenchError(f"map parameter a must be positive, got {self.a}")
        if r <= 0.0:
            raise AirbenchError("degenerate geometry: cylinder radius is zero")
        if self.mu.real > 0.0:
            raise AirbenchError(f"Re(mu) must be <= 0, got {self.mu.real}")
        if abs(c.imag) > r:
            raise AirbenchError("camber offset exceeds cylinder radius")
        if not (self.u_inf > 0.0 and math.isfinite(self.u_inf)):
            raise AirbenchError(f"u_inf must be positive, got {self.u_inf}")
        if not abs(self.alpha_rad) < math.pi / 2:
            raise AirbenchError(f"|alpha| must be < pi/2, got {self.alpha_rad}")
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise AirbenchError(f"rho must be positive, got {self.rho}")

    @property
    def center(self) -> complex:
        return self.mu * self.a

    @property
    def radius(self) -> float:
        return abs(self.a - self.center)

    @property
    def beta_rad(self) -> float:
        """Trailing-edge offset angle; the TE preimage sits at angle -beta."""
        return math.asin(self.center.imag / self.radius)


def circulation_kutta(params: JoukowskiParams) -> float:
    """Circulation (m^2/s, clockwise positive) enforcing the Kutta condition."""
    return 4.0 * math.pi * params.u_inf * params.radius * math.sin(
        params.alpha_rad + params.beta_rad
    )


# Dataset bytes must not depend on which SIMD kernels numpy dispatches to at
# run time. Its vectorized complex multiply (FMA), complex abs, and float
# exp/log1p round differently per dispatch level, so the generator computes
# them only from IEEE-exact real operations (+, -, *, /, sqrt) or scalar libm.


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y from the real and imaginary parts."""
    return _complex(x.real * y.real - x.imag * y.imag, x.real * y.imag + x.imag * y.real)


def _abs2(w: np.ndarray) -> np.ndarray:
    return w.real * w.real + w.imag * w.imag


def _cabs(w: np.ndarray) -> np.ndarray:
    return np.sqrt(_abs2(w))


def _csqrt(w: np.ndarray) -> np.ndarray:
    """Principal square root: t = sqrt((|x| + |w|) / 2), the other part y / (2t)."""
    x, y = w.real, w.imag
    t = np.sqrt(0.5 * (np.abs(x) + _cabs(w)))
    h = 0.5 * y / np.where(t > 0.0, t, 1.0)  # t == 0 only at w == 0, where h is 0
    right = x >= 0.0
    return _complex(np.where(right, t, np.abs(h)), np.where(right, h, np.copysign(t, y)))


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """Apply a scalar `math` function elementwise to a 1-D array."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=len(x))


def _w_prime(params: JoukowskiParams, zeta, gamma: float):
    """Cylinder-plane complex velocity dW/dzeta."""
    zc = zeta - params.center
    u, al, r = params.u_inf, params.alpha_rad, params.radius
    return (
        u * np.exp(-1j * al)
        - u * r * r * np.exp(1j * al) / _cmul(zc, zc)
        + 1j * gamma / (2.0 * np.pi * zc)
    )


def _map_z(zeta, a: float):
    return zeta + a * a / zeta


def _preimage(params: JoukowskiParams, z: np.ndarray) -> np.ndarray:
    """Invert z = zeta + a^2/zeta, picking the root outside the cylinder."""
    a = params.a
    s = _csqrt(_cmul(z, z) - 4.0 * a * a)
    r1 = (z + s) / 2.0
    r2 = (z - s) / 2.0
    c = params.center
    outer = np.where(_abs2(r1 - c) >= _abs2(r2 - c), r1, r2)
    inside = _cabs(outer - c) < params.radius * (1.0 - INSIDE_TOL)
    if np.any(inside):
        bad = z[np.flatnonzero(inside)[0]]
        raise AirbenchError(f"point ({bad.real}, {bad.imag}) lies inside the airfoil")
    return outer


@lru_cache(maxsize=8)
def _contour_cache(mu: complex, a: float) -> tuple[np.ndarray, float]:
    """Dense contour polygon (complex, CCW from the trailing edge) and chord."""
    c = mu * a
    r = abs(a - c)
    beta = math.asin(c.imag / r)
    th = -beta + 2.0 * np.pi * np.arange(DIST_POLY_N) / DIST_POLY_N
    zeta = c + r * np.exp(1j * th)
    z = _map_z(zeta, a)
    chord = float(z.real.max() - z.real.min())
    z.flags.writeable = False
    return z, chord


def chord_length(params: JoukowskiParams) -> float:
    """Chord, measured as the x-extent of the mapped contour."""
    return _contour_cache(params.mu, params.a)[1]


_TOP_BLOCKS = 16  # blocks of the coarsest level; each finer level splits every block in 4


def _chord_distance(aqx, aqy, wx, wy, w2):
    """Distance from aq to the segment from 0 to w (|w|^2 = w2), within 20u(|aq| + |w|)."""
    t = np.clip((aqx * wx + aqy * wy) / w2, 0.0, 1.0)
    dx, dy = aqx - t * wx, aqy - t * wy
    return np.sqrt(dx * dx + dy * dy)


def _block_levels(poly: np.ndarray, l_max: float) -> list[tuple[np.ndarray, ...]]:
    """Blocks of consecutive segments, coarse to fine: len(poly)/16 segments, then /4 down to 4.

    Block b of size B holds segments b*B to b*B + B - 1, and its chord runs
    from vertex b*B to vertex (b+1)*B. A level holds, per block, the chord's
    start (x, y), the chord (x, y, squared length) and h, the largest distance
    from a vertex of the block to the chord: computed within 40u*B*L_max <=
    1.2e-12*L_max, with u = 2^-53, and so rounded up by adding 1e-9*L_max.
    """
    levels = []
    size = len(poly) // _TOP_BLOCKS
    while size >= 4:
        blocks = poly.reshape(-1, size)
        cx, cy = blocks[:, 0].real.copy(), blocks[:, 0].imag.copy()
        wx, wy = np.roll(cx, -1) - cx, np.roll(cy, -1) - cy
        w2 = np.maximum(wx * wx + wy * wy, 1e-300)
        rel = blocks - blocks[:, :1]
        h = _chord_distance(rel.real, rel.imag, wx[:, None], wy[:, None], w2[:, None]).max(axis=1)
        levels.append((cx, cy, wx, wy, w2, h + 1e-9 * l_max))
        size //= 4
    return levels


def _min_distance_to_contour(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Minimum Euclidean distance from each point to the closed polygon.

    Only segments that can hold the minimum are evaluated, found by walking
    the levels of `_block_levels`. A block's vertices lie within h of its
    chord S, and so does every segment of it, since the points within h of S
    make a convex set: none is nearer to q than dist(q, S) - h. The distance U
    from q to the nearest vertex seen so far bounds the minimum from above. So
    a block whose bound exceeds U + slack is dropped, each kept block's 4
    children make the next level, and the segments of the kept blocks of 4 are
    the candidates: about eight per point.

    The slack covers rounding; L is the longest segment. `_chord_distance` is
    within 20u(|q - A| + |S|), where S starts at A and |q - A| <= dist(q, S) +
    |S|; |S| and h are at most 256L, and U is within 3u relative. So a segment
    of a dropped block is exactly at least e >= d + slack - 25u(U + slack) -
    1.8e-12*L >= d + slack/2 away, with d the exact distance to U's vertex. The
    d^2 computed below for a segment starting at vertex a is within
    14u(|q - a| + L)^2 of the exact value; so the segment starting at U's
    vertex computes at most d^2 + 14u(d + L)^2, and the dropped one at least
    e^2 - 14u(e + 2L)^2. The second is the larger once (slack/2)^2 + d*slack >
    56u*d^2 + 225u*L^2 = 6.3e-15*d^2 + 2.5e-14*L^2. The slack used, 1e-10*U +
    1e-5*L, gives 2.5e-11*L^2 + 1e-10*d^2, and adds few candidates.

    The candidates go through the same elementwise IEEE operations, in the
    same order, as a pass over all segments, and the minimum over a set that
    holds every segment that can be the minimum is the minimum over all of
    them. So the result is bit for bit that of the full pass. Rows with a
    non-finite coordinate are NaN, as the full pass makes them. Points go in
    passes of 256, so no array holds more than 256 * len(poly) elements.
    """
    ax, ay = poly.real, poly.imag
    abx, aby = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    ab2 = np.maximum(abx * abx + aby * aby, 1e-300)
    l_max = math.sqrt(ab2.max())
    levels = _block_levels(poly, l_max)
    out = np.full(len(pts), np.nan)
    finite = np.flatnonzero(np.isfinite(pts[:, 0]) & np.isfinite(pts[:, 1]))
    for lo in range(0, len(finite), 256):
        rows = finite[lo : lo + 256]
        qx, qy = pts[rows, 0], pts[rows, 1]
        near = np.full(len(rows), np.inf)
        # (point, block) pairs, sorted by point; a block holding the minimum
        # is never dropped, so every point keeps a pair at every level.
        row = np.repeat(np.arange(len(rows)), _TOP_BLOCKS)
        blk = np.tile(np.arange(_TOP_BLOCKS), len(rows))
        for cx, cy, wx, wy, w2, h in levels:
            aqx, aqy = qx[row] - cx[blk], qy[row] - cy[blk]
            np.minimum.at(near, row, np.sqrt(aqx * aqx + aqy * aqy))
            bound = _chord_distance(aqx, aqy, wx[blk], wy[blk], w2[blk]) - h[blk]
            keep = bound <= (near + 1e-10 * near + 1e-5 * l_max)[row]
            row = np.repeat(row[keep], 4)
            blk = (4 * blk[keep, None] + np.arange(4)).ravel()
        seg = blk  # the children of blocks of 4 are single segments
        aqx = qx[row] - ax[seg]
        aqy = qy[row] - ay[seg]
        sbx, sby, sb2 = abx[seg], aby[seg], ab2[seg]
        s = aqx * sbx
        s += aqy * sby
        t = np.clip(s / sb2, 0.0, 1.0)
        # |aq - t*ab|^2 = |aq|^2 - t*(2*(aq.ab) - t*|ab|^2)
        s *= 2.0
        s -= t * sb2
        s *= t
        aqx *= aqx
        aqx += aqy * aqy
        aqx -= s
        d2 = np.maximum(aqx, 0.0, out=aqx)
        out[rows] = np.sqrt(np.minimum.reduceat(d2, np.flatnonzero(np.diff(row, prepend=-1))))
    return out


def distance_to_surface(params: JoukowskiParams, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the airfoil surface.

    Measured against a fixed dense polygonization of the contour; values
    below a small fraction of the chord collapse to exactly zero so that
    on-surface queries return 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    poly, chord = _contour_cache(params.mu, params.a)
    d = _min_distance_to_contour(poly, pts)
    d[d < DIST_SNAP_FRACTION * chord] = 0.0
    return d


def _velocity_complex(params: JoukowskiParams, pts: np.ndarray) -> np.ndarray:
    z = _complex(pts[:, 0], pts[:, 1])
    gamma = circulation_kutta(params)
    zeta = _preimage(params, z)
    dzdzeta = 1.0 - (params.a * params.a) / _cmul(zeta, zeta)
    small = _cabs(dzdzeta) < SINGULARITY_TOL
    if np.any(small):
        bad = z[np.flatnonzero(small)[0]]
        raise AirbenchError(
            f"point ({bad.real}, {bad.imag}) is too close to a mapped singularity"
        )
    return np.conj(_w_prime(params, zeta, gamma) / dzdzeta)


def truth_at(params: JoukowskiParams, points: np.ndarray, distances: np.ndarray) -> FieldSet:
    """The four truth channels at (M, 2) points outside the airfoil, `distances` from its surface.

    Velocity (m/s), static pressure over density (m^2/s^2, Bernoulli with
    far-field zero) and the turbulent-viscosity surrogate. Raises
    AirbenchError for a point inside the body or at the exact trailing edge,
    where the conformal map degenerates.
    """
    w = _velocity_complex(params, points)
    decay = _libm(math.exp, -distances / (NU_T_DECAY * chord_length(params)))
    return FieldSet(
        u_x=w.real,
        u_y=w.imag,
        p_s=0.5 * (params.u_inf**2 - _abs2(w)),
        nu_t=NU_T_KAPPA * distances * _cabs(w) * decay,
    )


def surface_nodes(params: JoukowskiParams, n_surface: int) -> tuple[np.ndarray, np.ndarray]:
    """Surface node positions and exact outward normals, CCW from the TE.

    The parameter sweep is offset by half a step so the exact trailing-edge
    cusp is never emitted; the two samples adjacent to it take its place.
    """
    c, r, a = params.center, params.radius, params.a
    th = -params.beta_rad + 2.0 * np.pi * (np.arange(n_surface) + 0.5) / n_surface
    e = np.exp(1j * th)
    zeta = c + r * e
    z = _map_z(zeta, a)
    dz_dth = _cmul(1.0 - a * a / _cmul(zeta, zeta), 1j * r * e)
    tangent = dz_dth / _cabs(dz_dth)
    normal = -1j * tangent  # CCW traversal: outward normal is the tangent rotated -90deg
    return (
        np.column_stack([z.real, z.imag]),
        np.column_stack([normal.real, normal.imag]),
    )


def sample_point_cloud(
    params: JoukowskiParams,
    n_nodes: int,
    seed: int,
    *,
    sample_id: str = "sample",
    solver_time_s: float = 1500.0,
) -> Sample:
    """Generate one sample: surface sweep plus a decaying volume cloud.

    ceil(n_nodes/4) nodes trace the contour (uniform parameter sweep with
    exact conformal normals, emitted first and indexed by surface_order); the
    rest are drawn radially around the cylinder preimage with exponentially
    decaying density away from the surface, truncated at a far-field radius.
    Deterministic in (params, n_nodes, seed). By construction no node hits
    the trailing-edge cusp or the body interior, so filling the truth fields
    cannot raise domain or singularity errors.
    """
    if n_nodes < 64:
        raise AirbenchError(f"need at least 64 nodes, got {n_nodes}")
    n_surf = -(-n_nodes // 4)
    n_vol = n_nodes - n_surf

    pos_surf, normals_surf = surface_nodes(params, n_surf)

    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_vol)
    u = rng.random(n_vol)
    span = _VOL_RMAX - _VOL_FLOOR
    offsets = _VOL_FLOOR - _VOL_SCALE * _libm(
        math.log1p, -u * (1.0 - math.exp(-span / _VOL_SCALE))
    )
    zeta_vol = params.center + params.radius * (1.0 + offsets) * np.exp(1j * phi)
    z_vol = _map_z(zeta_vol, params.a)
    pos_vol = np.column_stack([z_vol.real, z_vol.imag])

    positions = np.vstack([pos_surf, pos_vol])
    normals = np.vstack([normals_surf, np.zeros_like(pos_vol)])
    is_surface = np.zeros(n_nodes, dtype=bool)
    is_surface[:n_surf] = True
    distance = np.zeros(n_nodes)
    distance[n_surf:] = distance_to_surface(params, pos_vol)

    fields = truth_at(params, positions, distance)
    u_inf = params.u_inf
    inlet = np.array([u_inf * math.cos(params.alpha_rad), u_inf * math.sin(params.alpha_rad)])
    return Sample(
        id=sample_id,
        positions=positions,
        inlet_velocity=inlet,
        distance=distance,
        normals=normals,
        is_surface=is_surface,
        surface_order=np.arange(n_surf, dtype=np.int64),
        truth_fields=fields,
        meta=SampleMeta(
            alpha_rad=params.alpha_rad,
            u_inf=u_inf,
            chord=chord_length(params),
            rho=params.rho,
            solver_time_s=solver_time_s,
        ),
    )


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, index: int) -> int:
    """The index-th output of a splitmix64 stream seeded with `seed`.

    Used to derive independent per-sample seeds from the master seed, so
    generation is reproducible regardless of how samples are batched.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GenerationConfig:
    """Benchmark generation settings.

    Train and test share the inflow-speed range; the OOD split draws from a
    disjoint range, so generalization is tested on out-of-range inflow. Shape
    ranges control camber (Im mu) and thickness (-Re mu). With
    `normalize_chord` the map parameter is rescaled so every airfoil has unit
    chord. `ood_camber_range`/`ood_thickness_range` optionally shift the OOD
    geometry distribution as well (off by default).
    """

    n_train: int = 103
    n_test: int = 200
    n_ood: int = 496
    nodes_per_sample: int = 1000
    u_inf_range: tuple[float, float] = (30.0, 50.0)
    u_inf_range_ood: tuple[float, float] = (55.0, 75.0)
    alpha_range_rad: tuple[float, float] = (-0.10, 0.18)
    camber_range: tuple[float, float] = (0.02, 0.12)
    thickness_range: tuple[float, float] = (0.06, 0.20)
    ood_camber_range: tuple[float, float] | None = None
    ood_thickness_range: tuple[float, float] | None = None
    seed: int = 0
    rho: float = 1.2
    normalize_chord: bool = True
    solver_time_s: float = 1500.0

    def __post_init__(self):
        for name in ("n_train", "n_test", "n_ood", "nodes_per_sample", "seed"):
            if not isinstance(getattr(self, name), int):
                raise AirbenchError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("n_train", "n_test", "n_ood"):
            if getattr(self, name) < 1:
                raise AirbenchError(f"{name} must be >= 1")
        if self.nodes_per_sample < 64:
            raise AirbenchError("nodes_per_sample must be >= 64")
        for name in (
            "u_inf_range",
            "u_inf_range_ood",
            "alpha_range_rad",
            "camber_range",
            "thickness_range",
        ):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise AirbenchError(f"{name} must be an ordered finite range, got {(lo, hi)}")
        lo, hi = self.u_inf_range
        olo, ohi = self.u_inf_range_ood
        if olo <= hi and lo <= ohi:
            raise AirbenchError(
                f"OOD inflow range {self.u_inf_range_ood} overlaps the training range {self.u_inf_range}"
            )
        if self.u_inf_range[0] <= 0 or self.u_inf_range_ood[0] <= 0:
            raise AirbenchError("inflow speeds must be positive")
        if self.thickness_range[0] <= 0:
            raise AirbenchError("thickness must be positive")
        if self.camber_range[0] < 0:
            raise AirbenchError("camber must be non-negative")
        if max(abs(self.alpha_range_rad[0]), abs(self.alpha_range_rad[1])) >= math.pi / 2:
            raise AirbenchError("angle of attack must satisfy |alpha| < pi/2")
        if not (self.rho > 0 and self.solver_time_s > 0):
            raise AirbenchError("rho and solver_time_s must be positive")

    def digest(self) -> str:
        return json_digest(asdict(self))


_SPLIT_STREAM = {Split.TRAIN: 0, Split.TEST: 1, Split.OOD_TEST: 2}


def _draw_params(config: GenerationConfig, split: Split, rng: np.random.Generator) -> JoukowskiParams:
    if split is Split.OOD_TEST:
        u_range = config.u_inf_range_ood
        camber_range = config.ood_camber_range or config.camber_range
        thickness_range = config.ood_thickness_range or config.thickness_range
    else:
        u_range = config.u_inf_range
        camber_range = config.camber_range
        thickness_range = config.thickness_range
    u_inf = rng.uniform(*u_range)
    alpha = rng.uniform(*config.alpha_range_rad)
    camber = rng.uniform(*camber_range)
    thickness = rng.uniform(*thickness_range)
    mu = complex(-thickness, camber)
    a = 1.0
    if config.normalize_chord:
        a = 1.0 / chord_length(JoukowskiParams(mu=mu, a=1.0, u_inf=u_inf, rho=config.rho))
    return JoukowskiParams(mu=mu, a=a, alpha_rad=alpha, u_inf=u_inf, rho=config.rho)


def _split_counts(config: GenerationConfig) -> dict[Split, int]:
    return {Split.TRAIN: config.n_train, Split.TEST: config.n_test, Split.OOD_TEST: config.n_ood}


def _sample_id(split: Split, index: int) -> str:
    return f"{split.value}-{index:04d}"


def _generate_sample(config: GenerationConfig, split: Split, index: int) -> Sample:
    """The `index`-th sample of `split`, from its own seed: the same bytes whichever process makes it."""
    sample_seed = splitmix64(splitmix64(config.seed, _SPLIT_STREAM[split]), index)
    rng = np.random.default_rng(splitmix64(sample_seed, 0))
    params = _draw_params(config, split, rng)
    return sample_point_cloud(
        params,
        config.nodes_per_sample,
        splitmix64(sample_seed, 1),
        sample_id=_sample_id(split, index),
        solver_time_s=config.solver_time_s,
    )


def generate_split(config: GenerationConfig, split: Split) -> Dataset:
    """Generate one split deterministically from the master seed, in memory."""
    samples = [_generate_sample(config, split, i) for i in range(_split_counts(config)[split])]
    return Dataset(split=split, samples=samples, generation_config_digest=config.digest())


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _worker_exit(job, k: int, pipe: int) -> None:
    """Run ``job(k)`` in a forked child and exit: 0 on success, else 2 for refused input, 1 for any other failure.

    A failure's message goes to `pipe`. The child never returns into its
    parent's code, whatever is raised.
    """
    code = 1
    try:
        try:
            job(k)
            code = 0
        except (AirbenchError, OSError) as e:
            code = 2
            os.write(pipe, str(e).encode()[:_PIPE_MESSAGE_BYTES])
        except BaseException as e:
            os.write(pipe, f"{type(e).__name__}: {e}".encode()[:_PIPE_MESSAGE_BYTES])
    finally:
        os._exit(code)


def _reap(pid: int, pipe: int) -> Exception | None:
    """Wait for the child `pid`; return its failure as an exception, or None if it exited 0."""
    with os.fdopen(pipe, "rb") as fh:
        message = fh.read().decode("utf-8", "replace")
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return None
    if code == 2:
        return AirbenchError(message)
    return RuntimeError(f"generation worker {pid} failed (exit status {code}): {message}")


def _run_in_workers(job, n: int) -> None:
    """Run ``job(0)`` in this process and ``job(1)``, ..., ``job(n - 1)`` each in a forked child.

    Returns once every child has exited; then the first child failure, in
    worker order, is raised here. If ``job(0)`` raises, the children are
    killed and reaped before the exception propagates, so no child outlives
    the call either way.
    """
    children: list[tuple[int, int]] = []
    try:
        for k in range(1, n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                _worker_exit(job, k, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        job(0)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, _SIGKILL)
        for pid, read_end in children:
            _reap(pid, read_end)
        raise
    failures = [_reap(pid, read_end) for pid, read_end in children]
    for failure in failures:
        if failure is not None:
            raise failure


def generate_benchmark(config: GenerationConfig, out_dir: str | Path) -> dict[str, int]:
    """Generate and write the three splits under `out_dir`; return the sample count per split name.

    Layout: ``out_dir/{train,test,ood}`` in the dataset directory format,
    plus a copy of the generation config. The samples of all three splits
    are dealt round-robin to one worker per CPU this process may run on (this
    process and forked children); each worker generates, checks and writes
    its own samples, one at a time, so the bytes do not depend on the number
    of workers. Each split's old manifest is removed first, and the manifests
    and the config are written only after every worker has succeeded, so a
    failed call leaves no split that reads as complete.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = _split_counts(config)
    for split in counts:
        (out_dir / split.value / "manifest.json").unlink(missing_ok=True)
    digest = config.digest()
    work = [(split, i) for split, n in counts.items() for i in range(n)]
    n_workers = min(_available_cpus(), len(work))

    def write_share(k: int) -> None:
        for split, i in work[k::n_workers]:
            sample = _generate_sample(config, split, i)
            write_samples(Dataset(split, [sample], digest), out_dir / split.value)

    _run_in_workers(write_share, n_workers)
    for split, n in counts.items():
        write_manifest(out_dir / split.value, split, digest, [_sample_id(split, i) for i in range(n)])
    write_json(out_dir / "generation_config.json", asdict(config))
    return {split.value: n for split, n in counts.items()}

"""Data model for airfoil flow samples, datasets, and predictions.

A sample is a point cloud over the 2-D flow domain. Per-node inputs are the
node position, distance to the airfoil surface, and surface normal (zero off
the surface); per-node outputs are the two velocity components, the static
pressure divided by density, and a turbulent-viscosity channel. Scalar
conditions (inflow, geometry, reference solver cost) live in the metadata.
All arrays are float64 and frozen after construction so instances can be
shared freely between workers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Split(str, Enum):  # a str, so that JSON writes a split as its value
    TRAIN = "train"
    TEST = "test"
    OOD_TEST = "ood"


# Tolerances used by the data invariants.
UNIT_NORMAL_TOL = 1e-9
SURFACE_DISTANCE_TOL = 1e-12
MIN_CONTOUR_NODES = 8  # the fewest surface nodes the force integral accepts


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.flags.writeable = False
    return arr


def _equal(a, b) -> bool:
    """Arrays by shape, dtype and values (NaN equal to NaN); records field by field; lists item by item."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and a.dtype == b.dtype
            and bool(np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
        )
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_equal, a, b))
    return a == b


class _Record:
    """Equality over the dataclass fields, so a field added to a record is compared too."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)


@dataclass(eq=False)
class FieldSet(_Record):
    """The four output channels of one sample, one value per node.

    u_x, u_y are velocity components (m/s), p_s is pressure divided by
    density (m^2/s^2), nu_t is turbulent kinematic viscosity (m^2/s).
    """

    u_x: np.ndarray
    u_y: np.ndarray
    p_s: np.ndarray
    nu_t: np.ndarray

    def __post_init__(self):
        self.u_x = _freeze(np.asarray(self.u_x, dtype=np.float64))
        self.u_y = _freeze(np.asarray(self.u_y, dtype=np.float64))
        self.p_s = _freeze(np.asarray(self.p_s, dtype=np.float64))
        self.nu_t = _freeze(np.asarray(self.nu_t, dtype=np.float64))

    CHANNELS = ("u_x", "u_y", "p_s", "nu_t")

    def channel(self, name: str) -> np.ndarray:
        if name not in self.CHANNELS:
            raise KeyError(f"unknown field channel {name!r}")
        return getattr(self, name)


@dataclass(eq=False)
class SampleMeta(_Record):
    """Per-sample scalar conditions and bookkeeping."""

    alpha_rad: float
    u_inf: float
    chord: float
    rho: float
    solver_time_s: float


@dataclass(eq=False)
class Sample(_Record):
    """One simulated airfoil case: node cloud, per-node inputs, truth outputs.

    `surface_order` lists the indices of the surface nodes in the order that
    traces the airfoil contour counter-clockwise; the contour closes from the
    last index back to the first.
    """

    id: str
    positions: np.ndarray      # (N, 2) node coordinates, meters
    inlet_velocity: np.ndarray  # (2,) freestream velocity, m/s
    distance: np.ndarray       # (N,) distance to the airfoil surface, meters
    normals: np.ndarray        # (N, 2) outward unit normals, zero off surface
    is_surface: np.ndarray     # (N,) bool
    surface_order: np.ndarray  # (S,) int indices tracing the contour CCW
    truth_fields: FieldSet
    meta: SampleMeta

    def __post_init__(self):
        self.positions = _freeze(np.asarray(self.positions, dtype=np.float64))
        self.inlet_velocity = _freeze(np.asarray(self.inlet_velocity, dtype=np.float64))
        self.distance = _freeze(np.asarray(self.distance, dtype=np.float64))
        self.normals = _freeze(np.asarray(self.normals, dtype=np.float64))
        self.is_surface = _freeze(np.asarray(self.is_surface, dtype=bool))
        self.surface_order = _freeze(np.asarray(self.surface_order, dtype=np.int64))

    @property
    def n_nodes(self) -> int:
        return int(self.positions.shape[0])


@dataclass(eq=False)
class Dataset(_Record):
    split: Split
    samples: list[Sample] = field(default_factory=list)
    generation_config_digest: str = ""

    def sample_ids(self) -> list[str]:
        return [s.id for s in self.samples]


@dataclass(eq=False)
class Prediction(_Record):
    """Predicted output fields for one sample, in the sample's node order.

    Prediction fields are not held to the truth-field invariants: a predictor
    may emit non-finite or negative values and still gets scored (badly)
    rather than crashing the pipeline. Only shape and coverage are enforced.
    """

    sample_id: str
    fields: FieldSet


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


# Candidate edge pairs expanded and tested at once; bounds polygon_is_simple's memory.
_PAIRS_PER_PASS = 1 << 16


def polygon_is_simple(points: np.ndarray) -> bool:
    """True iff the closed polygon through `points` has no self-intersection.

    Consecutive edges share one endpoint by construction; any other contact
    between two edges (crossing, touching, or collinear overlap) makes the
    polygon non-simple. A polygon with fewer than 3 points or a non-finite
    coordinate is not simple.

    Every contact lies inside both edges' closed bounding boxes, so only edge
    pairs whose boxes overlap are tested; a crossing that only rounding in
    the cross products reports, between edges with disjoint boxes, is not
    contact. A sweep over the edges sorted by lowest x pairs each edge with
    the later ones that start inside its x-extent, and those pairs are tested
    in passes of at most `_PAIRS_PER_PASS`. Time O(S log S + K) for S edges
    and K pairs that overlap in x; memory O(S + pass size).
    """
    pts = np.asarray(points, dtype=np.float64)
    s = len(pts)
    if s < 3 or not np.all(np.isfinite(pts)):
        return False
    p1 = pts
    p2 = np.roll(pts, -1, axis=0)
    lo = np.minimum(p1, p2)
    hi = np.maximum(p1, p2)
    order = np.argsort(lo[:, 0], kind="stable")
    y_lo, y_hi = lo[order, 1], hi[order, 1]
    # Sorted edge k overlaps in x exactly the sorted edges k+1 .. end[k]-1; its
    # pairs are numbered before[k] .. through[k]-1, and pair p pairs it with
    # sorted edge p - shift[k].
    end = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    counts = end - np.arange(1, s + 1)
    through = np.cumsum(counts)
    before = through - counts
    shift = through - end
    k0 = 0
    while k0 < s:
        k1 = max(int(np.searchsorted(through, before[k0] + _PAIRS_PER_PASS, side="right")), k0 + 1)
        c = counts[k0:k1]
        m = np.arange(before[k0], through[k1 - 1]) - np.repeat(shift[k0:k1], c)
        keep = (y_lo[m] <= np.repeat(y_hi[k0:k1], c)) & (np.repeat(y_lo[k0:k1], c) <= y_hi[m])
        e, f = np.repeat(order[k0:k1], c)[keep], order[m[keep]]
        k0 = k1
        i, j = np.minimum(e, f), np.maximum(e, f)
        # Consecutive edges (the wrap pair (0, s-1) included) share an endpoint.
        keep = (j - i >= 2) & ((i > 0) | (j < s - 1))
        i, j = i[keep], j[keep]
        a1, a2, b1, b2 = p1[i], p2[i], p1[j], p2[j]
        d1 = _cross(b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1], a1[:, 0], a1[:, 1])
        d2 = _cross(b1[:, 0], b1[:, 1], b2[:, 0], b2[:, 1], a2[:, 0], a2[:, 1])
        d3 = _cross(a1[:, 0], a1[:, 1], a2[:, 0], a2[:, 1], b1[:, 0], b1[:, 1])
        d4 = _cross(a1[:, 0], a1[:, 1], a2[:, 0], a2[:, 1], b2[:, 0], b2[:, 1])
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return False
        # Collinear or endpoint contact: a zero cross product with the point
        # inside the other edge's bounding box counts as contact.
        lo_a, hi_a, lo_b, hi_b = lo[i], hi[i], lo[j], hi[j]
        if (
            np.any((d3 == 0.0) & np.all((b1 >= lo_a) & (b1 <= hi_a), axis=1))
            or np.any((d4 == 0.0) & np.all((b2 >= lo_a) & (b2 <= hi_a), axis=1))
            or np.any((d1 == 0.0) & np.all((a1 >= lo_b) & (a1 <= hi_b), axis=1))
            or np.any((d2 == 0.0) & np.all((a2 >= lo_b) & (a2 <= hi_b), axis=1))
        ):
            return False
    return True


def _validate_fields(fields: FieldSet, n: int) -> list[str]:
    out = []
    for name in FieldSet.CHANNELS:
        arr = fields.channel(name)
        if arr.shape != (n,):
            out.append(f"{name}: length {arr.shape} does not match node count {n}")
            continue
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            out.append(f"{name}: non-finite value at index {bad[0]}")
    nu = fields.nu_t
    if nu.shape == (n,):
        neg = np.flatnonzero(np.isfinite(nu) & (nu < 0.0))
        if neg.size:
            out.append(f"nu_t: negative value at index {neg[0]}")
    return out


def validate_sample(sample: Sample) -> list[str]:
    """Check every sample invariant; return one message per violation.

    An empty list means the sample is well formed. Violations are data, not
    exceptions: each message names the offending field and the broken rule.
    """
    v: list[str] = []
    pos = sample.positions
    if pos.ndim != 2 or pos.shape[1] != 2:
        return [f"positions: expected shape (N, 2), got {pos.shape}"]
    n = pos.shape[0]
    if n < 3:
        v.append(f"positions: need at least 3 nodes, got {n}")
    if not np.all(np.isfinite(pos)):
        v.append("positions: non-finite value")
    if sample.inlet_velocity.shape != (2,):
        v.append(f"inlet_velocity: expected shape (2,), got {sample.inlet_velocity.shape}")
    elif not np.all(np.isfinite(sample.inlet_velocity)):
        v.append("inlet_velocity: non-finite value")

    for name, shape in (("distance", (n,)), ("normals", (n, 2)), ("is_surface", (n,))):
        arr = getattr(sample, name)
        if arr.shape != shape:
            v.append(f"{name}: expected shape {shape}, got {arr.shape}")
    if v:
        return v

    if not np.all(np.isfinite(sample.distance)):
        v.append("distance: non-finite value")
    if not np.all(np.isfinite(sample.normals)):
        v.append("normals: non-finite value")

    surf = sample.is_surface
    norms = np.hypot(sample.normals[:, 0], sample.normals[:, 1])
    bad_unit = np.flatnonzero(surf & (np.abs(norms - 1.0) > UNIT_NORMAL_TOL))
    for i in bad_unit[:5]:
        v.append(f"normals: not unit norm at index {i}")
    bad_zero = np.flatnonzero(~surf & (norms != 0.0))
    for i in bad_zero[:5]:
        v.append(f"normals: nonzero normal at non-surface index {i}")

    d = sample.distance
    bad_surf_d = np.flatnonzero(surf & (np.abs(d) > SURFACE_DISTANCE_TOL))
    for i in bad_surf_d[:5]:
        v.append(f"distance: nonzero at surface index {i}")
    bad_vol_d = np.flatnonzero(~surf & (np.abs(d) <= SURFACE_DISTANCE_TOL))
    for i in bad_vol_d[:5]:
        v.append(f"distance: zero at non-surface index {i}")
    if np.any(d < 0.0):
        v.append("distance: negative value")

    v.extend(_validate_fields(sample.truth_fields, n))

    order = sample.surface_order
    surf_idx = np.flatnonzero(surf)
    if order.ndim != 1:
        v.append(f"surface_order: expected 1-D index list, got shape {order.shape}")
    elif not np.array_equal(np.sort(order), surf_idx):
        v.append("surface_order: does not list each surface node exactly once")
    elif len(order) < MIN_CONTOUR_NODES:
        v.append(f"surface_order: contour needs at least {MIN_CONTOUR_NODES} nodes, got {len(order)}")
    elif not polygon_is_simple(sample.positions[order]):
        v.append("surface_order: contour is not a simple closed polygon")

    if not (np.isfinite(sample.meta.solver_time_s) and sample.meta.solver_time_s > 0):
        v.append(f"meta.solver_time_s: must be positive, got {sample.meta.solver_time_s}")
    for key in ("alpha_rad", "u_inf", "chord", "rho"):
        if not np.isfinite(getattr(sample.meta, key)):
            v.append(f"meta.{key}: non-finite value")
    return v


def validate_dataset(dataset: Dataset) -> list[str]:
    """Dataset-level invariants plus every per-sample violation; a split needs a sample."""
    v = [] if dataset.samples else ["dataset: no samples"]
    ids = dataset.sample_ids()
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        v.append(f"dataset: duplicate sample ids {dupes}")
    for s in dataset.samples:
        v.extend(f"sample {s.id!r}: {msg}" for msg in validate_sample(s))
    return v

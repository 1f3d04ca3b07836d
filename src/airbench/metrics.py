"""Raw criterion values: field errors, force coefficients, rank correlations.

Field errors are pooled over all nodes of all samples in a split (node-count
weighted), not averaged per sample. Forces come from a pressure-only contour
integral over the surface polygon; the same post-treatment is applied to
truth and predicted fields so the comparison is fair. Drag and lift series
across a split feed a mean relative error and a Spearman rank correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DomainError, GeometryError, ShapeError
from .model import Dataset, FieldSet, Prediction, Sample
from .model import polygon_is_simple  # unused here; perfbench/layers.py patches this name

REL_ERR_EPS = 1e-12  # guards division by near-zero true coefficients


def field_error(pred: np.ndarray, truth: np.ndarray, kind: str = "mae") -> float:
    """MAE or RMSE between two equally long vectors."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 1:
        raise ShapeError("need at least one value")
    diff = pred - truth
    if kind == "mae":
        return float(np.mean(np.abs(diff)))
    if kind == "rmse":
        return float(np.sqrt(np.mean(diff * diff)))
    raise ShapeError(f"unknown error kind {kind!r}")


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based); tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    new_group = np.r_[True, sv[1:] != sv[:-1]]
    gid = np.cumsum(new_group) - 1
    counts = np.bincount(gid)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0  # mean of ranks start..end, 1-based
    ranks = np.empty(len(values))
    ranks[order] = avg[gid]
    return ranks


def spearman_with_flag(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Spearman correlation and a degeneracy flag.

    Pearson correlation of fractional ranks; a constant rank vector on either
    side makes the correlation undefined, in which case (0.0, True) is
    returned so constant predictors earn no correlation credit.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 1 or x.size < 2:
        raise DomainError(f"need at least 2 paired values, got shape {x.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return float("nan"), False
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    if denom == 0.0:
        return 0.0, True
    rho = float(np.dot(dx, dy)) / denom
    return min(1.0, max(-1.0, rho)), False


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation in [-1, 1]; 0 for a degenerate constant series."""
    return spearman_with_flag(x, y)[0]


def force_coefficients(sample: Sample, fields: FieldSet) -> tuple[float, float]:
    """Drag and lift coefficients from surface-pressure integration.

    The pressure force on the body is the contour integral of -p_s * n over
    the surface polygon (edge pressure = mean of its endpoint values), scaled
    by rho; coefficients are normalized by the freestream dynamic pressure
    and chord, with drag along the freestream direction and lift
    perpendicular to it. The first contour node's pressure is subtracted
    before integrating: on a closed contour that is analytically a no-op, and
    it makes a uniform pressure field integrate to exactly zero force.

    The sample must satisfy `validate_sample` (as every sample `read_dataset`
    returns does), so its contour is a simple closed polygon; only the
    node-count and repeat checks are made here.
    """
    order = sample.surface_order
    if len(order) < 8:
        raise GeometryError(f"need at least 8 surface nodes, got {len(order)}")
    if len(np.unique(order)) != len(order):
        raise GeometryError("surface contour repeats a node")
    poly = sample.positions[order]

    p = np.asarray(fields.p_s, dtype=np.float64)
    if p.shape != (sample.n_nodes,):
        raise ShapeError(f"p_s has shape {p.shape}, expected ({sample.n_nodes},)")
    ps = p[order] - p[order[0]]
    x, y = poly[:, 0], poly[:, 1]
    dx = np.roll(x, -1) - x
    dy = np.roll(y, -1) - y
    p_edge = 0.5 * (ps + np.roll(ps, -1))
    # Outward normal of a CCW polygon edge times its length is (dy, -dx).
    rho = sample.meta.rho
    fx = float(np.sum(-p_edge * dy)) * rho
    fy = float(np.sum(p_edge * dx)) * rho

    alpha = sample.meta.alpha_rad
    u_inf = sample.meta.u_inf
    q = 0.5 * rho * u_inf * u_inf * sample.meta.chord
    e_inf = (math.cos(alpha), math.sin(alpha))
    c_d = (fx * e_inf[0] + fy * e_inf[1]) / q
    c_l = (-fx * e_inf[1] + fy * e_inf[0]) / q
    return c_d, c_l


@dataclass
class CoefficientSeries:
    """Per-sample true and predicted force coefficients, sorted by sample id."""

    sample_ids: list[str]
    cd_true: np.ndarray
    cd_pred: np.ndarray
    cl_true: np.ndarray
    cl_pred: np.ndarray


def coefficient_series(dataset: Dataset, predictions: list[Prediction]) -> CoefficientSeries:
    """True and predicted coefficients per sample via the same post-treatment."""
    by_id = {p.sample_id: p for p in predictions}
    missing = [s.id for s in dataset.samples if s.id not in by_id]
    if missing:
        raise CoverageError(f"missing predictions for sample ids: {missing}")
    extra = sorted(set(by_id) - {s.id for s in dataset.samples})
    if extra:
        raise CoverageError(f"predictions for unknown sample ids: {extra}")

    ids, cdt, cdp, clt, clp = [], [], [], [], []
    for sample in sorted(dataset.samples, key=lambda s: s.id):
        d_true, l_true = force_coefficients(sample, sample.truth_fields)
        d_pred, l_pred = force_coefficients(sample, by_id[sample.id].fields)
        ids.append(sample.id)
        cdt.append(d_true)
        cdp.append(d_pred)
        clt.append(l_true)
        clp.append(l_pred)
    return CoefficientSeries(
        sample_ids=ids,
        cd_true=np.array(cdt),
        cd_pred=np.array(cdp),
        cl_true=np.array(clt),
        cl_pred=np.array(clp),
    )


def mean_relative_error(pred_series: np.ndarray, true_series: np.ndarray) -> float:
    """Mean over samples of |pred - true| / max(|true|, eps)."""
    pred = np.asarray(pred_series, dtype=np.float64)
    true = np.asarray(true_series, dtype=np.float64)
    if pred.shape != true.shape:
        raise ShapeError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size < 1:
        raise ShapeError("need at least one pair")
    return float(np.mean(np.abs(pred - true) / np.maximum(np.abs(true), REL_ERR_EPS)))


@dataclass(frozen=True)
class FieldCriterion:
    """One field-error criterion: which channel, which metric, which nodes.

    `subset` is "all" (every node) or "surface"; the reported error is
    divided by `normalization` (default 1, i.e. raw units).
    """

    name: str
    channel: str
    kind: str = "mae"
    subset: str = "all"
    normalization: float = 1.0

    def validate(self) -> None:
        if self.channel not in FieldSet.CHANNELS:
            raise ShapeError(f"criterion {self.name!r}: unknown channel {self.channel!r}")
        if self.kind not in ("mae", "rmse"):
            raise ShapeError(f"criterion {self.name!r}: unknown kind {self.kind!r}")
        if self.subset not in ("all", "surface"):
            raise ShapeError(f"criterion {self.name!r}: unknown subset {self.subset!r}")
        if not (self.normalization > 0 and math.isfinite(self.normalization)):
            raise ShapeError(f"criterion {self.name!r}: normalization must be positive")


DEFAULT_FIELD_CRITERIA = (
    FieldCriterion(name="u_x", channel="u_x"),
    FieldCriterion(name="u_y", channel="u_y"),
    FieldCriterion(name="p", channel="p_s", subset="all"),
    FieldCriterion(name="nu_t", channel="nu_t"),
    FieldCriterion(name="p_s", channel="p_s", subset="surface"),
)


@dataclass
class SplitMetrics:
    """All raw criterion values for one dataset split."""

    field_errors: dict[str, float] = field(default_factory=dict)
    c_d_rel_err: float = 0.0
    c_l_rel_err: float = 0.0
    spearman_d: float = 0.0
    spearman_l: float = 0.0
    spearman_d_degenerate: bool = False
    spearman_l_degenerate: bool = False
    total_inference_time_s: float = 0.0
    total_solver_time_s: float = 0.0


def evaluate_split(
    dataset: Dataset,
    predictions: list[Prediction],
    criteria: tuple[FieldCriterion, ...] = DEFAULT_FIELD_CRITERIA,
    total_inference_time_s: float = 0.0,
) -> SplitMetrics:
    """Compute every raw criterion for one split.

    Requires one prediction per sample. Field errors pool nodes over the
    whole split; coefficient statistics run over the per-sample series.
    A series too short for a rank correlation (fewer than 2 samples) is
    flagged degenerate and scored 0. Results do not depend on the order of
    `dataset.samples` or `predictions`.
    """
    for c in criteria:
        c.validate()
    by_id = {p.sample_id: p for p in predictions}
    missing = [s.id for s in dataset.samples if s.id not in by_id]
    if missing:
        raise CoverageError(f"missing predictions for sample ids: {missing}")
    samples = sorted(dataset.samples, key=lambda s: s.id)
    for s in samples:
        f = by_id[s.id].fields
        for ch in FieldSet.CHANNELS:
            if f.channel(ch).shape != (s.n_nodes,):
                raise ShapeError(
                    f"sample {s.id!r}: predicted {ch} has shape {f.channel(ch).shape}, "
                    f"expected ({s.n_nodes},)"
                )

    field_errors = {}
    for crit in criteria:
        masks = [s.is_surface if crit.subset == "surface" else slice(None) for s in samples]
        pred = np.concatenate([by_id[s.id].fields.channel(crit.channel)[m] for s, m in zip(samples, masks)])
        truth = np.concatenate([s.truth_fields.channel(crit.channel)[m] for s, m in zip(samples, masks)])
        err = field_error(pred, truth, crit.kind)
        field_errors[crit.name] = err / crit.normalization

    series = coefficient_series(dataset, predictions)
    if len(series.sample_ids) < 2:
        rho_d, deg_d = 0.0, True
        rho_l, deg_l = 0.0, True
    else:
        rho_d, deg_d = spearman_with_flag(series.cd_true, series.cd_pred)
        rho_l, deg_l = spearman_with_flag(series.cl_true, series.cl_pred)

    return SplitMetrics(
        field_errors=field_errors,
        c_d_rel_err=mean_relative_error(series.cd_pred, series.cd_true),
        c_l_rel_err=mean_relative_error(series.cl_pred, series.cl_true),
        spearman_d=rho_d,
        spearman_l=rho_l,
        spearman_d_degenerate=deg_d,
        spearman_l_degenerate=deg_l,
        total_inference_time_s=total_inference_time_s,
        total_solver_time_s=float(sum(s.meta.solver_time_s for s in samples)),
    )

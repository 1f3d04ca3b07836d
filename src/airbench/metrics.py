"""Raw criterion values: field errors, force coefficients, rank correlations.

Field errors are pooled over all nodes of all samples in a split (node-count
weighted), not averaged per sample. Forces come from a pressure-only contour
integral over the surface polygon; the same post-treatment is applied to
truth and predicted fields so the comparison is fair. Drag and lift series
across a split feed a mean relative error and a Spearman rank correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AirbenchError
from .model import Dataset, FieldSet, Prediction, Sample
from .model import polygon_is_simple  # unused here; perfbench/layers.py patches this name

REL_ERR_EPS = 1e-12  # guards division by near-zero true coefficients
# The field-error criteria: the names of every split's `SplitMetrics.field_errors`.
ML_CRITERIA = ("u_x", "u_y", "p", "nu_t", "p_s")


def field_error(pred: np.ndarray, truth: np.ndarray, kind: str = "mae") -> float:
    """MAE, or RMSE for `kind` "rmse", between two equally long, non-empty float64 vectors."""
    diff = pred - truth
    if kind == "rmse":
        return float(np.sqrt(np.mean(diff * diff)))
    return float(np.mean(np.abs(diff)))


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

    `x` and `y` are equally long float64 series of at least 2 values.
    Pearson correlation of fractional ranks; a constant rank vector on either
    side makes the correlation undefined, in which case (0.0, True) is
    returned so constant predictors earn no correlation credit.
    """
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


def force_coefficients(sample: Sample, fields: FieldSet) -> tuple[float, float]:
    """Drag and lift coefficients from surface-pressure integration.

    The pressure force on the body is the contour integral of -p_s * n over
    the surface polygon (edge pressure = mean of its endpoint values), scaled
    by rho; coefficients are normalized by the freestream dynamic pressure
    and chord, with drag along the freestream direction and lift
    perpendicular to it. The first contour node's pressure is subtracted
    before integrating: on a closed contour that is analytically a no-op, and
    it makes a uniform pressure field integrate to exactly zero force.

    The sample must satisfy `validate_sample` and `fields` must hold one
    value per node (as `read_dataset` and `read_predictions` guarantee), so
    the contour is a simple closed polygon through at least 8 distinct
    nodes; nothing is checked here.
    """
    order = sample.surface_order
    poly = sample.positions[order]

    p = fields.p_s
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


def mean_relative_error(pred_series: np.ndarray, true_series: np.ndarray) -> float:
    """Mean over samples of |pred - true| / max(|true|, eps), for two equally long, non-empty float64 series."""
    return float(np.mean(np.abs(pred_series - true_series) / np.maximum(np.abs(true_series), REL_ERR_EPS)))


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

    def __post_init__(self):
        if self.channel not in FieldSet.CHANNELS:
            raise AirbenchError(f"criterion {self.name!r}: unknown channel {self.channel!r}")
        if self.kind not in ("mae", "rmse"):
            raise AirbenchError(f"criterion {self.name!r}: unknown kind {self.kind!r}")
        if self.subset not in ("all", "surface"):
            raise AirbenchError(f"criterion {self.name!r}: unknown subset {self.subset!r}")
        if not (self.normalization > 0 and math.isfinite(self.normalization)):
            raise AirbenchError(f"criterion {self.name!r}: normalization must be positive")


@dataclass
class SplitMetrics:
    """All raw criterion values for one dataset split; ``metrics.json`` must hold every one."""

    field_errors: dict[str, float]
    c_d_rel_err: float
    c_l_rel_err: float
    spearman_d: float
    spearman_l: float
    spearman_d_degenerate: bool
    spearman_l_degenerate: bool
    total_inference_time_s: float
    total_solver_time_s: float


def total_solver_time_s(dataset: Dataset) -> float:
    """The reference solver time of every sample of `dataset`, summed in sample-id order."""
    return float(sum(s.meta.solver_time_s for s in sorted(dataset.samples, key=lambda s: s.id)))


def evaluate_split(
    dataset: Dataset,
    predictions: list[Prediction],
    criteria: tuple[FieldCriterion, ...],
    total_inference_time_s: float = 0.0,
) -> SplitMetrics:
    """Compute every raw criterion for one split.

    Requires exactly one prediction per sample, each with one value per node
    (as `read_predictions` returns them). Field errors pool nodes over the
    whole split; coefficient statistics run over the per-sample drag and
    lift series. A series too short for a rank correlation (fewer than 2
    samples) is flagged degenerate and scored 0. Results do not depend on
    the order of `dataset.samples` or `predictions`.
    """
    by_id = {p.sample_id: p.fields for p in predictions}
    samples = sorted(dataset.samples, key=lambda s: s.id)
    preds = [by_id[s.id] for s in samples]

    field_errors = {}
    for crit in criteria:
        masks = [s.is_surface if crit.subset == "surface" else slice(None) for s in samples]
        pred = np.concatenate([f.channel(crit.channel)[m] for f, m in zip(preds, masks)])
        truth = np.concatenate([s.truth_fields.channel(crit.channel)[m] for s, m in zip(samples, masks)])
        err = field_error(pred, truth, crit.kind)
        field_errors[crit.name] = err / crit.normalization

    coefficients = [
        (*force_coefficients(s, s.truth_fields), *force_coefficients(s, f)) for s, f in zip(samples, preds)
    ]
    cd_true, cl_true, cd_pred, cl_pred = np.array(coefficients).T
    if len(samples) < 2:
        rho_d, deg_d = 0.0, True
        rho_l, deg_l = 0.0, True
    else:
        rho_d, deg_d = spearman_with_flag(cd_true, cd_pred)
        rho_l, deg_l = spearman_with_flag(cl_true, cl_pred)

    return SplitMetrics(
        field_errors=field_errors,
        c_d_rel_err=mean_relative_error(cd_pred, cd_true),
        c_l_rel_err=mean_relative_error(cl_pred, cl_true),
        spearman_d=rho_d,
        spearman_l=rho_l,
        spearman_d_degenerate=deg_d,
        spearman_l_degenerate=deg_l,
        total_inference_time_s=total_inference_time_s,
        total_solver_time_s=total_solver_time_s(dataset),
    )

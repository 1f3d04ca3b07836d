"""Reference predictors: truth echo, constant channel means, k-NN field transfer.

These anchor the leaderboard: the oracle bounds scores from above, the
constant predictor from below, and the nearest-neighbor surrogate sits in
between and exercises the whole pipeline like a real model would. All three
are registered as builtin predictor names (``oracle``, ``constant``,
``knn:<k>``) and can also run as an external executable (``airbench predict``)
to self-test the file protocol.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import AirbenchError
from .model import Dataset, FieldSet, Sample

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

_FEATURES = 5  # x, y, distance-to-surface, inlet ux, inlet uy

Predict = Callable[[Sample], FieldSet]
Fit = Callable[[Callable[[], Dataset]], Predict]  # takes a loader of the training split


def oracle_predict(sample: Sample) -> FieldSet:
    """Echo the ground-truth fields."""
    return sample.truth_fields


def fit_channel_means(train: Dataset) -> dict[str, float]:
    """Per-channel means pooled over every node of the training split."""
    out = {}
    for ch in FieldSet.CHANNELS:
        pooled = np.concatenate([s.truth_fields.channel(ch) for s in train.samples])
        out[ch] = float(np.mean(pooled))
    return out


def constant_predict(train_stats: dict[str, float], sample: Sample) -> FieldSet:
    """Every node receives the training-split channel mean."""
    n = sample.n_nodes
    return FieldSet(
        u_x=np.full(n, train_stats["u_x"]),
        u_y=np.full(n, train_stats["u_y"]),
        p_s=np.full(n, train_stats["p_s"]),
        nu_t=np.full(n, train_stats["nu_t"]),
    )


def _node_features(sample: Sample) -> np.ndarray:
    feats = np.empty((sample.n_nodes, _FEATURES))
    feats[:, 0:2] = sample.positions
    feats[:, 2] = sample.distance
    feats[:, 3] = sample.inlet_velocity[0]
    feats[:, 4] = sample.inlet_velocity[1]
    return feats


@dataclass
class KnnModel:
    """Training nodes pooled across samples, in normalized feature space."""

    k: int
    scale: np.ndarray        # (5,) per-feature normalization constants
    features: np.ndarray     # (M, 5) scaled training features
    outputs: np.ndarray      # (M, 4) training outputs u_x, u_y, p_s, nu_t
    starts: np.ndarray       # (S,) first row of each training sample
    trees: list[cKDTree]     # (S,) per sample, over the spatial features x, y, distance


def knn_fit(train: Dataset, k: int) -> KnnModel:
    """Pool all training nodes and index them for neighbor queries.

    Features are normalized by their per-feature standard deviation over the
    training pool so positions and velocities contribute on equal footing.
    `k` is at least 1, as `resolve_builtin` requires.
    """
    from scipy.spatial import cKDTree  # here, so only a k-NN fit loads SciPy
    feats = np.vstack([_node_features(s) for s in train.samples])
    outs = np.vstack(
        [
            np.column_stack(
                [s.truth_fields.u_x, s.truth_fields.u_y, s.truth_fields.p_s, s.truth_fields.nu_t]
            )
            for s in train.samples
        ]
    )
    scale = feats.std(axis=0)
    scale[scale == 0.0] = 1.0
    scaled = feats / scale
    bounds = np.cumsum([0] + [s.n_nodes for s in train.samples])
    return KnnModel(
        k=min(k, len(scaled)),
        scale=scale,
        features=scaled,
        outputs=outs,
        starts=bounds[:-1],
        trees=[cKDTree(scaled[a:b, :3]) for a, b in zip(bounds[:-1], bounds[1:])],
    )


def _nearest(model: KnnModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of each query row's k nearest training nodes.

    The same as one cKDTree over all five features returns, at a cost that no
    longer hangs on how far the query's inflow lies from the pool's. A
    sample's velocity term is the same for all its nodes and bounds their
    distances from below, so the samples are searched by ascending term, each
    for its k spatially nearest nodes, until the term exceeds every row's k-th.
    """
    n, k = len(q), model.k
    dv = q[0, 3:] - model.features[model.starts, 3:]  # one inflow per query sample
    bound = dv[:, 0] * dv[:, 0] + dv[:, 1] * dv[:, 1]
    best_s, best_i = np.full((n, k), np.inf), np.full((n, k), -1)
    for j in np.argsort(bound, kind="stable"):
        rows = np.flatnonzero(bound[j] <= best_s[:, -1])
        if len(rows) == 0:
            break
        _, cand = model.trees[j].query(q[rows, :3], k=min(k, model.trees[j].n))
        cand = cand.reshape(len(rows), -1) + model.starts[j]
        d = (q[rows, None, :] - model.features[cand]) ** 2
        # Summed in cKDTree's order, so the distances agree bit for bit.
        s = np.hstack([best_s[rows], (((d[..., 0] + d[..., 1]) + d[..., 2]) + d[..., 3]) + d[..., 4]])
        i = np.hstack([best_i[rows], cand])
        order = np.lexsort((i, s), axis=1)[:, :k]
        best_s[rows], best_i[rows] = np.take_along_axis(s, order, 1), np.take_along_axis(i, order, 1)
    return np.sqrt(best_s), best_i


def knn_predict(model: KnnModel, sample: Sample) -> FieldSet:
    """Inverse-distance-weighted mean of the k nearest training nodes.

    Neighbors are ordered by (distance, training index) so summation order is
    fixed; a query that lands exactly on a training node takes that node's
    outputs verbatim (lowest training index on ties).
    """
    q = _node_features(sample) / model.scale
    dist, idx = _nearest(model, q)
    # Deterministic tie ordering within each neighbor set.
    order = np.lexsort((idx, dist), axis=1)
    dist = np.take_along_axis(dist, order, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)

    # Exact matches get infinite weight; those rows are overwritten below.
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 1.0 / dist
        pred = np.einsum("nk,nkc->nc", w, model.outputs[idx]) / np.sum(w, axis=1)[:, None]
    exact = dist[:, 0] == 0.0
    if np.any(exact):
        pred[exact] = model.outputs[idx[exact, 0]]
    return FieldSet(u_x=pred[:, 0], u_y=pred[:, 1], p_s=pred[:, 2], nu_t=pred[:, 3])


def is_builtin(name: str) -> bool:
    """Whether a predictor name is a builtin's, not an external command."""
    return name in ("oracle", "constant") or name.startswith("knn:")


def resolve_builtin(name: str) -> Fit:
    """Map a builtin predictor name to its fit function; refuse an unknown name or a k below 1.

    The fit function takes a zero-argument loader of the training split and
    returns the per-sample predict function; only a fit that uses the split
    calls the loader. It looks up this module's functions when it runs, not
    before, so a wrapper patched onto the module before a run sees its calls.
    """
    if name == "oracle":
        return lambda load_train: oracle_predict
    if name == "constant":
        return lambda load_train: partial(constant_predict, fit_channel_means(load_train()))
    if name.startswith("knn:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise AirbenchError(f"bad knn predictor name {name!r}, expected knn:<k>") from None
        if k < 1:
            raise AirbenchError(f"k must be >= 1, got {k}")
        return lambda load_train: partial(knn_predict, knn_fit(load_train(), k))
    raise AirbenchError(f"unknown builtin predictor {name!r}")

"""Output checks, computed apart from airbench or from properties the method must have.

Each check returns a list of problems; an empty list means the output passed.
Sample and prediction files are parsed here with numpy, not through
`airbench.io`, so a fault in the program's reader cannot hide a fault in its
writer. The only calls into airbench are the write->read->write round trip,
which is a property of the program's own I/O.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

SPLITS = ("train", "test", "ood")

# Tolerances, each set well above the worst value measured on 144 samples of
# 1000 nodes (250 surface nodes) from twelve master seeds.
BERNOULLI_TOL = 1e-12     # |p_s - (u_inf^2 - |u|^2)/2| / u_inf^2; worst 1.7e-16
IMPERMEABLE_TOL = 1e-10   # |u.n| / u_inf at surface nodes; worst 2.8e-14
KUTTA_REL_TOL = 5e-3      # |C_L(pressure) - C_L(Kutta-Joukowski)| / max(|C_L|, 0.05); worst 8.4e-4
DRAG_TOL = 1e-3           # |C_D| from the pressure integral; worst 3.9e-5
KNN_REL_TOL = 1e-9        # brute-force k-NN against the program's KD-tree prediction
POOLED_REL_TOL = 1e-9     # pooled field errors recomputed from the files


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file under `directory`, by sorted relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_split(split_dir: Path) -> list[dict]:
    """Samples of one split as plain arrays, in manifest order."""
    split_dir = Path(split_dir)
    manifest = json.loads((split_dir / "manifest.json").read_text())
    samples = []
    for entry in manifest["samples"]:
        data = _csv(split_dir / entry["csv"])
        side = json.loads((split_dir / entry["meta"]).read_text())
        samples.append(
            {
                "id": entry["id"],
                "xy": data[:, 0:2],
                "dist": data[:, 2],
                "normal": data[:, 3:5],
                "surface": data[:, 5] != 0.0,
                "fields": data[:, 6:10],  # u_x, u_y, p_s, nu_t
                "order": np.asarray(side["surface_order"], dtype=np.int64),
                "inlet": np.asarray(side["inlet_velocity"], dtype=np.float64),
                **side["meta"],
            }
        )
    return samples


def read_bench(bench_dir: Path) -> dict[str, list[dict]]:
    return {name: read_split(Path(bench_dir) / name) for name in SPLITS}


def _forces(s: dict, p: np.ndarray) -> tuple[float, float]:
    """Pressure drag and lift coefficients, trapezoidal edge pressure on the CCW contour."""
    xy = s["xy"][s["order"]]
    ps = p[s["order"]]
    dx = np.roll(xy[:, 0], -1) - xy[:, 0]
    dy = np.roll(xy[:, 1], -1) - xy[:, 1]
    p_edge = 0.5 * (ps + np.roll(ps, -1))
    fx = -float(np.sum(p_edge * dy)) * s["rho"]
    fy = float(np.sum(p_edge * dx)) * s["rho"]
    a = s["alpha_rad"]
    q = 0.5 * s["rho"] * s["u_inf"] ** 2 * s["chord"]
    return (fx * math.cos(a) + fy * math.sin(a)) / q, (-fx * math.sin(a) + fy * math.cos(a)) / q


def _kutta_joukowski_cl(s: dict) -> float:
    """C_L = 2 Gamma / (u_inf chord), Gamma (clockwise) integrated from the surface velocities."""
    order = s["order"]
    xy = s["xy"][order]
    u = s["fields"][order, 0:2]
    dl = np.roll(xy, -1, axis=0) - xy
    u_edge = 0.5 * (u + np.roll(u, -1, axis=0))
    gamma = -float(np.sum(u_edge * dl))
    return 2.0 * gamma / (s["u_inf"] * s["chord"])


def check_generated_physics(bench: dict[str, list[dict]]) -> list[str]:
    """Properties every analytic sample must have, read from the written files."""
    problems = []
    for split, samples in bench.items():
        for s in samples:
            where = f"{split}/{s['id']}"
            u_inf = s["u_inf"]
            ux, uy, p, nu = s["fields"].T
            surf = s["surface"]
            bern = np.max(np.abs(p - 0.5 * (u_inf**2 - (ux * ux + uy * uy)))) / u_inf**2
            if not bern <= BERNOULLI_TOL:
                problems.append(f"{where}: Bernoulli residual {bern:.3g}")
            normal_flow = np.max(np.abs(ux * s["normal"][:, 0] + uy * s["normal"][:, 1])[surf])
            if not normal_flow <= IMPERMEABLE_TOL * u_inf:
                problems.append(f"{where}: surface normal velocity {normal_flow:.3g}")
            if np.any(s["dist"][surf] != 0.0) or np.any(nu[surf] != 0.0):
                problems.append(f"{where}: distance or nu_t nonzero on the surface")
            if not (np.all(s["dist"][~surf] > 0.0) and np.all(nu[~surf] > 0.0)):
                problems.append(f"{where}: distance or nu_t not positive off the surface")
            if not np.array_equal(np.sort(s["order"]), np.flatnonzero(surf)):
                problems.append(f"{where}: surface_order does not list the surface nodes")
                continue
            c_d, c_l = _forces(s, p)
            c_l_kj = _kutta_joukowski_cl(s)
            if not abs(c_l - c_l_kj) <= KUTTA_REL_TOL * max(abs(c_l_kj), 0.05):
                problems.append(f"{where}: C_L {c_l:.6g} against Kutta-Joukowski {c_l_kj:.6g}")
            if not abs(c_d) <= DRAG_TOL:
                problems.append(f"{where}: |C_D| {abs(c_d):.3g} above quadrature level")
    return problems


def check_roundtrip(bench_dir: Path, scratch: Path) -> list[str]:
    """Reading each split with airbench and writing it again gives the same bytes."""
    from airbench.io import read_dataset, write_dataset

    problems = []
    for name in SPLITS:
        write_dataset(read_dataset(Path(bench_dir) / name), Path(scratch) / name)
        if tree_digest(Path(bench_dir) / name) != tree_digest(Path(scratch) / name):
            problems.append(f"{name}: write->read->write changed the bytes")
    return problems


def _read_predictions(run_dir: Path, split: str, samples: list[dict]) -> dict[str, np.ndarray]:
    return {s["id"]: _csv(Path(run_dir) / "pred" / split / f"{s['id']}.csv") for s in samples}


def check_speedups(run_dir: Path, bench: dict[str, list[dict]]) -> list[str]:
    """Each category's speed-up is the split's summed solver time over the recorded inference time."""
    metrics = json.loads((Path(run_dir) / "metrics.json").read_text())
    report = json.loads((Path(run_dir) / "score_report.json").read_text())
    problems = []
    for split, category in (("test", "ml"), ("ood", "ood")):
        solver = sum(s["solver_time_s"] for s in sorted(bench[split], key=lambda s: s["id"]))
        expected = solver / metrics[split]["total_inference_time_s"]
        if report[category]["speedup"] != expected:
            problems.append(f"{category}: speed-up {report[category]['speedup']} != {expected}")
    return problems


def check_accuracies(run_dir: Path) -> list[str]:
    """Each category's accuracy is (2 N_G + N_A) / (2 N) over its classification markers."""
    report = json.loads((Path(run_dir) / "score_report.json").read_text())
    problems = []
    for category in ("ml", "ood", "physics"):
        marks = [c["classification"] for c in report[category]["criteria"]]
        expected = (2 * marks.count(2) + marks.count(1)) / (2 * len(marks))
        if report[category]["accuracy"] != expected:
            problems.append(f"{category}: accuracy {report[category]['accuracy']} != {expected}")
    return problems


def check_oracle_run(run_dir: Path, bench: dict[str, list[dict]]) -> list[str]:
    """The truth echo scores zero error and full accuracy everywhere."""
    metrics = json.loads((Path(run_dir) / "metrics.json").read_text())
    report = json.loads((Path(run_dir) / "score_report.json").read_text())
    problems = []
    for split in ("test", "ood"):
        m = metrics[split]
        errors = dict(m["field_errors"], C_D=m["c_d_rel_err"], C_L=m["c_l_rel_err"])
        problems += [f"{split}: {k} error {v}" for k, v in sorted(errors.items()) if v != 0.0]
    for category in ("ml", "ood", "physics"):
        if report[category]["accuracy"] != 1.0:
            problems.append(f"{category}: accuracy {report[category]['accuracy']}")
    return problems + check_speedups(run_dir, bench) + check_accuracies(run_dir)


def knn_features(s: dict) -> np.ndarray:
    """x, y, distance to the surface, inlet u_x, inlet u_y per node."""
    n = len(s["dist"])
    return np.column_stack([s["xy"], s["dist"], np.full(n, s["inlet"][0]), np.full(n, s["inlet"][1])])


def knn_reference(
    train: list[dict], queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force k-NN with inverse-distance weights over the pooled training nodes.

    Features are scaled by their standard deviation over the pool. Returns the
    predictions (n, 4) and a mask of queries whose k-th and (k+1)-th
    neighbours tie to rounding, where the neighbour set is not defined.
    """
    feats = np.vstack([knn_features(s) for s in train])
    outs = np.vstack([s["fields"] for s in train])
    scale = feats.std(axis=0)
    scale[scale == 0.0] = 1.0
    pool = feats / scale
    q = queries / scale
    d = np.sqrt(((q[:, None, :] - pool[None, :, :]) ** 2).sum(axis=2))
    nearest = np.argsort(d, axis=1, kind="stable")[:, : k + 1]
    dk = np.take_along_axis(d, nearest, axis=1)
    tied = np.abs(dk[:, k] - dk[:, k - 1]) <= 1e-12 * dk[:, k] if dk.shape[1] > k else np.zeros(len(q), bool)
    dk, idx = dk[:, :k], nearest[:, :k]
    pred = np.empty((len(q), 4))
    for row in range(len(q)):
        if dk[row, 0] == 0.0:
            pred[row] = outs[idx[row, 0]]
        else:
            w = 1.0 / dk[row]
            pred[row] = w @ outs[idx[row]] / w.sum()
    return pred, tied


def check_knn_predictions(
    run_dir: Path, bench: dict[str, list[dict]], k: int, nodes_per_sample: int, rng: np.random.Generator
) -> list[str]:
    """Predictions on randomly drawn nodes of test and OOD equal a brute-force k-NN."""
    problems = []
    for split in ("test", "ood"):
        preds = _read_predictions(run_dir, split, bench[split])
        for s in bench[split]:
            nodes = rng.choice(len(s["dist"]), size=nodes_per_sample, replace=False)
            expected, tied = knn_reference(bench["train"], knn_features(s)[nodes], k)
            got = preds[s["id"]][nodes]
            scale = np.max(np.abs(s["fields"]), axis=0)
            bad = ~tied & np.any(np.abs(got - expected) > KNN_REL_TOL * scale, axis=1)
            if np.any(bad):
                problems.append(f"{split}/{s['id']}: node {nodes[np.argmax(bad)]} differs from brute-force k-NN")
    return problems


def pooled_errors(bench: dict[str, list[dict]], preds: dict[str, dict[str, np.ndarray]], criteria: list[dict]) -> dict:
    """Node-pooled field errors per split, from the sample and prediction files."""
    column = {"u_x": 0, "u_y": 1, "p_s": 2, "nu_t": 3}
    out = {}
    for split in ("test", "ood"):
        errors = {}
        for c in criteria:
            diffs = []
            for s in bench[split]:
                j = column[c["channel"]]
                diff = preds[split][s["id"]][:, j] - s["fields"][:, j]
                diffs.append(diff[s["surface"]] if c["subset"] == "surface" else diff)
            pooled = np.concatenate(diffs)
            err = np.mean(np.abs(pooled)) if c["kind"] == "mae" else np.sqrt(np.mean(pooled**2))
            errors[c["name"]] = float(err) / c["normalization"]
        out[split] = errors
    return out


def check_pooled_errors(run_dir: Path, bench: dict[str, list[dict]], criteria: list[dict]) -> list[str]:
    """Pooled errors in metrics.json match those recomputed from the files."""
    metrics = json.loads((Path(run_dir) / "metrics.json").read_text())
    preds = {split: _read_predictions(run_dir, split, bench[split]) for split in ("test", "ood")}
    problems = []
    for split, errors in pooled_errors(bench, preds, criteria).items():
        for name, value in errors.items():
            got = metrics[split]["field_errors"][name]
            if not math.isclose(got, value, rel_tol=POOLED_REL_TOL, abs_tol=0.0):
                problems.append(f"{split}: pooled {name} error {got} != recomputed {value}")
    return problems


def shipped_field_criteria(src_dir: Path) -> list[dict]:
    """Field criteria of the default scoring config, read from the package's data file."""
    path = Path(src_dir) / "airbench" / "data" / "default_scoring.json"
    return json.loads(path.read_text())["field_criteria"]


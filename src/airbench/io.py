"""On-disk formats for datasets and predictions.

Dataset directory layout::

    <dir>/manifest.json            split name, sample ids + file names, config digest
    <dir>/samples/<id>.csv         header x,y,dist,nx,ny,is_surf,u_x,u_y,p_s,nu_t
    <dir>/samples/<id>.meta.json   surface_order, inlet_velocity, scalar metadata

Prediction directory: one ``<id>.csv`` per sample with header
``u_x,u_y,p_s,nu_t`` and rows in the sample's node order.

Serialization is canonical: floats are written with 17 significant digits
(exact float64 round-trip), JSON keys are sorted, so writing the same dataset
twice yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .errors import CoverageError, FormatError, ShapeError, ValidationError
from .model import (
    Dataset,
    FieldSet,
    Prediction,
    Sample,
    SampleMeta,
    Split,
    validate_dataset,
)

SAMPLE_CSV_HEADER = "x,y,dist,nx,ny,is_surf,u_x,u_y,p_s,nu_t"
PRED_CSV_HEADER = "u_x,u_y,p_s,nu_t"
_FLOAT_FMT = "%.17g"


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sample_csv_text(sample: Sample) -> str:
    cols = [
        sample.positions[:, 0],
        sample.positions[:, 1],
        sample.distance,
        sample.normals[:, 0],
        sample.normals[:, 1],
        sample.is_surface.astype(np.int64),
        sample.truth_fields.u_x,
        sample.truth_fields.u_y,
        sample.truth_fields.p_s,
        sample.truth_fields.nu_t,
    ]
    lines = [SAMPLE_CSV_HEADER]
    for row in zip(*cols):
        parts = []
        for j, val in enumerate(row):
            parts.append(str(int(val)) if j == 5 else _fmt(val))
        lines.append(",".join(parts))
    return "\n".join(lines) + "\n"


def _sample_meta_json(sample: Sample) -> str:
    m = sample.meta
    return _canonical_json(
        {
            "surface_order": [int(i) for i in sample.surface_order],
            "inlet_velocity": [float(sample.inlet_velocity[0]), float(sample.inlet_velocity[1])],
            "meta": {
                "alpha_rad": m.alpha_rad,
                "u_inf": m.u_inf,
                "chord": m.chord,
                "rho": m.rho,
                "solver_time_s": m.solver_time_s,
            },
        }
    )


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write a dataset in the canonical directory format.

    Validates every invariant first and raises ValidationError before
    touching the filesystem if anything is off.
    """
    violations = validate_dataset(dataset)
    if violations:
        raise ValidationError("; ".join(violations[:10]))
    directory = Path(directory)
    samples_dir = directory / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for sample in dataset.samples:
        csv_name = f"samples/{sample.id}.csv"
        meta_name = f"samples/{sample.id}.meta.json"
        (directory / csv_name).write_text(_sample_csv_text(sample), encoding="utf-8")
        (directory / meta_name).write_text(_sample_meta_json(sample), encoding="utf-8")
        entries.append({"id": sample.id, "csv": csv_name, "meta": meta_name})

    manifest = {
        "split": dataset.split.value,
        "generation_config_digest": dataset.generation_config_digest,
        "samples": entries,
    }
    (directory / "manifest.json").write_text(_canonical_json(manifest), encoding="utf-8")


def _load_json(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"missing file: {path}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}: {e.msg}") from None


def _parse_sample_csv(path: Path) -> np.ndarray:
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != SAMPLE_CSV_HEADER:
                raise FormatError(f"{path}:1: bad header {header!r}")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as e:
                raise FormatError(f"{path}: {e}") from None
    except FileNotFoundError:
        raise FormatError(f"missing sample file: {path}") from None
    if data.size and data.shape[1] != 10:
        raise FormatError(f"{path}: expected 10 columns, got {data.shape[1]}")
    return data


def _entry_paths(directory: Path, entry: dict) -> list[Path]:
    """The csv and meta paths a manifest entry names; each must lie inside `directory`."""
    paths = []
    for key in ("csv", "meta"):
        name = entry.get(key)
        if not isinstance(name, str):
            raise FormatError(f"{directory}: manifest entry {entry.get('id')!r} lacks a {key!r} path")
        if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == "..":
            raise FormatError(f"{directory}: {key} path {name!r} of {entry.get('id')!r} leaves the directory")
        paths.append(directory / name)
    return paths


def read_dataset(directory: str | Path) -> Dataset:
    """Read a dataset directory; the result satisfies every type invariant.

    Raises FormatError for missing or malformed files and ValidationError
    (naming the sample id and field) for invariant violations.
    """
    directory = Path(directory)
    manifest = _load_json(directory / "manifest.json")
    for key in ("split", "generation_config_digest", "samples"):
        if key not in manifest:
            raise FormatError(f"{directory / 'manifest.json'}: missing key {key!r}")
    try:
        split = Split(manifest["split"])
    except ValueError:
        raise FormatError(
            f"{directory / 'manifest.json'}: unknown split {manifest['split']!r}"
        ) from None

    samples = []
    for entry in manifest["samples"]:
        sid = entry.get("id")
        csv_path, meta_path = _entry_paths(directory, entry)
        if not csv_path.exists():
            raise FormatError(f"manifest references missing sample file for id {sid!r}")
        data = _parse_sample_csv(csv_path)
        sidecar = _load_json(meta_path)
        meta = sidecar["meta"]
        sample = Sample(
            id=sid,
            positions=data[:, 0:2],
            inlet_velocity=np.asarray(sidecar["inlet_velocity"], dtype=np.float64),
            distance=data[:, 2],
            normals=data[:, 3:5],
            is_surface=data[:, 5] != 0.0,
            surface_order=np.asarray(sidecar["surface_order"], dtype=np.int64),
            truth_fields=FieldSet(
                u_x=data[:, 6], u_y=data[:, 7], p_s=data[:, 8], nu_t=data[:, 9]
            ),
            meta=SampleMeta(
                alpha_rad=float(meta["alpha_rad"]),
                u_inf=float(meta["u_inf"]),
                chord=float(meta["chord"]),
                rho=float(meta["rho"]),
                solver_time_s=float(meta["solver_time_s"]),
            ),
        )
        samples.append(sample)

    dataset = Dataset(
        split=split,
        samples=samples,
        generation_config_digest=manifest["generation_config_digest"],
    )
    violations = validate_dataset(dataset)
    if violations:
        raise ValidationError("; ".join(violations[:10]))
    return dataset


def write_predictions(predictions: list[Prediction], pred_dir: str | Path) -> None:
    """Write one ``<id>.csv`` per prediction into `pred_dir`."""
    pred_dir = Path(pred_dir)
    pred_dir.mkdir(parents=True, exist_ok=True)
    for pred in predictions:
        f = pred.fields
        lines = [PRED_CSV_HEADER]
        for row in zip(f.u_x, f.u_y, f.p_s, f.nu_t):
            lines.append(",".join(_fmt(v) for v in row))
        (pred_dir / f"{pred.sample_id}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_predictions(
    pred_dir: str | Path, dataset: Dataset, inference_time_s: float = 0.0
) -> list[Prediction]:
    """Read predictions for every sample of `dataset`, enforcing coverage.

    Missing files raise CoverageError naming the sample ids; a row-count or
    column mismatch raises ShapeError naming the sample. Values are not
    required to be finite (bad predictions are scored, not rejected).
    """
    pred_dir = Path(pred_dir)
    missing = [s.id for s in dataset.samples if not (pred_dir / f"{s.id}.csv").exists()]
    if missing:
        raise CoverageError(f"missing prediction files for sample ids: {missing}")

    predictions = []
    for sample in dataset.samples:
        path = pred_dir / f"{sample.id}.csv"
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != PRED_CSV_HEADER:
                raise FormatError(f"{path}:1: bad header {header!r}")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as e:
                raise FormatError(f"{path}: {e}") from None
        if data.size == 0:
            data = data.reshape(0, 4)
        if data.shape[1] != 4:
            raise ShapeError(f"sample {sample.id!r}: expected 4 prediction columns, got {data.shape[1]}")
        if data.shape[0] != sample.n_nodes:
            raise ShapeError(
                f"sample {sample.id!r}: prediction has {data.shape[0]} rows, expected {sample.n_nodes}"
            )
        predictions.append(
            Prediction(
                sample_id=sample.id,
                fields=FieldSet(u_x=data[:, 0], u_y=data[:, 1], p_s=data[:, 2], nu_t=data[:, 3]),
                inference_time_s=inference_time_s,
            )
        )
    return predictions


def dataset_digest(directory: str | Path) -> str:
    """SHA-256 over the manifest and all sample files, in manifest order."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    h = hashlib.sha256()
    h.update(manifest_path.read_bytes())
    manifest = _load_json(manifest_path)
    for entry in manifest["samples"]:
        for path in _entry_paths(directory, entry):
            h.update(path.read_bytes())
    return h.hexdigest()

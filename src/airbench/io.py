"""On-disk formats: JSON records, datasets, predictions and metrics.

Dataset directory layout::

    <dir>/manifest.json            a Manifest: split name, sample ids + file names, config digest
    <dir>/samples/<id>.csv         header x,y,dist,nx,ny,is_surf,u_x,u_y,p_s,nu_t
    <dir>/samples/<id>.meta.json   a SampleSidecar: surface_order, inlet_velocity, scalar metadata

Prediction directory: one ``<id>.csv`` per sample with header
``u_x,u_y,p_s,nu_t`` and rows in the sample's node order.

Every JSON file is a record: it is written as ``asdict(record)`` and read
back through `decode`. Serialization is canonical: floats are written with
17 significant digits (exact float64 round-trip), JSON keys are sorted, so
writing the same dataset twice yields byte-identical files.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import re
import reprlib
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import AirbenchError, FormatError
from .metrics import ML_CRITERIA, SplitMetrics, compute_speedup
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
_SAMPLE_ROW = ",".join([_FLOAT_FMT] * 5 + ["%d"] + [_FLOAT_FMT] * 4) + "\n"
_PRED_ROW = ",".join([_FLOAT_FMT] * 4) + "\n"
# The JSON types each scalar type accepts; a JSON integer is taken as a float.
_SCALARS = {float: {int, float}, int: {int}, bool: {bool}, str: {str}}


def _csv_text(header: str, columns: list[np.ndarray], row_format: str) -> str:
    """`header`, then one `row_format` line per row of `columns`, formatted with one `%`."""
    block = np.column_stack(columns)
    return header + "\n" + (row_format * len(block)) % tuple(block.ravel().tolist())


def write_json(path: str | Path, obj) -> None:
    """Write `obj` as canonical JSON: sorted keys, two-space indent, trailing newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _read_bytes(path: str | Path) -> bytes:
    """A file's bytes; a missing or unreadable file raises FormatError naming it."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise FormatError(f"missing file: {path}") from None
    except OSError as e:
        raise FormatError(f"{path}: {e.strerror}") from None


def read_json(path: str | Path):
    """Parse a JSON file; a missing, unreadable, non-UTF-8 or invalid file raises FormatError naming it."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 (byte {e.start}: {e.reason})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}:{e.lineno}: {e.msg}") from None


class _Refused(Exception):
    """A JSON value `decode` refuses, with the field path it sits at."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)


@functools.cache
def _field_types(cls) -> dict[str, tuple[object, bool]]:
    """Each init field of the record `cls`: its resolved type and whether it has a default."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is not MISSING or f.default_factory is not MISSING)
        for f in fields(cls)
        if f.init
    }


def _decode(tp, value, path: str):
    if tp in _SCALARS:
        if type(value) in _SCALARS[tp]:
            try:
                return tp(value)
            except OverflowError:
                raise _Refused(path, f"{reprlib.repr(value)} is too large for a float") from None
    elif is_dataclass(tp):
        if not isinstance(value, dict):
            raise _Refused(path, f"expected an object, got {reprlib.repr(value)}")
        declared = _field_types(tp)
        for key in value:
            if key not in declared:
                raise _Refused(path, f"unknown key {key!r}")
        kwargs = {}
        for name, (ftype, has_default) in declared.items():
            if name in value:
                kwargs[name] = _decode(ftype, value[name], f"{path}.{name}" if path else name)
            elif not has_default:
                raise _Refused(path, f"missing key {name!r}")
        try:
            return tp(**kwargs)
        except AirbenchError as e:
            raise _Refused(path, str(e)) from None
    elif isinstance(tp, type) and issubclass(tp, Enum):
        for member in tp:
            if type(member.value) is type(value) and member.value == value:
                return member
    else:
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin in (types.UnionType, typing.Union) and type(None) in args:
            if value is None:
                return None
            (inner,) = [a for a in args if a is not type(None)]
            return _decode(inner, value, path)
        if origin is dict and isinstance(value, dict):
            return {k: _decode(args[1], v, f"{path}.{k}" if path else k) for k, v in value.items()}
        if origin in (list, tuple) and isinstance(value, list):
            if origin is list or args[1:] == (...,):
                accepted = _SCALARS.get(args[0])
                if accepted is not None and all(type(v) in accepted for v in value):
                    with contextlib.suppress(OverflowError):  # else the per-item path below names the index
                        items = list(map(args[0], value))
                        return items if origin is list else tuple(items)
                args = args[:1] * len(value)
            if len(args) == len(value):
                items = [_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value))]
                return items if origin is list else tuple(items)
    name = tp.__name__ if isinstance(tp, type) else re.sub(r"[\w.]+\.", "", str(tp))
    raise _Refused(path, f"expected {name}, got {reprlib.repr(value)}")


def decode(tp, value, source: str | Path):
    """Build a value of type `tp` from parsed JSON, checking it against the declared types.

    `tp` is a dataclass record or a type built from records, enums (by
    value), ``float``, ``int``, ``bool``, ``str``, ``X | None``,
    ``dict[str, X]``, ``list[X]`` and tuples (fixed length or ``tuple[X, ...]``,
    from JSON lists). A JSON integer is taken as a float; a bool is never a
    number. A record's key may be left out only where its field has a
    default, and a record that refuses its values on construction is refused
    too. Anything else raises FormatError naming `source` and the field path.
    """
    try:
        return _decode(tp, value, "")
    except _Refused as e:
        raise FormatError(f"{source}: {e}") from None


def json_digest(obj) -> str:
    """SHA-256 of the compact canonical JSON of `obj`."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ManifestEntry:
    """One sample of a manifest: its id and the paths of its files, relative to the dataset directory."""

    id: str
    csv: str
    meta: str

    def __post_init__(self):
        if self.id in (".", "..") or "/" in self.id or os.sep in self.id:
            raise FormatError(f"id {self.id!r} is not a plain file name")
        for key in ("csv", "meta"):
            name = getattr(self, key)
            if os.path.isabs(name) or os.path.normpath(name).split(os.sep)[0] == "..":
                raise FormatError(f"{key} path {name!r} of {self.id!r} leaves the directory")


@dataclass
class Manifest:
    """``manifest.json``: the split, the digest of the config that generated it, and its samples in order."""

    split: Split
    generation_config_digest: str
    samples: list[ManifestEntry]


@dataclass
class SampleSidecar:
    """``<id>.meta.json``: the values of a sample that are not per node."""

    surface_order: list[int]
    inlet_velocity: tuple[float, float]
    meta: SampleMeta

    def __post_init__(self):
        if self.surface_order and not 0 <= min(self.surface_order) <= max(self.surface_order) < 2**63:
            raise FormatError("surface_order: an index lies outside [0, 2**63)")


@dataclass
class RunMetrics:
    """``metrics.json``: the raw metrics of the two scored splits, each with a field error per ML criterion."""

    test: SplitMetrics
    ood: SplitMetrics

    def __post_init__(self):
        for split in ("test", "ood"):
            metrics = getattr(self, split)
            names = sorted(metrics.field_errors)
            if names != sorted(ML_CRITERIA):
                raise FormatError(f"{split}.field_errors: expected the keys {sorted(ML_CRITERIA)}, got {names}")
            try:
                compute_speedup(metrics.total_solver_time_s, metrics.total_inference_time_s)
            except AirbenchError as e:
                raise FormatError(f"{split}: {e}") from None


def _sample_csv_text(sample: Sample) -> str:
    columns = [
        sample.positions[:, 0],
        sample.positions[:, 1],
        sample.distance,
        sample.normals[:, 0],
        sample.normals[:, 1],
        sample.is_surface,
        sample.truth_fields.u_x,
        sample.truth_fields.u_y,
        sample.truth_fields.p_s,
        sample.truth_fields.nu_t,
    ]
    return _csv_text(SAMPLE_CSV_HEADER, columns, _SAMPLE_ROW)


def write_samples(dataset: Dataset, directory: str | Path) -> None:
    """Write each sample's CSV and sidecar under ``directory/samples``, but no manifest.

    Validates every invariant first and raises AirbenchError before
    touching the filesystem if anything is off.
    """
    violations = validate_dataset(dataset)
    if violations:
        raise AirbenchError("; ".join(violations[:10]))
    samples_dir = Path(directory) / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    for sample in dataset.samples:
        (samples_dir / f"{sample.id}.csv").write_text(_sample_csv_text(sample), encoding="utf-8")
        sidecar = SampleSidecar(sample.surface_order.tolist(), tuple(sample.inlet_velocity.tolist()), sample.meta)
        write_json(samples_dir / f"{sample.id}.meta.json", asdict(sidecar))


def write_manifest(directory: str | Path, split: Split, generation_config_digest: str, ids: list[str]) -> None:
    """Write ``directory/manifest.json`` listing the samples `ids`, in order, as `write_samples` names their files."""
    entries = [ManifestEntry(id=i, csv=f"samples/{i}.csv", meta=f"samples/{i}.meta.json") for i in ids]
    manifest = Manifest(split=split, generation_config_digest=generation_config_digest, samples=entries)
    write_json(Path(directory) / "manifest.json", asdict(manifest))


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write a dataset in the canonical directory format: validate, write each sample, then the manifest."""
    write_samples(dataset, directory)
    write_manifest(directory, dataset.split, dataset.generation_config_digest, dataset.sample_ids())


def _read_csv(path: Path, header: str) -> np.ndarray:
    """The rows under `header` as a 2-D float array; a wrong header, a bad row or a non-UTF-8 byte raises FormatError."""
    with path.open("r", encoding="utf-8") as fh:
        try:
            found = fh.readline().rstrip("\n")
            if found != header:
                raise FormatError(f"{path}:1: bad header {found!r}")
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: not UTF-8 ({e.reason})") from None
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from None


def read_manifest(directory: str | Path) -> Manifest:
    """Decode ``directory/manifest.json``; a missing or malformed one raises FormatError naming it."""
    path = Path(directory) / "manifest.json"
    return decode(Manifest, read_json(path), path)


def read_dataset(directory: str | Path) -> Dataset:
    """Read a dataset directory; the result satisfies every type invariant.

    Raises FormatError naming the file for a missing or malformed file, and
    naming the directory, the sample id and the field for a violated invariant.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    samples = []
    for entry in manifest.samples:
        csv_path, meta_path = directory / entry.csv, directory / entry.meta
        if not csv_path.is_file():
            raise FormatError(f"missing sample file for id {entry.id!r}: {csv_path}")
        data = _read_csv(csv_path, SAMPLE_CSV_HEADER)
        if data.size and data.shape[1] != 10:
            raise FormatError(f"{csv_path}: expected 10 columns, got {data.shape[1]}")
        sidecar = decode(SampleSidecar, read_json(meta_path), meta_path)
        samples.append(Sample(
            id=entry.id,
            positions=data[:, 0:2],
            inlet_velocity=sidecar.inlet_velocity,
            distance=data[:, 2],
            normals=data[:, 3:5],
            is_surface=data[:, 5] != 0.0,
            surface_order=sidecar.surface_order,
            truth_fields=FieldSet(u_x=data[:, 6], u_y=data[:, 7], p_s=data[:, 8], nu_t=data[:, 9]),
            meta=sidecar.meta,
        ))

    dataset = Dataset(split=manifest.split, samples=samples, generation_config_digest=manifest.generation_config_digest)
    violations = validate_dataset(dataset)
    if violations:
        raise FormatError(f"{directory}: " + "; ".join(violations[:10]))
    return dataset


def write_predictions(predictions: list[Prediction], pred_dir: str | Path) -> None:
    """Write one ``<id>.csv`` per prediction into `pred_dir`."""
    pred_dir = Path(pred_dir)
    pred_dir.mkdir(parents=True, exist_ok=True)
    for pred in predictions:
        f = pred.fields
        text = _csv_text(PRED_CSV_HEADER, [f.u_x, f.u_y, f.p_s, f.nu_t], _PRED_ROW)
        (pred_dir / f"{pred.sample_id}.csv").write_text(text, encoding="utf-8")


def check_prediction(sample: Sample, fields: FieldSet) -> None:
    """Raise AirbenchError naming `sample` unless every channel of `fields` holds one value per node."""
    for name in FieldSet.CHANNELS:
        shape = fields.channel(name).shape
        if len(shape) != 1:
            raise AirbenchError(f"sample {sample.id!r}: prediction {name} has shape {shape}, expected ({sample.n_nodes},)")
        if shape[0] != sample.n_nodes:
            raise AirbenchError(f"sample {sample.id!r}: prediction has {shape[0]} rows, expected {sample.n_nodes}")


def read_predictions(pred_dir: str | Path, dataset: Dataset) -> list[Prediction]:
    """Read predictions for every sample of `dataset`, enforcing coverage.

    Missing files raise AirbenchError naming the sample ids; a column
    mismatch, or a shape `check_prediction` refuses, raises AirbenchError
    naming the sample. Values are not required to be finite (bad predictions
    are scored, not rejected).
    """
    pred_dir = Path(pred_dir)
    missing = [s.id for s in dataset.samples if not (pred_dir / f"{s.id}.csv").exists()]
    if missing:
        raise AirbenchError(f"missing prediction files for sample ids: {missing}")

    predictions = []
    for sample in dataset.samples:
        path = pred_dir / f"{sample.id}.csv"
        data = _read_csv(path, PRED_CSV_HEADER)
        if data.size == 0:
            data = data.reshape(0, 4)
        if data.shape[1] != 4:
            raise AirbenchError(f"sample {sample.id!r}: expected 4 prediction columns, got {data.shape[1]}")
        fields = FieldSet(u_x=data[:, 0], u_y=data[:, 1], p_s=data[:, 2], nu_t=data[:, 3])
        check_prediction(sample, fields)
        predictions.append(Prediction(sample_id=sample.id, fields=fields))
    return predictions


def dataset_digest(directory: str | Path) -> str:
    """SHA-256 over the manifest and all sample files, in manifest order."""
    directory = Path(directory)
    h = hashlib.sha256()
    h.update(_read_bytes(directory / "manifest.json"))
    for entry in read_manifest(directory).samples:
        h.update(_read_bytes(directory / entry.csv))
        h.update(_read_bytes(directory / entry.meta))
    return h.hexdigest()

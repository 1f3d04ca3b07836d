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

import contextlib
import functools
import hashlib
import json
import os
import re
import reprlib
import types
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import AirbenchError, FormatError
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


def _csv_text(header: str, columns: list[np.ndarray], row_format: str) -> str:
    """`header`, then one `row_format` line per row of `columns`, formatted with one `%`."""
    block = np.column_stack(columns)
    return header + "\n" + (row_format * len(block)) % tuple(block.ravel().tolist())


def write_json(path: str | Path, obj) -> None:
    """Write `obj` as canonical JSON: sorted keys, two-space indent, trailing newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: str | Path):
    """Parse a JSON file; a missing, non-UTF-8 or invalid file raises FormatError naming it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"missing file: {path}") from None
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
    if is_dataclass(tp):
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
    if isinstance(tp, type) and issubclass(tp, Enum):
        for member in tp:
            if type(member.value) is type(value) and member.value == value:
                return member
    elif tp is float:
        if type(value) in (int, float):
            return float(value)
    elif tp in (int, bool, str):
        if type(value) is tp:
            return value
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


@contextlib.contextmanager
def decoding(source: str | Path):
    """Raise a missing key or a wrong type met while decoding `source` as FormatError naming it."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise FormatError(f"{source}: {type(e).__name__}: {e}") from None


def json_digest(obj) -> str:
    """SHA-256 of the compact canonical JSON of `obj`."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    """Write a dataset in the canonical directory format.

    Validates every invariant first and raises AirbenchError before
    touching the filesystem if anything is off.
    """
    violations = validate_dataset(dataset)
    if violations:
        raise AirbenchError("; ".join(violations[:10]))
    directory = Path(directory)
    samples_dir = directory / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    for sample in dataset.samples:
        csv_name = f"samples/{sample.id}.csv"
        meta_name = f"samples/{sample.id}.meta.json"
        (directory / csv_name).write_text(_sample_csv_text(sample), encoding="utf-8")
        write_json(
            directory / meta_name,
            {
                "surface_order": [int(i) for i in sample.surface_order],
                "inlet_velocity": [float(v) for v in sample.inlet_velocity],
                "meta": asdict(sample.meta),
            },
        )
        entries.append({"id": sample.id, "csv": csv_name, "meta": meta_name})

    manifest = {
        "split": dataset.split.value,
        "generation_config_digest": dataset.generation_config_digest,
        "samples": entries,
    }
    write_json(directory / "manifest.json", manifest)


def _read_csv(path: Path, header: str) -> np.ndarray:
    """The rows under `header` as a 2-D float array; a wrong header or a bad row raises FormatError."""
    with path.open("r", encoding="utf-8") as fh:
        found = fh.readline().rstrip("\n")
        if found != header:
            raise FormatError(f"{path}:1: bad header {found!r}")
        try:
            return np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as e:
            raise FormatError(f"{path}: {e}") from None


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

    Raises FormatError for missing or malformed files and AirbenchError
    (naming the sample id and field) for invariant violations.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_json(manifest_path)
    with decoding(manifest_path):
        split = Split(manifest["split"])
        config_digest = manifest["generation_config_digest"]
        entries = [dict(entry) for entry in manifest["samples"]]

    samples = []
    for entry in entries:
        sid = entry.get("id")
        if not isinstance(sid, str):
            raise FormatError(f"{manifest_path}: sample entry without a string id: {entry!r}")
        csv_path, meta_path = _entry_paths(directory, entry)
        if not csv_path.exists():
            raise FormatError(f"manifest references missing sample file for id {sid!r}")
        data = _read_csv(csv_path, SAMPLE_CSV_HEADER)
        if data.size and data.shape[1] != 10:
            raise FormatError(f"{csv_path}: expected 10 columns, got {data.shape[1]}")
        sidecar = read_json(meta_path)
        with decoding(meta_path):
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
                meta=decode(SampleMeta, sidecar["meta"], meta_path),
            )
        samples.append(sample)

    dataset = Dataset(split=split, samples=samples, generation_config_digest=config_digest)
    violations = validate_dataset(dataset)
    if violations:
        raise AirbenchError("; ".join(violations[:10]))
    return dataset


def write_predictions(predictions: list[Prediction], pred_dir: str | Path) -> None:
    """Write one ``<id>.csv`` per prediction into `pred_dir`."""
    pred_dir = Path(pred_dir)
    pred_dir.mkdir(parents=True, exist_ok=True)
    for pred in predictions:
        f = pred.fields
        text = _csv_text(PRED_CSV_HEADER, [f.u_x, f.u_y, f.p_s, f.nu_t], _PRED_ROW)
        (pred_dir / f"{pred.sample_id}.csv").write_text(text, encoding="utf-8")


def read_predictions(pred_dir: str | Path, dataset: Dataset) -> list[Prediction]:
    """Read predictions for every sample of `dataset`, enforcing coverage.

    Missing files raise AirbenchError naming the sample ids; a row-count or
    column mismatch raises AirbenchError naming the sample. Values are not
    required to be finite (bad predictions are scored, not rejected).
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
        if data.shape[0] != sample.n_nodes:
            raise AirbenchError(
                f"sample {sample.id!r}: prediction has {data.shape[0]} rows, expected {sample.n_nodes}"
            )
        predictions.append(
            Prediction(
                sample_id=sample.id,
                fields=FieldSet(u_x=data[:, 0], u_y=data[:, 1], p_s=data[:, 2], nu_t=data[:, 3]),
            )
        )
    return predictions


def dataset_digest(directory: str | Path) -> str:
    """SHA-256 over the manifest and all sample files, in manifest order."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    h = hashlib.sha256()
    h.update(manifest_path.read_bytes())
    manifest = read_json(manifest_path)
    with decoding(manifest_path):
        entries = [dict(entry) for entry in manifest["samples"]]
    for entry in entries:
        for path in _entry_paths(directory, entry):
            h.update(path.read_bytes())
    return h.hexdigest()

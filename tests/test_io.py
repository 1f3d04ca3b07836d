"""Round-trips, canonical bytes, injected file defects, digests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import airbench
from airbench import (
    CoverageError,
    Dataset,
    FormatError,
    GenerationConfig,
    Prediction,
    ShapeError,
    Split,
    ValidationError,
    dataset_digest,
    generate_split,
    read_dataset,
    read_predictions,
    write_dataset,
    write_predictions,
)

# Digest of the canonical serialization of the default-counts train split at
# reduced resolution. The generator's arithmetic does not depend on numpy's
# SIMD dispatch, so this one value holds on every dispatch level;
# test_pinned_digest_holds_across_simd_dispatch_levels guards that.
PINNED_TRAIN_DIGEST_CONFIG = GenerationConfig(
    n_train=103, n_test=1, n_ood=1, nodes_per_sample=96, seed=7
)
PINNED_TRAIN_DIGEST = "4517456b224698c5c8637603b3d499f8323ce30be74db8a806821a826f516a9e"


def _dispatch_settings() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values, from none disabled to every dispatch level.

    Levels are disabled from the top of numpy's dispatch list down, so no
    enabled level implies a disabled one; at most five settings are returned.
    Baseline features are never named, since numpy refuses to disable them.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    levels = [
        f
        for f in umath.__cpu_dispatch__
        if umath.__cpu_features__.get(f) and f not in umath.__cpu_baseline__
    ]
    n = len(levels)
    cuts = sorted({n - round(i * n / 4) for i in range(5)}, reverse=True)
    return [" ".join(levels[k:]) for k in cuts]


_DIGEST_SCRIPT = """
import json, sys
from airbench import GenerationConfig, Split, dataset_digest, generate_split, write_dataset
cfg = GenerationConfig.from_dict(json.loads(sys.argv[1]))
write_dataset(generate_split(cfg, Split.TRAIN), sys.argv[2])
print(dataset_digest(sys.argv[2]))
"""


def test_empty_dataset_roundtrip(tmp_path):
    ds = Dataset(split=Split.TEST, samples=[], generation_config_digest="x")
    write_dataset(ds, tmp_path / "d")
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["samples"] == []
    assert not list((tmp_path / "d" / "samples").glob("*.csv"))
    assert read_dataset(tmp_path / "d") == ds


def test_single_sample_roundtrip(tmp_path, tiny_train):
    ds = Dataset(
        split=Split.TRAIN,
        samples=[tiny_train.samples[0]],
        generation_config_digest=tiny_train.generation_config_digest,
    )
    write_dataset(ds, tmp_path / "d")
    back = read_dataset(tmp_path / "d")
    assert back == ds
    s0, s1 = ds.samples[0], back.samples[0]
    np.testing.assert_array_equal(s0.positions, s1.positions)
    np.testing.assert_array_equal(s0.truth_fields.p_s, s1.truth_fields.p_s)
    assert s0.meta == s1.meta


def test_roundtrip_of_generated_splits(tmp_path, tiny_train, tiny_test):
    for name, ds in (("train", tiny_train), ("test", tiny_test)):
        write_dataset(ds, tmp_path / name)
        assert read_dataset(tmp_path / name) == ds


def test_canonical_bytes(tmp_path, tiny_train):
    write_dataset(tiny_train, tmp_path / "a")
    write_dataset(tiny_train, tmp_path / "b")
    assert dataset_digest(tmp_path / "a") == dataset_digest(tmp_path / "b")
    for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json")):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_pinned_digest_of_default_count_train_split(tmp_path):
    ds = generate_split(PINNED_TRAIN_DIGEST_CONFIG, Split.TRAIN)
    assert len(ds.samples) == 103
    write_dataset(ds, tmp_path / "train")
    assert dataset_digest(tmp_path / "train") == PINNED_TRAIN_DIGEST
    # and the round-trip reproduces the same bytes
    back = read_dataset(tmp_path / "train")
    write_dataset(back, tmp_path / "again")
    assert dataset_digest(tmp_path / "again") == PINNED_TRAIN_DIGEST


@pytest.mark.skipif(
    len(_dispatch_settings()) < 2, reason="this CPU offers fewer than two numpy dispatch levels"
)
def test_pinned_digest_holds_across_simd_dispatch_levels(tmp_path):
    src = str(Path(airbench.__file__).resolve().parents[1])
    config = json.dumps(PINNED_TRAIN_DIGEST_CONFIG.to_dict())
    digests = {}
    for i, disabled in enumerate(_dispatch_settings()):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, config, str(tmp_path / f"train{i}")],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        digests[disabled or "(none disabled)"] = proc.stdout.strip()
    assert set(digests.values()) == {PINNED_TRAIN_DIGEST}, digests


def test_random_small_roundtrips(tmp_path, tiny_train):
    # read(write(d)) == d over perturbed dataset shapes
    rng = np.random.default_rng(1)
    for trial in range(3):
        k = int(rng.integers(1, 4))
        ds = Dataset(split=Split.OOD_TEST, samples=tiny_train.samples[:k],
                     generation_config_digest=f"t{trial}")
        out = tmp_path / f"t{trial}"
        write_dataset(ds, out)
        assert read_dataset(out) == ds


def test_nan_injection_names_field(tmp_path, tiny_train):
    write_dataset(tiny_train, tmp_path / "d")
    sid = tiny_train.samples[0].id
    csv = tmp_path / "d" / "samples" / f"{sid}.csv"
    lines = csv.read_text().splitlines()
    parts = lines[1].split(",")
    parts[6] = "nan"  # u_x column
    lines[1] = ",".join(parts)
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="u_x"):
        read_dataset(tmp_path / "d")


def test_missing_sample_file_names_id(tmp_path, tiny_train):
    write_dataset(tiny_train, tmp_path / "d")
    sid = tiny_train.samples[1].id
    (tmp_path / "d" / "samples" / f"{sid}.csv").unlink()
    with pytest.raises(FormatError, match=sid):
        read_dataset(tmp_path / "d")


def test_corrupt_manifest_reports_line(tmp_path, tiny_train):
    write_dataset(tiny_train, tmp_path / "d")
    man = tmp_path / "d" / "manifest.json"
    man.write_text(man.read_text()[:-5] + "}}")
    with pytest.raises(FormatError, match=r"manifest\.json:\d+"):
        read_dataset(tmp_path / "d")


def test_bad_header_rejected(tmp_path, tiny_train):
    write_dataset(tiny_train, tmp_path / "d")
    sid = tiny_train.samples[0].id
    csv = tmp_path / "d" / "samples" / f"{sid}.csv"
    text = csv.read_text().splitlines()
    text[0] = "x,y,dist"
    csv.write_text("\n".join(text) + "\n")
    with pytest.raises(FormatError, match="bad header"):
        read_dataset(tmp_path / "d")


def test_crossed_contour_rejected_on_read(tmp_path, tiny_train):
    # The contour is checked where a sample enters; force integration relies on it.
    write_dataset(tiny_train, tmp_path / "d")
    meta = tmp_path / "d" / "samples" / f"{tiny_train.samples[0].id}.meta.json"
    doc = json.loads(meta.read_text())
    order = doc["surface_order"]
    order[1], order[17] = order[17], order[1]
    meta.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="surface_order"):
        read_dataset(tmp_path / "d")


@pytest.mark.parametrize("key, where", [("csv", "absolute"), ("meta", "parent"), ("csv", "missing")])
def test_manifest_paths_must_stay_inside_the_dataset(tmp_path, tiny_train, key, where):
    # The escaping paths name real copies of the sample's files, so only the
    # path check can refuse them.
    write_dataset(tiny_train, tmp_path / "d")
    man = tmp_path / "d" / "manifest.json"
    doc = json.loads(man.read_text())
    entry = doc["samples"][0]
    outside = tmp_path / f"outside-{key}"
    outside.write_bytes((tmp_path / "d" / entry[key]).read_bytes())
    if where == "absolute":
        entry[key] = str(outside)
    elif where == "parent":
        entry[key] = f"samples/../../{outside.name}"
    else:
        del entry[key]
    man.write_text(json.dumps(doc))
    for read in (read_dataset, dataset_digest):
        with pytest.raises(FormatError, match=key):
            read(tmp_path / "d")


class TestPredictionIO:
    def test_roundtrip(self, tmp_path, tiny_train):
        preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in tiny_train.samples]
        write_predictions(preds, tmp_path / "pred")
        back = read_predictions(tmp_path / "pred", tiny_train)
        assert back == preds

    def test_nan_predictions_readable(self, tmp_path, tiny_train):
        s = tiny_train.samples[0]
        bad = Prediction(
            sample_id=s.id,
            fields=type(s.truth_fields)(
                u_x=np.full(s.n_nodes, np.nan),
                u_y=s.truth_fields.u_y,
                p_s=s.truth_fields.p_s,
                nu_t=s.truth_fields.nu_t,
            ),
        )
        others = [Prediction(sample_id=t.id, fields=t.truth_fields) for t in tiny_train.samples[1:]]
        write_predictions([bad] + others, tmp_path / "pred")
        back = read_predictions(tmp_path / "pred", tiny_train)
        assert np.isnan(back[0].fields.u_x).all()

    def test_missing_file_names_id(self, tmp_path, tiny_train):
        preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in tiny_train.samples[1:]]
        write_predictions(preds, tmp_path / "pred")
        with pytest.raises(CoverageError, match=tiny_train.samples[0].id):
            read_predictions(tmp_path / "pred", tiny_train)

    def test_renamed_file_is_a_coverage_error(self, tmp_path, tiny_train):
        preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in tiny_train.samples]
        write_predictions(preds, tmp_path / "pred")
        sid = tiny_train.samples[0].id
        (tmp_path / "pred" / f"{sid}.csv").rename(tmp_path / "pred" / "stranger.csv")
        with pytest.raises(CoverageError, match=sid):
            read_predictions(tmp_path / "pred", tiny_train)

    def test_wrong_row_count_is_a_shape_error(self, tmp_path, tiny_train):
        preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in tiny_train.samples]
        write_predictions(preds, tmp_path / "pred")
        sid = tiny_train.samples[0].id
        path = tmp_path / "pred" / f"{sid}.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ShapeError, match=sid):
            read_predictions(tmp_path / "pred", tiny_train)

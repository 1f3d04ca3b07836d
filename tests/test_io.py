"""Round-trips, canonical bytes, injected file defects, digests."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import airbench
from airbench import io
from airbench.errors import AirbenchError, FormatError
from airbench.harness import LeaderboardEntry
from airbench.io import (
    Manifest,
    ManifestEntry,
    RunMetrics,
    SampleSidecar,
    dataset_digest,
    decode,
    read_dataset,
    read_json,
    read_predictions,
    write_dataset,
    write_json,
    write_predictions,
)
from airbench.metrics import FieldCriterion, SplitMetrics
from airbench.model import Dataset, FieldSet, Prediction, SampleMeta, Split
from airbench.scoring import (
    ScoreReport,
    default_scoring_config,
    rejected_report,
    score_from_values,
)
from airbench.synthflow import GenerationConfig, generate_split

from conftest import TINY_CONFIG, with_contour_nodes

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


# Prints the train split's digest, then the digest of the metrics.json that a
# k-NN run writes on a bench generated from the second config.
_DIGEST_SCRIPT = """
import contextlib, hashlib, json, sys
from pathlib import Path
from airbench.cli import main
from airbench.io import dataset_digest, decode, write_dataset
from airbench.model import Split
from airbench.synthflow import GenerationConfig, generate_split
cfg = decode(GenerationConfig, json.loads(sys.argv[1]), "config")
out = Path(sys.argv[3])
write_dataset(generate_split(cfg, Split.TRAIN), out / "train")
print(dataset_digest(out / "train"))
(out / "bench.json").write_text(sys.argv[2])
with contextlib.redirect_stdout(sys.stderr):
    assert main(["generate", "--config", str(out / "bench.json"), "--out", str(out / "bench")]) == 0
    assert main([
        "run", "--predictor", "knn:3", "--bench", str(out / "bench"), "--out", str(out / "run"),
        "--store", str(out / "lb.jsonl"), "--fixed-time", "1", "--no-timestamp",
    ]) == 0
print(hashlib.sha256((out / "run" / "metrics.json").read_bytes()).hexdigest())
"""


def test_empty_dataset_is_refused(tmp_path, tiny_train):
    ds = Dataset(split=Split.TEST, samples=[], generation_config_digest="x")
    with pytest.raises(AirbenchError, match="no samples"):
        write_dataset(ds, tmp_path / "d")
    assert not (tmp_path / "d").exists()
    write_dataset(tiny_train, tmp_path / "d")
    man = tmp_path / "d" / "manifest.json"
    doc = json.loads(man.read_text())
    doc["samples"] = []
    man.write_text(json.dumps(doc))
    with pytest.raises(AirbenchError, match="no samples"):
        read_dataset(tmp_path / "d")


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
    config = json.dumps(asdict(PINNED_TRAIN_DIGEST_CONFIG))
    bench_config = json.dumps(asdict(TINY_CONFIG))
    train_digests, metrics_digests = {}, {}
    for i, disabled in enumerate(_dispatch_settings()):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        work = tmp_path / f"setting{i}"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, config, bench_config, str(work)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        name = disabled or "(none disabled)"
        train_digests[name], metrics_digests[name] = proc.stdout.split()
    assert set(train_digests.values()) == {PINNED_TRAIN_DIGEST}, train_digests
    assert len(set(metrics_digests.values())) == 1, metrics_digests


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
    with pytest.raises(AirbenchError, match="u_x"):
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
    with pytest.raises(AirbenchError, match="surface_order"):
        read_dataset(tmp_path / "d")


@pytest.mark.parametrize("k", [0, 3, 7])
def test_short_contour_rejected_on_read(tmp_path, tiny_train, monkeypatch, k):
    # Force integration needs 8 contour nodes; a sample with fewer is refused where it enters.
    short = with_contour_nodes(tiny_train.samples[1], k)
    monkeypatch.setattr(io, "validate_dataset", lambda dataset: [])  # write it as another tool might
    write_dataset(replace(tiny_train, samples=[tiny_train.samples[0], short]), tmp_path / "d")
    monkeypatch.undo()
    with pytest.raises(FormatError) as refused:
        read_dataset(tmp_path / "d")
    assert str(refused.value) == f"{tmp_path / 'd'}: sample {short.id!r}: surface_order: contour needs at least 8 nodes, got {k}"


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
        with pytest.raises(AirbenchError, match=f"missing prediction files .*{tiny_train.samples[0].id}"):
            read_predictions(tmp_path / "pred", tiny_train)

    def test_renamed_file_is_a_coverage_error(self, tmp_path, tiny_train):
        preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in tiny_train.samples]
        write_predictions(preds, tmp_path / "pred")
        sid = tiny_train.samples[0].id
        (tmp_path / "pred" / f"{sid}.csv").rename(tmp_path / "pred" / "stranger.csv")
        with pytest.raises(AirbenchError, match=f"missing prediction files .*{sid}"):
            read_predictions(tmp_path / "pred", tiny_train)

    def test_wrong_row_count_is_a_shape_error(self, tmp_path, tiny_train):
        preds = [Prediction(sample_id=s.id, fields=s.truth_fields) for s in tiny_train.samples]
        write_predictions(preds, tmp_path / "pred")
        sid = tiny_train.samples[0].id
        path = tmp_path / "pred" / f"{sid}.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(AirbenchError, match=f"sample '{sid}': prediction has .* rows"):
            read_predictions(tmp_path / "pred", tiny_train)

    def test_bytes_match_the_per_value_format(self, tmp_path):
        # The block is formatted with one `%`; its bytes must equal the per-value "%.17g" join.
        edge = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 0.0, -1.0, 2.0 ** 53]
        u_x = np.array(edge)
        cols = [u_x, -u_x, u_x[::-1], np.roll(u_x, 5)]
        write_predictions([Prediction("edge", FieldSet(*cols))], tmp_path / "pred")
        rows = ["u_x,u_y,p_s,nu_t"] + [",".join("%.17g" % v for v in row) for row in zip(*cols)]
        assert (tmp_path / "pred" / "edge.csv").read_bytes() == ("\n".join(rows) + "\n").encode()
        assert (tmp_path / "pred" / "edge.csv").read_bytes().count(b"\n") == len(edge) + 1


def _nan_report():
    ml = {"u_x": float("nan"), "u_y": 0.14, "p": 0.19, "nu_t": 0.28, "p_s": 0.43}
    ood = dict(ml, u_x=0.32, C_D=21.8, C_L=0.71, rho_D=-0.04, rho_L=0.92)
    ph = {"C_D": 16.3, "C_L": 0.37, "rho_D": -0.04, "rho_L": 0.96}
    return score_from_values(ml, ood, ph, 750.0, 750.0, default_scoring_config())


def _split_metrics():
    return SplitMetrics(
        field_errors={"nu_t": 0.5, "p": 4.25, "p_s": 2.5e-7, "u_x": 1 / 3, "u_y": 0.0}, c_d_rel_err=12.75, c_l_rel_err=0.1,
        spearman_d=-0.25, spearman_l=1.0, spearman_d_degenerate=True, spearman_l_degenerate=False,
        total_inference_time_s=0.003, total_solver_time_s=4500.0,
    )


def _sample_meta():
    return SampleMeta(alpha_rad=-0.1, u_inf=42.0, chord=1.0000000000000002, rho=1.2, solver_time_s=1500.0)


RECORDS = {
    "split-metrics": _split_metrics,
    "run-metrics": lambda: RunMetrics(test=_split_metrics(), ood=replace(_split_metrics(), spearman_l=math.nan)),
    "score-report-nan-criterion": _nan_report,
    "score-report-rejected": lambda: rejected_report("training budget exceeded (2 s)"),
    "leaderboard-entry": lambda: LeaderboardEntry(
        label="knn:5", timestamp="2024-01-02T00:00:00Z", scoring_config_digest="cfg",
        dataset_digests={"ood": "b", "test": "a"}, global_score=0.4125, score_ml=0.5, score_ood=0.25,
        score_physics=0.5, classifications={"ml": {"p": "U", "u_x": "G"}}, speedups={"ood": 1e4, "test": 750.0},
        rejection_reason="late", timing="external-process",
    ),
    "generation-config": lambda: GenerationConfig(n_train=5, seed=99),
    "generation-config-ood-camber": lambda: GenerationConfig(ood_camber_range=(0.13, 0.15)),
    "sample-meta": _sample_meta,
    "sample-sidecar": lambda: SampleSidecar(surface_order=[3, 0, 2, 1], inlet_velocity=(41.5, -4.25),
                                            meta=_sample_meta()),
    "manifest": lambda: Manifest(split=Split.OOD_TEST, generation_config_digest="ab12", samples=[
        ManifestEntry(id=f"ood-{i:04d}", csv=f"samples/ood-{i:04d}.csv", meta=f"samples/ood-{i:04d}.meta.json")
        for i in (1, 0)
    ]),
    "field-criterion": lambda: FieldCriterion(name="p_s", channel="p_s", kind="rmse", subset="surface",
                                              normalization=443.5),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_record_roundtrip_keeps_value_and_bytes(tmp_path, kind):
    record = RECORDS[kind]()
    write_json(tmp_path / "a.json", asdict(record))
    back = decode(type(record), read_json(tmp_path / "a.json"), tmp_path / "a.json")
    # The records list dict keys sorted, as they read back, so repr compares everything
    # exactly: floats, enum members, tuples, and NaN, which `==` takes as unequal.
    assert repr(back) == repr(record)
    assert back == record or kind in ("score-report-nan-criterion", "run-metrics")
    write_json(tmp_path / "b.json", asdict(back))
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


def test_generation_config_digest_ignores_integer_spelling_of_floats():
    digest = decode(GenerationConfig, {"rho": 1.0}, "config").digest()
    assert decode(GenerationConfig, {"rho": 1}, "config").digest() == digest == GenerationConfig(rho=1.0).digest()


@pytest.mark.parametrize("tp, doc, message", [
    (SampleMeta, {"alpha_rad": 0.0, "u_inf": 1, "chord": 1.0, "rho": True, "solver_time_s": 1.0},
     "rho: expected float, got True"),
    (SampleMeta, {"alpha_rad": 0.0, "u_inf": 1.0, "chord": 1.0, "rho": 1.0}, "missing key 'solver_time_s'"),
    (FieldCriterion, {"name": "p", "channel": "p_s", "scale": 2.0}, "unknown key 'scale'"),
    (FieldCriterion, {"name": "p", "channel": "rho"}, "criterion 'p': unknown channel 'rho'"),
    (GenerationConfig, {"u_inf_range": [30.0, 50.0, 70.0]}, r"u_inf_range: expected tuple\[float, float\]"),
    (GenerationConfig, {"n_test": 2.0}, "n_test: expected int, got 2.0"),
    (LeaderboardEntry, {**asdict(RECORDS["leaderboard-entry"]()), "speedups": {"test": "x"}},
     "speedups.test: expected float"),
    (ScoreReport, {**asdict(rejected_report("r")), "ml": {"name": "ml", "criteria": [{}]}},
     r"ml.criteria\[0\]: missing key 'name'"),
    (ScoreReport, {**asdict(rejected_report("r")), "rejection_reason": 3}, "rejection_reason: expected str"),
    (LeaderboardEntry, {"label": "a", "timestamp": "t", "scoring_config_digest": "c", "speedups": {"test": 1.0}},
     "missing key 'dataset_digests'"),
    (SampleSidecar, {**json.loads(json.dumps(asdict(RECORDS["sample-sidecar"]()))), "surface_order": [0, 2**63]},
     r"surface_order: an index lies outside \[0, 2\*\*63\)"),
    (SampleSidecar, {**asdict(RECORDS["sample-sidecar"]()), "surface_order": [0, 1, 2.0]},
     r"surface_order\[2\]: expected int, got 2.0"),
    (SampleSidecar, {**asdict(RECORDS["sample-sidecar"]()), "inlet_velocity": [1.0]},
     r"inlet_velocity: expected tuple\[float, float\], got \[1.0\]"),
    (Manifest, {**asdict(RECORDS["manifest"]()), "split": "validation"}, "split: expected Split, got 'validation'"),
    (RunMetrics, {"test": asdict(_split_metrics())}, "missing key 'ood'"),
    (SampleSidecar, {**asdict(RECORDS["sample-sidecar"]()), "inlet_velocity": [10**400, 0.0]},
     r"inlet_velocity\[0\]: 10+\.\.\.0+ is too large for a float"),
    (Manifest, {**json.loads(json.dumps(asdict(RECORDS["manifest"]()))), "samples": [{"id": "..", "csv": "a.csv", "meta": "a.json"}]},
     r"samples\[0\]: id '\.\.' is not a plain file name"),
])
def test_decode_names_the_refused_field(tp, doc, message):
    with pytest.raises(FormatError, match=rf"^source\.json: {message}"):
        decode(tp, doc, "source.json")

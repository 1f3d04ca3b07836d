"""End-to-end benchmark runs: train, time inference, evaluate, score, record.

External predictors follow a file protocol: the harness invokes
``command <dataset_dir> <pred_dir>`` and expects one prediction CSV per
sample, which it reads back and scores. The wall-clock timer covers the full
process invocation. Builtin predictors run in-process: their fit reads the
training split only if it uses it, they are timed around their prediction
loop only, and their predictions are scored from memory after being written
(the files hold the same bits). Writing and checking predictions stay outside
the timed window in both cases.
Results append to a line-delimited JSON leaderboard under an exclusive
advisory lock.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import math
import os
import signal
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .baselines import Fit, Predict, resolve_builtin
from .errors import AirbenchError, FormatError, InferenceError, TrainingError
from .io import (
    RunMetrics,
    check_prediction,
    dataset_digest,
    decode,
    read_dataset,
    read_predictions,
    write_json,
    write_predictions,
)
from .metrics import SplitMetrics, evaluate_split, total_solver_time_s
from .model import Dataset, Prediction
from .scoring import (
    ScoreReport,
    ScoringConfig,
    compute_speedup,
    criterion_values_from_metrics,
    rejected_report,
    score_from_values,
)

logger = logging.getLogger(__name__)

DEFAULT_STORE = "leaderboard.jsonl"
STORE_ENV_VAR = "AIRBENCH_STORE"
SCORED_SPLITS = ("test", "ood")


@dataclass
class PredictorSpec:
    """What to run: a builtin by name, or an external command.

    Exactly one of `builtin` / `command` must be set. An optional training
    command is invoked as ``training_command <train_dir>`` and is subject to
    the wall-clock training budget; builtins train in-process (their fit,
    with its read of the training split, is measured against the same budget
    after the fact), so they take neither a training command nor a working
    directory. A builtin's name is resolved to its `fit` here, so a bad name
    is refused before any work.
    """

    label: str
    builtin: str | None = None
    command: list[str] | None = None
    working_dir: str | None = None
    training_command: list[str] | None = None
    fit: Fit | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if (self.builtin is None) == (self.command is None):
            raise AirbenchError("predictor spec needs exactly one of builtin or command")
        if self.command is not None and len(self.command) == 0:
            raise AirbenchError("external predictor command is empty")
        if self.training_command is not None and len(self.training_command) == 0:
            raise AirbenchError("training command is empty")
        if self.builtin is not None:
            if self.working_dir is not None or self.training_command is not None:
                raise AirbenchError(f"builtin predictor {self.builtin!r} takes no working directory or training command")
            self.fit = resolve_builtin(self.builtin)


def _run_command(argv: list[str], cwd: str | None, timeout: float | None = None) -> tuple[int | None, str]:
    """Run an external command in a session of its own and wait for it to exit.

    Its stdout is discarded and its stderr goes to a temporary file, so a
    background child cannot hold the wait open through a pipe. Whatever is
    left of its process group when it exits or times out is killed. Returns
    the exit status (None at the timeout) and the first 500 characters of
    stderr.
    """
    with tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)
        try:
            status = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            status = None
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        stderr.seek(0)
        head = stderr.read(2000).decode(errors="replace").strip()[:500]  # 500 UTF-8 characters fit in 2000 bytes
    return status, head


def run_training(
    spec: PredictorSpec,
    train_dir: str | Path,
    budget_s: float,
    clock=time.perf_counter,
) -> tuple[Predict | None, str | None]:
    """Train within the wall-clock budget; overruns reject the submission.

    An external training command is stopped at the budget and the run
    rejected; a nonzero exit status is a training failure (TrainingError),
    which is a different thing than a budget rejection. A builtin is fit
    in-process, reading the training split only if its fit uses it, and
    rejected after the fact if reading and fitting took too long. Returns the
    builtin's predict function (None for an external predictor) and the
    rejection reason (None if training is accepted).
    """
    overrun = f"training budget exceeded ({budget_s:g} s)"
    if spec.command is not None:
        if spec.training_command is None:
            return None, None
        status, stderr = _run_command(spec.training_command + [str(train_dir)], spec.working_dir, timeout=budget_s)
        if status is None:
            return None, overrun
        if status != 0:
            raise TrainingError(f"training command exited with status {status}: {stderr}")
        return None, None

    t0 = clock()
    predict = spec.fit(lambda: read_dataset(train_dir))
    return predict, (overrun if clock() - t0 > budget_s else None)


def run_inference(
    spec: PredictorSpec,
    dataset_dir: str | Path,
    dataset: Dataset,
    pred_dir: str | Path,
    predict: Predict | None = None,
    clock=time.perf_counter,
) -> tuple[float, list[Prediction]]:
    """Produce predictions for one split and measure wall-clock seconds.

    `dataset` is the split read from `dataset_dir`; an external predictor is
    handed the directory, a builtin's `predict` function (from
    `run_training`) the samples. External: the timer brackets the whole
    process invocation, and the prediction files it leaves are read back and
    verified. Builtin: the timer brackets the prediction loop only; the
    predictions' shapes are then checked in memory and the files written,
    and the in-memory predictions are returned, which hold the same bits as
    the files. Returns the measured seconds and the verified predictions.
    """
    pred_dir = Path(pred_dir)
    pred_dir.mkdir(parents=True, exist_ok=True)

    if spec.command is not None:
        t0 = clock()
        status, stderr = _run_command(spec.command + [str(dataset_dir), str(pred_dir)], spec.working_dir)
        elapsed = clock() - t0
        if status != 0:
            raise InferenceError(f"predictor exited with status {status}: {stderr}")
        return elapsed, read_predictions(pred_dir, dataset)

    t0 = clock()
    fields = [predict(s) for s in dataset.samples]
    elapsed = clock() - t0
    for sample, f in zip(dataset.samples, fields):
        check_prediction(sample, f)
    predictions = [Prediction(sample_id=s.id, fields=f) for s, f in zip(dataset.samples, fields)]
    write_predictions(predictions, pred_dir)
    return elapsed, predictions


@dataclass
class LeaderboardEntry:
    label: str
    timestamp: str
    scoring_config_digest: str
    dataset_digests: dict[str, str]
    global_score: float
    score_ml: float
    score_ood: float
    score_physics: float
    classifications: dict[str, dict[str, str]]
    speedups: dict[str, float]
    rejection_reason: str | None
    timing: str  # "builtin-loop" or "external-process"; not comparable across modes


def resolve_store_path(explicit: str | Path | None = None) -> Path:
    """Store precedence: explicit argument, then AIRBENCH_STORE, then default."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(STORE_ENV_VAR)
    return Path(env) if env else Path(DEFAULT_STORE)


def append_leaderboard_entry(store_path: str | Path, entry: LeaderboardEntry) -> None:
    """Append one JSON line under an exclusive advisory lock; never rewrites."""
    store_path = Path(store_path)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(asdict(entry), sort_keys=True) + "\n"
    with store_path.open("a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def leaderboard_list(store_path: str | Path) -> list[LeaderboardEntry]:
    """Entries sorted by global score descending, ties broken by timestamp.

    A corrupt line (not UTF-8, not JSON, or a refused record) is skipped
    with a warning; a missing store reads as empty.
    """
    store_path = Path(store_path)
    if not store_path.exists():
        return []
    entries = []
    for lineno, line in enumerate(store_path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(decode(LeaderboardEntry, json.loads(line.decode("utf-8")), "entry"))
        except (UnicodeDecodeError, json.JSONDecodeError, FormatError) as e:
            logger.warning("%s:%d: skipping corrupt leaderboard line (%s)", store_path, lineno, e)
    entries.sort(key=lambda e: (-e.global_score, e.timestamp))
    return entries


def _timestamp(include: bool) -> str:
    if not include:
        return ""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_inputs(bench_dir: Path, fixed_inference_time_s: float | None) -> None:
    """Refuse, before any work, a benchmark directory that lacks a split or a fixed time that is not positive."""
    for name in ("train", *SCORED_SPLITS):
        if not (bench_dir / name / "manifest.json").exists():
            raise FormatError(f"benchmark directory is missing the {name!r} split: {bench_dir / name}")
    t = fixed_inference_time_s
    if t is not None and not (t > 0 and math.isfinite(t)):
        raise AirbenchError(f"fixed inference time must be positive and finite, got {t}")


def _check_store(store_path: Path) -> None:
    """Refuse, before any work, a leaderboard path that is a directory or lies under something that is not one."""
    nearest_existing = (p for p in store_path.parents if p.exists())  # "/" or "." at the latest
    if store_path.is_dir() or not next(nearest_existing).is_dir():
        raise AirbenchError(f"leaderboard store cannot be written: {store_path}")


def evaluate_benchmark(
    spec: PredictorSpec,
    bench_dir: str | Path,
    config: ScoringConfig,
    out_dir: str | Path,
    *,
    fixed_inference_time_s: float | None,
    clock=time.perf_counter,
) -> tuple[str | None, RunMetrics | None]:
    """Train, then run inference on the test and OOD splits and evaluate them.

    Each scored split is read once, and the training split at most once (a
    builtin whose fit does not use it never reads it); predictions go to
    ``out_dir/pred/<split>``.
    `fixed_inference_time_s` substitutes a deterministic stub time for each
    split's measured one. Training runs against the config's budget.
    Returns the rejection reason and None if training was rejected, else
    None and the metrics. A speed-up that scoring would refuse is refused
    here; with a fixed time, before the split's inference.
    """
    bench_dir = Path(bench_dir)
    out_dir = Path(out_dir)
    _check_inputs(bench_dir, fixed_inference_time_s)
    predict, rejection = run_training(spec, bench_dir / "train", config.training_budget_s, clock=clock)
    if rejection is not None:
        return rejection, None

    split_metrics: dict[str, SplitMetrics] = {}
    for name in SCORED_SPLITS:
        split_dir = bench_dir / name
        dataset = read_dataset(split_dir)
        if fixed_inference_time_s is not None:
            compute_speedup(total_solver_time_s(dataset), fixed_inference_time_s)
        elapsed, predictions = run_inference(
            spec, split_dir, dataset, out_dir / "pred" / name,
            predict=predict, clock=clock,
        )
        used = elapsed if fixed_inference_time_s is None else float(fixed_inference_time_s)
        metrics = evaluate_split(dataset, predictions, config.field_criteria, total_inference_time_s=used)
        if fixed_inference_time_s is None:
            compute_speedup(metrics.total_solver_time_s, used)
        split_metrics[name] = metrics
    return None, RunMetrics(**split_metrics)


def score_metrics(metrics: RunMetrics, config: ScoringConfig) -> ScoreReport:
    """Score the test and OOD metrics.

    ML and physics criteria come from the test split, OOD criteria from the
    OOD split. Each speed-up is the split's total reference solver time over
    its inference time.
    """
    test, ood = metrics.test, metrics.ood
    test_values = criterion_values_from_metrics(test)
    return score_from_values(
        ml_values=test_values,
        ood_values=criterion_values_from_metrics(ood),
        physics_values=test_values,
        speedup_ml=compute_speedup(test.total_solver_time_s, test.total_inference_time_s),
        speedup_ood=compute_speedup(ood.total_solver_time_s, ood.total_inference_time_s),
        config=config,
    )


def run_benchmark(
    spec: PredictorSpec,
    bench_dir: str | Path,
    config: ScoringConfig,
    out_dir: str | Path | None = None,
    store_path: str | Path | None = None,
    fixed_inference_time_s: float | None = None,
    include_timestamp: bool = True,
    clock=time.perf_counter,
) -> tuple[ScoreReport, LeaderboardEntry]:
    """Full pipeline: `evaluate_benchmark`, then `score_metrics`, then record.

    Writes ``metrics.json`` (unless training was rejected),
    ``score_report.json`` and ``report.txt`` to `out_dir` (a temporary
    directory when None). When `store_path` is given the resulting entry is
    appended there.
    """
    bench_dir = Path(bench_dir)
    _check_inputs(bench_dir, fixed_inference_time_s)  # here too, so that bad inputs are refused before the digests
    if store_path is not None:
        _check_store(Path(store_path))

    tmp = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="airbench-run-")
        out_dir = Path(tmp.name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        digests = {name: dataset_digest(bench_dir / name) for name in ("train", *SCORED_SPLITS)}
        rejection, metrics = evaluate_benchmark(
            spec, bench_dir, config, out_dir,
            fixed_inference_time_s=fixed_inference_time_s, clock=clock,
        )
        if rejection is not None:
            report = rejected_report(rejection)
        else:
            report = score_metrics(metrics, config)
            write_json(out_dir / "metrics.json", asdict(metrics))
        entry = LeaderboardEntry(
            label=spec.label,
            timestamp=_timestamp(include_timestamp),
            scoring_config_digest=config.digest(),
            dataset_digests=digests,
            global_score=report.global_score,
            score_ml=report.ml.score,
            score_ood=report.ood.score,
            score_physics=report.physics.score,
            classifications={} if report.rejected else {
                cat.name: {c.name: c.classification.marker for c in cat.criteria}
                for cat in (report.ml, report.ood, report.physics)
            },
            speedups={} if report.rejected else {"test": report.ml.speedup, "ood": report.ood.speedup},
            rejection_reason=report.rejection_reason,
            timing="external-process" if spec.command else "builtin-loop",
        )
        write_json(out_dir / "score_report.json", asdict(report))
        (out_dir / "report.txt").write_text(render_report(report, label=spec.label), encoding="utf-8")
        if store_path is not None:
            append_leaderboard_entry(store_path, entry)
        return report, entry
    finally:
        if tmp is not None:
            tmp.cleanup()


_CATEGORY_TITLES = ("ML-related", "OOD generalization", "Physics")


def render_report(report: ScoreReport, label: str | None = None) -> str:
    """Deterministic plain-text rendering of a score report."""
    lines = ["=== airfoil surrogate benchmark report ==="]
    if label:
        lines.append(f"label: {label}")
    if report.rejected:
        lines.append(f"REJECTED: {report.rejection_reason}")
    lines.append(f"global score: {report.global_score:.6f} ({100.0 * report.global_score:.1f}%)")
    for title, cat in zip(_CATEGORY_TITLES, (report.ml, report.ood, report.physics)):
        if not cat.criteria:
            continue
        lines.append("")
        head = f"{title}: score {cat.score:.6f}  accuracy {cat.accuracy:.6f}"
        if cat.speed is not None:
            head += f"  speed {cat.speed:.6f}  speedup {cat.speedup:.3f}"
        lines.append(head)
        lines.append(f"  markers: {cat.markers()}")
        for c in cat.criteria:
            flag = "  (non-finite)" if c.non_finite else ""
            lines.append(f"    {c.name:<6} {c.classification.marker}  {c.value:.6f}{flag}")
    return "\n".join(lines) + "\n"

"""End-to-end benchmark runs: train, time inference, evaluate, score, record.

External predictors follow a file protocol: the harness invokes
``command <dataset_dir> <pred_dir>`` and expects one prediction CSV per
sample. The wall-clock timer covers the full process invocation; builtin
predictors are timed around their prediction loop only (file writing and
prediction verification stay outside the timed window in both cases).
Results append to a line-delimited JSON leaderboard under an exclusive
advisory lock.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .baselines import resolve_builtin
from .errors import ConfigError, FormatError, InferenceError, ParameterError, TrainingError
from .io import dataset_digest, read_dataset, read_predictions, write_predictions
from .metrics import SplitMetrics, evaluate_split
from .model import Dataset, Prediction
from .scoring import (
    ML_CRITERIA,
    OOD_CRITERIA,
    PHYSICS_CRITERIA,
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
    the wall-clock training budget; builtins train in-process (their fit is
    measured against the same budget after the fact).
    """

    label: str
    builtin: str | None = None
    command: list[str] | None = None
    working_dir: str | None = None
    training_command: list[str] | None = None
    training_budget_s: float | None = None

    def validate(self) -> None:
        if (self.builtin is None) == (self.command is None):
            raise ConfigError("predictor spec needs exactly one of builtin or command")
        if self.command is not None and len(self.command) == 0:
            raise ConfigError("external predictor command is empty")
        if self.training_command is not None and len(self.training_command) == 0:
            raise ConfigError("training command is empty")
        if self.training_budget_s is not None and not self.training_budget_s > 0:
            raise ConfigError("training budget must be positive")


@dataclass
class TrainingOutcome:
    status: str  # "trained" or "rejected"
    reason: str | None = None
    elapsed_s: float = 0.0

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"


def run_training(
    spec: PredictorSpec,
    train_dir: str | Path,
    budget_s: float,
    predictor=None,
    clock=time.perf_counter,
) -> TrainingOutcome:
    """Train within the wall-clock budget; overruns reject the submission.

    External training commands are killed at the budget and rejected; a
    nonzero exit status is a training failure (TrainingError), which is a
    different thing than a budget rejection. Builtin fits run in-process and
    are rejected after the fact if they took too long.
    """
    spec.validate()
    if spec.command is not None:
        if spec.training_command is None:
            return TrainingOutcome(status="trained", elapsed_s=0.0)
        t0 = clock()
        try:
            proc = subprocess.run(
                spec.training_command + [str(train_dir)],
                cwd=spec.working_dir,
                timeout=budget_s,
                capture_output=True,
            )
        except subprocess.TimeoutExpired:
            return TrainingOutcome(
                status="rejected",
                reason=f"training budget exceeded ({budget_s:g} s)",
                elapsed_s=clock() - t0,
            )
        elapsed = clock() - t0
        if proc.returncode != 0:
            raise TrainingError(
                f"training command exited with status {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()[:500]}"
            )
        return TrainingOutcome(status="trained", elapsed_s=elapsed)

    if predictor is None:
        raise ParameterError("builtin training requires a predictor instance")
    train_ds = read_dataset(train_dir)
    t0 = clock()
    predictor.fit(train_ds)
    elapsed = clock() - t0
    if elapsed > budget_s:
        return TrainingOutcome(
            status="rejected",
            reason=f"training budget exceeded ({budget_s:g} s)",
            elapsed_s=elapsed,
        )
    return TrainingOutcome(status="trained", elapsed_s=elapsed)


def run_inference(
    spec: PredictorSpec,
    dataset_dir: str | Path,
    dataset: Dataset,
    pred_dir: str | Path,
    predictor=None,
    clock=time.perf_counter,
    repeat: int = 1,
) -> tuple[float, list[Prediction]]:
    """Produce predictions for one split and measure wall-clock seconds.

    `dataset` is the split read from `dataset_dir`; an external predictor is
    handed the directory, a builtin one the samples. External: the timer
    brackets the whole process invocation. Builtin: the timer brackets the
    prediction loop only; writing prediction files and verifying them happen
    outside it. With repeat > 1 the measurement is the minimum over
    repetitions. Returns the measured seconds and the verified predictions.
    """
    spec.validate()
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    pred_dir = Path(pred_dir)
    pred_dir.mkdir(parents=True, exist_ok=True)

    times = []
    if spec.command is not None:
        for _ in range(repeat):
            t0 = clock()
            proc = subprocess.run(
                spec.command + [str(dataset_dir), str(pred_dir)],
                cwd=spec.working_dir,
                capture_output=True,
            )
            times.append(clock() - t0)
            if proc.returncode != 0:
                raise InferenceError(
                    f"predictor exited with status {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace').strip()[:500]}"
                )
    else:
        if predictor is None:
            raise ParameterError("builtin inference requires a predictor instance")
        fields = None
        for _ in range(repeat):
            t0 = clock()
            fields = [predictor.predict(s) for s in dataset.samples]
            times.append(clock() - t0)
        write_predictions(
            [Prediction(sample_id=s.id, fields=f) for s, f in zip(dataset.samples, fields)],
            pred_dir,
        )

    elapsed = min(times)
    predictions = read_predictions(pred_dir, dataset)
    return elapsed, predictions


@dataclass
class LeaderboardEntry:
    label: str
    timestamp: str
    scoring_config_digest: str
    dataset_digests: dict[str, str] = field(default_factory=dict)
    global_score: float = 0.0
    score_ml: float = 0.0
    score_ood: float = 0.0
    score_physics: float = 0.0
    classifications: dict[str, dict[str, str]] = field(default_factory=dict)
    speedups: dict[str, float] = field(default_factory=dict)
    rejection_reason: str | None = None
    timing: str = "builtin-loop"  # or "external-process"; not comparable across modes

    def to_dict(self) -> dict:
        return asdict(self)  # written with sort_keys, which orders every level

    @classmethod
    def from_dict(cls, data: dict) -> "LeaderboardEntry":
        return cls(**data)


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
    line = json.dumps(entry.to_dict(), sort_keys=True) + "\n"
    with store_path.open("a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.write(line)
            fh.flush()
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def leaderboard_list(store_path: str | Path) -> list[LeaderboardEntry]:
    """Entries sorted by global score descending, ties broken by timestamp.

    Corrupt lines are skipped with a warning; a missing store reads as empty.
    """
    store_path = Path(store_path)
    if not store_path.exists():
        return []
    entries = []
    for lineno, line in enumerate(store_path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            entries.append(LeaderboardEntry.from_dict(json.loads(line)))
        except (json.JSONDecodeError, TypeError) as e:
            logger.warning("%s:%d: skipping corrupt leaderboard line (%s)", store_path, lineno, e)
    entries.sort(key=lambda e: (-e.global_score, e.timestamp))
    return entries


def _timestamp(include: bool) -> str:
    if not include:
        return ""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_metrics(split_metrics: dict[str, SplitMetrics], path: str | Path) -> None:
    """Write ``metrics.json``: the raw metrics of each scored split."""
    _write_json(Path(path), {name: m.to_dict() for name, m in sorted(split_metrics.items())})


def read_metrics(path: str | Path) -> dict[str, SplitMetrics]:
    """Read the test and OOD metrics back from a ``metrics.json``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {name: SplitMetrics.from_dict(doc[name]) for name in SCORED_SPLITS}


def write_score_report(report: ScoreReport, path: str | Path) -> None:
    """Write ``score_report.json``, the machine form of a score report."""
    _write_json(Path(path), report.to_dict())


def evaluate_benchmark(
    spec: PredictorSpec,
    bench_dir: str | Path,
    config: ScoringConfig,
    out_dir: str | Path,
    *,
    fixed_inference_time_s: float | dict[str, float] | None,
    repeat: int,
    clock=time.perf_counter,
) -> tuple[TrainingOutcome, dict[str, SplitMetrics] | None]:
    """Train, then run inference on the test and OOD splits and evaluate them.

    Each split is read once; its predictions go to ``out_dir/pred/<split>``.
    `fixed_inference_time_s` substitutes a deterministic stub time (one value
    or per split) for the measured one. The config's solver-time source is
    applied here, so each split's `total_solver_time_s` is the reference
    total its speed-up divides. Returns the training outcome and
    {split: SplitMetrics}, or None for the metrics if training was rejected.
    """
    bench_dir = Path(bench_dir)
    out_dir = Path(out_dir)
    predictor = resolve_builtin(spec.builtin) if spec.builtin is not None else None
    budget = spec.training_budget_s if spec.training_budget_s is not None else config.training_budget_s
    outcome = run_training(spec, bench_dir / "train", budget, predictor=predictor, clock=clock)
    if outcome.rejected:
        return outcome, None

    split_metrics: dict[str, SplitMetrics] = {}
    for name in SCORED_SPLITS:
        split_dir = bench_dir / name
        dataset = read_dataset(split_dir)
        elapsed, predictions = run_inference(
            spec, split_dir, dataset, out_dir / "pred" / name,
            predictor=predictor, clock=clock, repeat=repeat,
        )
        if isinstance(fixed_inference_time_s, dict):
            used = fixed_inference_time_s.get(name, elapsed)
        elif fixed_inference_time_s is not None:
            used = float(fixed_inference_time_s)
        else:
            used = elapsed
        metrics = evaluate_split(dataset, predictions, config.field_criteria, total_inference_time_s=used)
        if config.solver_time_source == "constant":
            metrics.total_solver_time_s = config.solver_time_constant_s * len(dataset.samples)
        split_metrics[name] = metrics
    return outcome, split_metrics


def score_metrics(split_metrics: dict[str, SplitMetrics], config: ScoringConfig) -> ScoreReport:
    """Score the test and OOD metrics.

    ML and physics criteria come from the test split, OOD criteria from the
    OOD split. Each speed-up is the split's total reference solver time over
    its inference time.
    """
    test, ood = split_metrics["test"], split_metrics["ood"]
    return score_from_values(
        ml_values=criterion_values_from_metrics(test, ML_CRITERIA),
        ood_values=criterion_values_from_metrics(ood, OOD_CRITERIA),
        physics_values=criterion_values_from_metrics(test, PHYSICS_CRITERIA),
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
    fixed_inference_time_s: float | dict[str, float] | None = None,
    include_timestamp: bool = True,
    repeat: int = 1,
    clock=time.perf_counter,
) -> tuple[ScoreReport, LeaderboardEntry]:
    """Full pipeline: `evaluate_benchmark`, then `score_metrics`, then record.

    Writes ``metrics.json`` (unless training was rejected),
    ``score_report.json`` and ``report.txt`` to `out_dir` (a temporary
    directory when None). When `store_path` is given the resulting entry is
    appended there.
    """
    spec.validate()
    config.validate()
    bench_dir = Path(bench_dir)
    for name in ("train", *SCORED_SPLITS):
        if not (bench_dir / name / "manifest.json").exists():
            raise FormatError(f"benchmark directory is missing the {name!r} split: {bench_dir / name}")

    tmp = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="airbench-run-")
        out_dir = Path(tmp.name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        digests = {name: dataset_digest(bench_dir / name) for name in ("train", *SCORED_SPLITS)}
        outcome, split_metrics = evaluate_benchmark(
            spec, bench_dir, config, out_dir,
            fixed_inference_time_s=fixed_inference_time_s, repeat=repeat, clock=clock,
        )
        entry = LeaderboardEntry(
            label=spec.label,
            timestamp=_timestamp(include_timestamp),
            scoring_config_digest=config.digest(),
            dataset_digests=digests,
            timing="external-process" if spec.command else "builtin-loop",
        )
        if outcome.rejected:
            report = rejected_report(outcome.reason)
            entry.rejection_reason = outcome.reason
        else:
            write_metrics(split_metrics, out_dir / "metrics.json")
            report = score_metrics(split_metrics, config)
            entry.global_score = report.global_score
            entry.score_ml = report.ml.score
            entry.score_ood = report.ood.score
            entry.score_physics = report.physics.score
            entry.classifications = {
                cat.name: {c.name: c.classification.marker for c in cat.criteria}
                for cat in (report.ml, report.ood, report.physics)
            }
            entry.speedups = {"test": report.ml.speedup, "ood": report.ood.speedup}
        write_score_report(report, out_dir / "score_report.json")
        (out_dir / "report.txt").write_text(render_report(report, label=spec.label), encoding="utf-8")
        if store_path is not None:
            append_leaderboard_entry(store_path, entry)
        return report, entry
    finally:
        if tmp is not None:
            tmp.cleanup()


_CATEGORY_TITLES = {"ml": "ML-related", "ood": "OOD generalization", "physics": "Physics"}


def render_report(report: ScoreReport, label: str | None = None) -> str:
    """Deterministic plain-text rendering of a score report."""
    lines = ["=== airfoil surrogate benchmark report ==="]
    if label:
        lines.append(f"label: {label}")
    if report.rejected:
        lines.append(f"REJECTED: {report.rejection_reason}")
    lines.append(f"global score: {report.global_score:.6f} ({100.0 * report.global_score:.1f}%)")
    for cat in (report.ml, report.ood, report.physics):
        if not cat.criteria:
            continue
        lines.append("")
        head = f"{_CATEGORY_TITLES[cat.name]}: score {cat.score:.6f}  accuracy {cat.accuracy:.6f}"
        if cat.speed is not None:
            head += f"  speed {cat.speed:.6f}  speedup {cat.speedup:.3f}"
        lines.append(head)
        lines.append(f"  markers: {cat.markers()}")
        for c in cat.criteria:
            flag = "  (non-finite)" if c.non_finite else ""
            lines.append(f"    {c.name:<6} {c.classification.marker}  {c.value:.6f}{flag}")
    return "\n".join(lines) + "\n"

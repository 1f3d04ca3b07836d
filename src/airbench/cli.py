"""Command-line interface.

Verbs: ``generate`` builds a benchmark directory from a generation config,
``evaluate`` runs a predictor and writes raw metrics, ``score`` turns metrics
into a score report, ``run`` is ``evaluate`` + ``score`` + a leaderboard
append, ``leaderboard`` lists recorded entries, ``report`` renders a stored
score report, ``predict`` runs a builtin predictor as an external one would
run (the file protocol's self-test). Exit codes: 0 success, 2 validation
error or an output path that cannot be written, 3 predictor failure, 4
rejection.
"""

from __future__ import annotations

import argparse
import dataclasses
import shlex
import sys
from pathlib import Path

from .baselines import is_builtin
from .errors import AirbenchError, FormatError, InferenceError, TrainingError
from .harness import (
    STORE_ENV_VAR,
    PredictorSpec,
    evaluate_benchmark,
    leaderboard_list,
    render_report,
    resolve_store_path,
    run_benchmark,
    run_inference,
    score_metrics,
)
from .io import RunMetrics, dataset_digest, decode, read_dataset, read_json, write_json
from .metrics import evaluate_split  # unused here; perfbench/layers.py patches this name
from .scoring import ScoreReport, ScoringConfig, default_scoring_config
from .scoring import score_from_values  # unused here; perfbench/layers.py patches this name
from .synthflow import GenerationConfig, generate_benchmark

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PREDICTOR = 3
EXIT_REJECTED = 4


def _predictor_spec(args) -> PredictorSpec:
    name = args.predictor
    builtin = is_builtin(name)
    return PredictorSpec(
        label=args.label or name,
        builtin=name if builtin else None,
        command=None if builtin else shlex.split(name),
        working_dir=args.workdir,
        training_command=shlex.split(args.train_cmd) if args.train_cmd else None,
    )


def _scoring_config(path: str | None) -> ScoringConfig:
    if path is None:
        return default_scoring_config()
    return decode(ScoringConfig, read_json(path), path)


def _cmd_generate(args) -> int:
    config = decode(GenerationConfig, read_json(args.config), args.config) if args.config else GenerationConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    for name, count in generate_benchmark(config, args.out).items():
        print(f"{name}: {count} samples  digest {dataset_digest(Path(args.out) / name)}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    out = Path(args.out)
    rejection, metrics = evaluate_benchmark(
        _predictor_spec(args), args.bench, _scoring_config(args.config), out,
        fixed_inference_time_s=args.fixed_time,
    )
    if rejection is not None:
        print(f"rejected: {rejection}", file=sys.stderr)
        return EXIT_REJECTED
    write_json(out / "metrics.json", dataclasses.asdict(metrics))
    print(f"wrote {out / 'metrics.json'}")
    return EXIT_OK


def _cmd_score(args) -> int:
    metrics = decode(RunMetrics, read_json(args.metrics), args.metrics)
    report = score_metrics(metrics, _scoring_config(args.config))
    if args.out:
        write_json(args.out, dataclasses.asdict(report))
    print(render_report(report), end="")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _scoring_config(args.config)
    spec = _predictor_spec(args)
    report, entry = run_benchmark(
        spec,
        args.bench,
        config,
        out_dir=args.out,
        store_path=resolve_store_path(args.store),
        fixed_inference_time_s=args.fixed_time,
        include_timestamp=not args.no_timestamp,
    )
    print(render_report(report, label=entry.label), end="")
    return EXIT_REJECTED if report.rejected else EXIT_OK


def _cmd_predict(args) -> int:
    spec = PredictorSpec(label=args.name, builtin=args.name)
    if args.train is not None and not (Path(args.train) / "manifest.json").exists():
        raise FormatError(f"training split directory has no manifest.json: {args.train}")

    def load_train():
        if args.train is None:
            raise AirbenchError(f"{args.name} needs --train")
        return read_dataset(args.train)

    predict = spec.fit(load_train)
    run_inference(spec, args.dataset_dir, read_dataset(args.dataset_dir), args.pred_dir, predict=predict)
    return EXIT_OK


def _cmd_leaderboard(args) -> int:
    entries = leaderboard_list(resolve_store_path(args.store))
    if not entries:
        print("(empty leaderboard)")
        return EXIT_OK
    print(f"{'rank':<5} {'label':<24} {'global':>8} {'ml':>8} {'ood':>8} {'physics':>8}  timestamp")
    for rank, e in enumerate(entries, 1):
        note = f"  REJECTED: {e.rejection_reason}" if e.rejection_reason else ""
        print(
            f"{rank:<5} {e.label:<24} {100 * e.global_score:>7.2f}% "
            f"{e.score_ml:>8.4f} {e.score_ood:>8.4f} {e.score_physics:>8.4f}  {e.timestamp}{note}"
        )
    return EXIT_OK


def _cmd_report(args) -> int:
    report = decode(ScoreReport, read_json(args.score_report), args.score_report)
    print(render_report(report, label=args.label), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise AirbenchError instead of exiting."""

    def error(self, message):
        raise AirbenchError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="airbench", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="generate a benchmark directory")
    p.add_argument("--config", default=None, help="generation config JSON (defaults if omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", required=True, help="output benchmark directory")
    p.set_defaults(func=_cmd_generate)

    def add_predictor_args(p):
        p.add_argument("--predictor", required=True, help="builtin name (oracle, constant, knn:<k>) or external command")
        p.add_argument("--label", default=None, help="leaderboard label (defaults to the predictor name)")
        p.add_argument("--config", default=None, help="scoring config JSON (shipped default if omitted)")
        p.add_argument("--fixed-time", type=float, default=None, dest="fixed_time",
                       help="score with this fixed inference time instead of the measured one")
        p.add_argument("--train-cmd", default=None, dest="train_cmd", help="external training command")
        p.add_argument("--workdir", default=None, help="working directory for external commands")

    p = sub.add_parser("evaluate", help="run a predictor and write raw metrics")
    add_predictor_args(p)
    p.add_argument("--bench", required=True, help="benchmark directory (train/test/ood)")
    p.add_argument("--out", required=True, help="output directory for predictions and metrics.json")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("score", help="score a raw metrics file")
    p.add_argument("--metrics", required=True, help="metrics.json from the evaluate verb")
    p.add_argument("--config", default=None, help="scoring config JSON (shipped default if omitted)")
    p.add_argument("--out", default=None, help="optional score report JSON output path")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("run", help="full pipeline: train, infer, score, record")
    add_predictor_args(p)
    p.add_argument("--bench", required=True, help="benchmark directory (train/test/ood)")
    p.add_argument("--out", default=None, help="run output directory (predictions, metrics, reports)")
    p.add_argument("--store", default=None, help=f"leaderboard path (or ${STORE_ENV_VAR})")
    p.add_argument("--no-timestamp", action="store_true", dest="no_timestamp",
                   help="record an empty timestamp for byte-reproducible entries")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("leaderboard", help="list recorded runs, best first")
    p.add_argument("--store", default=None, help=f"leaderboard path (or ${STORE_ENV_VAR})")
    p.set_defaults(func=_cmd_leaderboard)

    p = sub.add_parser("report", help="render a stored score report")
    p.add_argument("score_report", help="score_report.json path")
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("predict", help="predict a dataset with a builtin, as an external predictor would")
    p.add_argument("name", help="builtin predictor name (oracle, constant, knn:<k>)")
    p.add_argument("dataset_dir", help="dataset directory to predict")
    p.add_argument("pred_dir", help="directory for one prediction CSV per sample")
    p.add_argument("--train", default=None, help="training split directory (constant and knn:<k> need one)")
    p.set_defaults(func=_cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (TrainingError, InferenceError) as e:
        print(f"airbench: predictor failure: {e}", file=sys.stderr)
        return EXIT_PREDICTOR
    except (AirbenchError, OSError) as e:
        print(f"airbench: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of `airbench generate` and `airbench run`, end to end and per layer.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

Workloads (see README.md): `generate` writes a scaled-down default
benchmark; `run-oracle` and `run-knn` score the `oracle` and `knn:5`
predictors on a bench generated during set-up. Every operation is one
`airbench.cli.main` call in this process. Its outputs are checked after the
measured phase; an operation whose check fails counts as failed.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced operations and reports per-layer figures per
operation. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy loads: the timings must
# not depend on how a pool sizes itself on the machine at hand.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from layers import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
# Metric names and units, as committed: each mode reports exactly these.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

NODES = 1000
# The default config's 103/200/496 train/test/ood split, scaled by 1/100.
GENERATE_COUNTS = {"n_train": 1, "n_test": 2, "n_ood": 5}
# The bench the run workloads score: test and OOD in the default's 2:5 ratio,
# and a training pool of twice the test split. Scaled down, the pool's reads
# weigh more than at the default size, so no pool of an affordable size gives
# k-NN its default share of a run (README.md, "How the run bench was sized").
RUN_COUNTS = {"n_train": 8, "n_test": 4, "n_ood": 10}
PREDICTORS = {"run-oracle": "oracle", "run-knn": "knn:5"}
WORKLOADS = ("generate",) + tuple(PREDICTORS)
KNN_K = 5
KNN_CHECK_NODES = 8  # nodes per predicted sample compared with brute-force k-NN
SETUPS = 3  # set-ups per run; setup_s is their median

# A fresh interpreter that imports the CLI and, given arguments, runs it.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from airbench import cli; "
    "sys.exit(cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0)"
)


def import_cli():
    """airbench.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        from airbench import cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import airbench from {SRC}: {e}")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: airbench was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_config(path: Path, counts: dict, seed: int) -> Path:
    path.write_text(json.dumps(dict(counts, nodes_per_sample=NODES, seed=seed)))
    return path


def set_up(workload: str, work: Path, seed: int, times: int) -> tuple[list[float], Path | None]:
    """Time `times` set-ups, each in its own interpreter; return the times and the bench.

    A set-up imports airbench and, for the run workloads, generates the
    bench. Its own process keeps the generation's memory out of this
    process's peak.
    """
    config = write_config(work / "bench.json", RUN_COUNTS, seed)
    seconds, benches = [], []
    for i in range(times):
        argv = [sys.executable, "-c", _SETUP_CODE, str(SRC)]
        if workload in PREDICTORS:
            benches.append(work / f"bench{i}")
            argv += ["generate", "--config", str(config), "--out", str(benches[-1])]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    if not benches:
        return seconds, None
    if len({checks.tree_digest(b) for b in benches}) != 1:
        raise SystemExit("perfbench: two set-ups generated different benches from one config")
    for extra in benches[1:]:
        shutil.rmtree(extra)
    return seconds, benches[0]


class Operation:
    """One `airbench.cli.main` call per index, each into its own output directory."""

    def __init__(self, cli, workload: str, work: Path, seed: int, bench: Path | None):
        self.cli = cli
        self.work = work
        if workload == "generate":
            config = write_config(work / "generate.json", GENERATE_COUNTS, seed)
            self.argv = ["generate", "--config", str(config), "--out"]
            self.samples = sum(GENERATE_COUNTS.values())
        else:
            self.argv = ["run", "--predictor", PREDICTORS[workload], "--bench", str(bench),
                         "--no-timestamp", "--out"]
            self.samples = RUN_COUNTS["n_test"] + RUN_COUNTS["n_ood"]
        self.outputs: list[tuple[int, Path]] = []

    def __call__(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """Run once; return wall and process CPU seconds."""
        out = self.work / f"op{len(self.outputs):04d}"
        argv = self.argv + [str(out)]
        if self.argv[0] == "run":
            argv += ["--store", str(out / "leaderboard.jsonl")]
        sink = io.StringIO()
        with tracer.installed() if tracer else contextlib.nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        self.outputs.append((code, out))
        return wall, cpu


def check_outputs(workload: str, op: Operation, bench: Path | None, seed: int, work: Path) -> list[list[str]]:
    """Problems per operation, in the order the operations ran."""
    problems = [[f"exit code {code}"] if code != 0 else [] for code, _ in op.outputs]
    if workload == "generate":
        # The shared checks run on the first operation that exited 0; the others must match its bytes.
        first = next((out for code, out in op.outputs if code == 0), None)
        if first is None:
            return problems
        try:
            shared = checks.check_generated_physics(checks.read_bench(first))
            shared += checks.check_roundtrip(first, work / "roundtrip")
        except (OSError, ValueError, KeyError) as e:
            shared = [f"generated bench unreadable: {e!r}"]
        digest = checks.tree_digest(first)
        for found, (code, out) in zip(problems, op.outputs):
            if code != 0:
                continue
            if checks.tree_digest(out) != digest:
                found.append("dataset bytes differ from the first operation's")
            found += shared
        return problems
    data = checks.read_bench(bench)
    criteria = checks.shipped_field_criteria(SRC)
    rng = np.random.default_rng(seed)
    for found, (code, out) in zip(problems, op.outputs):
        if code != 0:
            continue
        if workload == "run-oracle":
            found += checks.check_oracle_run(out, data)
        else:
            found += checks.check_knn_predictions(out, data, KNN_K, KNN_CHECK_NODES, rng)
            found += checks.check_pooled_errors(out, data, criteria)
            found += checks.check_accuracies(out)
            found += checks.check_speedups(out, data)
    return problems


def measure(op: Operation, seconds: float, traced: bool) -> tuple[list, list, float]:
    """Run whole rounds until `seconds` have passed, after one warm-up operation.

    A round is one operation, or with `traced` an untraced and a traced
    operation. Returns the untraced operations' wall times, the traced
    operations' (wall time, layer figures) and the measured phase's wall time.
    """
    op()  # warm-up: lazy imports and caches fill outside the measured phase
    plain, traced_ops = [], []
    start = time.perf_counter()
    while True:
        plain.append(op()[0])
        if traced:
            tracer = Tracer()
            wall, cpu = op(tracer)
            traced_ops.append((wall, tracer.summary(cpu)))
        if time.perf_counter() - start >= seconds:
            return plain, traced_ops, time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    cli = import_cli()
    setup_times, bench = set_up(workload, work, seed, 1 if trace else SETUPS)
    op = Operation(cli, workload, work, seed, bench)
    plain, traced_ops, phase = measure(op, seconds, trace)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(workload, op, bench, seed, work)
    for i, found in enumerate(problems):
        if found:
            print(f"operation {i} failed: {'; '.join(found[:5])}", file=sys.stderr)
    failed = sum(1 for found in problems if found)

    if trace:
        # median_low keeps a measured value, so counts stay whole numbers.
        values = {
            name: statistics.median_low(layers[name] for _, layers in traced_ops)
            for name in traced_ops[0][1]
        }
        values["trace.overhead_s"] = statistics.median(w for w, _ in traced_ops) - statistics.median(plain)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(plain),
            "samples_per_s": op.samples * len(plain) / phase,
            "peak_rss_mb": peak_mb,
        }
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for name, m in result["metrics"].items():
        print(f"{args.workload}  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

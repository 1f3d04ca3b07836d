"""Self-tests of the benchmark, at a small size (about 30 s).

    python3 perfbench/selftest.py

They show that each output check passes on the program's output and rejects
a deliberately wrong one (a changed sample byte, a perturbed prediction, a
wrong neighbour, a tampered report), that a run prints every metric named in
BENCHMARK.json, and that the benchmark fails without the program's sources.
Exit code 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
import types
from pathlib import Path

import run as bench  # sets the thread-pool variables before numpy loads

import numpy as np  # noqa: E402

import checks  # noqa: E402

SMALL_NODES = 1000  # fewer surface nodes would exceed the Kutta-Joukowski quadrature tolerance
SMALL_COUNTS = {"n_train": 3, "n_test": 2, "n_ood": 2}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


class Fixture:
    """A small bench with one generate, one oracle run and one knn:5 run."""

    def __init__(self, work: Path):
        self.cli = bench.import_cli()
        self.work = work
        config = work / "small.json"
        config.write_text(json.dumps(dict(SMALL_COUNTS, nodes_per_sample=SMALL_NODES, seed=5)))
        self.bench = work / "bench"
        self.main("generate", "--config", str(config), "--out", str(self.bench))
        self.data = checks.read_bench(self.bench)
        self.oracle = self.run_predictor("oracle")
        self.knn = self.run_predictor("knn:5")

    def main(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(list(argv))
        expect(code == 0, f"airbench {' '.join(argv)} exited with {code}")

    def run_predictor(self, predictor: str, name: str | None = None) -> Path:
        out = self.work / (name or predictor.replace(":", ""))
        self.main("run", "--predictor", predictor, "--bench", str(self.bench), "--out", str(out),
                  "--store", str(out / "leaderboard.jsonl"), "--no-timestamp")
        return out

    def copy(self, source: Path, name: str) -> Path:
        target = self.work / name
        shutil.copytree(source, target)
        return target


def _edit_csv(path: Path, row: int, column: int, edit) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _bump_leading_digit(value: str) -> str:
    i = next(i for i, ch in enumerate(value) if ch in "123456789")
    return value[:i] + str(int(value[i]) % 9 + 1) + value[i + 1 :]


def _write_prediction_csv(path: Path, pred: np.ndarray) -> None:
    lines = ["u_x,u_y,p_s,nu_t"] + [",".join("%.17g" % v for v in row) for row in pred]
    path.write_text("\n".join(lines) + "\n")


def _first_sample_csv(split_dir: Path) -> Path:
    manifest = json.loads((split_dir / "manifest.json").read_text())
    return split_dir / manifest["samples"][0]["csv"]


def test_generate_checks_pass_on_program_output(fx: Fixture) -> None:
    expect(checks.check_generated_physics(fx.data) == [], "physics checks reject the generated bench")
    expect(checks.check_roundtrip(fx.bench, fx.work / "rt0") == [], "round trip rejects the generated bench")


def test_changed_sample_byte_is_rejected(fx: Fixture) -> None:
    changed = fx.copy(fx.bench, "changed_byte")
    # Row 2 is a surface node; column 8 is p_s. Change its leading digit.
    _edit_csv(_first_sample_csv(changed / "test"), 2, 8, _bump_leading_digit)
    expect(checks.tree_digest(changed) != checks.tree_digest(fx.bench), "digest misses a changed byte")
    found = checks.check_generated_physics(checks.read_bench(changed))
    expect(any("Bernoulli" in p for p in found), f"Bernoulli check misses a changed p_s byte: {found}")


def test_noncanonical_bytes_fail_the_round_trip(fx: Fixture) -> None:
    changed = fx.copy(fx.bench, "noncanonical")
    # The same float with a leading zero: values are equal, bytes are not canonical.
    _edit_csv(_first_sample_csv(changed / "ood"), 3, 0,
              lambda v: "-0" + v[1:] if v.startswith("-") else "0" + v)
    expect(checks.check_generated_physics(checks.read_bench(changed)) == [], "physics should still pass")
    found = checks.check_roundtrip(changed, fx.work / "rt1")
    expect(found != [], "round trip misses non-canonical bytes")


def test_oracle_checks(fx: Fixture) -> None:
    expect(checks.check_oracle_run(fx.oracle, fx.data) == [], "oracle checks reject the oracle run")
    from airbench import baselines

    original = baselines.oracle_predict

    def perturbed(sample):
        fields = original(sample)
        p_s = fields.p_s.copy()
        p_s[0] += 1e-9
        return type(fields)(u_x=fields.u_x, u_y=fields.u_y, p_s=p_s, nu_t=fields.nu_t)

    baselines.oracle_predict = perturbed
    try:
        out = fx.run_predictor("oracle", name="oracle_perturbed")
    finally:
        baselines.oracle_predict = original
    found = checks.check_oracle_run(out, fx.data)
    expect(any("error" in p for p in found), f"oracle check misses a perturbed prediction: {found}")

    tampered = fx.copy(fx.oracle, "oracle_time")
    doc = json.loads((tampered / "metrics.json").read_text())
    doc["test"]["total_inference_time_s"] *= 2.0
    (tampered / "metrics.json").write_text(json.dumps(doc))
    expect(checks.check_speedups(tampered, fx.data) != [], "speed-up check misses a wrong time")


def test_knn_checks_pass_on_program_output(fx: Fixture) -> None:
    rng = np.random.default_rng(0)
    criteria = checks.shipped_field_criteria(bench.SRC)
    expect(checks.check_knn_predictions(fx.knn, fx.data, 5, 16, rng) == [], "k-NN check rejects knn:5")
    expect(checks.check_pooled_errors(fx.knn, fx.data, criteria) == [], "pooled errors reject knn:5")
    expect(checks.check_accuracies(fx.knn) == [], "accuracy check rejects knn:5")
    expect(checks.check_speedups(fx.knn, fx.data) == [], "speed-up check rejects knn:5")


def test_perturbed_knn_prediction_is_rejected(fx: Fixture) -> None:
    changed = fx.copy(fx.knn, "knn_perturbed")
    sample = fx.data["test"][0]
    path = changed / "pred" / "test" / f"{sample['id']}.csv"
    pred = np.loadtxt(path, delimiter=",", skiprows=1)
    pred[:, 2] *= 1.0 + 1e-6
    _write_prediction_csv(path, pred)
    rng = np.random.default_rng(0)
    found = checks.check_knn_predictions(changed, fx.data, 5, 16, rng)
    expect(found != [], "k-NN check misses a perturbed prediction")
    found = checks.check_pooled_errors(changed, fx.data, checks.shipped_field_criteria(bench.SRC))
    expect(found != [], "pooled-error check misses a perturbed prediction")


def test_wrong_neighbour_is_rejected(fx: Fixture) -> None:
    changed = fx.copy(fx.knn, "knn_wrong_neighbour")
    sample = fx.data["ood"][0]
    train = fx.data["train"]
    feats = np.vstack([checks.knn_features(s) for s in train])
    outs = np.vstack([s["fields"] for s in train])
    scale = feats.std(axis=0)
    pool = feats / scale
    q = checks.knn_features(sample) / scale
    d2 = np.zeros((len(q), len(pool)))
    for f in range(pool.shape[1]):
        d2 += (q[:, f, None] - pool[None, :, f]) ** 2
    d = np.sqrt(d2)
    ranked = np.argsort(d, axis=1, kind="stable")
    wrong = ranked[:, [0, 1, 2, 3, 5]]  # the 6th neighbour in place of the 5th
    w = 1.0 / np.take_along_axis(d, wrong, axis=1)
    pred = np.einsum("nk,nkc->nc", w, outs[wrong]) / w.sum(axis=1)[:, None]
    _write_prediction_csv(changed / "pred" / "ood" / f"{sample['id']}.csv", pred)
    found = checks.check_knn_predictions(changed, fx.data, 5, 16, np.random.default_rng(0))
    expect(found != [], "k-NN check misses a wrong neighbour")


def test_tampered_marker_is_rejected(fx: Fixture) -> None:
    changed = fx.copy(fx.knn, "knn_marker")
    doc = json.loads((changed / "score_report.json").read_text())
    criterion = doc["physics"]["criteria"][0]
    criterion["classification"] = (criterion["classification"] + 1) % 3
    (changed / "score_report.json").write_text(json.dumps(doc))
    expect(checks.check_accuracies(changed) != [], "accuracy check misses a changed marker")


def test_failed_generate_operations_are_counted(fx: Fixture) -> None:
    missing = fx.work / "never_written"
    same = fx.copy(fx.bench, "generate_again")
    op = types.SimpleNamespace(outputs=[(2, missing), (0, fx.bench), (0, same)])
    found = bench.check_outputs("generate", op, None, 0, fx.work / "gen_checks_a")
    expect(found == [["exit code 2"], [], []], f"a failed first operation is not counted alone: {found}")
    op = types.SimpleNamespace(outputs=[(1, missing)])
    found = bench.check_outputs("generate", op, None, 0, fx.work / "gen_checks_b")
    expect(found == [["exit code 1"]], f"an all-failed run is not counted: {found}")


def test_printed_metrics_carry_every_name(fx: Fixture) -> None:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expect(list(spec["command"]) == ["python3", "perfbench/run.py"], "unexpected command")
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS), "workload names differ")
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    saved = bench.NODES, bench.RUN_COUNTS, bench.GENERATE_COUNTS
    bench.NODES, bench.RUN_COUNTS, bench.GENERATE_COUNTS = SMALL_NODES, SMALL_COUNTS, SMALL_COUNTS
    try:
        for workload in bench.WORKLOADS:
            for trace in (0, 1):
                work = fx.work / f"run-{workload}-{trace}"
                work.mkdir()
                result = bench.run(workload, 3, 0.01, bool(trace), work)
                expect(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                expect(got == wanted[trace], f"{workload} trace {trace}: {sorted(got)} != {sorted(wanted[trace])}")
                values = {k: m["value"] for k, m in result["metrics"].items()}
                if trace and workload != "generate":
                    n_eval = SMALL_COUNTS["n_test"] + SMALL_COUNTS["n_ood"]
                    expect(values["io.read_dataset.calls"] == 5, f"read calls {values['io.read_dataset.calls']}")
                    expect(values["model.polygon_is_simple.calls"] == SMALL_COUNTS["n_train"] + 4 * n_eval,
                           f"polygon calls {values['model.polygon_is_simple.calls']}")
                    expect(values["metrics.force_coefficients.calls"] == 2 * n_eval, "force calls")
                if not trace:
                    expect(all(v > 0 for v in values.values()), f"{workload}: a zero metric {values}")
    finally:
        bench.NODES, bench.RUN_COUNTS, bench.GENERATE_COUNTS = saved


def test_fails_without_program_sources(fx: Fixture) -> None:
    bare = fx.work / "bare"
    shutil.copytree(bench.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0, "the benchmark succeeded without src/")
    expect('"metrics"' not in proc.stdout, "the benchmark printed a result without src/")


def main() -> int:
    work = bench.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = 0
    try:
        fx = Fixture(work)
        for name, test in list(globals().items()):
            if name.startswith("test_") and callable(test):
                try:
                    test(fx)
                    print(f"PASS {name}")
                except Exception:  # report every failing test, then exit non-zero
                    failures += 1
                    print(f"FAIL {name}\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.WORK.rmdir()
    print(f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans and counts at airbench's layer boundaries, recorded from outside the package.

Each public layer function is wrapped under every module name it is called
through: `harness` imports `read_dataset` by name, so patching `airbench.io`
alone would miss those calls. Spans nest by call order (one thread), and a
span's self time is its duration minus the durations of its direct children.
The wrappers are installed only for a traced operation and removed after it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from pathlib import Path

# (calling module, attribute, span name). A row per namespace the function is
# reached through in `airbench generate` and `airbench run`.
SPANS = (
    ("airbench.synthflow", "generate_split", "synthflow.generate_split"),
    ("airbench.synthflow", "distance_to_surface", "synthflow.distance_to_surface"),
    ("airbench.io", "validate_dataset", "model.validate_dataset"),
    ("airbench.model", "polygon_is_simple", "model.polygon_is_simple"),
    ("airbench.metrics", "polygon_is_simple", "model.polygon_is_simple"),
    ("airbench.synthflow", "write_dataset", "io.write_dataset"),
    ("airbench.harness", "read_dataset", "io.read_dataset"),
    ("airbench.cli", "read_dataset", "io.read_dataset"),
    ("airbench.harness", "write_predictions", "io.write_predictions"),
    ("airbench.harness", "read_predictions", "io.read_predictions"),
    ("airbench.harness", "dataset_digest", "io.dataset_digest"),
    ("airbench.cli", "dataset_digest", "io.dataset_digest"),
    ("airbench.harness", "evaluate_split", "metrics.evaluate_split"),
    ("airbench.cli", "evaluate_split", "metrics.evaluate_split"),
    ("airbench.baselines", "knn_fit", "baselines.knn_fit"),
    ("airbench.baselines", "knn_predict", "baselines.knn_predict"),
    ("airbench.harness", "score_from_values", "scoring.score_from_values"),
    ("airbench.cli", "score_from_values", "scoring.score_from_values"),
    ("airbench.harness", "run_inference", "harness.run_inference"),
    ("airbench.cli", "run_inference", "harness.run_inference"),
    ("airbench.cli", "run_benchmark", "harness.run_benchmark"),
    ("airbench.harness", "append_leaderboard_entry", "harness.append_leaderboard_entry"),
)

# Functions counted without a span of their own: their time stays in the parent.
COUNTED = (("airbench.metrics", "force_coefficients", "metrics.force_coefficients"),)

class Span:
    __slots__ = ("name", "parent", "start", "end", "tag")

    def __init__(self, name: str, parent: int | None, tag: str | None):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Spans and counts of one operation, kept in memory until `summary`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []
        self._split: str | None = None  # split whose inference is running

    def begin(self, name: str, tag: str | None = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, tag))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if name == "synthflow.distance_to_surface":
                self.counts[name + ".points"] += len(args[1])
            outer_split = self._split
            if name == "harness.run_inference":
                self._split = Path(args[1]).name
            tag = self._split if name == "baselines.knn_predict" else None
            index = self.begin(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
                self._split = outer_split
            if name == "io.write_dataset":
                self.counts[name + ".bytes"] += _tree_bytes(args[1])
            elif name == "harness.run_inference":
                self.counts[name + ".timed_s"] += result[0]
            return result

        return traced

    def count(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every row of SPANS and COUNTED; restore the originals on exit."""
        saved = []
        try:
            for rows, make in ((SPANS, self.wrap), (COUNTED, self.count)):
                for module_name, attr, name in rows:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, make(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, cpu_s: float) -> dict[str, float]:
        """Per-layer figures of the operation just traced (zero for layers it never called).

        Its keys, with `trace.overhead_s` from run.py, are the per-layer metrics of BENCHMARK.json.
        """
        total = defaultdict(float)
        child = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            key = span.name if span.tag is None else f"{span.name}.{span.tag}"
            total[key] += duration
            if span.parent is not None:
                child[span.parent] += duration
        self_time = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_time[span.name] += span.end - span.start - child[i]
        c = self.counts
        return {
            "synthflow.generate_split.self_s": self_time["synthflow.generate_split"],
            "synthflow.distance_to_surface.s": total["synthflow.distance_to_surface"],
            "synthflow.distance_to_surface.points": c["synthflow.distance_to_surface.points"],
            "model.validate_dataset.self_s": self_time["model.validate_dataset"],
            "model.polygon_is_simple.s": total["model.polygon_is_simple"],
            "model.polygon_is_simple.calls": c["model.polygon_is_simple.calls"],
            "io.write_dataset.self_s": self_time["io.write_dataset"],
            "io.write_dataset.bytes": c["io.write_dataset.bytes"],
            "io.read_dataset.self_s": self_time["io.read_dataset"],
            "io.read_dataset.calls": c["io.read_dataset.calls"],
            "io.write_predictions.s": total["io.write_predictions"],
            "io.read_predictions.s": total["io.read_predictions"],
            "io.dataset_digest.s": total["io.dataset_digest"],
            "metrics.evaluate_split.self_s": self_time["metrics.evaluate_split"],
            "metrics.force_coefficients.calls": c["metrics.force_coefficients.calls"],
            "baselines.knn_fit.s": total["baselines.knn_fit"],
            "baselines.knn_predict.test_s": total["baselines.knn_predict.test"],
            "baselines.knn_predict.ood_s": total["baselines.knn_predict.ood"],
            "scoring.score_from_values.s": total["scoring.score_from_values"],
            "harness.run_inference.timed_s": c["harness.run_inference.timed_s"],
            "harness.run_benchmark.self_s": self_time["harness.run_benchmark"],
            "harness.append_leaderboard_entry.s": total["harness.append_leaderboard_entry"],
            "cli.main.cpu_s": cpu_s,
        }


def _tree_bytes(directory) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, f))
        for dirpath, _, files in os.walk(directory)
        for f in files
    )

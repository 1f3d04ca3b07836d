"""The package's installed entry points and its public names."""

from __future__ import annotations

import argparse
import importlib
import re
import types
from pathlib import Path

import pytest

import airbench
from airbench.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_every_script_entry_point_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{name} = {target}"


def test_public_names_are_the_library_use_names():
    public = {n for n, v in vars(airbench).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == {
        "AirbenchError",
        "GenerationConfig",
        "PredictorSpec",
        "default_scoring_config",
        "generate_benchmark",
        "run_benchmark",
    }


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "runs" / "knn" / "score_report.json").exists()
    assert len((tmp_path / "leaderboard.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    assert capsys.readouterr().out.strip()


def test_readme_cli_verbs_table_has_a_row_per_verb():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI verbs", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    (verbs,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(rows) == sorted(verbs)

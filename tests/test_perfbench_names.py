"""The benchmark's trace mode patches airbench functions by module and name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    rows = layers.SPANS + layers.COUNTED
    assert rows
    missing = []
    for module_name, attr, _ in rows:
        try:
            getattr(importlib.import_module(module_name), attr)
        except AttributeError:
            missing.append(f"{module_name}.{attr}")
    assert missing == []

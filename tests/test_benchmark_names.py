"""BENCHMARK.json's per-layer timings and call counts name functions of
circdom; circbench's `--trace 1` looks each one up and fails on a name
that is gone. Read only: the file is not written."""

import importlib
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_layer_names_are_public_functions():
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m["name"].rsplit(".", 1)[0] for m in layers
             if m["name"].endswith((".self_ms", ".calls"))]
    assert "primes.primes_in_window" in names
    for name in names:
        module, function = name.split(".")
        mod = importlib.import_module(f"circdom.{module}")
        obj = getattr(mod, function, None)
        assert not function.startswith("_"), name
        assert inspect.isfunction(obj), name
        assert obj.__module__ == mod.__name__, name

"""Guards for the benchmark harness in perfbench/, which reads the program's
function names: it only reads BENCHMARK.json and perfbench/, and edits neither."""

import importlib
import json
import pkgutil
from pathlib import Path

import dxpipe

ROOT = Path(__file__).resolve().parent.parent


def test_every_per_layer_metric_names_a_traced_function_or_layer(monkeypatch):
    # `perfbench/run.py --trace 1` raises KeyError for a per-layer metric of
    # BENCHMARK.json that names a function the program no longer has
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    tracer_mod = importlib.import_module("tracer")
    for module in pkgutil.iter_modules(dxpipe.__path__):
        importlib.import_module(f"dxpipe.{module.name}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        metrics = run.layer_metrics(spec["per_layer"], tracer, lambda op: 1.0, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])

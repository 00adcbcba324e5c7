"""The benchmark's span tracer names gemkit functions by "layer.function";
every name must resolve, or only a traced bench run would notice."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_layers_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for layer, fns in spans.LAYERS.items():
        module = importlib.import_module(f"gemkit.{layer}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"gemkit.{layer}.{fn}"

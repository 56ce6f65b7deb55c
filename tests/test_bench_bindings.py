"""The package names that bench/spans.py wraps, checked in the package's
own tests: the traced benchmark run looks each one up with getattr, so
renaming or deleting one would otherwise fail only there."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_span_binding_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BINDINGS
    missing = [(module, attr) for module, attr, _, _ in spans.BINDINGS
               if not hasattr(importlib.import_module(f"cogrelay.{module}"), attr)]
    assert missing == []

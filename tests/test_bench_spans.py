"""The traced benchmark wraps functions that exist in the package."""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_targets():
    """`_targets(None)` of bench/spans.py, run from its source (no bytecode written)."""
    namespace = {"__name__": "bench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["_targets"](None)


def test_traced_benchmark_targets_resolve():
    targets = traced_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(f"streampcq.{module}"),
                                       attr, None))]
    assert missing == []

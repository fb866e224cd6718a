"""The traced benchmark wraps functions that exist in the package and finds the
modules its import probe times."""

import importlib
import os
import subprocess
import sys
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


def test_import_probe_finds_its_modules():
    # bench/run.py::import_times indexes these entries of `-X importtime`
    # (traced runs only); a CLI that stopped importing one would end the run
    # with a KeyError before any pass.
    src = SPANS.parent.parent / "src"
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import streampcq.cli"],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"streampcq", "streampcq.cli", "streampcq.evaluation",
            "streampcq.pointcloud"} <= names

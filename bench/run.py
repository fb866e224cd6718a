"""Benchmark of streampcq: stream monitoring and the calibration pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload monitor-bulk --seed 1 --seconds 50 --trace 0

Workloads: monitor-bulk and calibrate (see README.md).  The seed makes the
inputs; they are cached under bench/_work/cache and written before anything
is timed.  With --trace 0 the last line of output is a JSON object with the
end-to-end metrics, with --trace 1 one with the per-layer metrics of a traced
run.  The program is imported from ./src and driven only through
streampcq.cli.main and streampcq.subjective.compute_mos.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import fixtures  # noqa: E402

IMPORTTIME_PROBES = 3
PROBE_TIMEOUT_S = 60
RUNNER_TIMEOUT_S = 150


def ensure_fixtures(cache: Path, workload: str, seed: int) -> Path:
    """Inputs for (workload, seed), generated once; other seeds are dropped."""
    directory = cache / workload / str(seed)
    if (directory / "complete").exists():
        return directory
    if (cache / workload).exists():
        shutil.rmtree(cache / workload)
    directory.mkdir(parents=True)
    fixtures.GENERATORS[workload](directory, seed)
    (directory / "complete").write_text("")
    return directory


def import_times(src: Path) -> dict:
    """Cumulative import times (ms) from `python -X importtime`, median of probes."""
    samples = {"import.cli_ms": [], "import.evaluation_ms": [], "import.pointcloud_ms": []}
    for _ in range(IMPORTTIME_PROBES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import streampcq.cli"],
                             env={**os.environ, "PYTHONPATH": str(src)}, cwd=src.parent,
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        cumulative = {}
        for line in out.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _self, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e3)
        # importing streampcq.cli first runs the package __init__, which
        # imports every module; the two top-level entries add up to the whole.
        samples["import.cli_ms"].append(cumulative["streampcq"] + cumulative["streampcq.cli"])
        samples["import.evaluation_ms"].append(cumulative["streampcq.evaluation"])
        samples["import.pointcloud_ms"].append(cumulative["streampcq.pointcloud"])
    return {k: (statistics.median(v), "ms") for k, v in samples.items()}


def run_passes(src: Path, fixture_dir: Path, work: Path, args, trace_out: Path) -> dict:
    cmd = [sys.executable, str(BENCH / "passes.py"), "--src", str(src),
           "--fixtures", str(fixture_dir), "--work", str(work), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(trace_out)]
    out = subprocess.run(cmd, cwd=src.parent, capture_output=True, text=True,
                         timeout=RUNNER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"pass runner exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(fixtures.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "streampcq" / "cli.py").is_file():
        print(f"error: {src}/streampcq not found; run from the root of a checkout",
              file=sys.stderr)
        return 2

    state = BENCH / "_work"
    fixture_dir = ensure_fixtures(state / "cache", args.workload, args.seed)
    work = state / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    trace_out = state / f"trace-{args.workload}.jsonl"
    try:
        layers = import_times(src) if args.trace else {}
        r = run_passes(src, fixture_dir, work, args, trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        layers.update(r["per_layer"])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        print(f"{args.workload}: traced {r['traced_passes']} of "
              f"{r['traced_passes'] + r['passes']} passes; spans in {trace_out}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"]), "unit": "s"},
            "pass_s": {"value": statistics.median(r["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
            "read_mb": {"value": r["read_mb"], "unit": "MB"},
        }
        print(f"{args.workload}: seed {args.seed}, {r['passes']} passes, "
              f"{len(r['setup_s'])} set-up probes")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  operations: {r['attempted']} attempted, {r['failed']} failed")
    for problem in r["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

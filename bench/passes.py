"""Runs one workload's passes in this process and reports what it measured.

Started by run.py in a fresh interpreter, so that its peak resident memory
is that of the passes alone.  Usage:

    python3 bench/passes.py --src SRC --fixtures DIR --work DIR
        --workload NAME --seed N --seconds S --trace 0|1

It prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
import spans

VARIANT = "alpha-times-tqs"
# Bounds on the calibrate outputs.  With the planted noise the folds and
# splits give PLCC of 0.998 to 0.9998 and the MOS tracks the planted MOS
# with PLCC of about 0.9987.
MOS_PLCC_MIN = 0.995
FOLD_PLCC_MIN = 0.98
SPLIT_PLCC_MIN = 0.99
EVAL_PLCC_MIN = 0.99
TC_REL_TOL = 1e-9
PMOS_TOL = 1e-9
RECOVERY_TOL = 1e-6

# setup_s: `import streampcq.cli` timed in fresh interpreters.  The probes
# are spread over the run, between passes, so that they sample the same
# stretch of machine speed as the passes do.
SETUP_PROBES = 7
SETUP_PROBE = ("import time; t = time.perf_counter(); import streampcq.cli; "
               "print(time.perf_counter() - t); print(streampcq.cli.__file__)")


def setup_probe(src: Path) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=src.parent,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60, check=True)
    seconds, where = out.stdout.split("\n")[:2]
    if not Path(where).resolve().is_relative_to(src):
        raise RuntimeError(f"streampcq imported from {where}, not {src}")
    return float(seconds)


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One pass = the program calls of a workload; check() validates them."""

    def __init__(self, sp, fixtures: Path, work: Path, seed: int):
        self.sp, self.fixtures, self.work, self.seed = sp, fixtures, work, seed
        self.manifest = json.loads((fixtures / "manifest.json").read_text())
        self.first_outputs = None
        self.stderr = io.StringIO()

    def run(self):
        self.stderr = io.StringIO()
        return self.run_pass()

    def verify(self, problems: list):
        """Checks made once per run, before timing; none by default."""

    def cli(self, *argv) -> int:
        with contextlib.redirect_stderr(self.stderr):
            return self.sp["cli"].main([str(a) for a in argv])

    def check_repeatable(self, problems: list):
        outputs = {p.name: p.read_bytes() for p in self.repeatable}
        if self.first_outputs is None:
            self.first_outputs = outputs
        for name, data in outputs.items():
            if data != self.first_outputs[name]:
                problems.append(f"{name} differs from the first pass")


class Monitor(Workload):
    """extract over every stream, then score the feature CSV."""

    def __init__(self, *args):
        super().__init__(*args)
        self.streams = [str(self.fixtures / s["stream"]) for s in self.manifest["streams"]]
        self.features = self.work / "features.csv"
        self.scores = self.work / "scores.csv"
        self.repeatable = [self.scores]
        self.defaults = self.sp["model"].ModelParams().to_dict()

    def run_pass(self):
        return (self.cli("extract", *self.streams, "--out", self.features),
                self.cli("score", self.features, "--out", self.scores))

    def check(self, returned, problems) -> tuple:
        if returned != (0, 0):
            problems.append(f"extract/score exited {returned}: {self.stderr.getvalue()[-500:]}")
        features = {r["stream"]: r for r in _read_csv(self.features)}
        scores = {r["stream"]: r for r in _read_csv(self.scores)}
        failed = 0
        for planted, path in zip(self.manifest["streams"], self.streams):
            tbpp = planted["texture_bits"] / planted["point_count"]
            want = ref.pmos(self.defaults, planted["pqs"], planted["qp"], tbpp,
                            self.defaults["variant"])
            f, s = features.get(path), scores.get(path)
            ok = (f is not None and s is not None
                  and float(f["pqs"]) == planted["pqs"] and int(f["qp"]) == planted["qp"]
                  and int(f["texture_bits"]) == planted["texture_bits"]
                  and int(f["point_count"]) == planted["point_count"]
                  and float(f["tbpp"]) == tbpp
                  and abs(float(s["pmos"]) - want) <= PMOS_TOL)
            if not ok:
                if planted["two_slice"]:
                    failed += 1
                else:
                    problems.append(f"{planted['stream']}: extracted {f}, scored {s}")
        self.check_repeatable(problems)
        return len(self.streams), failed


class Calibrate(Workload):
    """tc, MOS, train, loocv, splits, then score and eval the trained model."""

    OPERATIONS = 7

    def __init__(self, *args):
        super().__init__(*args)
        m, w = self.manifest, self.work
        self.clouds = [str(self.fixtures / f"{c}.ply") for c in m["contents"]]
        self.ratings = self.fixtures / "ratings.csv"
        self.tc, self.training, self.params = w / "tc.csv", w / "training.csv", w / "params.json"
        self.loocv, self.splits = w / "loocv.csv", w / "splits.csv"
        self.scores, self.eval_in, self.eval = w / "scores.csv", w / "eval_in.csv", w / "eval.csv"
        self.repeatable = [self.tc, self.params, self.loocv, self.splits, self.scores]
        self.table = None

    def run_pass(self):
        rc = [self.cli("tc", *self.clouds, "--out", self.tc)]
        subjective = self.sp["subjective"]
        table = subjective.compute_mos(subjective.SubjectiveMatrix.read_csv(self.ratings))
        tc = {Path(r["cloud"]).stem: r["tc"] for r in _read_csv(self.tc)}
        with open(self.training, "w") as fh:
            fh.write("content,pqs,qp,tbpp,tc,mos\n")
            for s, mos in zip(self.manifest["stimuli"], table.mos):
                fh.write(f"{s['content']},{s['pqs']!r},{s['qp']},{s['tbpp']!r},"
                         f"{tc.get(s['content'], 'nan')},{float(mos)!r}\n")
        rc.append(self.cli("train", self.training, "--out-params", self.params,
                           "--variant", VARIANT))
        rc.append(self.cli("loocv", self.training, "--variant", VARIANT, "--out", self.loocv))
        rc.append(self.cli("splits", self.training, "--n", self.manifest["splits"],
                           "--seed", self.seed, "--variant", VARIANT, "--out", self.splits))
        rc.append(self.cli("score", self.fixtures / "features.csv", "--params", self.params,
                           "--variant", VARIANT, "--out", self.scores))
        pmos = {r["stream"]: r["pmos"] for r in _read_csv(self.scores)}
        with open(self.eval_in, "w") as fh:
            fh.write("stimulus,content,objective,mos\n")
            for s, mos in zip(self.manifest["stimuli"], table.mos):
                fh.write(f"{s['stimulus']},{s['content']},{pmos.get(s['stimulus'], 'nan')},"
                         f"{float(mos)!r}\n")
        rc.append(self.cli("eval", self.eval_in, "--out", self.eval))
        self.table = table
        return rc

    def verify(self, problems):
        """train on the noise-free grid must give back the planted coefficients."""
        out = self.work / "noise_free_params.json"
        rc = self.cli("train", self.fixtures / "noise_free.csv", "--out-params", out,
                      "--variant", VARIANT)
        got = json.loads(out.read_text()) if rc == 0 else {}
        planted = self.manifest["params"]
        worst = max((abs(got[k] - planted[k]) if k in got else math.inf)
                    for k in ref.COEFFICIENTS)
        if not worst <= RECOVERY_TOL:
            problems.append(f"noise-free train: coefficient error {worst:.3g} > {RECOVERY_TOL}")

    def check(self, returned, problems) -> tuple:
        m = self.manifest
        if any(returned):
            problems.append(f"exit codes {returned}: {self.stderr.getvalue()[-500:]}")
        tc = {Path(r["cloud"]).stem: r for r in _read_csv(self.tc)}
        for c in m["contents"]:
            row = tc.get(c)
            if (row is None or int(row["blocks_used"]) != m["blocks"][c]
                    or not abs(float(row["tc"]) - m["tc"][c]) <= TC_REL_TOL * max(1.0, m["tc"][c])):
                problems.append(f"tc of {c}: {row}, reference {m['tc'][c]!r}")

        truth = np.array([s["mos"] for s in m["stimuli"]])
        mos_plcc = ref.pearson(self.table.mos, truth)
        missed = set(m["outliers"]) - set(self.table.rejected_subjects)
        if missed or not mos_plcc >= MOS_PLCC_MIN:
            problems.append(f"MOS: outliers kept {sorted(missed)}, PLCC {mos_plcc:.5f}")

        params = json.loads(self.params.read_text())
        if params.get("variant") != VARIANT or not all(
                math.isfinite(params.get(k, math.nan)) for k in ref.COEFFICIENTS):
            problems.append(f"train gave {params}")

        folds = {r["fold"]: float(r["plcc"]) for r in _read_csv(self.loocv)
                 if r["fold"] in m["contents"]}
        if len(folds) != len(m["contents"]) or not all(
                math.isfinite(p) and p >= FOLD_PLCC_MIN for p in folds.values()):
            problems.append(f"loocv folds {folds}")

        splits = [float(r["plcc"]) for r in _read_csv(self.splits)]
        if len(splits) != m["splits"] or not all(
                math.isfinite(p) and p >= SPLIT_PLCC_MIN for p in splits):
            problems.append(f"splits PLCC {splits}")

        scores = {r["stream"]: float(r["pmos"]) for r in _read_csv(self.scores)}
        pmos = []
        for s in m["stimuli"]:
            want = ref.pmos(params, s["pqs"], s["qp"], s["tbpp"], VARIANT)
            got = scores.get(s["stimulus"], math.nan)
            pmos.append(got)
            if not abs(got - want) <= PMOS_TOL:
                problems.append(f"pmos of {s['stimulus']}: {got!r}, reference {want!r}")
                break

        ev = _read_csv(self.eval)[0]
        srcc_ref = ref.spearman(pmos, self.table.mos)
        if not (float(ev["plcc"]) >= EVAL_PLCC_MIN and abs(float(ev["srcc"]) - srcc_ref) <= 1e-9):
            problems.append(f"eval {ev}, reference SRCC {srcc_ref!r}")
        self.check_repeatable(problems)
        return self.OPERATIONS, 0


WORKLOADS = {"monitor-bulk": Monitor, "calibrate": Calibrate}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    for name in ("--src", "--fixtures", "--work", "--workload"):
        ap.add_argument(name, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import streampcq.cli
    if not Path(streampcq.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"streampcq imported from {streampcq.cli.__file__}, not {src}")
    from streampcq import bitstream, calibration, evaluation, model, pointcloud, subjective
    sp = {"cli": streampcq.cli, "bitstream": bitstream, "calibration": calibration,
          "evaluation": evaluation, "model": model, "pointcloud": pointcloud,
          "subjective": subjective}

    work = Path(args.work)
    wl = WORKLOADS[args.workload](sp, Path(args.fixtures), work, args.seed)
    problems = []
    # Untimed first pass: fills the page cache, finishes lazy set-up, and
    # gives the outputs later passes must repeat byte for byte.
    wl.verify(problems)
    wl.check(wl.run(), problems)

    tracer = spans.Tracer() if args.trace else None
    plain, traced, reads, setup = [], [], [], []
    probes = 0 if args.trace else SETUP_PROBES
    attempted = failed = 0
    measured = 0.0
    while measured < args.seconds or not plain or (tracer is not None and not traced):
        on = tracer is not None and len(plain) > len(traced)
        if on:
            tracer.pass_index = len(traced)
            tracer.install(sp)
        r0 = spans.rchar()
        t0 = time.perf_counter()
        returned = wl.run()
        elapsed = time.perf_counter() - t0
        r1 = spans.rchar()
        if on:
            tracer.uninstall()
        (traced if on else plain).append(elapsed)
        reads.append((r1 - r0) / 1e6)
        measured += elapsed
        n, f = wl.check(returned, problems)
        attempted += n
        failed += f
        while len(setup) < probes and measured >= args.seconds * len(setup) / probes:
            setup.append(setup_probe(src))
    while len(setup) < probes:
        setup.append(setup_probe(src))

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "problems": problems[:20], "passes": len(plain), "pass_s": plain,
              "setup_s": setup,
              "read_mb": statistics.median(reads),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        if args.trace_out:
            tracer.write(args.trace_out)
        layers = spans.layer_metrics(tracer.spans, set(range(len(traced))))
        layers["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        result["per_layer"] = layers
        result["traced_passes"] = len(traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Spans around streampcq's public functions, recorded from outside.

The traced run replaces each public function at the name through which its
callers look it up (for example `evaluation.model_predict`, the name under
which `evaluation` calls `model.predict`) with a wrapper that records one
span per call: name, start, end, parent span and pass.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict


def rchar() -> int:
    """Bytes this process has read through the OS so far (/proc/self/io)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


def _reads_before(_args):
    return rchar()


def _reads_after(_args, _result, start):
    return {"read_bytes": rchar() - start}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, pass, attrs]
        self.pass_index = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index, None]
            stack.append(len(spans))
            spans.append(span)
            state = before(args) if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                span[5] = after(args, result, state)
            return result

        return traced

    def install(self, sp):
        """Wrap every traced function; `sp` maps module names to modules."""
        for module, attr, name, before, after in _targets(sp):
            fn = getattr(sp[module], attr)
            self._saved.append((sp[module], attr, fn))
            setattr(sp[module], attr, self._wrap(name, fn, before, after))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, pass_index, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_index,
                                     "attrs": attrs}) + "\n")


def _targets(sp):
    """(module, attribute, span name, before, after) for every traced call."""
    cli_commands = [("cli", f"cmd_{c}", f"cli.{c}", _reads_before, _reads_after)
                    for c in ("extract", "score", "tc", "train", "loocv", "splits", "eval")]
    return cli_commands + [
        ("bitstream", "read_tlv_units", "bitstream.read_tlv_units", None,
         lambda a, r, s: {"bytes": len(a[0]), "units": len(r)}),
        ("bitstream", "parse_header", "bitstream.parse_header", None, None),
        ("bitstream", "extract_features", "bitstream.extract_features", None, None),
        ("cli", "predict", "model.predict", None, None),
        ("evaluation", "model_predict", "model.predict", None, None),
        ("pointcloud", "read_ply", "pointcloud.read_ply", None, None),
        ("pointcloud", "compute_tc", "pointcloud.compute_tc", None,
         lambda a, r, s: {"points": len(a[0]), "blocks": r.blocks_used}),
        ("subjective", "compute_mos", "subjective.compute_mos", None, None),
        ("subjective", "screen_outliers", "subjective.screen_outliers", None, None),
        ("subjective", "zscore", "subjective.zscore", None, None),
        ("calibration", "train_full", "calibration.train_full", None, None),
        ("evaluation", "train_full", "calibration.train_full", None, None),
        ("calibration", "stage_a_mos_vs_tqs", "calibration.stage_a", None, None),
        ("calibration", "stage_b_tc_model", "calibration.stage_b", None, None),
        ("calibration", "stage_c_alpha_tc", "calibration.stage_c", None, None),
        ("calibration", "stage_d_beta_pqs", "calibration.stage_d", None, None),
        ("calibration", "fit_line", "calibration.fit_line", None, None),
        ("evaluation", "fit_logistic", "evaluation.fit_logistic", None,
         lambda a, r, s: {"converged": bool(r.converged)}),
        ("evaluation", "evaluate", "evaluation.evaluate", None, None),
        ("evaluation", "loocv", "evaluation.loocv", None, None),
        ("evaluation", "random_split_eval", "evaluation.random_split_eval", None, None),
    ]


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, passes) -> dict:
    """Per-layer metrics from the spans of the traced passes `passes`.

    Counts and totals are per pass (totals are the median over passes);
    percentiles are over single calls.  A layer the workload never calls
    reads 0.
    """
    child = defaultdict(float)
    for name, start, end, parent, _p, _a in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(list)          # name -> [(pass, duration, self, attrs)]
    for i, (name, start, end, _parent, p, attrs) in enumerate(spans):
        if p in passes:
            calls[name].append((p, end - start, end - start - child[i], attrs or {}))

    def per_pass(name, value):
        totals = dict.fromkeys(passes, 0.0)
        for call in calls[name]:
            totals[call[0]] += value(call)
        return statistics.median(totals.values())

    def total(name, value):
        return sum(value(c) for c in calls[name])

    def durations(name):
        return [c[1] for c in calls[name]]

    def count(name):
        return len(calls[name]) / len(passes)

    dur = lambda c: c[1]
    self_time = lambda c: c[2]
    attr = lambda key: (lambda c: c[3].get(key, 0))

    tlv_s = total("bitstream.read_tlv_units", dur)
    tlv_mb = total("bitstream.read_tlv_units", attr("bytes")) / 1e6
    tlv_units = total("bitstream.read_tlv_units", attr("units"))
    tc_s = total("pointcloud.compute_tc", dur)
    m = {
        "bitstream.read_tlv_units.ms_per_mb": (1e3 * tlv_s / tlv_mb if tlv_mb else 0.0, "ms/MB"),
        "bitstream.read_tlv_units.us_per_unit": (1e6 * tlv_s / tlv_units if tlv_units else 0.0,
                                                 "us/unit"),
        "bitstream.units_scanned": (per_pass("bitstream.read_tlv_units", attr("units")), "count"),
        "bitstream.extract_features.p50_us": (1e6 * _quantile(durations("bitstream.extract_features"), 50), "us"),
        "bitstream.extract_features.p95_us": (1e6 * _quantile(durations("bitstream.extract_features"), 95), "us"),
        "bitstream.extract_features.calls": (count("bitstream.extract_features"), "count"),
        "bitstream.parse_header.calls": (count("bitstream.parse_header"), "count"),
        "bitstream.parse_header.self_us": (1e6 * per_pass("bitstream.parse_header", self_time), "us"),
        "cli.extract.self_ms": (1e3 * per_pass("cli.extract", self_time), "ms"),
        "cli.extract.read_mb": (per_pass("cli.extract", attr("read_bytes")) / 1e6, "MB"),
        "cli.score.self_ms": (1e3 * per_pass("cli.score", self_time), "ms"),
        "model.predict.calls": (count("model.predict"), "count"),
        "model.predict.self_us": (1e6 * per_pass("model.predict", self_time), "us"),
        "pointcloud.read_ply.ms": (1e3 * per_pass("pointcloud.read_ply", dur), "ms"),
        "pointcloud.compute_tc.ms": (1e3 * per_pass("pointcloud.compute_tc", dur), "ms"),
        "pointcloud.compute_tc.points_per_s": (
            total("pointcloud.compute_tc", attr("points")) / tc_s if tc_s else 0.0, "points/s"),
        "pointcloud.compute_tc.blocks": (per_pass("pointcloud.compute_tc", attr("blocks")), "count"),
        "subjective.compute_mos.ms": (1e3 * per_pass("subjective.compute_mos", dur), "ms"),
        "subjective.screen_outliers.ms": (1e3 * per_pass("subjective.screen_outliers", dur), "ms"),
        "subjective.zscore.ms": (1e3 * per_pass("subjective.zscore", dur), "ms"),
        "calibration.train_full.calls": (count("calibration.train_full"), "count"),
        "calibration.train_full.p50_ms": (1e3 * _quantile(durations("calibration.train_full"), 50), "ms"),
        "calibration.fit_line.calls": (count("calibration.fit_line"), "count"),
        "evaluation.fit_logistic.calls": (count("evaluation.fit_logistic"), "count"),
        "evaluation.fit_logistic.p50_ms": (1e3 * _quantile(durations("evaluation.fit_logistic"), 50), "ms"),
        "evaluation.fit_logistic.p95_ms": (1e3 * _quantile(durations("evaluation.fit_logistic"), 95), "ms"),
        "evaluation.fit_logistic.unconverged": (
            per_pass("evaluation.fit_logistic", lambda c: 0 if c[3].get("converged", True) else 1),
            "count"),
        "evaluation.loocv.ms": (1e3 * per_pass("evaluation.loocv", dur), "ms"),
        "evaluation.random_split_eval.ms": (1e3 * per_pass("evaluation.random_split_eval", dur), "ms"),
    }
    for stage in "abcd":
        m[f"calibration.stage_{stage}.self_ms"] = (
            1e3 * per_pass(f"calibration.stage_{stage}", self_time), "ms")
    for command in ("extract", "score", "tc", "train", "loocv", "splits", "eval"):
        m[f"cli.{command}.ms"] = (1e3 * per_pass(f"cli.{command}", dur), "ms")
    return m

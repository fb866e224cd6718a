"""Command-line surface.

Every subcommand is a thin wrapper over one library operation and speaks
CSV (header row, '.' decimal; see `table`): input files and --out files are
UTF-8 whatever the locale.  Pass --json where available for a
machine-readable mirror.  Bad input ends a command with one `error:` line
and a non-zero exit, except that `extract`, `tc` and `score` fail only the
bad stream, cloud or row, write the rest and exit 1.  Deterministic:
identical inputs and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import bitstream as bs
from . import calibration as cal
from . import evaluation as ev
from . import pointcloud as pcio
from .errors import InvalidInput, NonPositivePqs, StreamPcqError
from .model import ModelParams, VARIANTS, check_qp, predict
from .table import finite_float, read_table, write_table


def _load_schema(path):
    path = path or os.environ.get("STREAMPCQ_SCHEMA")
    if path is None:
        return bs.default_schema()
    if not Path(path).exists():
        print(f"error: schema file not found: {path}", file=sys.stderr)
        raise SystemExit(2)
    return bs.SyntaxSchema.load(path)


def _load_params(path, variant=None):
    p = ModelParams.load(path) if path else ModelParams()
    if variant:
        p = ModelParams(**{**p.to_dict(), "variant": variant})
    return p


# ---------------------------------------------------------------------------
# Subcommands


def cmd_extract(args) -> int:
    schema = _load_schema(args.schema)
    rows, failures = [], []
    for stream in args.streams:
        meta = Path(args.sidecar_dir or Path(stream).parent) / (Path(stream).name + ".meta.json")
        try:
            sidecar = bs.load_sidecar(meta) if meta.exists() else None
            feats = bs.extract_features(stream, schema, sidecar)
        except (StreamPcqError, OSError) as exc:
            failures.append((stream, str(exc)))
            continue
        rows.append([stream, feats.pqs, feats.qp, feats.texture_bits,
                     feats.point_count, repr(feats.tbpp), feats.point_count_source])
    write_table(args.out, ["stream", "pqs", "qp", "texture_bits", "point_count",
                           "tbpp", "point_count_source"], rows, args.json)
    for stream, msg in failures:
        print(f"error: {stream}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_score(args) -> int:
    params = _load_params(args.params, args.variant)
    rows, inputs, failures = [], [], []
    kinds = {"pqs": finite_float, "qp": int, "tbpp": finite_float}
    for i, row in enumerate(read_table(args.features, kinds)):
        try:
            pqs, qp, tbpp = row.values
            if pqs <= 0:
                raise NonPositivePqs(f"pqs must be positive, got {pqs}")
            check_qp(qp)
        except StreamPcqError as exc:
            failures.append((i, str(exc)))
            continue
        inputs.append((pqs, qp, tbpp))
        cells = dict(zip(row.header, row.texts))
        rows.append((i, [cells.get("stream", str(i)), *(cells[k] for k in kinds)]))
    pqs, qp, tbpp = np.array(inputs, dtype=float).reshape(-1, 3).T
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in scalar arithmetic
        pred = predict(params, SimpleNamespace(pqs=pqs, qp=qp, tbpp=tbpp))
    terms = ("pmos", "pmos_t", "pmos_g", "tc_est")
    written = []
    for (i, row), values in zip(rows, np.stack([getattr(pred, k) for k in terms], 1).tolist()):
        # e.g. the texture term overflows at QP near QP_MAX: a bad row like any other
        bad = [f"{k}={v!r}" for k, v in zip(terms, values) if not math.isfinite(v)]
        if bad:
            failures.append((i, "prediction is not finite: " + ", ".join(bad)))
            continue
        if args.clamp:
            values[0] = min(100.0, max(0.0, values[0]))
        written.append(row + [repr(v) for v in values])
    write_table(args.out, ["stream", "pqs", "qp", "tbpp", *terms], written, args.json)
    for i, msg in sorted(failures):
        print(f"error: row {i}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_tc(args) -> int:
    rows, failures = [], []
    for cloud in args.clouds:
        try:
            pc = pcio.read_ply(cloud)
            res = pcio.compute_tc(pc, block_edge=args.block_edge)
        except (StreamPcqError, OSError) as exc:
            failures.append((cloud, str(exc)))
            continue
        rows.append([cloud, res.block_edge, res.blocks_used, repr(res.tc)])
    write_table(args.out, ["cloud", "block_edge", "blocks_used", "tc"], rows, args.json)
    for cloud, msg in failures:
        print(f"error: {cloud}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_train(args) -> int:
    records = cal.read_training_csv(args.training)
    params, diag = cal.train_full(records, variant=args.variant)
    params.save(args.out_params)
    if args.diagnostics:
        rows = [[stage, repr(diag.stage_rss.get(stage)), diag.stage_samples.get(stage),
                 " ".join(repr(v) for v in diag.coefficients.get(stage, ()))]
                for stage in sorted(set(diag.stage_rss) | set(diag.coefficients))]
        write_table(args.diagnostics, ["stage", "rss", "samples", "coefficients"], rows)
    for stage, key, reason in diag.skipped_groups:
        print(f"note: stage {stage} skipped group {key}: {reason}", file=sys.stderr)
    return 0


def _read_scores_csv(path):
    rows = [row.values for row in read_table(path, {"objective": finite_float,
                                                     "mos": finite_float})]
    if len(rows) < 4:
        raise InvalidInput(f"{path}: {len(rows)} score rows, need at least 4")
    obj, mos = zip(*rows)
    return ev.ScorePairSet(np.array(obj), np.array(mos))


def cmd_eval(args) -> int:
    rep = ev.evaluate(_read_scores_csv(args.scores))
    b1, b2, b3, b4 = rep.logistic_params
    write_table(args.out, ["plcc", "srcc", "rmse", "beta1", "beta2", "beta3",
                           "beta4", "converged"],
                [[repr(rep.plcc), repr(rep.srcc), repr(rep.rmse),
                  repr(b1), repr(b2), repr(b3), repr(b4), rep.converged]], args.json)
    return 0


def cmd_loocv(args) -> int:
    records = cal.read_training_csv(args.training)
    folds, summary = ev.loocv(records, variant=args.variant)
    rows = [[held, repr(r.plcc), repr(r.srcc), repr(r.rmse)]
            for held, r in sorted(folds.items())]
    for stat in ("mean", "std"):
        if summary[stat]:
            rows.append([stat] + [repr(float(summary[stat][k])) for k in ("plcc", "srcc", "rmse")])
    write_table(args.out, ["fold", "plcc", "srcc", "rmse"], rows, args.json)
    for held, msg in summary["failed_folds"].items():
        print(f"error: fold {held}: {msg}", file=sys.stderr)
    for held, r in folds.items():
        if not r.converged:
            print(f"note: fold {held}: logistic fit did not converge", file=sys.stderr)
    return 1 if summary["failed_folds"] else 0


def cmd_splits(args) -> int:
    if args.n < 1:
        raise InvalidInput(f"--n must be >= 1, got {args.n}")
    records = cal.read_training_csv(args.training)
    results, summary = ev.random_split_eval(
        records, n_splits=args.n, n_train=args.train_contents,
        seed=args.seed, variant=args.variant)
    rows = [[i, repr(p), repr(s), repr(r)] for i, (p, s, r) in enumerate(results)]
    write_table(args.out, ["split", "plcc", "srcc", "rmse"], rows, args.json)
    if summary["mean"]:
        print(f"seed={summary['seed']} n={summary['n_splits']} "
              f"mean plcc={summary['mean']['plcc']:.4f} "
              f"srcc={summary['mean']['srcc']:.4f} "
              f"rmse={summary['mean']['rmse']:.4f} "
              f"unconverged={summary['unconverged']}", file=sys.stderr)
    return 0


def cmd_significance(args) -> int:
    names = [Path(p).stem for p in args.residuals]
    residuals = [np.array([row.values[0] for row in read_table(p, {"residual": finite_float})])
                 for p in args.residuals]
    encode = {"row-better": "1", "equivalent": "0.5", "column-better": "0"}
    rows = []
    for i, ri in enumerate(residuals):
        row = [names[i]]
        for j, rj in enumerate(residuals):
            if i == j:
                row.append("0.5")
            else:
                row.append(encode[ev.f_test(ri, rj, level=args.level).decision])
        rows.append(row)
    write_table(args.out, ["model"] + names, rows, args.json)
    return 0


def cmd_synth(args) -> int:
    feats = bs.BitstreamFeatures.from_counts(
        args.pqs, args.qp, args.texture_bits, args.points)
    data = bs.synthesize_bitstream(feats, _load_schema(args.schema))
    Path(args.out).write_bytes(data)
    if args.sidecar:
        Path(str(args.out) + ".meta.json").write_text(json.dumps({
            "pqs": args.pqs, "qp": args.qp,
            "texture_bits": args.texture_bits, "point_count": args.points,
        }, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="streampcq",
                                 description="Bitstream-layer point-cloud quality toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    # options shared by every subcommand that writes a result table
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--out")
    table.add_argument("--json", action="store_true")
    # input and model variant shared by every subcommand that trains
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("training")
    training.add_argument("--variant", choices=VARIANTS, default=cal.TRAINING_VARIANT)

    p = sub.add_parser("extract", parents=[table], help="extract coding features from bitstreams")
    p.add_argument("streams", nargs="+")
    p.add_argument("--schema")
    p.add_argument("--sidecar-dir")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", parents=[table], help="predict quality from a feature CSV")
    p.add_argument("features")
    p.add_argument("--params")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--clamp", action="store_true")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("tc", parents=[table], help="texture complexity of original clouds")
    p.add_argument("clouds", nargs="+")
    p.add_argument("--block-edge", type=int, default=4)
    p.set_defaults(func=cmd_tc)

    p = sub.add_parser("train", parents=[training], help="re-derive model coefficients")
    p.add_argument("--out-params", required=True)
    p.add_argument("--diagnostics")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[table], help="PLCC/SRCC/RMSE against MOS")
    p.add_argument("scores")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("loocv", parents=[training, table], help="content-level leave-one-out")
    p.set_defaults(func=cmd_loocv)

    p = sub.add_parser("splits", parents=[training, table],
                       help="seeded random train/validation splits")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-contents", type=int, default=10)
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("significance", parents=[table], help="pairwise F-test matrix")
    p.add_argument("residuals", nargs="+")
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(func=cmd_significance)

    p = sub.add_parser("synth", help="write a synthetic fixture bitstream")
    p.add_argument("--pqs", type=float, required=True)
    p.add_argument("--qp", type=int, required=True)
    p.add_argument("--texture-bits", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--schema")
    p.add_argument("--sidecar", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StreamPcqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

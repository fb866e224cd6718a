import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_synthetic_records
from streampcq import cli
from streampcq.calibration import read_training_csv
from streampcq.cli import build_parser, main
from streampcq.evaluation import loocv, random_split_eval
from streampcq.model import ModelParams, predict


def run(argv):
    return main([str(a) for a in argv])


def write_training_csv(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["content", "pqs", "qp", "tbpp", "tc", "mos"])
        for r in records:
            w.writerow([r.content, r.pqs, r.qp, repr(r.tbpp), repr(r.tc), repr(r.mos)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_synth_extract_roundtrip(tmp_path):
    stream = tmp_path / "fix.bin"
    out = tmp_path / "features.csv"
    assert run(["synth", "--pqs", 0.25, "--qp", 34, "--texture-bits", 10**6,
                "--points", 2 * 10**6, "--out", stream]) == 0
    assert run(["extract", stream, "--out", out]) == 0
    row, = read_csv(out)
    assert float(row["pqs"]) == 0.25
    assert int(row["qp"]) == 34
    assert float(row["tbpp"]) == 0.5
    assert row["point_count_source"] == "slice-header"
    again = tmp_path / "again.csv"
    assert run(["extract", stream, "--out", again]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_extract_sidecar_only_point_count(tmp_path):
    stream = tmp_path / "fix.bin"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", stream, "--sidecar"])
    # strip the geometry-data unit so the count must come from the sidecar
    from streampcq import bitstream as bs
    schema = bs.default_schema()
    units = [u for u in bs.read_tlv_units(stream.read_bytes(), schema)
             if u.unit_type != schema.code_for("geometry_data")]
    stream.write_bytes(bs.write_tlv_units(units, schema))
    out = tmp_path / "features.csv"
    assert run(["extract", stream, "--out", out]) == 0
    row, = read_csv(out)
    assert row["point_count_source"] == "sidecar"


def test_extract_missing_schema_usage_error(tmp_path, capsys):
    stream = tmp_path / "fix.bin"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", stream])
    with pytest.raises(SystemExit) as ei:
        run(["extract", stream, "--schema", tmp_path / "nope.json"])
    assert ei.value.code == 2


def test_extract_zero_geometry_scale_is_an_error(tmp_path, capsys):
    from streampcq import bitstream as bs
    schema = bs.default_schema()
    stream = tmp_path / "zero.bin"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", stream])
    seq = bs.BitWriter()
    seq.write_bits(0, 8)  # profile_idc
    seq.write_bits(0, 8)  # level_idc
    seq.write_ue(0)       # geom_scale_num
    units = [bs.TlvUnit(u.unit_type, seq.getvalue())
             if u.unit_type == schema.code_for("sequence_params") else u
             for u in bs.read_tlv_units(stream.read_bytes(), schema)]
    stream.write_bytes(bs.write_tlv_units(units, schema))
    assert run(["extract", stream, "--out", tmp_path / "o.csv"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {stream}: pqs must be positive")


SIDECAR = {"pqs": 1.0, "qp": 22, "texture_bits": 800, "point_count": 100}


@pytest.mark.parametrize("meta, says", [
    ('{"pqs": ', "Expecting value"),
    ("[]", "not a JSON object"),
    (json.dumps({**SIDECAR, "qp": "x"}), "'qp' must be"),
    (json.dumps({**SIDECAR, "texture_bits": None}), "'texture_bits' must be"),
    (json.dumps({**SIDECAR, "pqs": "nan"}), "'pqs' must be"),
    (json.dumps({**SIDECAR, "point_count": 1.5}), "'point_count' must be"),
    (json.dumps({**SIDECAR, "qp": 9000}), "qp must be from 0 to 6147, got 9000"),
])
def test_extract_bad_sidecar_fails_only_its_stream(tmp_path, capsys, meta, says):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", good])
    # a stream of no unit the schema reads: every feature comes from the sidecar
    from streampcq import bitstream as bs
    bad.write_bytes(bs.write_tlv_units([bs.TlvUnit(2, b"\x00")], bs.default_schema()))
    (tmp_path / "bad.bin.meta.json").write_text(meta)
    out = tmp_path / "o.csv"
    assert run(["extract", good, bad, "--out", out]) == 1
    assert [r["stream"] for r in read_csv(out)] == [str(good)]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and says in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("via_env", [False, True])
def test_malformed_schema_is_an_error_line(tmp_path, capsys, monkeypatch, via_env):
    stream, schema = tmp_path / "fix.bin", tmp_path / "schema.json"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", stream])
    schema.write_text('{"framing": 3}')
    if via_env:
        monkeypatch.setenv("STREAMPCQ_SCHEMA", str(schema))
    argv = ["extract", stream] + ([] if via_env else ["--schema", schema])
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: schema {schema}: ")


def test_malformed_params_is_an_error_line(tmp_path, capsys):
    feat, params = tmp_path / "features.csv", tmp_path / "params.json"
    feat.write_text("stream,pqs,qp,tbpp\ns,1.0,22,0.5\n")
    params.write_text('{"variant": "nope"}')
    assert run(["score", feat, "--params", params]) == 1
    assert capsys.readouterr().err == f"error: params {params}: unknown variant 'nope'\n"


@pytest.mark.parametrize("argv", [
    ["score", "MISSING"],
    ["score", "FEATURES", "--params", "MISSING"],
    ["train", "MISSING", "--out-params", "p.json"],
])
def test_missing_input_file_is_an_error_line(tmp_path, capsys, argv):
    feat, missing = tmp_path / "features.csv", tmp_path / "nothere.csv"
    feat.write_text("stream,pqs,qp,tbpp\ns,1.0,22,0.5\n")
    names = {"MISSING": missing, "FEATURES": feat, "p.json": tmp_path / "p.json"}
    assert run([names.get(a, a) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("argv, says", [
    (["train", "NO_TC", "--out-params", "p.json"], "NO_TC: line 1: no column 'tc'"),
    (["loocv", "NO_TC"], "NO_TC: line 1: no column 'tc'"),
    (["splits", "NO_TC", "--seed", 1], "NO_TC: line 1: no column 'tc'"),
    (["train", "BAD_PQS", "--out-params", "p.json"],
     "BAD_PQS: line 3: column 'pqs': 'x' is not a finite float"),
    (["loocv", "BAD_PQS"], "BAD_PQS: line 3: column 'pqs': 'x' is not a finite float"),
    (["splits", "BAD_PQS", "--seed", 1], "BAD_PQS: line 3: column 'pqs': 'x' is not a finite float"),
    (["train", "BAD_QP", "--out-params", "p.json"],
     "BAD_QP: line 2: column 'qp': '22.5' is not a finite int"),
    (["eval", "NO_MOS"], "NO_MOS: line 1: no column 'mos'"),
    (["eval", "NAN_MOS"], "NAN_MOS: line 3: column 'mos': 'nan' is not a finite float"),
    (["eval", "SHORT_ROW"], "SHORT_ROW: line 4: column 'mos': '' is not a finite float"),
    (["eval", "THREE_ROWS"], "THREE_ROWS: 3 score rows, need at least 4"),
    (["significance", "NO_RESIDUAL", "NO_RESIDUAL"], "NO_RESIDUAL: line 1: no column 'residual'"),
    (["tc", "CLOUD", "--block-edge", 0], "CLOUD: block_edge must be >= 1, got 0"),
    (["score", "BYTE_FEATURES"],
     "BYTE_FEATURES: line 3: column 'stream': byte 0xff is not UTF-8"),
    (["eval", "BYTE_SCORES"], "BYTE_SCORES: line 3: column 'mos': byte 0xff is not UTF-8"),
    (["train", "BYTE_TRAINING", "--out-params", "p.json"],
     "BYTE_TRAINING: line 3: column 'content': byte 0xff is not UTF-8"),
    (["loocv", "BYTE_TRAINING"],
     "BYTE_TRAINING: line 3: column 'content': byte 0xff is not UTF-8"),
    (["splits", "BYTE_TRAINING", "--seed", 1],
     "BYTE_TRAINING: line 3: column 'content': byte 0xff is not UTF-8"),
    (["significance", "BYTE_RESIDUALS", "BYTE_RESIDUALS"],
     "BYTE_RESIDUALS: line 1: column 1: byte 0xff is not UTF-8"),
    (["score", "NO_TBPP"], "NO_TBPP: line 1: no column 'tbpp'"),
    (["splits", "training.csv", "--seed", 1, "--n", 0], "--n must be >= 1, got 0"),
    (["splits", "training.csv", "--seed", 1, "--n", -1], "--n must be >= 1, got -1"),
    (["splits", "training.csv", "--seed", 1, "--train-contents", 0],
     "n_train must be >= 1, got 0"),
    (["splits", "training.csv", "--seed", 1, "--train-contents", -1],
     "n_train must be >= 1, got -1"),
    (["tc", "VERTEX_TWO"], "VERTEX_TWO: vertex count 'two' is not a positive whole number"),
])
def test_bad_csv_or_option_is_one_error_line(tmp_path, capsys, argv, says):
    from streampcq.pointcloud import PointCloud, write_ply
    training = tmp_path / "training.csv"
    write_training_csv(training, make_synthetic_records(tc_values=[20.0, 50.0, 80.0]))
    lines = training.read_text().splitlines()
    content, _pqs, rest = lines[2].split(",", 2)
    texts = {
        "NO_TC": training.read_text().replace("tbpp,tc,", "tbpp,t,"),
        "BAD_PQS": "\n".join(lines[:2] + [f"{content},x,{rest}"] + lines[3:]),
        "BAD_QP": "\n".join([lines[0], lines[1].replace(",22,", ",22.5,")] + lines[2:]),
        "NO_MOS": "objective,score\n1,2\n2,3\n3,4\n4,5\n5,5\n",
        "NAN_MOS": "objective,mos\n1,2\n2,nan\n3,4\n4,5\n5,5\n",
        "SHORT_ROW": "objective,mos\n1,2\n2,3\n3\n4,5\n5,5\n",
        "THREE_ROWS": "objective,mos\n1,2\n2,3\n3,4\n",
        "NO_RESIDUAL": "r\n1\n2\n3\n",
        "NO_TBPP": "stream,pqs,qp\ns1,0.25,46\ns2,0.5,22\n",
        "BYTE_FEATURES": "stream,pqs,qp,tbpp\ns1,0.25,46,0.5\n\xff,0.5,22,0.5\n",
        "BYTE_SCORES": "objective,mos\n1,2\n2,3\xff\n3,4\n4,5\n5,5\n",
        "BYTE_TRAINING": "\n".join(lines[:2] + ["\xff" + lines[2]] + lines[3:]),
        "BYTE_RESIDUALS": "\xffresidual\n1\n2\n3\n",
    }
    names = {"p.json": tmp_path / "p.json", "CLOUD": tmp_path / "c.ply",
             "training.csv": training, "VERTEX_TWO": tmp_path / "two.ply"}
    for name, text in texts.items():
        names[name] = tmp_path / f"{name}.csv"
        names[name].write_bytes(text.encode("latin-1"))  # "\xff": a byte that is not UTF-8
    write_ply(names["CLOUD"], PointCloud(np.array([[0, 0, 0], [1, 0, 0]], dtype=np.int32),
                                         np.array([[0, 0, 0], [255, 255, 255]], dtype=np.uint8)))
    names["VERTEX_TWO"].write_bytes(
        names["CLOUD"].read_bytes().replace(b"vertex 2", b"vertex two"))
    assert run([names.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    name = next(a for a in argv if a in names)
    assert err == "error: " + says.replace(name, str(names[name]), 1) + "\n"


def test_synth_incomplete_schema_is_an_error_line(tmp_path, capsys):
    schema, stream = tmp_path / "schema.json", tmp_path / "fix.bin"
    schema.write_text('{"unit_codes": {}}')
    assert run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
                "--points", 100, "--schema", schema, "--out", stream]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot synthesize a stream: the schema has no target 'pqs', ")
    assert len(err.splitlines()) == 1 and not stream.exists()


def test_extract_bad_file_nonzero_exit(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x02\x00\x00\x00\x05\xaa")
    assert run(["extract", bad, "--out", tmp_path / "o.csv"]) == 1


def test_score_defaults(tmp_path):
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,tbpp\ns1,0.25,46,0.5\n")
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--out", out]) == 0
    row, = read_csv(out)
    assert float(row["pmos"]) == pytest.approx(77.2487, abs=1e-3)


def test_score_reads_only_the_model_columns(tmp_path):
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,texture_bits,point_count,tbpp\n"
                    "s1,0.25,46,1.5e6,3000000,0.5\n")
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--out", out]) == 0
    assert float(read_csv(out)[0]["pmos"]) == pytest.approx(77.2487, abs=1e-3)


def test_score_variant_and_clamp(tmp_path):
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,tbpp\ns1,0.25,46,0.5\n")
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--variant", "alpha-times-tqs", "--out", out]) == 0
    assert float(read_csv(out)[0]["pmos"]) == pytest.approx(60.2799, abs=1e-3)
    # force pmos above 100, then clamp
    params = tmp_path / "p.json"
    ModelParams(f2=300.0).save(params)
    assert run(["score", feat, "--params", params, "--clamp", "--out", out]) == 0
    assert float(read_csv(out)[0]["pmos"]) == 100.0


def test_score_malformed_row_skipped(tmp_path):
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,tbpp\ns1,0.25,46,0.5\ns2,oops,46,0.5\n")
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--out", out]) == 1
    assert len(read_csv(out)) == 1


def test_score_fails_only_rows_out_of_range(tmp_path, capsys):
    # at QP 6100 and 6147 the quantization step is finite but the texture
    # term overflows: a non-finite prediction fails its row like a bad input
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,tbpp\ns1,0.25,46,0.5\ns2,0.25,9000,0.5\n"
                    "s3,0.25,-1,0.5\ns4,0,22,0.5\ns5,0.5,6147,0.25\ns6,0.25,6100,0.25\n"
                    "s7,0.5,6000,0.25\n")
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--out", out]) == 1
    assert [r["stream"] for r in read_csv(out)] == ["s1", "s7"]
    assert capsys.readouterr().err == (
        "error: row 1: qp must be from 0 to 6147, got 9000\n"
        "error: row 2: qp must be from 0 to 6147, got -1\n"
        "error: row 3: pqs must be positive, got 0.0\n"
        "error: row 4: prediction is not finite: pmos_t=inf\n"
        "error: row 5: prediction is not finite: pmos_t=inf\n")
    assert run(["score", feat, "--variant", "alpha-times-tqs", "--clamp", "--out", out]) == 1
    assert [r["stream"] for r in read_csv(out)] == ["s1", "s7"]
    assert "error: row 5: prediction is not finite: pmos=inf, pmos_t=inf\n" in (
        capsys.readouterr().err)


def test_score_bad_cell_fails_only_its_row(tmp_path, capsys):
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,tbpp\ns1,0.25,46,0.5\ns2,oops,46,0.5\n"
                    "s3,0.25,22.5,0.5\ns4,0.25,46,nan\ns5\n")
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--out", out]) == 1
    assert [r["stream"] for r in read_csv(out)] == ["s1"]
    assert capsys.readouterr().err == (
        f"error: row 1: {feat}: line 3: column 'pqs': 'oops' is not a finite float\n"
        f"error: row 2: {feat}: line 4: column 'qp': '22.5' is not a finite int\n"
        f"error: row 3: {feat}: line 5: column 'tbpp': 'nan' is not a finite float\n"
        f"error: row 4: {feat}: line 6: column 'pqs': '' is not a finite float\n")


def test_tables_are_utf8_whatever_the_locale(tmp_path):
    # Under an ASCII locale with UTF-8 mode off, a stream named fé.bin goes
    # through extract and score to the same bytes as under the default locale.
    stream = tmp_path / "fé.bin"
    run(["synth", "--pqs", 0.5, "--qp", 28, "--texture-bits", 8000,
         "--points", 1000, "--out", stream])
    src = str(Path(cli.__file__).resolve().parent.parent)
    default = {**os.environ, "PYTHONPATH": src}
    ascii_locale = {**default, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    written = []
    for env, flags in ((default, []), (ascii_locale, ["-X", "utf8=0"])):
        for argv in (["extract", stream.name, "--out", "features.csv"],
                     ["score", "features.csv", "--out", "scores.csv"]):
            done = subprocess.run([sys.executable, *flags, "-m", "streampcq.cli", *argv],
                                  cwd=tmp_path, env=env, capture_output=True)
            assert (done.returncode, done.stderr) == (0, b"")
        written.append([(tmp_path / f).read_bytes() for f in ("features.csv", "scores.csv")])
    assert written[0] == written[1]
    assert all(out.splitlines()[1].startswith("fé.bin,".encode()) for out in written[0])


def test_score_predicts_every_row_in_one_call(tmp_path, monkeypatch):
    rows = [("a", 0.25, 46, 0.5), ("b", 1.0, 22, 3.25), ("c", 0.125, 37, 0.1)]
    feat = tmp_path / "features.csv"
    feat.write_text("stream,pqs,qp,tbpp\n" + "".join(f"{s},{p!r},{q},{t!r}\n"
                                                     for s, p, q, t in rows) + "d,x,1,1\n")
    calls = []
    monkeypatch.setattr(cli, "predict", lambda p, f: calls.append(len(f.qp)) or predict(p, f))
    out = tmp_path / "scores.csv"
    assert run(["score", feat, "--out", out]) == 1
    assert calls == [3]
    # every cell equals the scalar prediction's repr
    for got, (stream, pqs, qp, tbpp) in zip(read_csv(out), rows, strict=True):
        want = predict(ModelParams(), SimpleNamespace(pqs=pqs, qp=qp, tbpp=tbpp))
        assert [got[k] for k in ("pmos", "pmos_t", "pmos_g", "tc_est")] == [
            repr(want.pmos), repr(want.pmos_t), repr(want.pmos_g), repr(want.tc_est)]


def test_tc_command(tmp_path):
    from streampcq.pointcloud import PointCloud, write_ply
    pos = np.array([[0, 0, 0], [1, 0, 0], [2, 1, 0]], dtype=np.int32)
    col = np.array([[0, 0, 0], [255, 255, 255], [0, 0, 0]], dtype=np.uint8)
    ply = tmp_path / "c.ply"
    write_ply(ply, PointCloud(pos, col))
    out = tmp_path / "tc.csv"
    assert run(["tc", ply, "--block-edge", 4, "--out", out]) == 0
    row, = read_csv(out)
    assert int(row["blocks_used"]) == 1
    assert float(row["tc"]) > 0


def test_train_eval_pipeline(tmp_path):
    training = tmp_path / "training.csv"
    write_training_csv(training, make_synthetic_records())
    params_path = tmp_path / "params.json"
    assert run(["train", training, "--out-params", params_path,
                "--variant", "alpha-times-tqs",
                "--diagnostics", tmp_path / "diag.csv"]) == 0
    got = ModelParams.load(params_path)
    ref = ModelParams()
    for row in read_csv(tmp_path / "diag.csv"):
        [float(v) for v in row["coefficients"].split()]  # plain numbers, not numpy reprs
    assert got.a1 == pytest.approx(ref.a1, abs=1e-6)
    assert got.f2 == pytest.approx(ref.f2, abs=1e-6)

    scores = tmp_path / "scores.csv"
    xs = np.linspace(0, 100, 30)
    with open(scores, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stimulus", "content", "objective", "mos"])
        for i, x in enumerate(xs):
            w.writerow([f"s{i}", f"c{i % 5}", repr(float(x)), repr(float(x))])
    out = tmp_path / "report.csv"
    assert run(["eval", scores, "--out", out]) == 0
    row, = read_csv(out)
    assert float(row["plcc"]) == pytest.approx(1.0, abs=1e-9)
    assert float(row["srcc"]) == pytest.approx(1.0)


def test_loocv_command(tmp_path):
    training = tmp_path / "training.csv"
    write_training_csv(training, make_synthetic_records(
        tc_values=[20.0, 50.0, 80.0, 110.0]))
    out = tmp_path / "loocv.csv"
    assert run(["loocv", training, "--variant", "alpha-times-tqs", "--out", out]) == 0
    rows = read_csv(out)
    folds = [r for r in rows if r["fold"].startswith("content")]
    assert len(folds) == 4
    for r in folds:
        assert float(r["plcc"]) == pytest.approx(1.0, abs=1e-9)
    summary = [r for r in rows if r["fold"] in ("mean", "std")]
    assert [r["fold"] for r in summary] == ["mean", "std"]
    for r in summary:
        assert all(np.isfinite(float(r[key])) for key in ("plcc", "srcc", "rmse"))


def test_splits_command_bit_reproducible(tmp_path):
    training = tmp_path / "training.csv"
    write_training_csv(training, make_synthetic_records(
        tc_values=[20.0, 50.0, 80.0, 110.0]))
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["splits", training, "--n", 3, "--seed", 77, "--train-contents", 2,
            "--variant", "alpha-times-tqs"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unconverged_fits_are_notes_on_stderr(tmp_path, capsys):
    noisy, clean = tmp_path / "noisy.csv", tmp_path / "clean.csv"
    write_training_csv(noisy, make_synthetic_records(noise_sigma=0.5,
                                                     rng=np.random.default_rng(3)))
    write_training_csv(clean, make_synthetic_records())
    folds, _ = loocv(read_training_csv(noisy))
    notes = [f"note: fold {held}: logistic fit did not converge"
             for held, rep in folds.items() if not rep.converged]
    _, summary = random_split_eval(read_training_csv(noisy), n_splits=6, seed=1)
    assert notes and summary["unconverged"] > 0
    out = tmp_path / "out.csv"
    assert run(["loocv", noisy, "--out", out]) == 0
    assert capsys.readouterr().err.splitlines() == notes
    assert run(["loocv", clean, "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert run(["splits", noisy, "--n", 6, "--seed", 1, "--out", out]) == 0
    assert capsys.readouterr().err.endswith(f" unconverged={summary['unconverged']}\n")
    assert run(["splits", clean, "--n", 6, "--seed", 1, "--out", out]) == 0
    assert capsys.readouterr().err.endswith(" unconverged=0\n")


@pytest.mark.parametrize("argv", [
    ["train", "t.csv", "--out-params", "p.json"],
    ["loocv", "t.csv"],
    ["splits", "t.csv", "--seed", "1"],
])
def test_training_commands_default_to_alpha_times_tqs(argv):
    assert build_parser().parse_args(argv).variant == "alpha-times-tqs"


def test_significance_matrix(tmp_path):
    rng = np.random.default_rng(20)
    base = rng.normal(0, 1, 400)
    a, b = tmp_path / "good.csv", tmp_path / "bad.csv"
    for path, scale in ((a, 1.0), (b, 3.0)):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["residual"])
            for v in scale * base:
                w.writerow([repr(float(v))])
    out = tmp_path / "sig.csv"
    assert run(["significance", a, b, "--out", out]) == 0
    rows = read_csv(out)
    assert rows[0]["bad"] == "1"     # row "good" beats column "bad"
    assert rows[1]["good"] == "0"
    assert rows[0]["good"] == "0.5"


def test_json_output(tmp_path):
    stream = tmp_path / "fix.bin"
    run(["synth", "--pqs", 0.5, "--qp", 28, "--texture-bits", 8000,
         "--points", 1000, "--out", stream])
    out = tmp_path / "features.json"
    assert run(["extract", stream, "--json", "--out", out]) == 0
    data = json.loads(out.read_text())
    assert data[0]["qp"] == 28

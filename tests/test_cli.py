import csv
import json

import numpy as np
import pytest

from conftest import make_synthetic_records
from streampcq.cli import build_parser, main
from streampcq.model import ModelParams


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

import contextlib
import csv
import io
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
             if u.unit_type != schema.unit_codes["geometry_data"]]
    stream.write_bytes(bs.write_tlv_units(units, schema))
    out = tmp_path / "features.csv"
    assert run(["extract", stream, "--out", out]) == 0
    row, = read_csv(out)
    assert row["point_count_source"] == "sidecar"


def test_synth_and_extract_share_the_default_schema(tmp_path, monkeypatch):
    # without --schema, bitstream's one default schema is used, so its
    # extraction plan is not built again for each command
    from streampcq import bitstream as bs
    monkeypatch.setattr(bs, "default_schema", None)  # a call would raise TypeError
    stream, out = tmp_path / "fix.bin", tmp_path / "features.csv"
    assert run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
                "--points", 100, "--out", stream]) == 0
    assert run(["extract", stream, "--out", out]) == 0
    assert read_csv(out)[0]["qp"] == "22"


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
             if u.unit_type == schema.unit_codes["sequence_params"] else u
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


def test_extract_unreadable_inputs_fail_only_their_stream(tmp_path, capsys):
    good, missing, empty = tmp_path / "good.bin", tmp_path / "missing.bin", tmp_path / "empty.bin"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", good])
    empty.write_bytes(b"")
    out = tmp_path / "o.csv"
    assert run(["extract", tmp_path, missing, empty, good, "--out", out]) == 1
    assert [r["stream"] for r in read_csv(out)] == [str(good)]
    assert capsys.readouterr().err == (
        f"error: {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
        f"error: {missing}: [Errno 2] No such file or directory: '{missing}'\n"
        f"error: {empty}: empty bitstream\n")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_extract_reads_a_stream_from_a_pipe(tmp_path, capsys):
    stream = tmp_path / "fix.bin"
    run(["synth", "--pqs", 0.5, "--qp", 28, "--texture-bits", 2400,
         "--points", 50, "--out", stream])
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as fh:
        fh.write(stream.read_bytes())  # fits the pipe's buffer
    out = tmp_path / "o.csv"
    try:
        assert run(["extract", f"/dev/fd/{read_end}", "--out", out]) == 0
    finally:
        os.close(read_end)
    assert read_csv(out) == [{"stream": f"/dev/fd/{read_end}", "pqs": "0.5", "qp": "28",
                              "texture_bits": "2400", "point_count": "50", "tbpp": "48.0",
                              "point_count_source": "slice-header"}]
    assert capsys.readouterr().err == ""
    # a multi-MiB stream on the stdin of a process of its own gives the path form's row
    big = tmp_path / "big.bin"
    run(["synth", "--pqs", 0.25, "--qp", 40, "--texture-bits", 8 * 6 * 2**20,
         "--points", 123456, "--out", big])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    rows = []
    for stream, data in ((big, None), ("/dev/stdin", big.read_bytes())):
        done = subprocess.run([sys.executable, "-m", "streampcq.cli", "extract", stream],
                              input=data, env=env, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        _, row = done.stdout.decode().splitlines()
        rows.append(row.removeprefix(f"{stream},"))
    bits = 8 * 6 * 2**20
    assert rows[0] == rows[1] == f"0.25,40,{bits},123456,{bits / 123456!r},slice-header"


def test_extract_sidecar_is_probed_by_opening_it(tmp_path, capsys):
    dangling, walled = tmp_path / "dangling.bin", tmp_path / "walled.bin"
    for stream in (dangling, walled):
        run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
             "--points", 100, "--out", stream])
    # a sidecar link to nothing is no sidecar; a directory in its place fails its stream
    (tmp_path / "dangling.bin.meta.json").symlink_to(tmp_path / "nowhere.json")
    (tmp_path / "walled.bin.meta.json").mkdir()
    out = tmp_path / "o.csv"
    assert run(["extract", dangling, walled, "--out", out]) == 1
    row, = read_csv(out)
    assert (row["stream"], row["point_count_source"]) == (str(dangling), "slice-header")
    assert capsys.readouterr().err == (
        f"error: {walled}: [Errno 21] Is a directory: '{walled}.meta.json'\n")
    # a sidecar directory that is a file fails each stream, naming its sidecar
    assert run(["extract", dangling, "--sidecar-dir", walled, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {dangling}: [Errno 20] Not a directory: '{walled}/dangling.bin.meta.json'\n")


def test_malformed_schema_is_an_error_line(tmp_path, capsys):
    stream, schema = tmp_path / "fix.bin", tmp_path / "schema.json"
    run(["synth", "--pqs", 1, "--qp", 22, "--texture-bits", 800,
         "--points", 100, "--out", stream])
    schema.write_text('{"framing": 3}')
    assert run(["extract", stream, "--schema", schema]) == 1
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
    (["eval", "THREE_ROWS"], "THREE_ROWS: need at least five score pairs, got 3"),
    (["significance", "NO_RESIDUAL", "NO_RESIDUAL"], "NO_RESIDUAL: line 1: no column 'residual'"),
    (["tc", "CLOUD", "--block-edge", 0], "block_edge must be >= 1, got 0"),
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
    (["tc", "USHORT_RED"],
     "USHORT_RED: property 'red' of vertex 1 holds 300.0, not a colour in 0..255"),
    (["tc", "SHORT_GREEN"],
     "SHORT_GREEN: property 'green' of vertex 1 holds -1.0, not a colour in 0..255"),
    (["tc", "FLOAT_BLUE"],
     "FLOAT_BLUE: property 'blue' of vertex 1 holds 2.7, not a colour in 0..255"),
    (["tc", "NAN_X"], "NAN_X: property 'x' of vertex 1 holds nan, not an int32 voxel coordinate"),
    (["tc", "FAR_Z"],
     "FAR_Z: property 'z' of vertex 1 holds 1000000000000.0, not an int32 voxel coordinate"),
    (["eval", "FOUR_ROWS"], "FOUR_ROWS: need at least five score pairs, got 4"),
    (["significance", "RESIDUALS", "RESIDUALS", "--level", 1.5],
     "level must be between 0 and 1, got 1.5"),
    (["significance", "RESIDUALS", "RESIDUALS", "--level", "nan"],
     "level must be between 0 and 1, got nan"),
    (["significance", "RESIDUALS", "RESIDUALS", "--level", -1],
     "level must be between 0 and 1, got -1.0"),
    (["splits", "training.csv", "--seed", -1], "seed must be >= 0, got -1"),
    (["tc", "CLOUD", "--block-edge", 99999999999999999999],
     "block_edge must be <= 9223372036854775807, got 99999999999999999999"),
    (["significance", "RESIDUALS", "--level", 5], "level must be between 0 and 1, got 5.0"),
    (["tc", "CLOUD", "CLOUD", "--block-edge", 0], "block_edge must be >= 1, got 0"),
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
        "FOUR_ROWS": "objective,mos\n1,2\n2,3\n3,4\n4,5\n",
        "NO_RESIDUAL": "r\n1\n2\n3\n",
        "RESIDUALS": "residual\n1\n2\n4\n",
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
    # two-point ASCII clouds, each with one property type or value the reader refuses
    plys = {"USHORT_RED": ("red", "ushort", "1 0 0 300 0 0"),
            "SHORT_GREEN": ("green", "short", "1 0 0 0 -1 0"),
            "FLOAT_BLUE": ("blue", "float", "1 0 0 0 0 2.7"),
            "NAN_X": ("x", "float", "nan 0 0 0 0 0"),
            "FAR_Z": ("z", "float", "1 0 1e12 0 0 0")}
    for name, (prop, kind, row) in plys.items():
        types = dict.fromkeys("xyz", "float") | dict.fromkeys(("red", "green", "blue"), "uchar")
        header = "".join(f"property {t} {p}\n" for p, t in (types | {prop: kind}).items())
        names[name] = tmp_path / f"{name}.ply"
        names[name].write_text("ply\nformat ascii 1.0\nelement vertex 2\n" + header
                               + f"end_header\n0 0 0 0 0 0\n{row}\n")
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


@pytest.mark.parametrize("table, streams", [
    ("pqs,qp,tbpp\n0.25,46,0.5\n0.5,40,1.0\n", ["0", "1"]),
    ("stream,pqs,qp,stream,tbpp\na,0.25,46,b,0.5\nc,0.5,40,d,1.0\n", ["b", "d"]),
    ("pqs,qp,tbpp,stream\n0.25,46,0.5\n0.5,40,1.0,s2\n", ["", "s2"]),
], ids=["no-stream-column", "two-stream-columns", "short-row"])
def test_score_names_a_row_by_its_last_stream_cell_or_its_index(tmp_path, table, streams):
    feat, out = tmp_path / "features.csv", tmp_path / "scores.csv"
    feat.write_text(table)
    assert run(["score", feat, "--out", out]) == 0
    assert [r["stream"] for r in read_csv(out)] == streams


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
        for argv, out in ((["extract", stream.name], "features.csv"),
                          (["score", "features.csv"], "scores.csv")):
            # the table once to --out, then to stdout, which gets the same bytes
            stdout = []
            for more in (["--out", out], []):
                done = subprocess.run([sys.executable, *flags, "-m", "streampcq.cli", *argv,
                                       *more], cwd=tmp_path, env=env, capture_output=True)
                assert (done.returncode, done.stderr) == (0, b"")
                stdout.append(done.stdout)
            assert stdout == [b"", (tmp_path / out).read_bytes()]
        written.append([(tmp_path / f).read_bytes() for f in ("features.csv", "scores.csv")])
    assert written[0] == written[1]
    assert all(out.splitlines()[1].startswith("fé.bin,".encode()) for out in written[0])


def test_one_parser_serves_every_call(tmp_path, monkeypatch):
    assert build_parser() is build_parser()
    feat, params = tmp_path / "features.csv", tmp_path / "p.json"
    feat.write_text("stream,pqs,qp,tbpp\ns1,0.25,46,0.5\n")
    ModelParams(f2=300.0).save(params)  # pmos above 100
    out = tmp_path / "scores"
    assert run(["score", feat, "--params", params, "--json", "--clamp", "--out", out]) == 0
    assert json.loads(out.read_text())[0]["pmos"] == 100.0
    # neither option carries over to the next call
    assert run(["score", feat, "--params", params, "--out", out]) == 0
    assert float(read_csv(out)[0]["pmos"]) > 100
    # a command replaced after the first call runs, as in a traced benchmark run
    seen = []
    monkeypatch.setattr(cli, "cmd_score", lambda args: seen.append(args.features) or 7)
    assert run(["score", feat]) == 7
    assert seen == [str(feat)]


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


def test_tc_checks_the_block_edge_once_before_reading_a_cloud(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.pcio, "read_ply", lambda path: pytest.fail(f"read {path}"))
    assert run(["tc", tmp_path / "a.ply", tmp_path / "b.ply", "--block-edge", 0]) == 1
    assert capsys.readouterr() == ("", "error: block_edge must be >= 1, got 0\n")


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


def test_train_notes_each_skipped_group_on_stderr(tmp_path, capsys):
    records = make_synthetic_records(noise_sigma=0.5, rng=np.random.default_rng(3))
    # one point in (content01, 0.25); one tqs twice in (content02, 0.5); one point in (1.0, 46)
    kept = [r for r in records
            if not (r.content == "content01" and r.pqs == 0.25 and r.qp != 22)
            and not (r.content == "content02" and r.pqs == 0.5 and r.qp != 22)
            and not (r.pqs == 1.0 and r.qp == 46 and r.content != "content00")]
    twin = next(r for r in kept if r.content == "content02" and r.pqs == 0.5)
    training = tmp_path / "training.csv"
    write_training_csv(training, kept + [twin.replace(mos=twin.mos + 1.0)])
    assert run(["train", training, "--out-params", tmp_path / "p.json"]) == 0
    assert capsys.readouterr().err == (
        "note: stage A skipped group ('content01', 0.25): need at least two points\n"
        "note: stage A skipped group ('content02', 0.5): all x values identical\n"
        "note: stage B skipped group (1.0, 46): need at least two points\n")


def test_train_refuses_coefficients_no_float_holds(tmp_path, capsys):
    # MOS near the float limit: the stage C and D sums overflow, and their fits read NaN
    records = [r.replace(mos=r.mos * 1e306) for r in make_synthetic_records()]
    training, params = tmp_path / "training.csv", tmp_path / "p.json"
    write_training_csv(training, records)
    assert run(["train", training, "--out-params", params]) == 1
    assert capsys.readouterr().err == "error: coefficients must be finite numbers: c, d, f1, f2\n"
    assert not params.exists()


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
    # a text-only stream in place of stdout gets the same text
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert run(["extract", stream, "--json"]) == 0
    assert text.getvalue() == out.read_text()


def test_json_mirrors_carry_the_csv_values_as_numbers(tmp_path):
    from streampcq.pointcloud import PointCloud, write_ply
    rng = np.random.default_rng(5)
    stream, cloud = tmp_path / "fix.bin", tmp_path / "c.ply"
    features, training, scores = (tmp_path / f"{n}.csv" for n in ("f", "t", "s"))
    run(["synth", "--pqs", 0.5, "--qp", 28, "--texture-bits", 8000, "--points", 1000,
         "--out", stream])
    assert run(["extract", stream, "--out", features]) == 0
    write_ply(cloud, PointCloud(rng.integers(0, 8, (200, 3)).astype(np.int32),
                                rng.integers(0, 256, (200, 3)).astype(np.uint8)))
    write_training_csv(training, make_synthetic_records(
        tc_values=[20.0, 50.0, 80.0, 110.0], noise_sigma=0.5, rng=rng))
    x = np.linspace(10.0, 90.0, 30)
    scores.write_text("objective,mos\n" + "".join(
        f"{o!r},{m!r}\n" for o, m in zip(x.tolist(), (x + rng.normal(0, 5, 30)).tolist())))
    residuals = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, sigma in zip(residuals, (1.0, 3.0)):
        path.write_text("residual\n" + "".join(f"{v!r}\n" for v in rng.normal(0, sigma, 40).tolist()))
    commands = [["extract", stream], ["score", features], ["tc", cloud], ["eval", scores],
                ["loocv", training], ["splits", training, "--n", 3, "--seed", 2,
                                      "--train-contents", 2],
                ["significance", *residuals]]
    for argv in commands:
        table, mirror = tmp_path / "table.csv", tmp_path / "mirror.json"
        assert run(argv + ["--out", table]) == 0
        assert run(argv + ["--json", "--out", mirror]) == 0
        with open(table, newline="") as fh:
            header, *rows = csv.reader(fh)
        records = json.loads(mirror.read_text())
        assert rows and len(records) == len(rows), argv[0]
        for record, row in zip(records, rows):
            assert list(record) == header, argv[0]
            for key, cell in zip(header, row):
                value = record[key]
                try:
                    float(cell)
                except ValueError:  # a name, a path or a bool
                    assert isinstance(value, (str, bool)) and str(value) == cell, (argv[0], key)
                    continue
                assert type(value) in (int, float), (argv[0], key, value)
                assert value == float(cell) and json.dumps(value) == cell, (argv[0], key)

import math

import pytest
from hypothesis import given, settings, strategies as st

from streampcq import bitstream as bs
from streampcq.errors import (
    BitstreamExhausted,
    EmptyInput,
    MissingField,
    NonPositivePqs,
    TruncatedUnit,
    UnrepresentableField,
    ZeroPointCount,
)

SCHEMA = bs.default_schema()


def bits(s: str) -> bytes:
    s = s.replace(" ", "")
    s += "0" * (-len(s) % 8)
    return bytes(int(s[i : i + 8], 2) for i in range(0, len(s), 8))


# ---------------------------------------------------------------------------
# TLV framing


def test_tlv_single_unit():
    data = bytes.fromhex("0200000003AABBCC")
    units = bs.read_tlv_units(data, SCHEMA)
    assert units == [bs.TlvUnit(2, bytes.fromhex("AABBCC"))]


def test_tlv_empty_input():
    with pytest.raises(EmptyInput):
        bs.read_tlv_units(b"", SCHEMA)


def test_tlv_truncated():
    with pytest.raises(TruncatedUnit):
        bs.read_tlv_units(bytes.fromhex("0200000005AA"), SCHEMA)


def test_tlv_reserialization_identity():
    data = bytes.fromhex("0200000003AABBCC" "0700000000" "0100000001FF")
    units = bs.read_tlv_units(data, SCHEMA)
    assert bs.write_tlv_units(units, SCHEMA) == data


# ---------------------------------------------------------------------------
# Bit reader


def test_read_ue_zero():
    assert bs.BitReader(bits("1")).read_ue() == 0


def test_read_ue_three():
    assert bs.BitReader(bits("00100")).read_ue() == 3


def test_read_se_signed_mapping():
    assert bs.BitReader(bits("010")).read_se() == 1
    assert bs.BitReader(bits("011")).read_se() == -1


def test_read_bits_advances_position():
    r = bs.BitReader(bits("0101 0101"))
    assert r.read_bits(4) == 5
    assert r.bits_consumed == 4


def test_read_exhausted():
    with pytest.raises(BitstreamExhausted):
        bs.BitReader(b"\x00").read_bits(9)


@given(st.integers(min_value=0, max_value=40))
def test_ue_roundtrip_logarithmic(exp):
    # sample k across the [0, 2^32-2] range logarithmically
    for k in {2**exp - 1, 2**exp, 2**exp + 1}:
        if not 0 <= k <= 2**32 - 2:
            continue
        w = bs.BitWriter()
        w.write_ue(k)
        assert bs.BitReader(w.getvalue()).read_ue() == k


def test_read_ue_caps_leading_zeros():
    assert bs.BitReader(bits("0" * 32 + "1" + "1" * 32)).read_ue() == 2**33 - 2
    with pytest.raises(UnrepresentableField):
        bs.BitReader(bytes(20)).read_ue("slice_point_count")  # 160 zero bits


@given(st.integers(min_value=-10000, max_value=10000))
def test_se_roundtrip(v):
    w = bs.BitWriter()
    w.write_se(v)
    assert bs.BitReader(w.getvalue()).read_se() == v


# ---------------------------------------------------------------------------
# Header parsing


def test_parse_header_two_ue():
    path = [bs.FieldSpec("a", "ue"), bs.FieldSpec("b", "ue")]
    assert bs.parse_header(bits("00100 1"), path) == {"a": 3, "b": 0}


def test_parse_header_fixed_width():
    assert bs.parse_header(bits("0101"), [bs.FieldSpec("x", "u", 4)]) == {"x": 5}


def test_parse_header_exhausted_names_field():
    path = [bs.FieldSpec("x", "u", 8), bs.FieldSpec("y", "u", 4)]
    with pytest.raises(BitstreamExhausted) as ei:
        bs.parse_header(b"\xff", path)
    assert ei.value.field == "y"


def test_parse_header_ignores_tail():
    payload = bits("0101") + b"\xde\xad"
    assert bs.parse_header(payload, [bs.FieldSpec("x", "u", 4)])["x"] == 5


# ---------------------------------------------------------------------------
# Feature extraction / synthesis


def feats(pqs, qp, tb, pc, source="slice-header"):
    return bs.BitstreamFeatures.from_counts(pqs, qp, tb, pc, source)


def test_roundtrip_example():
    f = feats(0.25, 34, 10**6, 2 * 10**6)
    got = bs.extract_features(bs.synthesize_bitstream(f, SCHEMA), SCHEMA)
    assert got == f
    assert got.tbpp == 0.5


def test_synthesize_payload_size():
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    units = bs.read_tlv_units(data, SCHEMA)
    attr = [u for u in units if u.unit_type == SCHEMA.code_for("attribute_data")]
    assert sum(len(u.payload) for u in attr) == 100


def test_missing_texture_bits():
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.code_for("attribute_data")]
    with pytest.raises(MissingField) as ei:
        bs.extract_features(bs.write_tlv_units(units, SCHEMA), SCHEMA)
    assert ei.value.name == "texture_bits"


def test_sidecar_point_count():
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    # drop the geometry-data unit so the slice header cannot provide the count
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.code_for("geometry_data")]
    got = bs.extract_features(bs.write_tlv_units(units, SCHEMA), SCHEMA,
                              sidecar={"point_count": 716659})
    assert got.point_count == 716659
    assert got.point_count_source == "sidecar"


def test_decoded_cloud_fallback():
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.code_for("geometry_data")]
    got = bs.extract_features(bs.write_tlv_units(units, SCHEMA), SCHEMA,
                              decoded_point_count=42)
    assert got.point_count_source == "decoded-cloud"


@pytest.mark.parametrize("dropped, name, sidecar_value", [
    ("sequence_params", "pqs", 0.5),
    ("attribute_params", "qp", 40),
    ("attribute_data", "texture_bits", 2400),
])
def test_feature_falls_back_to_sidecar(dropped, name, sidecar_value):
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.code_for(dropped)]
    stream = bs.write_tlv_units(units, SCHEMA)
    got = bs.extract_features(stream, SCHEMA, sidecar={name: sidecar_value})
    assert getattr(got, name) == sidecar_value
    assert got.point_count == 100
    assert got.point_count_source == "slice-header"
    with pytest.raises(MissingField) as ei:
        bs.extract_features(stream, SCHEMA)
    assert ei.value.name == name


def test_unknown_unit_types_skipped():
    data = bs.synthesize_bitstream(feats(0.5, 28, 1600, 50), SCHEMA)
    noisy = bytes.fromhex("63" + "00000002" + "BEEF") + data
    assert bs.extract_features(noisy, SCHEMA) == bs.extract_features(data, SCHEMA)


def header(unit_class, **values):
    w = bs.BitWriter()
    for f in SCHEMA.field_paths[unit_class]:
        if f.kind == "u":
            w.write_bits(values.get(f.name, 0), f.width)
        else:
            w.write_ue(values.get(f.name, 0))
    return w.getvalue()


def test_two_slice_point_count_is_summed():
    code = SCHEMA.code_for
    data = bs.write_tlv_units([
        bs.TlvUnit(code("sequence_params"), header("sequence_params", geom_scale_num=2)),
        bs.TlvUnit(code("attribute_params"), header("attribute_params", attr_initial_qp=34)),
        bs.TlvUnit(code("geometry_data"), header("geometry_data", slice_id=0,
                                                 slice_point_count=1000) + bytes(4)),
        bs.TlvUnit(code("attribute_data"), bytes(100)),
        bs.TlvUnit(code("geometry_data"), header("geometry_data", slice_id=1,
                                                 slice_point_count=1000) + bytes(4)),
        bs.TlvUnit(code("attribute_data"), bytes(150)),
    ], SCHEMA)
    got = bs.extract_features(data, SCHEMA)
    assert got == feats(0.25, 34, 2000, 2000)


def test_zero_geometry_scale_rejected():
    data = bs.write_tlv_units([
        bs.TlvUnit(SCHEMA.code_for("sequence_params"), header("sequence_params")),
        bs.TlvUnit(SCHEMA.code_for("attribute_params"), header("attribute_params")),
        bs.TlvUnit(SCHEMA.code_for("geometry_data"),
                   header("geometry_data", slice_point_count=10)),
        bs.TlvUnit(SCHEMA.code_for("attribute_data"), bytes(10)),
    ], SCHEMA)
    with pytest.raises(NonPositivePqs):
        bs.extract_features(data, SCHEMA)
    with pytest.raises(NonPositivePqs):
        bs.BitstreamFeatures(pqs=0.0, qp=22, texture_bits=8, point_count=1, tbpp=8.0).validate()


def test_unrepresentable_pqs():
    with pytest.raises(UnrepresentableField):
        bs.synthesize_bitstream(feats(0.3, 22, 800, 100), SCHEMA)


def test_texture_bits_not_byte_aligned():
    with pytest.raises(UnrepresentableField):
        bs.synthesize_bitstream(feats(1.0, 22, 801, 100), SCHEMA)


def test_compute_tbpp():
    assert bs.compute_tbpp(1_000_000, 2_000_000) == 0.5
    assert bs.compute_tbpp(0, 5) == 0.0
    with pytest.raises(ZeroPointCount):
        bs.compute_tbpp(8, 0)


def test_header_prefix_only_consumption():
    trace = []
    data = bs.synthesize_bitstream(feats(0.25, 40, 8000, 1234), SCHEMA)
    bs.extract_features(data, SCHEMA, trace=trace)
    classes = [t[0] for t in trace]
    assert "attribute_data" not in classes
    for unit_class, consumed, payload_bits in trace:
        assert consumed <= payload_bits
        if unit_class == "geometry_data":
            assert consumed <= payload_bits - 32  # filler body untouched


@settings(max_examples=200, deadline=None)
@given(
    pqs=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    qp=st.integers(min_value=22, max_value=46),
    nbytes=st.integers(min_value=0, max_value=10**6),
    pc=st.integers(min_value=1, max_value=10**8),
)
def test_roundtrip_property(pqs, qp, nbytes, pc):
    f = feats(pqs, qp, 8 * nbytes, pc)
    assert bs.extract_features(bs.synthesize_bitstream(f, SCHEMA), SCHEMA) == f


def test_schema_json_roundtrip(tmp_path):
    path = tmp_path / "schema.json"
    SCHEMA.save(path)
    loaded = bs.SyntaxSchema.load(path)
    assert loaded == SCHEMA

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from streampcq import bitstream as bs
from streampcq.errors import (
    BitstreamExhausted,
    EmptyInput,
    InvalidFeature,
    InvalidSchema,
    InvalidSidecar,
    MissingField,
    NonPositivePqs,
    StreamPcqError,
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


def ue_bits(k: int) -> str:
    """Exp-Golomb codeword of k: n-1 zeros, then k+1 in n bits."""
    code = format(k + 1, "b")
    return "0" * (len(code) - 1) + code


FIELDS = st.one_of(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(st.just("u"), st.just(n), st.integers(0, 2**n - 1))),
    st.tuples(st.just("ue"), st.just(0), st.integers(0, 2**33 - 2)),
    st.tuples(st.just("se"), st.just(0), st.integers(-2**32 + 1, 2**32 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.lists(FIELDS, max_size=20))
def test_bit_io_matches_bit_string_reference(pad, fields):
    w = bs.BitWriter()
    w.write_bits(0, pad)
    ref = "0" * pad
    for kind, n, v in fields:
        if kind == "u":
            w.write_bits(v, n)
            ref += format(v, f"0{n}b")
        elif kind == "ue":
            w.write_ue(v)
            ref += ue_bits(v)
        else:
            w.write_se(v)
            ref += ue_bits(2 * v - 1 if v > 0 else -2 * v)
    data = w.getvalue()
    assert data == bits(ref)
    r = bs.BitReader(data)
    assert r.read_bits(pad) == 0
    for kind, n, v in fields:
        got = r.read_bits(n) if kind == "u" else r.read_ue() if kind == "ue" else r.read_se()
        assert got == v
    assert r.bits_consumed == len(ref)
    assert r.read_bits(r.bits_left) == 0  # the zero padding of the last byte
    with pytest.raises(BitstreamExhausted):
        r.read_bits(1)


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


def test_zero_point_count_rejected_from_stream_and_sidecar():
    code = SCHEMA.code_for
    units = [
        bs.TlvUnit(code("sequence_params"), header("sequence_params", geom_scale_num=8)),
        bs.TlvUnit(code("attribute_params"), header("attribute_params", attr_initial_qp=34)),
        bs.TlvUnit(code("attribute_data"), bytes(10)),
    ]
    empty_slice = bs.TlvUnit(code("geometry_data"), header("geometry_data", slice_point_count=0))
    with pytest.raises(ZeroPointCount):
        bs.extract_features(bs.write_tlv_units(units + [empty_slice], SCHEMA), SCHEMA)
    with pytest.raises(ZeroPointCount):
        bs.extract_features(bs.write_tlv_units(units, SCHEMA), SCHEMA,
                            sidecar={"point_count": 0})


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


def test_schema_toml_loads_like_its_json_twin(tmp_path):
    toml = tmp_path / "schema.toml"
    toml.write_text('''
[framing]
type_bytes = 2
length_bytes = 2
length_endian = "little"

[unit_codes]
sequence_params = 16
attribute_params = 48

[[field_paths.sequence_params]]
name = "geom_scale_num"
kind = "ue"

[[field_paths.attribute_params]]
name = "attr_label"
kind = "u"
width = 4

[[field_paths.attribute_params]]
name = "attr_initial_qp"
kind = "se"

[targets.pqs]
unit_class = "sequence_params"
field = "geom_scale_num"
divisor = 8

[targets.qp]
unit_class = "attribute_params"
field = "attr_initial_qp"
''')
    twin = tmp_path / "schema.json"
    twin.write_text(json.dumps({
        "framing": {"type_bytes": 2, "length_bytes": 2, "length_endian": "little"},
        "unit_codes": {"sequence_params": 16, "attribute_params": 48},
        "field_paths": {
            "sequence_params": [{"name": "geom_scale_num", "kind": "ue"}],
            "attribute_params": [{"name": "attr_label", "kind": "u", "width": 4},
                                 {"name": "attr_initial_qp", "kind": "se"}],
        },
        "targets": {
            "pqs": {"unit_class": "sequence_params", "field": "geom_scale_num", "divisor": 8},
            "qp": {"unit_class": "attribute_params", "field": "attr_initial_qp"},
        },
    }))
    loaded = bs.SyntaxSchema.load(toml)
    assert loaded == bs.SyntaxSchema.load(twin)
    assert loaded.length_endian == "little"
    assert loaded.field_paths["attribute_params"][1] == bs.FieldSpec("attr_initial_qp", "se")


def test_schema_toml_carries_the_target_selector(tmp_path):
    toml = tmp_path / "schema.toml"
    toml.write_text('''
[targets.qp]
unit_class = "attribute_params"
field = "attr_initial_qp"

[targets.qp.where]
attr_label = 0
''')
    loaded = bs.SyntaxSchema.load(toml)
    assert loaded.to_dict()["targets"]["qp"]["where"] == {"attr_label": 0}
    assert loaded.targets["qp"] == SCHEMA.targets["qp"]


def colour_and_reflectance_stream(attribute_params):
    code = SCHEMA.code_for
    return bs.write_tlv_units([
        bs.TlvUnit(code("sequence_params"), header("sequence_params", geom_scale_num=8)),
        *(bs.TlvUnit(code("attribute_params"), header("attribute_params", attr_label=label,
                                                      attr_initial_qp=qp))
          for label, qp in attribute_params),
        bs.TlvUnit(code("geometry_data"), header("geometry_data", slice_point_count=100)),
        bs.TlvUnit(code("attribute_data"), bytes(100)),
    ], SCHEMA)


def test_qp_comes_from_the_colour_attribute():
    # reflectance (attr_label 1) ahead of colour (attr_label 0)
    data = colour_and_reflectance_stream([(1, 10), (0, 34)])
    assert bs.extract_features(data, SCHEMA).qp == 34


def test_reflectance_only_stream_has_no_header_qp():
    data = colour_and_reflectance_stream([(1, 10)])
    assert bs.extract_features(data, SCHEMA, sidecar={"qp": 28}).qp == 28
    with pytest.raises(MissingField) as ei:
        bs.extract_features(data, SCHEMA)
    assert ei.value.name == "qp"


def test_synthesized_stream_carries_the_selected_label():
    d = SCHEMA.to_dict()
    d["targets"]["qp"]["where"] = {"attr_label": 2}
    schema = bs.SyntaxSchema.from_dict(d)
    f = feats(0.5, 40, 800, 100)
    assert bs.extract_features(bs.synthesize_bitstream(f, schema), schema) == f
    with pytest.raises(MissingField):
        bs.extract_features(bs.synthesize_bitstream(f, SCHEMA), schema)


# ---------------------------------------------------------------------------
# Malformed sidecars and schemas


def header_only_stream():
    """A stream with no unit the default schema reads: every feature comes
    from the sidecar."""
    return bs.write_tlv_units([bs.TlvUnit(2, b"\x00")], SCHEMA)


GOOD_SIDECAR = {"pqs": 0.5, "qp": 34, "texture_bits": 800, "point_count": 100}


@pytest.mark.parametrize("name, value", [
    ("texture_bits", None), ("qp", "x"), ("pqs", "nan"), ("pqs", "inf"), ("pqs", float("-inf")),
    ("point_count", 1.5), ("texture_bits", -8), ("qp", [34]), ("point_count", "1e400"),
    ("texture_bits", 10**400),
])
def test_bad_sidecar_value_names_its_field(name, value):
    with pytest.raises(InvalidSidecar) as ei:
        bs.extract_features(header_only_stream(), SCHEMA, {**GOOD_SIDECAR, name: value})
    assert ei.value.field == name
    assert repr(name) in str(ei.value)


def test_sidecar_numbers_in_any_exact_spelling_are_accepted():
    got = bs.extract_features(header_only_stream(), SCHEMA,
                              {"pqs": "0.5", "qp": "34", "texture_bits": 800.0, "point_count": 100})
    assert got == feats(0.5, 34, 800, 100, source="sidecar")
    assert type(got.texture_bits) is int


@pytest.mark.parametrize("pqs, texture_bits", [
    (math.nan, 8), (math.inf, 8), (1.0, -8),
])
def test_validate_rejects_non_finite_pqs_and_negative_texture_bits(pqs, texture_bits):
    with pytest.raises(InvalidFeature):
        feats(pqs, 22, texture_bits, 1).validate()


@pytest.mark.parametrize("text", ['{"pqs": ', "[1, 2]", '"pqs"', "\udcff"])
def test_load_sidecar_wants_one_json_object(tmp_path, text):
    path = tmp_path / "s.bin.meta.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(InvalidSidecar, match="s.bin.meta.json"):
        bs.load_sidecar(path)


def test_load_sidecar_reads_the_object(tmp_path):
    path = tmp_path / "s.bin.meta.json"
    path.write_text(json.dumps(GOOD_SIDECAR))
    assert bs.load_sidecar(path) == GOOD_SIDECAR


@pytest.mark.parametrize("name, text", [
    ("s.json", '{"framing": 3}'),
    ("s.json", "[]"),
    ("s.json", "{"),
    ("s.json", '{"framing": {"type_bytes": "1"}}'),
    ("s.json", '{"framing": {"length_endian": "middle"}}'),
    ("s.json", '{"unit_codes": {"sequence_params": "1"}}'),
    ("s.json", '{"field_paths": {"sequence_params": [{"kind": "ue"}]}}'),
    ("s.json", '{"field_paths": {"sequence_params": [{"name": "x", "kind": "u", "width": 2.5}]}}'),
    ("s.json", '{"field_paths": {"sequence_params": [{"name": "x", "kind": "v"}]}}'),
    ("s.json", '{"targets": {"pqs": {"unit_class": "s", "field": "x", "divisor": 0}}}'),
    ("s.json", '{"targets": {"pqs": {"field": "x"}}}'),
    ("s.json", '{"targets": {"qp": {"unit_class": "a", "field": "b", "where": 3}}}'),
    ("s.toml", "framing = 3"),
    ("s.toml", "[framing"),
])
def test_malformed_schema_file_fails_typed(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InvalidSchema, match=name):
        bs.SyntaxSchema.load(path)


# ---------------------------------------------------------------------------
# Extraction fuzz: only a StreamPcqError escapes, and any tuple is valid

SIDECAR_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(), st.text(max_size=6), st.lists(st.integers(), max_size=2))
SIDECARS = st.none() | st.dictionaries(
    st.sampled_from(["pqs", "qp", "texture_bits", "point_count", "other"]), SIDECAR_VALUES)


@st.composite
def fuzzed_streams(draw):
    kind = draw(st.sampled_from(["random", "truncated", "mutated"]))
    if kind == "random":
        return draw(st.binary(max_size=64))
    f = feats(draw(st.sampled_from([0.125, 0.25, 0.5, 1.0])), draw(st.integers(0, 63)),
              8 * draw(st.integers(0, 40)), draw(st.integers(1, 10**6)))
    data = bytearray(bs.synthesize_bitstream(f, SCHEMA))
    if kind == "truncated":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    for _ in range(draw(st.integers(1, 6))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=1000, deadline=None)
@given(fuzzed_streams(), SIDECARS)
def test_extraction_fuzz_fails_only_typed(data, sidecar):
    try:
        got = bs.extract_features(data, SCHEMA, sidecar)
    except StreamPcqError:
        return
    got.validate()
    assert all(type(v) is int for v in (got.qp, got.texture_bits, got.point_count))
    assert math.isfinite(got.pqs) and math.isfinite(got.tbpp)

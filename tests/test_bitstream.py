import contextlib
import gc
import itertools
import json
import math
import os
import threading
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
from streampcq.model import QP_MAX

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
    assert r.pos == 4


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
    # a reader past `pad` zero bits and then as many 1 bits as make `tail` end
    # the data exactly; data ends on a byte, so the tail's length fixes the
    # bit offset at which it starts
    def reader_at(pad, tail):
        lead = pad + -(pad + len(tail)) % 8
        r = bs.BitReader(bits("0" * pad + "1" * (lead - pad) + tail))
        r.read_bits(lead)
        return r

    for pad in range(8):
        for zeros in range(33):
            k = 2 ** (zeros + 1) - 2  # the largest value of this length
            r = reader_at(pad, ue_bits(k))
            assert (r.read_ue("f"), r.bits_left) == (k, 0)
        for zeros in range(1, 33):
            with pytest.raises(BitstreamExhausted, match="^bitstream exhausted while reading 'f'$"):
                reader_at(pad, "0" * zeros).read_ue("f")
            with pytest.raises(BitstreamExhausted, match="^bitstream exhausted while reading 'f'$"):
                reader_at(pad, "0" * zeros + "1" + "1" * (zeros - 1)).read_ue("f")
        for tail in ("", "1", "1" * 33):
            with pytest.raises(UnrepresentableField,
                               match="^ue\\(v\\) 'f': more than 32 leading zero bits$"):
                reader_at(pad, "0" * 33 + tail).read_ue("f")


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
@given(st.integers(min_value=0, max_value=7), st.lists(FIELDS, max_size=20),
       st.none() | st.integers(0, 2**33 - 2))
def test_bit_io_matches_bit_string_reference(pad, fields, last_ue):
    def reference(kind, n, v):
        return (format(v, f"0{n}b") if kind == "u" else ue_bits(v) if kind == "ue"
                else ue_bits(2 * v - 1 if v > 0 else -2 * v))

    ref = "0" * pad + "".join(reference(*f) for f in fields)
    if last_ue is not None:  # a filler field, then a ue codeword that ends the data
        fill = -(len(ref) + len(ue_bits(last_ue))) % 8 or 8
        fields = fields + [("u", fill, 1), ("ue", 0, last_ue)]
        ref += reference("u", fill, 1) + ue_bits(last_ue)
    w = bs.BitWriter()
    w.write_bits(0, pad)
    for kind, n, v in fields:
        if kind == "u":
            w.write_bits(v, n)
        elif kind == "ue":
            w.write_ue(v)
        else:
            w.write_se(v)
    data = w.getvalue()
    assert data == bits(ref)
    r = bs.BitReader(data)
    assert r.read_bits(pad) == 0
    for kind, n, v in fields:
        got = r.read_bits(n) if kind == "u" else r.read_ue() if kind == "ue" else r.read_se()
        assert got == v
    assert r.pos == len(ref)
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
    attr = [u for u in units if u.unit_type == SCHEMA.unit_codes["attribute_data"]]
    assert sum(len(u.payload) for u in attr) == 100


def test_missing_texture_bits():
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.unit_codes["attribute_data"]]
    with pytest.raises(MissingField) as ei:
        bs.extract_features(bs.write_tlv_units(units, SCHEMA), SCHEMA)
    assert ei.value.name == "texture_bits"


def test_sidecar_point_count():
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    # drop the geometry-data unit so the slice header cannot provide the count
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.unit_codes["geometry_data"]]
    got = bs.extract_features(bs.write_tlv_units(units, SCHEMA), SCHEMA,
                              sidecar={"point_count": 716659})
    assert got.point_count == 716659
    assert got.point_count_source == "sidecar"


@pytest.mark.parametrize("dropped, name, sidecar_value", [
    ("sequence_params", "pqs", 0.5),
    ("attribute_params", "qp", 40),
    ("attribute_data", "texture_bits", 2400),
])
def test_feature_falls_back_to_sidecar(dropped, name, sidecar_value):
    data = bs.synthesize_bitstream(feats(1.0, 22, 800, 100), SCHEMA)
    units = [u for u in bs.read_tlv_units(data, SCHEMA)
             if u.unit_type != SCHEMA.unit_codes[dropped]]
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
    code = SCHEMA.unit_codes
    data = bs.write_tlv_units([
        bs.TlvUnit(code["sequence_params"], header("sequence_params", geom_scale_num=2)),
        bs.TlvUnit(code["attribute_params"], header("attribute_params", attr_initial_qp=34)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_id=0,
                                                 slice_point_count=1000) + bytes(4)),
        bs.TlvUnit(code["attribute_data"], bytes(100)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_id=1,
                                                 slice_point_count=1000) + bytes(4)),
        bs.TlvUnit(code["attribute_data"], bytes(150)),
    ], SCHEMA)
    got = bs.extract_features(data, SCHEMA)
    assert got == feats(0.25, 34, 2000, 2000)


def test_zero_geometry_scale_rejected():
    data = bs.write_tlv_units([
        bs.TlvUnit(SCHEMA.unit_codes["sequence_params"], header("sequence_params")),
        bs.TlvUnit(SCHEMA.unit_codes["attribute_params"], header("attribute_params")),
        bs.TlvUnit(SCHEMA.unit_codes["geometry_data"],
                   header("geometry_data", slice_point_count=10)),
        bs.TlvUnit(SCHEMA.unit_codes["attribute_data"], bytes(10)),
    ], SCHEMA)
    with pytest.raises(NonPositivePqs):
        bs.extract_features(data, SCHEMA)
    with pytest.raises(NonPositivePqs):
        bs.BitstreamFeatures(pqs=0.0, qp=22, texture_bits=8, point_count=1, tbpp=8.0).validate()


def test_zero_point_count_rejected_from_stream_and_sidecar():
    code = SCHEMA.unit_codes
    units = [
        bs.TlvUnit(code["sequence_params"], header("sequence_params", geom_scale_num=8)),
        bs.TlvUnit(code["attribute_params"], header("attribute_params", attr_initial_qp=34)),
        bs.TlvUnit(code["attribute_data"], bytes(10)),
    ]
    empty_slice = bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_point_count=0))
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


def wide_pqs_stream(raw, divisor):
    """(stream, schema): the schema's pqs field is a u(64) over `divisor`, and
    the stream's holds `raw`."""
    d = SCHEMA.to_dict()
    d["field_paths"]["sequence_params"][-1] = {"name": "geom_scale_num", "kind": "u", "width": 64}
    d["targets"]["pqs"]["divisor"] = divisor
    schema = bs.SyntaxSchema.from_dict(d)
    units = bs.read_tlv_units(bs.synthesize_bitstream(feats(1.0, 28, 800, 100), schema), schema)
    w = bs.BitWriter()
    w.write_bits(0, 16)  # profile_idc, level_idc
    w.write_bits(raw, 64)
    units[0] = units[0].replace(payload=w.getvalue())  # the sequence_params unit
    return bs.write_tlv_units(units, schema), schema


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.integers(1, 2**53), st.integers(2**53 + 1, 2**64 - 1)),
       divisor=st.integers(1, 2**32 - 1))
@example(raw=2**53 + 1, divisor=1)
@example(raw=3 * (2**53 + 1), divisor=3)
@example(raw=2**64 - 1, divisor=2**32 - 1)
@example(raw=2**64 - 3, divisor=2**32 - 3)
def test_pqs_is_the_exact_quotient_rounded_once(raw, divisor):
    # int true division rounds raw/divisor correctly, as Fraction's float does
    data, schema = wide_pqs_stream(raw, divisor)
    assert bs.extract_features(data, schema).pqs == float(Fraction(raw, divisor))


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
    code = SCHEMA.unit_codes
    return bs.write_tlv_units([
        bs.TlvUnit(code["sequence_params"], header("sequence_params", geom_scale_num=8)),
        *(bs.TlvUnit(code["attribute_params"], header("attribute_params", attr_label=label,
                                                      attr_initial_qp=qp))
          for label, qp in attribute_params),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_point_count=100)),
        bs.TlvUnit(code["attribute_data"], bytes(100)),
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
    ("texture_bits", 10**400), ("point_count", True), ("pqs", False),
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


def test_toml_sidecar_loads_like_its_json_twin(tmp_path):
    toml, twin = tmp_path / "s.bin.meta.toml", tmp_path / "s.bin.meta.json"
    toml.write_text("pqs = 0.5\nqp = 34\ntexture_bits = 800\npoint_count = 100\n")
    twin.write_text(json.dumps(GOOD_SIDECAR))
    assert bs.load_sidecar(toml) == bs.load_sidecar(twin) == GOOD_SIDECAR
    # a .toml name is parsed as TOML, so JSON text there does not parse
    toml.write_text(json.dumps(GOOD_SIDECAR))
    with pytest.raises(InvalidSidecar, match="s.bin.meta.toml"):
        bs.load_sidecar(toml)


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
    ("s.json", '{"framing": {"type_bytes": true}}'),
    ("s.json", '{"targets": {"qp": {"unit_class": "a", "field": "b", "divisor": 2}}}'),
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


@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    """One file path that a test rewrites for each stream it extracts."""
    return tmp_path_factory.mktemp("streams") / "stream.bin"


PIPES = os.path.isdir("/dev/fd")  # a pipe's read end can be opened by path


@contextlib.contextmanager
def piped(data, sizes=(1 << 20,)):
    """The /dev/fd path of the read end of a pipe that a writer thread fills
    with `data`, in writes of the sizes `sizes` cycles through.  The writer
    ends at a closed read end; both ends are closed on exit."""
    read_end, write_end = os.pipe()

    def write():
        try:
            view, size = memoryview(data), itertools.cycle(sizes)
            while view:
                view = view[os.write(write_end, view[: next(size)]) :]
        except BrokenPipeError:  # the reader stopped before the end
            pass
        finally:
            os.close(write_end)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        writer.join(timeout=60)
        assert not writer.is_alive()


def extract_both_ways(data, stream_file, *args):
    """extract_features of `data` as bytes, from a file and from a pipe: the
    features, or the StreamPcqError raised; every form must agree."""
    stream_file.write_bytes(data)
    results = []
    with piped(data) if PIPES else contextlib.nullcontext() as pipe:
        for source in (data, stream_file, pipe)[: 3 if PIPES else 2]:
            try:
                results.append(bs.extract_features(source, *args))
            except StreamPcqError as exc:
                results.append(exc)
    from_bytes, *others = results
    if isinstance(from_bytes, StreamPcqError):
        for other in others:
            assert type(other) is type(from_bytes) and str(other) == str(from_bytes)
        raise from_bytes
    assert all(other == from_bytes for other in others)
    return from_bytes


@settings(max_examples=1000, deadline=None)
@given(fuzzed_streams(), SIDECARS)
def test_extraction_fuzz_fails_only_typed(stream_file, data, sidecar):
    try:
        got = extract_both_ways(data, stream_file, SCHEMA, sidecar)
    except StreamPcqError:
        return
    got.validate()
    assert all(type(v) is int for v in (got.qp, got.texture_bits, got.point_count))
    assert math.isfinite(got.pqs) and math.isfinite(got.tbpp)


# ---------------------------------------------------------------------------
# Reading from a file: TLV headers and header prefixes only


def rchar() -> int:
    """Bytes this process has read through the OS so far."""
    with open("/proc/self/io") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("rchar:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
def test_extraction_from_a_path_skips_payload_bodies(tmp_path):
    code = SCHEMA.unit_codes
    mib = 1 << 20
    data = bs.write_tlv_units([
        bs.TlvUnit(code["sequence_params"], header("sequence_params", geom_scale_num=4)),
        bs.TlvUnit(code["attribute_params"], header("attribute_params", attr_initial_qp=34)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_point_count=10**6)
                   + bytes(3 * mib)),
        bs.TlvUnit(code["attribute_data"], bytes(4 * mib)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_id=1,
                                                 slice_point_count=10**6) + bytes(2 * mib)),
        bs.TlvUnit(code["attribute_data"], bytes(5 * mib)),
    ], SCHEMA)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    before = rchar()
    probe = rchar() - before  # the probe's own read of /proc/self/io
    before = rchar()
    got = bs.extract_features(path, SCHEMA)
    read = rchar() - before - probe
    # six 5-byte TLV headers and the sequence (3 B), attribute (2 B) and two
    # geometry-data (17 B each) header prefixes; a few bytes of slack for the
    # probe, whose text grows with the count's digits
    assert 69 <= read <= 69 + 8, f"read {read} of {len(data)} bytes"
    assert got == feats(0.5, 34, 8 * 9 * mib, 2 * 10**6)
    assert got == bs.extract_features(data, SCHEMA)


def test_longest_ue_decodes_the_same_from_a_path(stream_file):
    # 32 leading zeros: two 65-bit codewords fill the geometry_data prefix
    # exactly, and the body goes on past it
    longest = 2**33 - 2
    code = SCHEMA.unit_codes
    units = [
        bs.TlvUnit(code["sequence_params"], header("sequence_params", geom_scale_num=longest)),
        bs.TlvUnit(code["attribute_params"], header("attribute_params", attr_initial_qp=34)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_id=longest,
                                                 slice_point_count=longest) + b"\xff" * 64),
        bs.TlvUnit(code["attribute_data"], bytes(100)),
    ]
    assert len(header("geometry_data", slice_id=longest, slice_point_count=longest)) == 17
    trace = []
    got = extract_both_ways(bs.write_tlv_units(units, SCHEMA), stream_file, SCHEMA, None, trace)
    assert got == feats(longest / 8, 34, 800, longest)
    assert ("geometry_data", 130, 8 * (17 + 64)) in trace
    # one more leading zero is rejected the same way through both forms
    units[2] = bs.TlvUnit(code["geometry_data"], bytes(4) + b"\x40" + b"\xff" * 64)
    with pytest.raises(UnrepresentableField):
        extract_both_ways(bs.write_tlv_units(units, SCHEMA), stream_file, SCHEMA)


@pytest.mark.skipif(not PIPES, reason="needs /dev/fd")
def test_extraction_reads_a_stream_from_a_pipe():
    data = bs.synthesize_bitstream(feats(0.5, 28, 8 * 300, 50), SCHEMA)
    with piped(data) as path:
        assert bs.extract_features(path, SCHEMA) == feats(0.5, 28, 8 * 300, 50)


@pytest.mark.skipif(not PIPES, reason="needs /dev/fd")
def test_a_large_piped_stream_is_read_in_bounded_memory():
    code = SCHEMA.unit_codes
    mib = 1 << 20
    data = bs.write_tlv_units([
        bs.TlvUnit(code["sequence_params"], header("sequence_params", geom_scale_num=2)),
        bs.TlvUnit(code["attribute_params"], header("attribute_params", attr_initial_qp=40)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_point_count=7000)
                   + bytes(mib)),
        bs.TlvUnit(code["attribute_data"], bytes(2 * mib)),
        bs.TlvUnit(code["geometry_data"], header("geometry_data", slice_id=1,
                                                 slice_point_count=5000) + bytes(mib)),
        bs.TlvUnit(code["attribute_data"], bytes(2 * mib + 3)),
    ], SCHEMA)
    uneven = (1, 4093, 65537, 300001, 7)  # write sizes, across the 64 KiB pipe buffer
    with piped(data, uneven) as path:
        tracemalloc.start()
        try:
            got = bs.extract_features(path, SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got == bs.extract_features(data, SCHEMA) == feats(0.25, 40, 8 * (4 * mib + 3), 12000)
    assert peak < mib, f"peak {peak} bytes to extract a {len(data)}-byte stream"
    # cut inside the last body: the same error as the bytes form, counting what the pipe gave
    cut = data[:-12345]
    with pytest.raises(TruncatedUnit) as from_bytes:
        bs.extract_features(cut, SCHEMA)
    with piped(cut, uneven) as path, pytest.raises(TruncatedUnit) as from_pipe:
        bs.extract_features(path, SCHEMA)
    assert str(from_pipe.value) == str(from_bytes.value) == (
        f"unit type 5 declares {2 * mib + 3} bytes, only {2 * mib + 3 - 12345} remain")


def test_units_no_target_reads_are_not_kept(tmp_path):
    # 1 MB of empty 5-byte units of the two classes that no target reads
    code = SCHEMA.unit_codes
    f = feats(0.5, 28, 8 * 300, 50)
    empty = [bs.TlvUnit(code[c], b"") for c in ("geometry_params", "attribute_data")]
    synth = bs.synthesize_bitstream(f, SCHEMA)
    data = synth + bs.write_tlv_units(empty * 100_000, SCHEMA)
    path = tmp_path / "many-units.bin"
    path.write_bytes(data)
    for source in (data, path):
        tracemalloc.start()
        try:
            got = bs.extract_features(source, SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == f
        assert peak < 64 * 1024, f"peak {peak} bytes to extract {len(data) // 5} units"
    assert len(bs.read_tlv_units(data, SCHEMA)) == len(bs.read_tlv_units(synth, SCHEMA)) + 200_000


def test_units_of_types_the_schema_lacks_leave_no_sums():
    # a three-byte type field: 1 MB of empty units, each of its own type
    wide = bs.SyntaxSchema.from_dict({**SCHEMA.to_dict(),
                                      "framing": {"type_bytes": 3, "length_bytes": 1}})
    f = feats(0.5, 28, 8 * 300, 50)
    data = bs.synthesize_bitstream(f, wide) + bs.write_tlv_units(
        [bs.TlvUnit(100 + i, b"") for i in range(250_000)], wide)
    tracemalloc.start()
    try:
        got = bs.extract_features(data, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == f
    assert peak < 64 * 1024, f"peak {peak} bytes to extract 250000 units of distinct types"


def test_unreadable_paths_fail_as_open_does(tmp_path):
    missing, empty = tmp_path / "missing.bin", tmp_path / "empty.bin"
    empty.write_bytes(b"")
    for path, error, says in [
        (tmp_path, IsADirectoryError, f"[Errno 21] Is a directory: '{tmp_path}'"),
        (missing, FileNotFoundError, f"[Errno 2] No such file or directory: '{missing}'"),
        (empty, EmptyInput, "empty bitstream"),
    ]:
        with pytest.raises(error) as ei:
            bs.extract_features(path, SCHEMA)
        assert str(ei.value) == says


# ---------------------------------------------------------------------------
# The extraction plan: built once per schema and kept with it alone


def test_one_schema_builds_its_plan_once(monkeypatch):
    builds = []

    def counted(schema):
        builds.append(schema)
        return plan(schema)

    plan = bs._extraction_plan
    monkeypatch.setattr(bs, "_extraction_plan", counted)
    schema = bs.SyntaxSchema.from_dict(SCHEMA.to_dict())
    for i in range(28):
        f = feats(0.5, i, 8 * (i + 1), 100 + i)
        assert bs.extract_features(bs.synthesize_bitstream(f, schema), schema) == f
    assert builds == [schema] and builds[0] is schema


def test_schema_less_calls_build_the_default_plan_once(monkeypatch):
    builds = []

    def counted(schema):
        builds.append(schema)
        return plan(schema)

    plan = bs._extraction_plan
    monkeypatch.setattr(bs, "_extraction_plan", counted)
    f = feats(0.5, 28, 800, 100)
    data = bs.synthesize_bitstream(f)
    for _ in range(100):
        assert bs.extract_features(data) == f
    assert len(builds) <= 1  # none when an earlier call already built it
    assert bs.default_schema() is not bs.default_schema()
    assert bs.default_schema() == SCHEMA


def test_a_schema_is_not_kept_alive_by_its_plan():
    schema = bs.SyntaxSchema.from_dict(SCHEMA.to_dict())
    f = feats(0.5, 28, 800, 100)
    assert bs.extract_features(bs.synthesize_bitstream(f, schema), schema) == f
    ref = weakref.ref(schema)
    del schema
    gc.collect()
    assert ref() is None


def test_each_schema_has_its_own_plan():
    d = SCHEMA.to_dict()
    d["targets"]["qp"]["where"] = {"attr_label": 1}
    reflectance = bs.SyntaxSchema.from_dict(d)
    data = colour_and_reflectance_stream([(1, 10), (0, 34)])
    for _ in range(2):
        assert bs.extract_features(data, SCHEMA).qp == 34
        assert bs.extract_features(data, reflectance).qp == 10
    assert reflectance._plan is not SCHEMA._plan


def test_read_tlv_units_keeps_every_body(stream_file):
    data = bs.synthesize_bitstream(feats(0.5, 28, 8 * 300, 50), SCHEMA)
    units = bs.read_tlv_units(data, SCHEMA)
    assert [u.unit_type for u in units] == [1, 2, 3, 4, 5, 5]
    assert [len(u.payload) for u in units][-2:] == [150, 150]
    assert bs.write_tlv_units(units, SCHEMA) == data
    stream_file.write_bytes(data)
    assert bs.read_tlv_units(stream_file, SCHEMA) == units
    if PIPES:
        with piped(data, (7, 100)) as path:
            assert bs.read_tlv_units(path, SCHEMA) == units


# ---------------------------------------------------------------------------
# QP bound and synthesizer schema checks


def test_out_of_range_qp_is_an_invalid_feature():
    with pytest.raises(InvalidFeature, match="qp must be from 0 to 6147"):
        feats(0.5, QP_MAX + 1, 800, 100).validate()
    with pytest.raises(InvalidFeature):
        feats(0.5, -1, 800, 100).validate()
    feats(0.5, QP_MAX, 800, 100).validate()
    with pytest.raises(InvalidFeature, match="got 9000"):
        bs.extract_features(header_only_stream(), SCHEMA, {**GOOD_SIDECAR, "qp": 9000})


def without(table, key):
    return {k: v for k, v in table.items() if k != key}


@pytest.mark.parametrize("schema, says", [
    ({"unit_codes": {}}, "no target 'pqs', unit code 'sequence_params', unit code 'geom"),
    ({**SCHEMA.to_dict(), "targets": {}}, "no target 'pqs'$"),
    ({**SCHEMA.to_dict(), "unit_codes": without(SCHEMA.unit_codes, "geometry_data")},
     "no unit code 'geometry_data'$"),
])
def test_synthesize_names_what_the_schema_lacks(schema, says):
    with pytest.raises(InvalidSchema, match=says):
        bs.synthesize_bitstream(feats(0.5, 28, 800, 100), bs.SyntaxSchema.from_dict(schema))

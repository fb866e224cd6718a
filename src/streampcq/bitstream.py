"""Partial G-PCC bitstream parser.

TLV demultiplexing plus bit-level header decoding driven by a declarative
syntax schema.  Only header prefixes are decoded; entropy-coded payload
bodies are never touched, which is what makes feature extraction cheap
enough to run at any network node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BitstreamExhausted,
    EmptyInput,
    InvalidFeature,
    InvalidSchema,
    InvalidSidecar,
    MissingField,
    NonPositivePqs,
    TruncatedUnit,
    UnrepresentableField,
    ZeroPointCount,
)

__all__ = [
    "TlvUnit",
    "FieldSpec",
    "TargetSpec",
    "SyntaxSchema",
    "BitstreamFeatures",
    "BitReader",
    "BitWriter",
    "default_schema",
    "read_tlv_units",
    "write_tlv_units",
    "parse_header",
    "extract_features",
    "load_sidecar",
    "synthesize_bitstream",
    "compute_tbpp",
]


# ---------------------------------------------------------------------------
# Schema


def _require(ok, message):
    if not ok:
        raise InvalidSchema(message)


def _positive_int(v) -> bool:
    return isinstance(v, int) and v > 0


@dataclass(frozen=True)
class TlvUnit:
    unit_type: int
    payload: bytes


@dataclass(frozen=True)
class FieldSpec:
    """One header field: fixed-width unsigned u(n), or Exp-Golomb ue/se."""

    name: str
    kind: str          # 'u' | 'ue' | 'se'
    width: int = 0     # bit width, only for kind == 'u'

    def __post_init__(self):
        _require(self.kind in ("u", "ue", "se"), f"unsupported descriptor kind {self.kind!r}")
        _require(self.kind != "u" or _positive_int(self.width),
                 f"u(n) descriptor {self.name!r} needs a positive integer width")


@dataclass(frozen=True)
class TargetSpec:
    """Where a feature lives: which unit class, which field, optional divisor,
    and the header values (`where`, field -> value) a unit must carry."""

    unit_class: str
    field: str
    divisor: int = 1
    where: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(isinstance(self.unit_class, str) and isinstance(self.field, str)
                 and isinstance(self.where, dict) and _positive_int(self.divisor),
                 f"target {self.field!r} needs a unit class and field name, a positive "
                 f"integer divisor and a `where` table")


@dataclass(frozen=True)
class SyntaxSchema:
    type_bytes: int = 1
    length_bytes: int = 4
    length_endian: str = "big"   # 'big' | 'little'
    unit_codes: dict = field(default_factory=dict)    # class name -> code
    field_paths: dict = field(default_factory=dict)   # class name -> [FieldSpec]
    targets: dict = field(default_factory=dict)       # feature -> TargetSpec

    def __post_init__(self):
        _require(_positive_int(self.type_bytes) and _positive_int(self.length_bytes)
                 and self.length_endian in ("big", "little"),
                 "framing needs positive integer type_bytes and length_bytes and a "
                 "length_endian of 'big' or 'little'")
        _require(all(isinstance(c, int) for c in self.unit_codes.values()),
                 "unit codes must be integers")

    def code_for(self, unit_class: str) -> int:
        return self.unit_codes[unit_class]

    # -- serialization --

    def to_dict(self) -> dict:
        return {
            "framing": {
                "type_bytes": self.type_bytes,
                "length_bytes": self.length_bytes,
                "length_endian": self.length_endian,
            },
            "unit_codes": dict(self.unit_codes),
            "field_paths": {
                cls: [
                    {"name": f.name, "kind": f.kind, **({"width": f.width} if f.kind == "u" else {})}
                    for f in path
                ]
                for cls, path in self.field_paths.items()
            },
            "targets": {
                feat: {"unit_class": t.unit_class, "field": t.field, "divisor": t.divisor,
                       "where": dict(t.where)}
                for feat, t in self.targets.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SyntaxSchema":
        _require(isinstance(d, dict) and all(isinstance(d.get(k, {}), dict) for k in
                                             ("framing", "unit_codes", "field_paths", "targets")),
                 "a schema and its framing, unit_codes, field_paths and targets must be tables")
        framing = d.get("framing", {})
        return cls(
            type_bytes=framing.get("type_bytes", 1),
            length_bytes=framing.get("length_bytes", 4),
            length_endian=framing.get("length_endian", "big"),
            unit_codes=dict(d.get("unit_codes", {})),
            field_paths={
                name: [FieldSpec(f["name"], f["kind"], f.get("width", 0)) for f in path]
                for name, path in d.get("field_paths", {}).items()
            },
            targets={
                feat: TargetSpec(t["unit_class"], t["field"], t.get("divisor", 1),
                                 dict(t.get("where", {})))
                for feat, t in d.get("targets", {}).items()
            },
        )

    @classmethod
    def load(cls, path) -> "SyntaxSchema":
        """Read a JSON or TOML schema; InvalidSchema if it does not parse or
        is not shaped like one."""
        with open(path, "rb") as fh:
            text = fh.read()
        try:
            if str(path).endswith(".toml"):
                import tomllib

                return cls.from_dict(tomllib.loads(text.decode()))
            return cls.from_dict(json.loads(text))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise InvalidSchema(f"schema {path}: {reason}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def default_schema() -> SyntaxSchema:
    """Embedded default targeting a TMC13 v20-style layout.

    The geometry scale is carried as an integer numerator over a divisor of
    8 so the usual scales 1, 0.5, 0.25 and 0.125 are exactly representable.
    """
    return SyntaxSchema(
        type_bytes=1,
        length_bytes=4,
        length_endian="big",
        unit_codes={
            "sequence_params": 1,
            "geometry_params": 2,
            "attribute_params": 3,
            "geometry_data": 4,
            "attribute_data": 5,
        },
        field_paths={
            "sequence_params": [
                FieldSpec("profile_idc", "u", 8),
                FieldSpec("level_idc", "u", 8),
                FieldSpec("geom_scale_num", "ue"),
            ],
            "attribute_params": [
                FieldSpec("attr_label", "u", 8),
                FieldSpec("attr_initial_qp", "ue"),
            ],
            "geometry_data": [
                FieldSpec("slice_id", "ue"),
                FieldSpec("slice_point_count", "ue"),
            ],
        },
        targets={
            "pqs": TargetSpec("sequence_params", "geom_scale_num", divisor=8),
            "qp": TargetSpec("attribute_params", "attr_initial_qp", where={"attr_label": 0}),
            "point_count": TargetSpec("geometry_data", "slice_point_count"),
        },
    )


# ---------------------------------------------------------------------------
# Bit-level reader / writer (MSB first)


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    @property
    def bits_consumed(self) -> int:
        return self.pos

    @property
    def bits_left(self) -> int:
        return 8 * len(self.data) - self.pos

    def read_bits(self, n: int, field=None) -> int:
        if n > self.bits_left:
            raise BitstreamExhausted(field)
        end = self.pos + n
        covering = int.from_bytes(self.data[self.pos >> 3 : (end + 7) >> 3], "big")
        self.pos = end
        return (covering >> (-end % 8)) & ((1 << n) - 1)

    def read_ue(self, field=None) -> int:
        zeros = 0
        while not self.read_bits(1, field):
            zeros += 1
            if zeros > 32:
                raise UnrepresentableField(f"ue(v) {field!r}: more than 32 leading zero bits")
        return (1 << zeros) - 1 + self.read_bits(zeros, field)

    def read_se(self, field=None) -> int:
        k = self.read_ue(field)
        # codeNum k -> (-1)^(k+1) * ceil(k/2)
        mag = (k + 1) // 2
        return mag if k % 2 == 1 else -mag


class BitWriter:
    def __init__(self):
        self._value = 0   # every bit written so far, MSB first
        self._nbits = 0

    def write_bits(self, value: int, n: int):
        if value < 0 or value >= (1 << n):
            raise UnrepresentableField(f"{value} does not fit in u({n})")
        self._value = (self._value << n) | value
        self._nbits += n

    def write_ue(self, value: int):
        if value < 0:
            raise UnrepresentableField(f"ue(v) cannot encode {value}")
        k = value + 1
        nbits = k.bit_length()
        self.write_bits(0, nbits - 1)
        self.write_bits(k, nbits)

    def write_se(self, value: int):
        k = 2 * value - 1 if value > 0 else -2 * value
        self.write_ue(k)

    def getvalue(self) -> bytes:
        """The bits written so far, zero-padded to a whole byte."""
        pad = -self._nbits % 8
        return (self._value << pad).to_bytes((self._nbits + pad) // 8, "big")


# ---------------------------------------------------------------------------
# TLV framing


def read_tlv_units(data: bytes, schema: SyntaxSchema) -> list:
    if not data:
        raise EmptyInput("empty bitstream")
    units = []
    off = 0
    hdr = schema.type_bytes + schema.length_bytes
    while off < len(data):
        if off + hdr > len(data):
            raise TruncatedUnit(f"incomplete TLV header at byte {off}")
        utype = int.from_bytes(data[off : off + schema.type_bytes], "big")
        length = int.from_bytes(
            data[off + schema.type_bytes : off + hdr], schema.length_endian
        )
        off += hdr
        if off + length > len(data):
            raise TruncatedUnit(
                f"unit type {utype} declares {length} bytes, only {len(data) - off} remain"
            )
        units.append(TlvUnit(utype, data[off : off + length]))
        off += length
    return units


def write_tlv_units(units, schema: SyntaxSchema) -> bytes:
    out = bytearray()
    for u in units:
        if u.unit_type < 0 or u.unit_type >= (1 << (8 * schema.type_bytes)):
            raise UnrepresentableField(f"unit type {u.unit_type} out of range")
        if len(u.payload) >= (1 << (8 * schema.length_bytes)):
            raise UnrepresentableField("payload too long for length field")
        out += u.unit_type.to_bytes(schema.type_bytes, "big")
        out += len(u.payload).to_bytes(schema.length_bytes, schema.length_endian)
        out += u.payload
    return bytes(out)


# ---------------------------------------------------------------------------
# Header decoding


def parse_header(payload: bytes, path, reader: BitReader | None = None) -> dict:
    """Decode the fields of `path` from the start of `payload`.

    Headers are prefixes: any unread payload tail is deliberately ignored.
    Pass a pre-built reader to observe bits consumed (instrumentation).
    """
    if not path:
        raise ValueError("empty field path")
    r = reader if reader is not None else BitReader(payload)
    out = {}
    for f in path:
        if f.kind == "u":
            out[f.name] = r.read_bits(f.width, f.name)
        elif f.kind == "ue":
            out[f.name] = r.read_ue(f.name)
        else:
            out[f.name] = r.read_se(f.name)
    return out


# ---------------------------------------------------------------------------
# Features


@dataclass(frozen=True)
class BitstreamFeatures:
    pqs: float
    qp: int
    texture_bits: int
    point_count: int
    tbpp: float
    point_count_source: str = "slice-header"  # slice-header | sidecar | decoded-cloud

    def validate(self):
        if self.pqs <= 0:
            raise NonPositivePqs(f"pqs must be positive, got {self.pqs}")
        if not math.isfinite(self.pqs):
            raise InvalidFeature(f"pqs must be finite, got {self.pqs}")
        if self.texture_bits < 0:
            raise InvalidFeature(f"texture_bits must not be negative, got {self.texture_bits}")
        if self.point_count <= 0:
            raise ZeroPointCount("point_count must be positive")
        if self.tbpp != self.texture_bits / self.point_count:
            raise InvalidFeature("tbpp inconsistent with texture_bits/point_count")

    @classmethod
    def from_counts(cls, pqs, qp, texture_bits, point_count, source="slice-header"):
        return cls(
            pqs=pqs,
            qp=qp,
            texture_bits=texture_bits,
            point_count=point_count,
            tbpp=compute_tbpp(texture_bits, point_count),
            point_count_source=source,
        )


def compute_tbpp(texture_bits: int, point_count: int) -> float:
    if point_count == 0:
        raise ZeroPointCount("cannot compute bits per point for an empty cloud")
    return texture_bits / point_count


def load_sidecar(path) -> dict:
    """The JSON object of a `<stream>.meta.json` sidecar file; InvalidSidecar
    if the file does not hold one JSON object."""
    try:
        with open(path, "rb") as fh:
            sidecar = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InvalidSidecar(f"sidecar {path}: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise InvalidSidecar(f"sidecar {path}: not a JSON object")
    return sidecar


def _sidecar_value(name, value, whole):
    """`value` as a finite float or, when `whole`, as a non-negative int;
    InvalidSidecar naming `name` for anything else."""
    try:
        number = float(value)
        if whole:
            count = int(value)
            if count >= 0 and float(count) == number:
                return count
        elif math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "a non-negative whole count" if whole else "a finite number"
    raise InvalidSidecar(f"sidecar {name!r} must be {kind}, got {value!r}", name)


def extract_features(
    data: bytes,
    schema: SyntaxSchema | None = None,
    sidecar: dict | None = None,
    decoded_point_count: int | None = None,
    trace: list | None = None,
) -> BitstreamFeatures:
    """Pull (PQS, QP, texture bits, point count, TBPP) out of a bitstream.

    Only declared header prefixes are bit-decoded; attribute and geometry
    payload bodies contribute length information alone.  `sidecar` supplies
    fallbacks for any target the schema cannot locate.  `trace`, when given,
    collects (unit_class, bits_consumed, payload_bits) per parsed unit.
    """
    schema = schema or default_schema()
    sidecar = sidecar or {}
    units = read_tlv_units(data, schema)

    class_of = {c: name for name, c in schema.unit_codes.items()}
    units_of: dict = {}
    for u in units:
        cls = class_of.get(u.unit_type)
        if cls is not None:
            units_of.setdefault(cls, []).append(u)

    def header_values(feature: str):
        """The target field of `feature` from each matching unit of its class, in stream order."""
        t = schema.targets.get(feature)
        path = schema.field_paths.get(t.unit_class) if t is not None else None
        if not path or t.field not in {f.name for f in path}:
            return
        for unit in units_of.get(t.unit_class, ()):
            reader = BitReader(unit.payload)
            fields = parse_header(unit.payload, path, reader=reader)
            if trace is not None:
                trace.append((t.unit_class, reader.bits_consumed, 8 * len(unit.payload)))
            if all(fields.get(k) == v for k, v in t.where.items()):
                yield fields[t.field]

    def resolve(name, in_stream, whole, decoded=None):
        """(value, source): the stream's value unless None, else the sidecar's
        (a finite number, or a whole count when `whole`), else `decoded`,
        else MissingField(name)."""
        if in_stream is not None:
            return in_stream, "slice-header"
        if name in sidecar:
            return _sidecar_value(name, sidecar[name], whole), "sidecar"
        if decoded is not None:
            return int(decoded), "decoded-cloud"
        raise MissingField(name)

    raw = next(header_values("pqs"), None)
    pqs, _ = resolve("pqs", None if raw is None else float(
        Fraction(raw, schema.targets["pqs"].divisor)), whole=False)
    qp, _ = resolve("qp", next(header_values("qp"), None), whole=True)
    attr_bits = [8 * len(u.payload) for u in units_of.get("attribute_data", ())]
    texture_bits, _ = resolve("texture_bits", sum(attr_bits) if attr_bits else None, whole=True)
    slices = list(header_values("point_count"))  # one count per slice
    pc, source = resolve("point_count", sum(slices) if slices else None, whole=True,
                         decoded=decoded_point_count)

    features = BitstreamFeatures.from_counts(pqs, qp, texture_bits, pc, source)
    features.validate()
    return features


# ---------------------------------------------------------------------------
# Synthetic writer (test fixtures)

_PAYLOAD_FILL = b"\xab"  # filler byte of every payload body


def synthesize_bitstream(
    features: BitstreamFeatures,
    schema: SyntaxSchema | None = None,
) -> bytes:
    """Write a minimal bitstream whose extracted features equal `features`.

    Attribute payload bodies are filler bytes; round-trips through
    extract_features exactly for any valid feature tuple whose texture_bits
    is a whole number of bytes.
    """
    schema = schema or default_schema()
    features.validate()
    if features.texture_bits % 8:
        raise UnrepresentableField("texture_bits must be a multiple of 8")

    pqs_frac = Fraction(features.pqs).limit_denominator(1 << 20)
    divisor = schema.targets["pqs"].divisor
    num = pqs_frac * divisor
    if num.denominator != 1 or num.numerator <= 0:
        raise UnrepresentableField(
            f"pqs {features.pqs} not representable over divisor {divisor}"
        )

    target_values = {
        "pqs": int(num),
        "qp": int(features.qp),
        "point_count": int(features.point_count),
    }
    field_value: dict = {}
    for feat, t in schema.targets.items():
        if feat in target_values:
            field_value[(t.unit_class, t.field)] = target_values[feat]
            field_value.update({(t.unit_class, k): v for k, v in t.where.items()})

    def build_header(unit_class: str) -> bytes:
        w = BitWriter()
        for f in schema.field_paths.get(unit_class, []):
            v = field_value.get((unit_class, f.name), 0)
            if f.kind == "u":
                w.write_bits(v, f.width)
            elif f.kind == "ue":
                w.write_ue(v)
            else:
                w.write_se(v)
        return w.getvalue()

    units = [
        TlvUnit(schema.code_for("sequence_params"), build_header("sequence_params")),
        TlvUnit(schema.code_for("geometry_params"), build_header("geometry_params") or b"\x00"),
        TlvUnit(schema.code_for("attribute_params"), build_header("attribute_params")),
        TlvUnit(
            schema.code_for("geometry_data"),
            build_header("geometry_data") + _PAYLOAD_FILL * 4,
        ),
    ]

    nbytes = features.texture_bits // 8
    attr_code = schema.code_for("attribute_data")
    if nbytes >= 2:  # split across two units so extraction sums lengths
        units.append(TlvUnit(attr_code, _PAYLOAD_FILL * (nbytes // 2)))
        units.append(TlvUnit(attr_code, _PAYLOAD_FILL * (nbytes - nbytes // 2)))
    else:
        units.append(TlvUnit(attr_code, _PAYLOAD_FILL * nbytes))

    return write_tlv_units(units, schema)

"""Partial G-PCC bitstream parser.

TLV demultiplexing plus bit-level header decoding driven by a declarative
syntax schema.  Extraction reads a stream forward once: each TLV header,
and from each unit a target needs only its header prefix.  The rest of a
body is skipped by offset, or read and dropped in 64 KiB chunks from a
pipe, so memory does not grow with payload size, even at a network node;
nor with units that no target reads, which leave only a running body length
per unit code of the schema.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os

from ._record import Record, set_field
from .errors import (
    BitstreamExhausted,
    EmptyInput,
    InvalidFeature,
    InvalidSchema,
    InvalidSidecar,
    MissingField,
    TruncatedUnit,
    UnrepresentableField,
    ZeroPointCount,
)
from .model import check_pqs_qp
from .table import read_document, write_document

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
    return isinstance(v, int) and not isinstance(v, bool) and v > 0  # JSON true is no int


# An Exp-Golomb ue(v)/se(v) codeword with more leading zero bits than this is
# rejected, so one such field spans at most 2 * UE_MAX_LEADING_ZEROS + 1 bits.
UE_MAX_LEADING_ZEROS = 32


class TlvUnit(Record):
    __slots__ = ("unit_type", "payload")

    def __init__(self, unit_type: int, payload: bytes):
        set_field(self, "unit_type", unit_type)
        set_field(self, "payload", payload)


class FieldSpec(Record):
    """One header field: fixed-width unsigned u(n), or Exp-Golomb ue/se."""

    __slots__ = ("name", "kind", "width")

    def __init__(self, name: str, kind: str, width: int = 0):
        set_field(self, "name", name)
        set_field(self, "kind", kind)     # 'u' | 'ue' | 'se'
        set_field(self, "width", width)   # bit width, only for kind == 'u'
        _require(kind in ("u", "ue", "se"), f"unsupported descriptor kind {kind!r}")
        _require(kind != "u" or _positive_int(width),
                 f"u(n) descriptor {name!r} needs a positive integer width")

    @property
    def max_bits(self) -> int:
        """The most bits decoding this field can consume, valid or not."""
        return self.width if self.kind == "u" else 2 * UE_MAX_LEADING_ZEROS + 1


class TargetSpec(Record):
    """Where a feature lives: which unit class, which field, optional divisor,
    and the header values (`where`, field -> value) a unit must carry."""

    __slots__ = ("unit_class", "field", "divisor", "where")

    def __init__(self, unit_class: str, field: str, divisor: int = 1, where: dict | None = None):
        where = {} if where is None else where
        set_field(self, "unit_class", unit_class)
        set_field(self, "field", field)
        set_field(self, "divisor", divisor)
        set_field(self, "where", where)
        _require(isinstance(unit_class, str) and isinstance(field, str)
                 and isinstance(where, dict) and _positive_int(divisor),
                 f"target {field!r} needs a unit class and field name, a positive "
                 f"integer divisor and a `where` table")


class SyntaxSchema(Record):
    # the `__dict__` slot holds the cached `_plan`
    __slots__ = ("type_bytes", "length_bytes", "length_endian", "unit_codes", "field_paths",
                 "targets", "__dict__")

    def __init__(self, type_bytes: int = 1, length_bytes: int = 4,
                 length_endian: str = "big",       # 'big' | 'little'
                 unit_codes: dict | None = None,   # class name -> code
                 field_paths: dict | None = None,  # class name -> [FieldSpec]
                 targets: dict | None = None):     # feature -> TargetSpec
        unit_codes = {} if unit_codes is None else unit_codes
        field_paths = {} if field_paths is None else field_paths
        targets = {} if targets is None else targets
        set_field(self, "type_bytes", type_bytes)
        set_field(self, "length_bytes", length_bytes)
        set_field(self, "length_endian", length_endian)
        set_field(self, "unit_codes", unit_codes)
        set_field(self, "field_paths", field_paths)
        set_field(self, "targets", targets)
        _require(_positive_int(type_bytes) and _positive_int(length_bytes)
                 and length_endian in ("big", "little"),
                 "framing needs positive integer type_bytes and length_bytes and a "
                 "length_endian of 'big' or 'little'")
        _require(all(isinstance(c, int) and not isinstance(c, bool)
                     for c in unit_codes.values()), "unit codes must be integers")
        # extraction and synthesis divide the pqs field alone
        _require(all(t.divisor == 1 for feat, t in targets.items() if feat != "pqs"),
                 "only the pqs target takes a divisor")

    @functools.cached_property
    def _plan(self) -> tuple:
        """`_extraction_plan(self)`, built at the first extraction and kept
        with the schema; a schema is not to be changed after that."""
        return _extraction_plan(self)

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
        return read_document(path, cls.from_dict, InvalidSchema, "schema")

    def save(self, path):
        write_document(path, self.to_dict())


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


_DEFAULT_SCHEMA = default_schema()  # used when no schema is given, so its plan is built once


# ---------------------------------------------------------------------------
# Bit-level reader / writer (MSB first)


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

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
        # the leading zeros and the 1 bit after them, from one read of as many
        # bits as the longest accepted prefix
        n = min(UE_MAX_LEADING_ZEROS + 1, self.bits_left)
        window = self.read_bits(n, field)
        if not window:
            if n > UE_MAX_LEADING_ZEROS:
                raise UnrepresentableField(
                    f"ue(v) {field!r}: more than {UE_MAX_LEADING_ZEROS} leading zero bits")
            raise BitstreamExhausted(field)
        zeros = n - window.bit_length()
        self.pos -= window.bit_length() - 1  # back to just after the 1 bit
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


_CHUNK = 1 << 16  # the most bytes one read takes, so a pipe's body is dropped in chunks


def _chunks(fh, n: int):
    """The next n bytes of `fh`, fewer where it ends, in reads of at most _CHUNK."""
    while n > 0 and (chunk := fh.read(min(n, _CHUNK))):  # a pipe may give short reads
        n -= len(chunk)
        yield chunk


def _scan(data, schema: SyntaxSchema, head_bytes: dict | None) -> tuple:
    """(units, body_bytes) of the TLV units of `data` (bytes or a path), in
    one forward pass.  units holds (unit_type, body_length, head) of each unit
    whose type head_bytes names, head being as many bytes of its body as
    head_bytes gives; when head_bytes is None it holds every unit, head
    being its whole body.  body_bytes maps each unit code of the schema to
    the total body length of its units, so a stream cannot grow it.  Bytes
    are sliced and a file read at offsets (os.pread), so a skipped body
    costs no call; a pipe is read forward, a skipped body read and dropped."""
    units, body_bytes, codes = [], {}, set(schema.unit_codes.values())
    bytes_given = isinstance(data, (bytes, bytearray))
    with contextlib.nullcontext() if bytes_given else open(data, "rb", buffering=0) as fh:
        pipe = not bytes_given and not fh.seekable()
        if bytes_given:
            end, read = len(data), lambda n, off: bytes(data[off : off + n])
        elif pipe:
            end, read = math.inf, lambda n, _: b"".join(_chunks(fh, n))
        else:
            end, read = fh.seek(0, os.SEEK_END), functools.partial(os.pread, fh.fileno())
        hdr = schema.type_bytes + schema.length_bytes
        off = 0  # where the next unit starts
        while off < end and (head := read(hdr, off)):
            if len(head) < hdr:
                raise TruncatedUnit(f"incomplete TLV header at byte {off}")
            utype = int.from_bytes(head[: schema.type_bytes], "big")
            length = int.from_bytes(head[schema.type_bytes :], schema.length_endian)
            want = length if head_bytes is None else head_bytes.get(utype, 0)
            body = read(min(want, length, end - off - hdr), off + hdr) if want else b""
            rest = length - len(body)
            if pipe:
                rest -= sum(map(len, _chunks(fh, rest)))
            off += hdr + length
            if head_bytes is None or utype in head_bytes:
                units.append((utype, length, body))
            if utype in codes:
                body_bytes[utype] = body_bytes.get(utype, 0) + length
        if not off:
            raise EmptyInput("empty bitstream")
        # only the last unit can end past the end of the stream
        have = length - (rest if pipe else off - end)
    if have < length:
        raise TruncatedUnit(f"unit type {utype} declares {length} bytes, only {have} remain")
    return units, body_bytes


def read_tlv_units(data, schema: SyntaxSchema) -> list:
    """Every TLV unit of `data`, the stream's bytes or a path, bodies whole."""
    return [TlvUnit(utype, body) for utype, _, body in _scan(data, schema, None)[0]]


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


class BitstreamFeatures(Record):
    __slots__ = ("pqs", "qp", "texture_bits", "point_count", "tbpp", "point_count_source")

    def __init__(self, pqs: float, qp: int, texture_bits: int, point_count: int, tbpp: float,
                 point_count_source: str = "slice-header"):
        set_field(self, "pqs", pqs)
        set_field(self, "qp", qp)
        set_field(self, "texture_bits", texture_bits)
        set_field(self, "point_count", point_count)
        set_field(self, "tbpp", tbpp)
        # slice-header | sidecar
        set_field(self, "point_count_source", point_count_source)

    def validate(self):
        check_pqs_qp(self.pqs, self.qp)
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


def _json_object(doc):
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc


def load_sidecar(path) -> dict:
    """The object of a `<stream>.meta.json` sidecar file, read as TOML if the
    name ends in `.toml`; InvalidSidecar if the file does not hold one object."""
    return read_document(path, _json_object, InvalidSidecar, "sidecar")


def _sidecar_value(name, value, whole):
    """`value` as a finite float or, when `whole`, as a non-negative int;
    InvalidSidecar naming `name` for anything else, a boolean too."""
    try:
        if isinstance(value, bool):  # JSON true is no number, though float(True) is 1.0
            raise TypeError(value)
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
    data,
    schema: SyntaxSchema | None = None,
    sidecar: dict | None = None,
    trace: list | None = None,
) -> BitstreamFeatures:
    """Pull (PQS, QP, texture bits, point count, TBPP) out of a bitstream:
    `data` is the stream's bytes or the path of a file holding it.

    Only TLV headers and declared header prefixes are read; attribute and
    geometry payload bodies contribute length information alone.  `sidecar`
    supplies fallbacks for any target the schema cannot locate.  `trace`,
    when given, collects (unit_class, header bits decoded, payload bits) per
    parsed unit.
    """
    schema = schema or _DEFAULT_SCHEMA
    sidecar = sidecar or {}
    code_of, heads, reads = schema._plan
    units, body_bytes = _scan(data, schema, heads)
    attr_bytes = body_bytes.get(code_of.get("attribute_data"))

    def resolve(name, in_stream, whole):
        """(value, source): the stream's value unless None, else the sidecar's
        (a finite number, or a whole count when `whole`), else MissingField(name)."""
        if in_stream is not None:
            return in_stream, "slice-header"
        if name in sidecar:
            return _sidecar_value(name, sidecar[name], whole), "sidecar"
        raise MissingField(name)

    def header_values(feature: str):
        """The target field of `feature` from each matching unit of its class, in stream order."""
        code, unit_class, path, name, where = reads.get(feature, (None,) * 5)  # code None: no unit
        for head, length in ((h, n) for utype, n, h in units if utype == code):
            reader = BitReader(head)
            fields = parse_header(head, path, reader=reader)
            if trace is not None:
                trace.append((unit_class, reader.pos, 8 * length))
            if all(fields.get(k) == v for k, v in where):
                yield fields[name]

    raw = next(header_values("pqs"), None)
    # int true division is correctly rounded: float(Fraction(raw, divisor)), exactly
    pqs, _ = resolve("pqs", None if raw is None else raw / schema.targets["pqs"].divisor,
                     whole=False)
    qp, _ = resolve("qp", next(header_values("qp"), None), whole=True)
    texture_bits, _ = resolve("texture_bits", None if attr_bytes is None else 8 * attr_bytes,
                              whole=True)
    slices = list(header_values("point_count"))  # one count per slice
    pc, source = resolve("point_count", sum(slices) if slices else None, whole=True)
    features = BitstreamFeatures.from_counts(pqs, qp, texture_bits, pc, source)
    features.validate()
    return features


def _extraction_plan(schema: SyntaxSchema) -> tuple:
    """(code_of, heads, reads): what extraction needs of `schema` alone.
    code_of maps each class name to its unit code, unless a later class has
    the same code; reads maps each of pqs, qp and point_count whose class has
    a field path naming its field to (code, class, path, field, `where`
    items); heads maps each code in reads to the bytes its path can consume."""
    class_of = {c: name for name, c in schema.unit_codes.items()}  # the last class of a code
    code_of = {name: c for c, name in class_of.items()}
    reads = {}
    for feature in ("pqs", "qp", "point_count"):
        t = schema.targets.get(feature)
        path = schema.field_paths.get(t.unit_class) if t is not None else None
        if path and t.field in {f.name for f in path}:
            reads[feature] = (code_of.get(t.unit_class), t.unit_class, tuple(path), t.field,
                              tuple(t.where.items()))
    heads = {r[0]: (sum(f.max_bits for f in r[2]) + 7) // 8 for r in reads.values()}
    return code_of, heads, reads


# ---------------------------------------------------------------------------
# Synthetic writer (test fixtures)

_PAYLOAD_FILL = b"\xab"  # filler byte of every payload body
_SYNTHESIZED_UNITS = ("sequence_params", "geometry_params", "attribute_params",
                      "geometry_data", "attribute_data")


def synthesize_bitstream(
    features: BitstreamFeatures,
    schema: SyntaxSchema | None = None,
) -> bytes:
    """Write a minimal bitstream whose extracted features equal `features`.

    Attribute payload bodies are filler bytes; round-trips through
    extract_features exactly for any valid feature tuple whose texture_bits
    is a whole number of bytes.
    """
    schema = schema or _DEFAULT_SCHEMA
    missing = ["target 'pqs'"] if "pqs" not in schema.targets else []
    missing += [f"unit code {c!r}" for c in _SYNTHESIZED_UNITS if c not in schema.unit_codes]
    if missing:
        raise InvalidSchema(f"cannot synthesize a stream: the schema has no {', '.join(missing)}")
    features.validate()
    if features.texture_bits % 8:
        raise UnrepresentableField("texture_bits must be a multiple of 8")

    from fractions import Fraction  # here, so that importing the package skips it

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
        TlvUnit(schema.unit_codes["sequence_params"], build_header("sequence_params")),
        TlvUnit(schema.unit_codes["geometry_params"], build_header("geometry_params") or b"\x00"),
        TlvUnit(schema.unit_codes["attribute_params"], build_header("attribute_params")),
        TlvUnit(
            schema.unit_codes["geometry_data"],
            build_header("geometry_data") + _PAYLOAD_FILL * 4,
        ),
    ]

    nbytes = features.texture_bits // 8
    attr_code = schema.unit_codes["attribute_data"]
    if nbytes >= 2:  # split across two units so extraction sums lengths
        units.append(TlvUnit(attr_code, _PAYLOAD_FILL * (nbytes // 2)))
        units.append(TlvUnit(attr_code, _PAYLOAD_FILL * (nbytes - nbytes // 2)))
    else:
        units.append(TlvUnit(attr_code, _PAYLOAD_FILL * nbytes))

    return write_tlv_units(units, schema)

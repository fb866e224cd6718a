"""Reference computations, written apart from streampcq.

The benchmark writes every input with these helpers and checks every output
of the program against them, so a fault in the program cannot hide behind
the same fault in the check.
"""

from __future__ import annotations

import math

import numpy as np

# Default syntax layout (TMC13 v20 style): 1-byte unit type, 4-byte
# big-endian payload length, then the payload.
SEQUENCE_PARAMS = 1
GEOMETRY_PARAMS = 2
ATTRIBUTE_PARAMS = 3
GEOMETRY_DATA = 4
ATTRIBUTE_DATA = 5
PQS_DIVISOR = 8          # geom_scale_num = pqs * 8
COLOUR_LABEL = 0

PQS_GRID = (0.125, 0.25, 0.5, 1.0)
QP_GRID = (22, 28, 34, 40, 46)
COEFFICIENTS = ("a1", "a2", "a3", "b1", "b2", "c", "d", "f1", "f2")


# ---------------------------------------------------------------------------
# Bitstream writer


class Bits:
    """MSB-first bit string with u(n) and Exp-Golomb ue(v) writers."""

    def __init__(self):
        self._bits = []

    def u(self, value: int, n: int) -> "Bits":
        if not 0 <= value < (1 << n):
            raise ValueError(f"{value} does not fit in u({n})")
        self._bits.append(format(value, f"0{n}b") if n else "")
        return self

    def ue(self, value: int) -> "Bits":
        if value < 0:
            raise ValueError(f"ue(v) cannot encode {value}")
        code = value + 1
        return self.u(0, code.bit_length() - 1).u(code, code.bit_length())

    def tobytes(self) -> bytes:
        s = "".join(self._bits)
        s += "0" * (-len(s) % 8)
        return int(s, 2).to_bytes(len(s) // 8, "big") if s else b""


def tlv(unit_type: int, payload: bytes) -> bytes:
    return bytes([unit_type]) + len(payload).to_bytes(4, "big") + payload


def sequence_params(pqs: float) -> bytes:
    num = pqs * PQS_DIVISOR
    if num != int(num) or num <= 0:
        raise ValueError(f"pqs {pqs} is not a positive multiple of 1/{PQS_DIVISOR}")
    return tlv(SEQUENCE_PARAMS, Bits().u(1, 8).u(0, 8).ue(int(num)).tobytes())


def geometry_params() -> bytes:
    return tlv(GEOMETRY_PARAMS, b"\x00")


def attribute_params(qp: int, label: int = COLOUR_LABEL) -> bytes:
    return tlv(ATTRIBUTE_PARAMS, Bits().u(label, 8).ue(qp).tobytes())


def geometry_data(slice_id: int, point_count: int, body: bytes) -> bytes:
    return tlv(GEOMETRY_DATA, Bits().ue(slice_id).ue(point_count).tobytes() + body)


def attribute_data(body: bytes) -> bytes:
    return tlv(ATTRIBUTE_DATA, body)


# ---------------------------------------------------------------------------
# Quality model (the paper's closed form), coefficients passed as a dict
# such as ModelParams().to_dict()


def tqs(qp) -> float:
    return 2.0 ** ((qp - 4) / 6.0)


def h(p: dict, qp) -> float:
    return p["a1"] * qp * qp + p["a2"] * qp + p["a3"]


def j(p: dict, qp) -> float:
    return p["b1"] * qp + p["b2"]


def pmos(p: dict, pqs: float, qp: int, tbpp: float, variant: str) -> float:
    alpha = p["c"] * (h(p, qp) * tbpp + j(p, qp)) + p["d"]
    geometry = p["f1"] / pqs + p["f2"]
    if variant == "alpha-times-tqs":
        return alpha * tqs(qp) + geometry
    if variant == "eq11-literal":
        return alpha + geometry
    raise ValueError(f"unknown variant {variant!r}")


def tbpp_for_tc(p: dict, qp: int, tc: float) -> float:
    """Texture bits per point at which the TC chain gives `tc` exactly."""
    return (tc - j(p, qp)) / h(p, qp)


# ---------------------------------------------------------------------------
# Texture complexity


def luma(colors: np.ndarray) -> np.ndarray:
    """BT.601 full-range luma of (N, 3) RGB."""
    c = np.asarray(colors, dtype=float)
    return 0.299 * c[:, 0] + 0.587 * c[:, 1] + 0.114 * c[:, 2]


def texture_complexity(positions: np.ndarray, colors: np.ndarray, edge: int = 4):
    """Mean over blocks with two or more points of the population std of luma.

    Returns (tc, blocks_used).  Blocks come from np.unique, per-block sums
    from np.bincount, and the variance from deviations about the block
    mean, so no sum of squares cancels.
    """
    _, inverse, counts = np.unique(np.floor_divide(positions, edge), axis=0,
                                   return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    y = luma(colors)
    mean = np.bincount(inverse, y) / counts
    var = np.bincount(inverse, (y - mean[inverse]) ** 2) / counts
    used = counts >= 2
    n_used = int(used.sum())
    if n_used == 0:
        raise ValueError("no block holds two or more points")
    return math.fsum(np.sqrt(var[used])) / n_used, n_used


def write_ply(path, positions: np.ndarray, colors: np.ndarray):
    """Binary little-endian PLY with float x/y/z and uchar red/green/blue."""
    rec = np.empty(len(positions), dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                                          ("red", "u1"), ("green", "u1"), ("blue", "u1")])
    for i, a in enumerate(("x", "y", "z")):
        rec[a] = positions[:, i]
    for i, a in enumerate(("red", "green", "blue")):
        rec[a] = colors[:, i]
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {len(rec)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property uchar red\nproperty uchar green\nproperty uchar blue\n"
              "end_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(rec.tobytes())


# ---------------------------------------------------------------------------
# Statistics


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float) - np.mean(x)
    y = np.asarray(y, dtype=float) - np.mean(y)
    return float(x @ y) / math.sqrt(float(x @ x) * float(y @ y))


def ranks(x) -> np.ndarray:
    """Ranks 1..n, tied values sharing the mean of their ranks."""
    x = np.asarray(x, dtype=float)
    r = np.empty(len(x))
    r[np.argsort(x, kind="mergesort")] = np.arange(1, len(x) + 1)
    _, inverse = np.unique(x, return_inverse=True)
    return (np.bincount(inverse, r) / np.bincount(inverse))[inverse]


def spearman(x, y) -> float:
    return pearson(ranks(x), ranks(y))

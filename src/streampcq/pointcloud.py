"""PLY ingestion and texture-complexity measurement.

Texture complexity (TC) is the mean, over occupied voxel blocks of the
original cloud, of the per-block population standard deviation of point
luma.  Blocks holding fewer than two points carry no texture information
and are excluded entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, MalformedHeader, NoEligibleBlocks, UnsupportedPly

__all__ = ["PointCloud", "TcResult", "read_ply", "write_ply", "rgb_to_luma", "compute_tc"]


@dataclass(frozen=True)
class PointCloud:
    positions: np.ndarray  # (N, 3) int32 voxel coordinates
    colors: np.ndarray     # (N, 3) uint8 RGB

    def __post_init__(self):
        if len(self.positions) != len(self.colors):
            raise ValueError("positions and colors must be the same length")
        if len(self.positions) == 0:
            raise ValueError("empty point cloud")

    def __len__(self):
        return len(self.positions)


@dataclass(frozen=True)
class TcResult:
    tc: float
    blocks_used: int
    block_edge: int


def rgb_to_luma(r, g, b):
    """BT.601 full-range luma; scalar or array inputs."""
    return 0.299 * np.asarray(r, dtype=float) + 0.587 * np.asarray(g, dtype=float) \
        + 0.114 * np.asarray(b, dtype=float)


# ---------------------------------------------------------------------------
# PLY reader (ASCII and binary little endian, x/y/z + red/green/blue)

_PLY_TYPES = {
    "char": ("i1", 1), "int8": ("i1", 1),
    "uchar": ("u1", 1), "uint8": ("u1", 1),
    "short": ("i2", 2), "int16": ("i2", 2),
    "ushort": ("u2", 2), "uint16": ("u2", 2),
    "int": ("i4", 4), "int32": ("i4", 4),
    "uint": ("u4", 4), "uint32": ("u4", 4),
    "float": ("f4", 4), "float32": ("f4", 4),
    "double": ("f8", 8), "float64": ("f8", 8),
}


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def read_ply(path) -> PointCloud:
    with open(path, "rb") as fh:
        data = fh.read()

    end = data.find(b"end_header")
    nl = data.find(b"\n", end)
    if not data.startswith(b"ply") or end < 0 or nl < 0:
        raise MalformedHeader(f"{path}: not a PLY file")
    header = data[: nl].decode("ascii", errors="replace")
    body = data[nl + 1 :]

    fmt = None
    vertex_count = None
    props = []          # (name, numpy dtype code, byte size) for element vertex
    in_vertex = False
    for line in header.splitlines():
        tok = line.split() + ["", ""]  # a missing token reads as ""
        if not tok[0]:
            continue
        if tok[0] == "format":
            fmt = tok[1]
        elif tok[0] == "element":
            in_vertex = tok[1] == "vertex"
            if in_vertex:
                if not tok[2].isdigit() or int(tok[2]) == 0:
                    raise MalformedHeader(f"vertex count {tok[2]!r} "
                                          "is not a positive whole number")
                vertex_count = int(tok[2])
        elif tok[0] == "property" and in_vertex:
            if tok[1] == "list":
                raise UnsupportedPly("list properties on vertex element")
            if tok[1] not in _PLY_TYPES:
                raise UnsupportedPly(f"unknown property type {tok[1]}")
            props.append((tok[2], *_PLY_TYPES[tok[1]]))

    if fmt is None or vertex_count is None:
        raise MalformedHeader(f"{path}: missing format or vertex element")
    names = [p[0] for p in props]
    for needed in ("x", "y", "z", "red", "green", "blue"):
        if needed not in names:
            raise UnsupportedPly(f"missing vertex property {needed!r}")
    if fmt == "binary_big_endian":
        raise UnsupportedPly("big-endian binary PLY")
    if fmt not in ("ascii", "binary_little_endian"):
        raise UnsupportedPly(f"unknown format {fmt!r}")

    if fmt == "ascii":
        ncol = len(props)
        try:
            rows = body.decode("ascii").split()
            arr = np.array(rows[: vertex_count * ncol], dtype=float)
        except ValueError as exc:  # not ASCII, or a value that is not a number
            raise MalformedHeader(f"ASCII body: {exc}") from None
        if len(rows) < vertex_count * ncol:
            raise MalformedHeader("fewer vertex values than declared")
        arr = arr.reshape(vertex_count, ncol)
        cols = {name: arr[:, i] for i, (name, _, _) in enumerate(props)}
    else:
        dtype = np.dtype([(name, "<" + code) for name, code, _ in props])
        if len(body) < vertex_count * dtype.itemsize:
            raise MalformedHeader("binary body shorter than declared")
        rec = np.frombuffer(body, dtype=dtype, count=vertex_count)
        cols = {name: rec[name].astype(float) for name, _, _ in props}

    positions = np.stack(
        [_round_half_away(cols[a]) for a in ("x", "y", "z")], axis=1
    ).astype(np.int32)
    colors = np.stack([cols[a] for a in ("red", "green", "blue")], axis=1).astype(np.uint8)
    return PointCloud(positions, colors)


def write_ply(path, pc: PointCloud, binary: bool = False):
    """Writer counterpart used for fixtures and round-trip tests."""
    n = len(pc)
    fmt = "binary_little_endian" if binary else "ascii"
    header = (
        f"ply\nformat {fmt} 1.0\nelement vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            rec = np.empty(n, dtype=np.dtype(
                [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
                 ("red", "u1"), ("green", "u1"), ("blue", "u1")]))
            for i, a in enumerate(("x", "y", "z")):
                rec[a] = pc.positions[:, i]
            for i, a in enumerate(("red", "green", "blue")):
                rec[a] = pc.colors[:, i]
            fh.write(rec.tobytes())
        else:
            np.savetxt(fh, np.hstack([pc.positions, pc.colors]), fmt="%d")


# ---------------------------------------------------------------------------
# Texture complexity


def compute_tc(pc: PointCloud, block_edge: int = 4, luma=None) -> TcResult:
    """Mean per-block population std of luma over blocks with >= 2 points.

    `luma` overrides the per-point scalar (testing hook); default is BT.601
    luma of the stored colors.
    """
    if block_edge < 1:
        raise InvalidInput(f"block_edge must be >= 1, got {block_edge}")
    if luma is None:
        luma = rgb_to_luma(pc.colors[:, 0], pc.colors[:, 1], pc.colors[:, 2])
    else:
        luma = np.asarray(luma, dtype=float)

    blocks = np.floor_divide(pc.positions, block_edge)
    # stable order so the reduction is deterministic run to run
    order = np.lexsort((blocks[:, 2], blocks[:, 1], blocks[:, 0]))
    blocks = blocks[order]
    luma = luma[order]

    change = np.any(blocks[1:] != blocks[:-1], axis=1)
    starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
    counts = np.diff(np.append(starts, len(blocks)))
    # per-block population variance, as np.std computes it for one block
    dev = luma - np.repeat(np.add.reduceat(luma, starts) / counts, counts)
    var = np.add.reduceat(dev * dev, starts) / counts
    stds = np.sqrt(var[counts >= 2])
    if not stds.size:
        raise NoEligibleBlocks("no block contains two or more points")
    return TcResult(tc=float(math.fsum(stds) / len(stds)),
                    blocks_used=len(stds), block_edge=block_edge)

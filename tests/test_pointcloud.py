import math
import warnings

import numpy as np
import pytest

from streampcq.errors import InvalidInput, MalformedHeader, NoEligibleBlocks, UnsupportedPly
from streampcq.pointcloud import (
    PointCloud,
    _block_runs,
    compute_tc,
    read_ply,
    rgb_to_luma,
    write_ply,
)


def cloud(points):
    pos = np.array([p[:3] for p in points], dtype=np.int32)
    col = np.array([p[3:] for p in points], dtype=np.uint8)
    return PointCloud(pos, col)


# ---------------------------------------------------------------------------
# PLY


def test_ascii_single_vertex(tmp_path):
    p = tmp_path / "one.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0 0 0 255 0 0\n"
    )
    pc = read_ply(p)
    assert pc.positions.tolist() == [[0, 0, 0]]
    assert pc.colors.tolist() == [[255, 0, 0]]


def test_missing_red_property(tmp_path):
    p = tmp_path / "nored.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n"
    )
    with pytest.raises(UnsupportedPly):
        read_ply(p)


def test_big_endian_rejected(tmp_path):
    p = tmp_path / "be.ply"
    p.write_bytes(
        b"ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"end_header\n" + b"\x00" * 15
    )
    with pytest.raises(UnsupportedPly):
        read_ply(p)


HEADER = (b"ply\nformat %s 1.0\nelement vertex %s\n"
          b"property float x\nproperty float y\nproperty float z\n"
          b"property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n")


@pytest.mark.parametrize("data, says", [
    (b"PLY\n", "not a PLY file"),
    (HEADER[:-1] % (b"ascii", b"1"), "not a PLY file"),
    (b"ply\nelement vertex 1\nend_header\n0 0 0 0 0 0\n", "missing format or vertex element"),
    (b"ply\nformat ascii 1.0\nelement\nend_header\n", "missing format or vertex element"),
    (b"ply\nformat ascii 1.0\nelement vertex\nend_header\n",
     "vertex count '' is not a positive whole number"),
    (HEADER % (b"ascii", b"2") + b"0 0 0 1 2 3\n", "fewer vertex values than declared"),
    (HEADER % (b"binary_little_endian", b"2") + bytes(15), "binary body shorter than declared"),
    (HEADER % (b"ascii", b"two") + b"0 0 0 1 2 3\n",
     "vertex count 'two' is not a positive whole number"),
    (HEADER % (b"binary_little_endian", b"-1") + bytes(120),
     "vertex count '-1' is not a positive whole number"),
    (HEADER % (b"ascii", b"0"), "vertex count '0' is not a positive whole number"),
    (HEADER % (b"ascii", b"1") + b"0 0 zero 1 2 3\n",
     "ASCII body: could not convert string to float: 'zero'"),
    (HEADER % (b"ascii", b"1") + b"0 0 0 1 2 \xb3\n", "ASCII body: 'ascii' codec can't decode"),
], ids=["not-ply", "no-newline", "no-format", "no-element-name", "no-count", "short-ascii",
        "short-binary", "count-word", "count-negative", "count-zero", "ascii-word",
        "ascii-non-ascii"])
def test_malformed_ply_fails_typed(tmp_path, data, says):
    p = tmp_path / "bad.ply"
    p.write_bytes(data)
    with pytest.raises(MalformedHeader, match=says):
        read_ply(p)


def test_ascii_binary_twins(tmp_path):
    corners = [(x, y, z, 10 * x, 20 * y, 30 * z)
               for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    pc = cloud(corners)
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    write_ply(a, pc, binary=False)
    write_ply(b, pc, binary=True)
    pa, pb = read_ply(a), read_ply(b)
    assert np.array_equal(pa.positions, pb.positions)
    assert np.array_equal(pa.colors, pb.colors)


def test_ascii_ply_matches_per_point_text(tmp_path):
    rng = np.random.default_rng(3)
    lim = np.iinfo(np.int32)
    for n in (1, 2, 257):
        pos = rng.integers(-1000, 1000, size=(n, 3)).astype(np.int32)
        pos[0] = (lim.min, lim.max, 0)
        pc = PointCloud(pos, rng.integers(0, 256, size=(n, 3)).astype(np.uint8))
        path = tmp_path / "a.ply"
        write_ply(path, pc)
        header = (
            f"ply\nformat ascii 1.0\nelement vertex {n}\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "end_header\n"
        )
        body = "".join(f"{p[0]} {p[1]} {p[2]} {c[0]} {c[1]} {c[2]}\n"
                       for p, c in zip(pc.positions, pc.colors))
        assert path.read_bytes() == (header + body).encode("ascii")


def test_float_rounding_half_away(tmp_path):
    p = tmp_path / "round.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0.5 1.5 -0.5 0 0 0\n2.4 -2.5 0 0 0 0\n"
    )
    pc = read_ply(p)
    assert pc.positions.tolist() == [[1, 2, -1], [2, -3, 0]]


@pytest.mark.parametrize("types, row, says", [
    ("<f4 <f4 <f4 <u2 u1 u1", (0, 0, 0, 300, 0, 0), "'red' of vertex 1 holds 300.0"),
    ("<f4 <f4 <f4 u1 <i2 u1", (0, 0, 0, 0, -1, 0), "'green' of vertex 1 holds -1.0"),
    ("<f4 <f4 <f4 u1 u1 <f4", (0, 0, 0, 0, 0, 2.7), "'blue' of vertex 1 holds 2.7"),
    ("<f8 <f4 <f4 u1 u1 u1", (2.0**31, 0, 0, 0, 0, 0), "'x' of vertex 1 holds 2147483648.0"),
    ("<f4 <f4 <f4 u1 u1 u1", (0, float("inf"), 0, 0, 0, 0), "'y' of vertex 1 holds inf"),
])
def test_binary_values_that_would_wrap_are_refused(tmp_path, types, row, says):
    names = ("x", "y", "z", "red", "green", "blue")
    ply_types = {"<f4": "float", "<f8": "double", "u1": "uchar", "<u2": "ushort", "<i2": "short"}
    rec = np.zeros(2, dtype=list(zip(names, types.split())))
    rec[1] = row
    p = tmp_path / "wide.ply"
    p.write_bytes(("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                   + "".join(f"property {ply_types[t]} {a}\n" for a, t in zip(names, types.split()))
                   + "end_header\n").encode("ascii") + rec.tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "invalid value encountered in cast" on the way
        with pytest.raises(UnsupportedPly, match=f"property {says}"):
            read_ply(p)


# ---------------------------------------------------------------------------
# Luma


def test_luma_weights():
    assert rgb_to_luma(255, 255, 255) == pytest.approx(255.0)
    assert rgb_to_luma(0, 0, 0) == 0.0
    assert rgb_to_luma(255, 0, 0) == pytest.approx(76.245)


# ---------------------------------------------------------------------------
# Texture complexity


def test_tc_uniform_color_is_zero():
    pc = cloud([(x, y, 0, 100, 100, 100) for x in range(4) for y in range(4)])
    assert compute_tc(pc, 4).tc == 0.0


def test_tc_two_point_block():
    # lumas 0 and 2 via blue channel scaled: use explicit luma hook
    pc = cloud([(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)])
    res = compute_tc(pc, 4, luma=[0.0, 2.0])
    assert res.tc == pytest.approx(1.0)
    assert res.blocks_used == 1


def test_tc_two_blocks_hand_value():
    pts = [(0, 0, 0), (1, 0, 0), (8, 0, 0), (9, 0, 0), (10, 0, 0)]
    pc = cloud([(x, y, z, 0, 0, 0) for x, y, z in pts])
    res = compute_tc(pc, 4, luma=[0.0, 2.0, 0.0, 0.0, 6.0])
    assert res.blocks_used == 2
    assert res.tc == pytest.approx((1.0 + 2.8284271247461903) / 2)


def test_tc_singleton_blocks_excluded():
    pts = [(0, 0, 0), (1, 0, 0), (100, 100, 100)]
    pc = cloud([(x, y, z, 0, 0, 0) for x, y, z in pts])
    res = compute_tc(pc, 4, luma=[0.0, 2.0, 50.0])
    assert res.blocks_used == 1
    assert res.tc == pytest.approx(1.0)


def test_tc_all_singletons_error():
    pc = cloud([(0, 0, 0, 0, 0, 0), (50, 50, 50, 9, 9, 9)])
    with pytest.raises(NoEligibleBlocks):
        compute_tc(pc, 4)


@pytest.fixture
def random_cloud():
    rng = np.random.default_rng(7)
    pos = rng.integers(0, 64, size=(500, 3)).astype(np.int32)
    col = rng.integers(0, 256, size=(500, 3)).astype(np.uint8)
    return PointCloud(pos, col)


def test_tc_translation_invariance(random_cloud):
    base = compute_tc(random_cloud, 4).tc
    shifted = PointCloud(random_cloud.positions + np.array([8, -12, 4], dtype=np.int32),
                         random_cloud.colors)
    assert compute_tc(shifted, 4).tc == pytest.approx(base, rel=1e-12)


def test_tc_luma_shift_invariance(random_cloud):
    luma = np.arange(500, dtype=float) % 37
    base = compute_tc(random_cloud, 4, luma=luma).tc
    shifted = compute_tc(random_cloud, 4, luma=luma + 13.5).tc
    assert shifted == pytest.approx(base, rel=1e-12)


def test_tc_luma_scaling(random_cloud):
    luma = np.arange(500, dtype=float) % 37
    base = compute_tc(random_cloud, 4, luma=luma).tc
    scaled = compute_tc(random_cloud, 4, luma=2.5 * luma).tc
    assert scaled == pytest.approx(2.5 * base, rel=1e-12)


def test_tc_within_block_permutation(random_cloud):
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(random_cloud))
    permuted = PointCloud(random_cloud.positions[perm], random_cloud.colors[perm])
    assert compute_tc(permuted, 4).tc == pytest.approx(
        compute_tc(random_cloud, 4).tc, rel=1e-12)


@pytest.mark.parametrize("block_edge", [1, 2, 3, 4, 8])
def test_tc_matches_per_block_std_loop(block_edge):
    rng = np.random.default_rng(block_edge)
    pc = PointCloud(rng.integers(0, 40, size=(20000, 3)).astype(np.int32),
                    rng.integers(0, 256, size=(20000, 3)).astype(np.uint8))
    luma = rgb_to_luma(pc.colors[:, 0], pc.colors[:, 1], pc.colors[:, 2])
    blocks = {}
    for key, y in zip(map(tuple, pc.positions // block_edge), luma):
        blocks.setdefault(key, []).append(y)
    stds = [np.std(blocks[k]) for k in sorted(blocks) if len(blocks[k]) >= 2]
    res = compute_tc(pc, block_edge)
    assert res.blocks_used == len(stds)
    assert res.tc == pytest.approx(sum(stds) / len(stds), rel=1e-13)


@pytest.mark.parametrize("block_edge", [2**31, 2**63 - 1])
def test_tc_takes_a_block_edge_past_int32(block_edge):
    # int32 coordinates: one block of the two points at x >= 0, and two lone points
    pos = np.array([[0, 0, 0], [2**31 - 1, 5, 9], [-1, 0, 0], [-2**31, -7, -1]], dtype=np.int32)
    pc = PointCloud(pos, np.array([[0] * 3, [255] * 3, [10] * 3, [30] * 3], dtype=np.uint8))
    res = compute_tc(pc, block_edge)
    assert (res.tc, res.blocks_used, res.block_edge) == (127.5, 1, block_edge)


def test_tc_refuses_a_block_edge_past_int64(random_cloud):
    with pytest.raises(InvalidInput, match=f"block_edge must be <= {2**63 - 1}, got {2**63}"):
        compute_tc(random_cloud, 2**63)


def lexsort_tc(pc, block_edge, luma):
    """compute_tc with the blocks ordered by a three-column lexsort."""
    blocks = np.floor_divide(pc.positions, block_edge)
    order = np.lexsort((blocks[:, 2], blocks[:, 1], blocks[:, 0]))
    blocks, luma = blocks[order], luma[order]
    change = np.any(blocks[1:] != blocks[:-1], axis=1)
    starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
    counts = np.diff(np.append(starts, len(blocks)))
    dev = luma - np.repeat(np.add.reduceat(luma, starts) / counts, counts)
    stds = np.sqrt((np.add.reduceat(dev * dev, starts) / counts)[counts >= 2])
    return math.fsum(stds) / len(stds), len(stds)


@pytest.mark.parametrize("low, high, block_edge", [
    (0, 40, 1), (0, 40, 4), (-300, 300, 3),
    (-2**20, 2**20 - 1, 1),  # the largest block key that fits int64
    (-2**20, 2**20, 1),      # a block key just past int64
    (-2**30, 2**30, 1),      # far past it
    (-2**31, 2**31, 1),      # every int32: blocks one apart in x would share a 64-bit key
    (-2**31, 2**31, 2**20),
])
def test_tc_is_bit_identical_to_the_lexsort_order(low, high, block_edge):
    rng = np.random.default_rng(abs(low) + block_edge)
    for n in (2, 50, 3000):
        # about five points a block, in the blocks around a few centres, and
        # the two corners
        centres = rng.integers(low, high - 2 * block_edge, size=(max(1, n // 40), 3))
        pos = (centres[rng.integers(0, len(centres), n)]
               + rng.integers(0, 2 * block_edge, size=(n, 3)))
        pos[0], pos[-1] = low, high - 1
        pc = PointCloud(pos.astype(np.int32), rng.integers(0, 256, size=(n, 3)).astype(np.uint8))
        luma = rng.normal(100, 40, n)
        # the same order, not just the same sum
        blocks = pc.positions // block_edge
        assert np.array_equal(_block_runs(pc.positions, block_edge)[0],
                              np.lexsort((blocks[:, 2], blocks[:, 1], blocks[:, 0])))
        try:
            want = lexsort_tc(pc, block_edge, luma)
        except ZeroDivisionError:
            with pytest.raises(NoEligibleBlocks):
                compute_tc(pc, block_edge, luma)
            continue
        res = compute_tc(pc, block_edge, luma)
        assert (res.tc, res.blocks_used) == want

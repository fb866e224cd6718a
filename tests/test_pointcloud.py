import numpy as np
import pytest

from streampcq.errors import NoEligibleBlocks, UnsupportedPly
from streampcq.pointcloud import (
    PointCloud,
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

"""Seeded inputs for each workload, written with the reference helpers.

Each generator writes its files into a directory and a `manifest.json`
holding every planted value the checks need.  The same seed gives the same
files byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference as ref

# monitor-bulk: a few dozen streams, each a handful of TLV units with
# payloads from 1 MiB to 24 MiB (188 MB in all).  The size schedule does not
# depend on the seed, so bytes read and peak memory do not either.
BULK_STREAMS = 24
BULK_MIN_MIB, BULK_MAX_MIB = 1.0, 24.0
BULK_GEOMETRY_SHARE = 0.25
# Four more streams have two slices.  They are drawn from a fixed seed:
# today's extractor gets them wrong every time, whatever the workload seed.
TWO_SLICE_STREAMS = 4
TWO_SLICE_BYTES = 1 << 20
TWO_SLICE_SEED = 20241009

# calibrate: 20 contents x 4 PQS x 5 QP = 400 stimuli.
CONTENTS = 20
CLOUD_EDGE = 150                     # height-field surface of 150 x 150 voxels
TEXTURE_AMPLITUDE = (10.0, 60.0)     # per-point luma std, lowest and highest content
NORMAL_OBSERVERS = 24
OUTLIER_OBSERVERS = 3
OBSERVER_SIGMA = 2.5                 # rating noise of one observer, in MOS units
OUTLIER_MISS = 100.0                 # how far an outlier observer misses, in MOS units
SPLITS = 8
DATABASE_SEED = 20241010

# The paper's nine coefficients (Table values, the program's defaults).
# calibrate perturbs c, d, f1 and f2 by up to 5 % per seed; a1..b2 stay,
# since H(22) is a small difference of large terms.
PAPER_PARAMS = {"a1": 0.2176, "a2": -11.1828, "a3": 146.7245, "b1": 0.2428,
                "b2": -3.2494, "c": 0.0013, "d": -0.2042, "f1": -2.7005,
                "f2": 88.1843}


def _write_manifest(directory: Path, manifest: dict):
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _write_stream(path: Path, rng, size: int, n_slices: int) -> dict:
    """One stream of `size` payload bytes; returns its planted features.

    Each slice is a geometry_data unit followed by 2-6 attribute_data
    units; a quarter of the payload is geometry body.
    """
    pqs = float(rng.choice(ref.PQS_GRID))
    qp = int(rng.choice(ref.QP_GRID))
    points = [int(rng.integers(250_000, 2_500_000)) for _ in range(n_slices)]
    geometry_bytes = int(size * BULK_GEOMETRY_SHARE) // n_slices
    attr_bytes = size - n_slices * geometry_bytes
    weights = rng.uniform(0.5, 1.5, (n_slices, int(rng.integers(2, 7))))
    lengths = np.floor(weights / weights.sum() * attr_bytes).astype(np.int64)
    lengths[-1, -1] += attr_bytes - lengths.sum()
    with open(path, "wb") as fh:
        fh.write(ref.sequence_params(pqs) + ref.geometry_params() + ref.attribute_params(qp))
        for slice_id, (count, slice_lengths) in enumerate(zip(points, lengths)):
            fh.write(ref.geometry_data(slice_id, count, rng.bytes(geometry_bytes)))
            for n in slice_lengths:
                fh.write(ref.attribute_data(rng.bytes(int(n))))
    return {"stream": path.name, "pqs": pqs, "qp": qp, "texture_bits": 8 * attr_bytes,
            "point_count": sum(points), "two_slice": n_slices == 2}


def monitor_bulk(directory: Path, seed: int):
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng(TWO_SLICE_SEED)
    sizes = np.geomspace(BULK_MIN_MIB, BULK_MAX_MIB, BULK_STREAMS) * (1 << 20)
    streams = [_write_stream(directory / f"bulk{i:02d}.bin", rng, int(size), 1)
               for i, size in enumerate(sizes.astype(np.int64))]
    streams += [_write_stream(directory / f"twoslice{i}.bin", fixed, TWO_SLICE_BYTES, 2)
                for i in range(TWO_SLICE_STREAMS)]
    _write_manifest(directory, {"workload": "monitor-bulk", "seed": seed,
                                "streams": streams})


def _cloud(shape_rng, rng, amplitude: float):
    """Voxelized height-field surface with luma texture of std `amplitude`.

    `shape_rng` draws the surface, `rng` the texture.
    """
    x, y = np.meshgrid(np.arange(CLOUD_EDGE), np.arange(CLOUD_EDGE), indexing="ij")
    fx, fy = shape_rng.uniform(0.5, 3.0, 2)
    phase = shape_rng.uniform(0, 2 * np.pi, 2)
    z = 40 + 25 * np.sin(2 * np.pi * fx * x / CLOUD_EDGE + phase[0]) \
        * np.cos(2 * np.pi * fy * y / CLOUD_EDGE + phase[1])
    positions = np.stack([x.ravel(), y.ravel(), np.round(z).ravel()], axis=1).astype(np.int32)
    base = 128 + 40 * np.sin(x.ravel() / 23.0) * np.cos(y.ravel() / 31.0)
    noise = amplitude * np.sqrt(3.0) * rng.uniform(-1, 1, len(base))
    tint = rng.uniform(-15, 15, (len(base), 3))
    colors = np.clip(np.round((base + noise)[:, None] + tint), 0, 255).astype(np.uint8)
    return positions, colors


def calibrate(directory: Path, seed: int):
    rng = np.random.default_rng([seed, 3])
    db = np.random.default_rng(DATABASE_SEED)
    shapes = np.random.default_rng([DATABASE_SEED, 1])
    params = dict(PAPER_PARAMS)
    for name in ("c", "d", "f1", "f2"):
        params[name] *= 1.0 + db.uniform(-0.05, 0.05)

    contents, tc_ref, blocks_ref = [], {}, {}
    for ci, amplitude in enumerate(np.linspace(*TEXTURE_AMPLITUDE, CONTENTS)):
        content = f"content{ci:02d}"
        positions, colors = _cloud(shapes, rng, float(amplitude))
        ref.write_ply(directory / f"{content}.ply", positions, colors)
        tc_ref[content], blocks_ref[content] = ref.texture_complexity(positions, colors)
        contents.append(content)

    stimuli = []
    for content in contents:
        for pqs in ref.PQS_GRID:
            for qp in ref.QP_GRID:
                tbpp = ref.tbpp_for_tc(params, qp, tc_ref[content])
                stimuli.append({
                    "stimulus": f"{content}_p{pqs}_q{qp}", "content": content,
                    "pqs": pqs, "qp": qp, "tbpp": tbpp,
                    "mos": ref.pmos(params, pqs, qp, tbpp, "alpha-times-tqs")})

    with open(directory / "noise_free.csv", "w") as fh:
        fh.write("content,pqs,qp,tbpp,tc,mos\n")
        for s in stimuli:
            fh.write(f"{s['content']},{s['pqs']!r},{s['qp']},{s['tbpp']!r},"
                     f"{tc_ref[s['content']]!r},{s['mos']!r}\n")
    with open(directory / "features.csv", "w") as fh:
        fh.write("stream,pqs,qp,tbpp\n")
        for s in stimuli:
            fh.write(f"{s['stimulus']},{s['pqs']!r},{s['qp']},{s['tbpp']!r}\n")

    # Raw panel: each normal observer rates gain * (mos + noise) + offset.
    # An outlier observer has no bias but misses the scale by
    # OUTLIER_MISS on a quarter of the stimuli, half of them high and half
    # low.  BT.500 screening needs that: an observer biased to one side is
    # kept, and with k = sqrt(20) two large excursions on one stimulus hide
    # each other, so the misses must be large and two-sided.
    n_obs = NORMAL_OBSERVERS + OUTLIER_OBSERVERS
    n_stim = len(stimuli)
    outliers = sorted(db.choice(n_obs, OUTLIER_OBSERVERS, replace=False).tolist())
    truth = np.array([s["mos"] for s in stimuli])
    gain = db.uniform(0.9, 1.1, n_obs)
    offset = db.uniform(-5, 5, n_obs)
    gain[outliers], offset[outliers] = 1.0, 0.0
    ratings = gain * (truth[:, None] + db.normal(0, OBSERVER_SIGMA, (n_stim, n_obs))) + offset
    for k in outliers:
        missed = db.choice(n_stim, n_stim // 4, replace=False)
        ratings[missed[: len(missed) // 2], k] += OUTLIER_MISS
        ratings[missed[len(missed) // 2:], k] -= OUTLIER_MISS
    observers = [f"obs{k:02d}" for k in range(n_obs)]
    with open(directory / "ratings.csv", "w") as fh:
        fh.write("stimulus," + ",".join(observers) + "\n")
        for s, row in zip(stimuli, ratings):
            fh.write(s["stimulus"] + "," + ",".join(f"{v:.3f}" for v in row) + "\n")

    _write_manifest(directory, {
        "workload": "calibrate", "seed": seed, "params": params,
        "contents": contents, "tc": tc_ref, "blocks": blocks_ref,
        "stimuli": stimuli, "outliers": [observers[k] for k in outliers],
        "splits": SPLITS})


GENERATORS = {"monitor-bulk": monitor_bulk, "calibrate": calibrate}

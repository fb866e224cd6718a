"""`_pcg64.Pcg64` against its oracle, `np.random.default_rng`: the same
seeding, and the same subsets from `choice(n, size=k, replace=False)`, call
after call on one stream."""

import random

import numpy as np
import pytest

from streampcq._pcg64 import Pcg64

# 0, word edges, seeds of several 32-bit entropy words, and 300 of random width
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 12345, 3**200,
         *(random.Random(0).getrandbits(bits) for bits in range(1, 301))]


def numpy_draws(seed, calls):
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=k, replace=False).tolist() for n, k in calls]


def draws(seed, calls):
    rng = Pcg64(seed)
    return [rng.choice(n, k) for n, k in calls]


def test_seeding_gives_numpys_pcg64_state():
    for seed in SEEDS:
        state = np.random.default_rng(seed).bit_generator.state["state"]
        rng = Pcg64(seed)
        assert (rng._state, rng._inc) == (state["state"], state["inc"]), seed


def test_successive_choices_continue_one_stream():
    # ten-of-twenty contents, as the splits draw them, and other sizes
    # between; near 2**31 Lemire's draw rejects up to half its 32-bit draws
    calls = [(20, 10), (20, 10), (7, 3), (20, 10), (1000, 17), (2**31 + 2, 5), (20, 10),
             (3 * 2**30, 4)]
    for seed in SEEDS:
        assert draws(seed, calls) == numpy_draws(seed, calls), seed


@pytest.mark.parametrize("n", [1, 2, 3, 20, 10000, 10001])
def test_edge_sizes_match(n):
    calls = [(n, k) for k in sorted({0, 1, n - 1, n})]
    for seed in SEEDS[:40]:
        assert draws(seed, calls) == numpy_draws(seed, calls), seed


@pytest.mark.parametrize("k", [0, 1, 399, 400, 401, 10000, 19999, 20000])
def test_both_sides_of_the_tail_shuffle_match(k):
    # n > 10000: numpy shuffles the tail of range(n) once k > n // 50 = 400,
    # and uses Floyd's algorithm at or below it
    calls = [(20000, k), (20, 10)]
    for seed in (0, 1, 2**64 + 7):
        assert draws(seed, calls) == numpy_draws(seed, calls), seed


def test_a_seed_is_an_integer():
    assert draws(np.int64(5), [(20, 10)]) == numpy_draws(5, [(20, 10)])
    with pytest.raises(TypeError):
        Pcg64(1.5)

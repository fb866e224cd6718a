"""`np.random.default_rng(seed).choice(n, size=k, replace=False)` in plain
Python, draw for draw, so that seeded splits run without loading
numpy.random (and the `secrets`/`hashlib`/OpenSSL stack it pulls in).

The chain is numpy's: `SeedSequence(seed)` mixes every 32-bit word of the
seed into a pool of four and expands it to 4 x 64 bits, which seed PCG64
(a 128-bit LCG with XSL-RR output).  A bounded draw is Lemire's on 32-bit
draws, each 64-bit output giving its low half and then its high half.  A
sample is Floyd's algorithm then a shuffle, or a shuffle of the tail of
`range(n)` when n > 10000 and k > n // 50.
"""

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _seed_words(seed: int) -> list:
    """`SeedSequence(seed).generate_state(8, uint32)`: eight 32-bit words."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = (value ^ const) * (const := const * 0x931E8875 & _M32) & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = (pool[i % 4] ^ const) * (const := const * 0x58F38DED & _M32) & _M32
        out.append(value ^ value >> 16)
    return out


class Pcg64:
    """One stream of `np.random.default_rng(seed)` (a seed >= 0), as far as
    `choice(n, k)` without replacement draws from it."""

    def __init__(self, seed: int):
        # uint64 words w[0] | w[1] << 32, ..., read as 128-bit (high, low) pairs
        w = _seed_words(operator.index(seed))
        state = w[0] << 64 | w[1] << 96 | w[2] | w[3] << 32
        self._inc = (w[4] << 64 | w[5] << 96 | w[6] | w[7] << 32) << 1 & _M128 | 1
        self._state = ((self._inc + state) * _MULT + self._inc) & _M128  # two steps from 0
        self._high = None  # the kept high half of the last 64-bit output

    def _next32(self) -> int:
        if self._high is not None:
            value, self._high = self._high, None
            return value
        self._state = (self._state * _MULT + self._inc) & _M128
        rot, x = self._state >> 122, (self._state >> 64 ^ self._state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        self._high = x >> 32
        return x & _M32

    def _bounded(self, top: int) -> int:
        """Uniform in [0, top] for top < 2**32 - 1: Lemire's multiply and reject."""
        if top == 0:
            return 0
        span, floor = top + 1, (_M32 - top) % (top + 1)
        m = self._next32() * span
        while m & _M32 < floor:
            m = self._next32() * span
        return m >> 32

    def _shuffle(self, items: list, first: int):
        """Swap positions len-1 down to `first` with a draw at or below each."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._bounded(i)
            items[i], items[j] = items[j], items[i]

    def choice(self, n: int, k: int) -> list:
        """k distinct ints of range(n), for 0 <= k <= n < 2**32 - 1, as numpy's
        `choice(n, size=k, replace=False).tolist()` draws them next from this
        stream."""
        if n > 10000 and k > n // 50:  # numpy's tail shuffle
            items = list(range(n))
            self._shuffle(items, max(n - k, 1))
            return items[n - k:]
        seen, items = set(), []
        for j in range(n - k, n):  # Floyd: on a repeat, take j
            value = self._bounded(j)
            value = j if value in seen else value
            seen.add(value)
            items.append(value)
        self._shuffle(items, 1)
        return items

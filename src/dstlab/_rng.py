"""The package's one seeded random stream, in pure Python.

`PCG64(seed)` gives the draws of numpy's `Generator(PCG64(seed))` bit for
bit, for the two draws the package makes, without importing numpy:

- the bit generator is PCG64 (PCG XSL RR 128/64), seeded as numpy seeds it
  through `SeedSequence(seed)`: the pool of four 32-bit words hashed from
  the seed's 32-bit words, expanded to the 128-bit state and increment;
- `uniform(low, high, size)` is low + (high - low) d per draw, with the
  53-bit double d = (x >> 11) 2^-53 of the next 64-bit output x;
- `integers(low, high, size)` is Lemire's bounded integer on 32-bit draws,
  which the bit generator takes as the two halves of one 64-bit output, the
  high half kept for the next 32-bit draw (a 64-bit draw leaves it kept).

Draws the package does not make raise ValueError rather than drift from
numpy's: non-finite bounds, high < low, and integer spans of 2^32 or more
(numpy takes those from other paths).  numpy's generator is the reference
in the tests, and only there.
"""
from __future__ import annotations

import math

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2^-53

# SeedSequence's hash constants (O'Neill's seed_seq_fe) for a 4-word pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_state(seed):
    """SeedSequence(seed).generate_state(4, uint64) as four Python ints."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const, words = _INIT_B, []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


class PCG64:
    """numpy's `Generator(PCG64(seed))` for a non-negative int seed: the
    `uniform` and `integers` draws, each with a required size, as lists."""

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_state(int(seed))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # state 0 stepped once (to the increment), the seed added, stepped again
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULTIPLIER + self._inc) & _MASK128
        self._half = None  # the high half of a 64-bit output, kept for a 32-bit draw

    def _next64(self):
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        x, rot = ((state >> 64) ^ state) & _MASK64, state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def uniform(self, low, high, size):
        """`size` floats low + (high - low) d, d uniform on [0, 1)."""
        low, high = float(low), float(high)
        span = high - low
        if not (math.isfinite(low) and math.isfinite(high) and math.isfinite(span)):
            raise ValueError(f"uniform needs finite bounds, got [{low!r}, {high!r})")
        if span < 0:
            raise ValueError(f"uniform needs low <= high, got [{low!r}, {high!r})")
        return [low + span * ((self._next64() >> 11) * _TO_DOUBLE) for _ in range(size)]

    def integers(self, low, high, size):
        """`size` ints uniform on low <= k < high, by Lemire's method."""
        span = high - low
        if not 1 <= span < 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low < 2**32, got [{low!r}, {high!r})")
        if span == 1:
            return [low] * size  # numpy draws nothing for a one-value range
        threshold = ((1 << 32) - span) % span
        out = []
        for _ in range(size):
            m = self._next32() * span
            while m & _MASK32 < threshold:
                m = self._next32() * span
            out.append(low + (m >> 32))
        return out

"""Deterministic seed derivation and random-stream construction.

Every random stream in the package is a PCG64 stream seeded with a 64-bit
integer produced by :func:`derive_seed`. The derivation is fixed so results
are reproducible across platforms and so independent streams (one per
experiment cell, one per episode reset, one per agent) never interact:
adding an agent or task to a run leaves all other streams untouched.

Derivation: each part is encoded as ``i:<decimal>`` for integers or
``s:<utf-8>`` for strings, the encodings are joined with ``0x1f`` separators,
and the seed is the big-endian first 8 bytes of the SHA-256 digest.

The streams that draw only scalars (reset and goal tapes, the rule shuffle,
the ``random`` and ``tabular_q`` agents) are numpy's, drawn in pure Python
(:func:`make_scalar_rng`), so a run whose agents make no arrays never imports
numpy. Streams that draw arrays are numpy's generators (:func:`make_rng`).
"""

from __future__ import annotations

import hashlib
import itertools

__all__ = ["ScalarPCG64", "derive_seed", "make_rng", "make_scalar_rng"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
# SeedSequence's hash constants, call by call: its entropy mix makes 16 hash calls and generate_state 8.
_MIX_KEYS = tuple(0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _M32 for k in range(17))
_STATE_KEYS = tuple(0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _M32 for k in range(9))


def derive_seed(*parts: int | str) -> int:
    """Hash a sequence of ints/strings into a 64-bit seed."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        tag = f"i:{part}" if isinstance(part, int) else f"s:{part}"
        h.update(tag.encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "big")


def make_rng(*parts: int | str) -> np.random.Generator:
    """numpy's PCG64 generator seeded by ``derive_seed(*parts)``."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(derive_seed(*parts)))


def make_scalar_rng(*parts: int | str) -> ScalarPCG64:
    """The stream of ``make_rng(*parts)`` as a :class:`ScalarPCG64`: the same draws, no numpy."""
    return ScalarPCG64(derive_seed(*parts))


def _hash(value: int, keys: tuple[int, ...], k: int) -> int:
    value = (value ^ keys[k]) * keys[k + 1] & _M32
    return value ^ value >> 16


class ScalarPCG64:
    """numpy's ``Generator(PCG64(seed))``, draw for draw, for ``integers`` of fewer than 2**32 values and ``random``.

    As in numpy, ``SeedSequence(seed).generate_state(4, uint64)`` seeds the 128-bit LCG, whose XSL-RR output
    (O'Neill 2014) is a 64-bit draw; a 32-bit draw is its lower half, and the next one its upper half;
    ``integers`` rejects 32-bit draws by Lemire's method (Lemire 2019); ``random`` is ``(next64 >> 11) * 2**-53``.
    """

    def __init__(self, seed: int):
        words = (seed & _M32, seed >> 32, 0, 0) if seed > _M32 else (seed, 0, 0, 0)
        pool = [_hash(word, _MIX_KEYS, i) for i, word in enumerate(words)]
        for k, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):  # SeedSequence's mix order
            mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(pool[src], _MIX_KEYS, k)) & _M32
            pool[dst] = mixed ^ mixed >> 16
        state = [_hash(pool[i % 4], _STATE_KEYS, i) for i in range(8)]  # 32-bit words, low half first
        s0, s1, i0, i1 = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128
        self._upper = None  # the unused upper half of the last 64-bit output drawn for 32 bits

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._upper is not None:
            out, self._upper = self._upper, None
            return out
        out = self._next64()
        self._upper = out >> 32
        return out & _M32

    def _below(self, n: int) -> int:
        """A draw from [0, n): a 32-bit draw times n, rejected while its low word is below the threshold."""
        threshold = ((1 << 32) - n) % n
        while n > 1:  # numpy draws nothing for a one-value range
            m = self._next32() * n
            if m & _M32 >= threshold:
                return m >> 32
        return 0

    def integers(self, low: int, high: int, size: int | None = None):
        """An int uniform on ``[low, high)``, or a list of ``size`` of them; fewer than 2**32 values."""
        if not 0 < high - low <= _M32:
            raise ValueError(f"integers supports ranges of 1 to 2**32 - 1 values, got [{low}, {high})")
        if size is None:
            return low + self._below(high - low)
        return [low + self._below(high - low) for _ in range(size)]

    def random(self) -> float:
        """A float uniform on [0, 1), 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

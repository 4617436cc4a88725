"""Deterministic RNG derivation so every pipeline stage is replayable, and a
decoder that serves a PCG64 Generator's draws from blocks of its raw words."""

from __future__ import annotations

import hashlib

import numpy as np


def derive_rng(*keys) -> np.random.Generator:
    """Build a Generator whose stream depends only on the given key tuple.

    Keys may be ints, strings, or anything with a stable str(); the same keys
    always yield the same stream, independent of call order elsewhere.
    """
    tag = "/".join(str(k) for k in keys)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def spawn(rng: np.random.Generator) -> np.random.Generator:
    """Split off an independent child generator from ``rng``."""
    return np.random.default_rng(rng.integers(0, 2**63 - 1, size=4))


RAW_BLOCK = 256   # words fetched from the bit generator at a time


class RawDraws:
    """A PCG64 Generator's ``random()`` and ``integers(n)`` draws, decoded
    bit for bit from blocks of its raw 64-bit words (O'Neill, 2014).

    ``words`` holds the fetched words and ``doubles`` the ``random()`` value
    of each, ``(w >> 11) * 2**-53``; ``pos`` is the first one not yet served.
    ``integers(n)`` is numpy's: Lemire's method (Lemire, 2019) on 32-bit
    halves, a word's low half first and its high half kept for the next
    draw, as numpy's ``has_uint32``/``uinteger`` buffer (here ``has`` and
    ``half``) keeps it. A hot loop may read the lists in place with its own
    position and buffer, handing them back through ``pos``, ``has`` and
    ``half`` before a method call; ``refill`` changes the lists in place.
    ``close`` leaves the generator where the stock calls would.
    """

    def __init__(self, rng: np.random.Generator):
        bg = getattr(rng, "bit_generator", None)
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(f"raw draws need a PCG64 generator, not {type(bg).__name__}")
        self._bg, self._saved, self._used = bg, bg.state, 0
        self.has, self.half = bool(self._saved["has_uint32"]), self._saved["uinteger"]
        self.words, self.doubles, self.pos = [], [], 0

    def refill(self, pos: int) -> int:
        """Drop the words before pos and fetch a block after the rest;
        returns the new position of the word at pos, 0."""
        self._used += pos
        del self.words[:pos], self.doubles[:pos]
        raw = self._bg.random_raw(RAW_BLOCK)
        self.words += raw.tolist()
        self.doubles += ((raw >> 11) * 2.0**-53).tolist()
        return 0

    def _word(self) -> int:
        if self.pos == len(self.words):
            self.pos = self.refill(self.pos)
        self.pos += 1
        return self.pos - 1

    def random(self) -> float:
        return self.doubles[self._word()]

    def integers(self, n: int) -> int:
        """``integers(n)`` for 1 <= n <= 2**32; integers(1) draws nothing."""
        threshold = (2**32 - n) % n
        while n > 1:
            if self.has:
                m, self.has = self.half * n, False
            else:
                w = self.words[self._word()]
                m, self.has, self.half = (w & 0xFFFFFFFF) * n, True, w >> 32
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32
        return 0

    def close(self) -> None:
        bg = self._bg
        bg.state = self._saved
        state = bg.advance(self._used + self.pos).state
        state["has_uint32"], state["uinteger"] = int(self.has), self.half
        bg.state = state

"""Deterministic counter-based random streams.

Every sampling operation owns a stream keyed by (seed, lane): lane 0 is the
operation's main stream, batch b of a batched operation uses lane b+1.  The
generator is counter-based (Philox4x64-10), so streams are independent and
reproducible regardless of draw order or platform.

`IntStream` is the one definition of the exact layer's draws: numpy's
`Generator.integers` on `Philox(key=[seed, lane])`, replayed in Python ints,
so it needs no numpy; a span past 2^32 raises.  numpy's `Generator` serves
the float fills only, and numpy is imported where they are made.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B

# uniforms per block of a chunked draw (128 KiB of float64), so that what a
# sampling loop holds at once does not grow with its sample count
BLOCK_ELEMENTS = 1 << 14


def _halves(k0: int, k1: int) -> Iterator[int]:
    """The stream's 32-bit words: block i >= 1 is the ten rounds of counter i
    (bumped before each block; its upper words stay 0 for 2^64 blocks), round
    r keyed by k + r W, and each 64-bit word is read low half first."""
    keys = [((k0 + r * _W0) & _MASK, (k1 + r * _W1) & _MASK) for r in range(10)]
    for ctr in count(1):
        c0, c1, c2, c3 = ctr, 0, 0, 0
        for a, b in keys:
            p0, p1 = _M0 * c0, _M1 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ a, p1 & _MASK, (p0 >> 64) ^ c3 ^ b, p0 & _MASK
        for word in (c0, c1, c2, c3):
            yield from (word & 0xFFFFFFFF, word >> 32)


class IntStream:
    """Stream (seed, lane) as ints: `integers` equals numpy's, draw for draw."""

    def __init__(self, seed: int, lane: int):
        self._next = _halves(seed & _MASK, lane & _MASK).__next__

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi) by numpy's buffered 32-bit Lemire draw.  A span of 1
        reads no word; in Python ints, 2^32 (numpy's 0xFFFFFFFF case) needs no branch."""
        span = hi - lo
        if not 0 < span <= 1 << 32:
            raise ValueError(f"a draw needs a span in 1..2^32, got [{lo}, {hi})")
        if span == 1:
            return lo
        m = self._next() * span
        if m & 0xFFFFFFFF < span:  # numpy takes the threshold only here
            threshold = (1 << 32) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next() * span
        return lo + (m >> 32)


def stream(seed: int, lane: int) -> np.random.Generator:
    import numpy as np
    key = np.array([seed & _MASK, lane & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_blocks(seed: int, lane: int, rows: int, cols: int) -> Iterator[np.ndarray]:
    """The rows x cols uniforms of stream (seed, lane) as consecutive blocks of
    whole rows, each at most BLOCK_ELEMENTS large (one row if a row is larger).
    `Generator.random` fills its output in order, so stacking the blocks gives
    `stream(seed, lane).random((rows, cols))` bit for bit."""
    gen = stream(seed, lane)
    step = max(1, BLOCK_ELEMENTS // cols)
    for start in range(0, rows, step):
        yield gen.random((min(step, rows - start), cols))

"""Deterministic counter-based random streams.

Every sampling operation owns a stream keyed by (seed, lane): lane 0 is the
operation's main stream, batch b of a batched operation uses lane b+1.  The
generator is counter-based (Philox), so streams are independent and
reproducible regardless of draw order or platform.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK = (1 << 64) - 1

# uniforms per block of a chunked draw (128 KiB of float64), so that what a
# sampling loop holds at once does not grow with its sample count
BLOCK_ELEMENTS = 1 << 14


def stream(seed: int, lane: int) -> np.random.Generator:
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

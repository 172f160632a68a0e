"""Deterministic counter-based random streams.

Every sampling operation owns a stream keyed by (seed, lane): lane 0 is the
operation's main stream, batch b of a batched operation uses lane b+1.  The
generator is counter-based (Philox), so streams are independent and
reproducible regardless of draw order or platform.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def stream(seed: int, lane: int) -> np.random.Generator:
    key = np.array([seed & _MASK, lane & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

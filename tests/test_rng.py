"""The exact layer's int stream, `rng.IntStream`, against numpy.

`IntStream(seed, lane).integers(lo, hi)` must give, draw for draw, what
`np.random.Generator(np.random.Philox(key=[seed, lane])).integers(lo, hi)`
gives.  The draw sequences mix spans, so a draw often starts on the buffered
high half of a 64-bit word, and they include the spans numpy treats apart:
1 (no word read), 2^32 (one word as it is) and 2^31 + 1 (half the words
rejected).  A last full-width draw checks that both streams stand at the
same word when the sequence ends.  The float stream, `rng.stream`, must key
numpy's Philox as the int stream does, seeds past 2^63 included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.rng import IntStream, stream

SPANS = [1, 2, 3, (1 << 31) + 1, (1 << 32) - 1, 1 << 32, 3 << 30]


def numpy_stream(seed: int, lane: int) -> np.random.Generator:
    key = np.array([seed % (1 << 64), lane], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


draws = st.lists(st.tuples(st.integers(-(1 << 40), 1 << 40),
                           st.sampled_from(SPANS) | st.integers(1, 1 << 32)),
                 min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1) | st.integers(-100, 100),
       lane=st.integers(0, 11), draws=draws)
@example(seed=0, lane=0, draws=[(0, 1 << 32)] * 9)  # past the first 4-word block
@example(seed=5, lane=3, draws=[(0, (1 << 31) + 1)] * 12)  # rejection-heavy
@example(seed=1, lane=1, draws=[(0, 1), (-8, 9), (0, 1), (0, 1 << 32)])
def test_int_stream_replays_numpy_integers(seed, lane, draws):
    ours, theirs = IntStream(seed, lane), numpy_stream(seed, lane)
    for lo, span in draws + [(0, 1 << 32)]:
        assert ours.integers(lo, lo + span) == int(theirs.integers(lo, lo + span)), (lo, span)


@pytest.mark.parametrize("lo, hi", [(0, (1 << 32) + 1), (-5, 1 << 40), (3, 3), (4, 2)])
def test_a_span_outside_1_to_2_32_raises(lo, hi):
    with pytest.raises(ValueError, match="span in 1..2"):
        IntStream(0, 0).integers(lo, hi)


@pytest.mark.parametrize("seed", [0, 7, (1 << 63) + 5, (1 << 64) - 1, -3])
def test_float_stream_has_the_int_streams_key(seed):
    # a key array of Python ints past 2^63 would be float64, so the key is
    # built as uint64
    assert stream(seed, 4).random(3).tolist() == numpy_stream(seed, 4).random(3).tolist()

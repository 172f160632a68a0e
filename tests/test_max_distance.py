"""The largest pairwise distance among values, in ints, against the pair loop.

`spaces.spread` is the spread of the McShane trial sums, the series tail
and the batch means, and it refuses values from two spaces.  It takes one sweep over the union of the
values' run keys.  In the sup norm it keeps the largest range of the levels
over a cell; in l1 and l2 each pair gets one int key over one common
denominator, weighted by the cells' lengths, and the l2 upper end is found
by scanning the distinct keys largest first (see its docstring).  The oracle
is `tests/reference.py`'s spread: the largest upper end of the distance over
every pair, each worked out on the values' Fraction tuples, one entry per
coordinate or grid cell.  Values: l1, l2 and linf coordinate spaces of
dimension 1-4 with mixed denominators and often equal neighbouring
coordinates, 0-8 values, and step values.

The step cases draw 0-50 step values with mixed denominators whose keys are
shared, disjoint or nested, and check `distance` itself, which bisects,
against the reference's.  Mutations these tests catch (each run on a scratch
copy): the run length dropped from the l1/l2 key.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab import integrate, spaces
from gaugelab.errors import SpaceMismatch
from gaugelab.exact import D0, D1, Dyadic
from gaugelab.spaces import (L1, L2, LINF, ValueSpace, VectorValue, distance, spread,
                             squared_distances)
import reference as ref
from test_step_columns import assert_spread, repeating


# denominators that mix primes, small and large powers of two
DENOMINATORS = [1, 2, 3, 5, 7, 12, 1 << 10, 1 << 60, 3 << 40, 1 << 100]
# coordinates near 1/3 and near one another make near-perfect-square keys
NEAR = [Fraction(0), Fraction(1, 3), Fraction(1, 3) - Fraction(1, 1 << 100),
        Fraction(1, 1 << 60), Fraction(2, 3), Fraction(-1, 3)]

coordinates = st.one_of(
    st.builds(Fraction, st.integers(-(1 << 70), 1 << 70), st.sampled_from(DENOMINATORS)),
    st.sampled_from(NEAR),
)


@st.composite
def coordinate_values(draw):
    space = ValueSpace.findim(draw(st.integers(1, 4)), draw(st.sampled_from([L1, L2, LINF])))
    values = draw(st.lists(st.lists(coordinates, min_size=space.dim, max_size=space.dim),
                           max_size=8))
    return [VectorValue.coords(space, repeating(draw, v)) for v in values]


@st.composite
def step_values(draw):
    space = ValueSpace.step_linf(3)
    out = []
    for _ in range(draw(st.integers(0, 6))):
        keys = sorted(draw(st.sets(st.integers(1, 7), max_size=4)))
        breaks = [D0] + [Dyadic(k, 3) for k in keys] + [D1]
        levels = draw(st.lists(coordinates, min_size=len(breaks) - 1,
                               max_size=len(breaks) - 1))
        out.append(VectorValue.step(space, breaks, levels))
    return out


# the largest key is 1/9, a perfect square whose upper end is exactly 1/3; a
# smaller key just below 1/9 is not a square, and its upper end is larger
WORKED = [VectorValue.coords(ValueSpace.findim(2, L2), v) for v in
          [(0, 0), (Fraction(1, 3), 0), (Fraction(1, 3) - Fraction(1, 1 << 100),
                                         Fraction(1, 1 << 60))]]


def test_worked_example():
    assert spread(WORKED) == Fraction(3074457345618258603, 1 << 63)
    assert spread(WORKED) > Fraction(1, 3)


def test_spread_refuses_values_from_different_spaces():
    # read with the first value's norm, this pair spreads 2 in l1 and sqrt(2) in l2
    u = VectorValue.coords(ValueSpace.findim(2, L1), [1, 0])
    v = VectorValue.coords(ValueSpace.findim(2, L2), [0, 1])
    for pair in ([u, v], [v, u], [u, u, v]):
        with pytest.raises(SpaceMismatch):
            spread(pair)


@settings(max_examples=400, deadline=None)
@given(st.one_of(coordinate_values(), step_values()))
@example(WORKED)
@example([VectorValue.coords(ValueSpace.findim(2, L1), v) for v in [(1, 0), (0, 1)]])
@example([VectorValue.coords(ValueSpace.findim(1, L2), (Fraction(1, 2),)),
          VectorValue.coords(ValueSpace.findim(1, L2), (Fraction(1, 3),))])
# runs of two cells each: l1 distance 4, l2 distance 2
@example([VectorValue.coords(ValueSpace.findim(4, L1), v) for v in [(0, 0, 1, 1), (1, 1, 0, 0)]])
@example([VectorValue.coords(ValueSpace.findim(4, L2), v) for v in [(0, 0, 1, 1), (1, 1, 0, 0)]])
def test_max_distance_is_the_pairwise_loop(values):
    assert_spread(values)


def test_spread_of_200_means_calls_no_distance(monkeypatch):
    # 200 float-like means in a plane: 19,900 pairs, one square root
    rng = random.Random(20)
    space = ValueSpace.findim(2, L2)
    means = [VectorValue.coords(space, [Fraction(rng.random()) for _ in range(2)])
             for _ in range(200)]
    calls = {"distance": 0, "sqrt": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(integrate, "distance", counted("distance", integrate.distance))
    monkeypatch.setattr(spaces, "distance", counted("distance", spaces.distance))
    monkeypatch.setattr(spaces, "sqrt_enclosure", counted("sqrt", spaces.sqrt_enclosure))
    assert_spread(means)
    assert calls["distance"] == 0 and 1 <= calls["sqrt"] <= 2


GRID = 5
STEP_SPACE = ValueSpace.step_linf(GRID)
levels = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 5, 7, 12, 1 << 10]))


@st.composite
def many_step_values(draw):
    """0-50 step values whose keys are a shared set, a subset or superset of
    it (nested), or a set apart from it (disjoint)."""
    n = 1 << GRID
    shared = draw(st.sets(st.integers(1, n - 1), max_size=8))
    out = []
    for _ in range(draw(st.integers(0, 50))):
        kind = draw(st.sampled_from(["shared", "subset", "superset", "disjoint"]))
        if kind == "shared":
            keys = set(shared)
        elif kind == "subset":
            keys = {k for k in shared if draw(st.booleans())}
        else:
            extra = draw(st.sets(st.integers(1, n - 1), max_size=6)) - shared
            keys = shared | extra if kind == "superset" else extra
        breaks = [D0, *(Dyadic(k, GRID) for k in sorted(keys)), D1]
        out.append(VectorValue.step(STEP_SPACE, breaks, draw(
            st.lists(levels, min_size=len(breaks) - 1, max_size=len(breaks) - 1))))
    return out


def step(keys, levels):
    breaks = [D0, *(Dyadic(k, GRID) for k in keys), D1]
    return VectorValue.step(STEP_SPACE, breaks, [Fraction(x) for x in levels])


@settings(max_examples=150, deadline=None)
@given(many_step_values())
# the widest range is on the last cell
@example([step([8], [0, 0]), step([16], [0, 5]), step([], [Fraction(1, 3)])])
# the range is widest on a cell that starts at a break of one value only
@example([step([4, 12], [1, 0, 1]), step([12], [1, 3])])
def test_step_spread_is_the_pairwise_merge(values):
    assert_spread(values)


@settings(max_examples=100, deadline=None)
@given(many_step_values())
def test_step_distance_is_the_merge(values):
    for u, v in zip(values, values[1:]):
        want = ref.distance(STEP_SPACE, ref.cells(u), ref.cells(v))
        assert (distance(u, v).lo, distance(u, v).hi) == want
        assert (distance(v, u).lo, distance(v, u).hi) == want


@settings(max_examples=150, deadline=None)
@given(st.one_of(coordinate_values(), step_values(), many_step_values()), st.data())
# one long value against one-run and three-run values: every window length
@example([step(range(1, 32), range(32)), step([], [7]), step([5, 9], [1, 40, 2])], None)
def test_squared_distances_to_one_value_are_the_reference(values, data):
    """Each value's squared distance to one of them, whose range extremes
    `squared_distances` tables once in the sup norm."""
    if not values:
        return
    v = values[0] if data is None else data.draw(st.sampled_from(values))
    space = v.space
    want = [ref.squared_distance(space, ref.cells(u), ref.cells(v)) for u in values]
    assert squared_distances(values, v) == want


def test_step_spread_of_200_means_calls_no_distance(monkeypatch):
    rng = random.Random(16)
    space = ValueSpace.step_linf(6)
    means = []
    for _ in range(200):
        keys = sorted(rng.sample(range(1, 64), 20))
        breaks = [D0, *(Dyadic(k, 6) for k in keys), D1]
        means.append(VectorValue.step(space, breaks, [Fraction(rng.randrange(100), 100)
                                                      for _ in range(21)]))
    calls = []
    monkeypatch.setattr(integrate, "distance", lambda u, v: calls.append(1))
    monkeypatch.setattr(spaces, "distance", lambda u, v: calls.append(1))
    assert_spread(means)
    assert not calls

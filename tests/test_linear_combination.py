"""linear_combination and the VectorValue operators against `tests/reference.py`.

The reference holds a value as a tuple of Fractions, one per coordinate or
grid cell, combines values entry by entry, and states the canonical columns
the result must hold.  Step values are drawn on small grids, including
single-cell and all-zero values; coordinate values in findim l1/l2/linf,
seq_l2 and seq_sup spaces of dimension 1-4, with mixed denominators, zeros
and negatives; coefficients include 0, negative numbers and plain ints; term
lists include the empty list and a single term.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import Dyadic
from gaugelab.spaces import ValueSpace, VectorValue, linear_combination
import reference as ref


def assert_same(got, space, xs):
    assert got.space == space
    assert (got.keys, got.nums, got.den) == ref.columns(space, xs)


# -- strategies ------------------------------------------------------------------

COORD_SPACES = ([ValueSpace.findim(d, norm) for d in range(1, 5) for norm in ("l1", "l2", "linf")]
                + [ValueSpace.seq_l2(d) for d in range(1, 5)]
                + [ValueSpace.seq_sup(d) for d in range(1, 5)])
STEP_SPACES = [ValueSpace.step_linf(0), ValueSpace.step_linf(1), ValueSpace.step_linf(4)]
SPACES = COORD_SPACES + STEP_SPACES
# coordinate and step spaces are drawn equally often
SPACE_DRAWS = st.one_of(st.sampled_from(COORD_SPACES), st.sampled_from(STEP_SPACES))
NUMBERS = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
)
LEVELS = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1)])


@st.composite
def values(draw, space):
    if not space.is_step:
        coords = draw(st.lists(st.one_of(LEVELS, NUMBERS), min_size=space.dim,
                               max_size=space.dim))
        return VectorValue.coords(space, coords)
    n = 1 << space.grid_depth
    interior = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6))) if n > 1 else []
    breaks = [Dyadic(k, space.grid_depth) for k in [0] + interior + [n]]
    levels = draw(st.lists(LEVELS, min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return VectorValue.step(space, breaks, levels)


@st.composite
def combinations(draw):
    space = draw(SPACE_DRAWS)
    terms = draw(st.lists(st.tuples(NUMBERS, values(space)), max_size=6))
    return space, terms


@st.composite
def operands(draw):
    space = draw(SPACE_DRAWS)
    return space, draw(values(space)), draw(values(space)), draw(NUMBERS)


# -- tests -----------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(combinations())
def test_linear_combination_matches_merge_fold(case):
    space, terms = case
    want = [(c, ref.cells(v)) for c, v in terms]
    for got in (linear_combination(space, terms), linear_combination(space, iter(terms))):
        assert_same(got, space, ref.combination(space, want))  # one pass suffices
    # cancelling terms leave jumps that sum to zero; no breakpoint may remain there
    assert_same(linear_combination(space, terms + [(-c, v) for c, v in terms[:1]]), space,
                ref.combination(space, want + [(-c, x) for c, x in want[:1]]))
    undo_all = terms + [(-c, v) for c, v in reversed(terms)]
    assert_same(linear_combination(space, undo_all), space, ref.combination(space, []))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_operators_match_merge_oracle(case):
    space, u, v, c = case
    uc, vc = ref.cells(u), ref.cells(v)
    assert_same(u + v, space, ref.combination(space, [(1, uc), (1, vc)]))
    assert_same(u - v, space, ref.combination(space, [(1, uc), (-1, vc)]))
    assert_same(u * c, space, ref.combination(space, [(c, uc)]))
    assert_same(c * u, space, ref.combination(space, [(c, uc)]))
    assert_same(u - u, space, ref.combination(space, []))


def test_empty_and_zero_combinations_are_the_zero_vector():
    for space in SPACES:
        zero = VectorValue.zero(space)
        want = ref.combination(space, [])
        assert_same(zero, space, want)
        assert_same(linear_combination(space, []), space, want)
        assert_same(linear_combination(space, [(0, zero)]), space, want)
        assert_same(linear_combination(space, [(Fraction(5), zero)]), space, want)


@pytest.mark.parametrize("a, b", [
    (ValueSpace.step_linf(4), ValueSpace.step_linf(3)),
    (ValueSpace.findim(2, "l2"), ValueSpace.findim(2, "l1")),
    (ValueSpace.seq_l2(2), ValueSpace.findim(2, "l2")),
    (ValueSpace.seq_sup(2), ValueSpace.step_linf(1)),
])
def test_space_mismatch_raises(a, b):
    u, w = VectorValue.zero(a), VectorValue.zero(b)
    for terms in ([(1, w)], [(1, u), (2, w)], [(0, w)]):
        with pytest.raises(SpaceMismatch):
            linear_combination(a, terms)
    for op in (lambda: u + w, lambda: u - w, lambda: w + u):
        with pytest.raises(SpaceMismatch):
            op()

"""linear_combination and the VectorValue operators against the merge-based
arithmetic they replaced.

The oracle is the pairwise route: `+` walks the common refinement of two step
values and re-canonicalises, `*` rescales every level, and a linear
combination is the left fold of both from the zero vector.  The accumulator
must give structurally equal data, the same canonical breakpoints (as
Dyadics) and the same Fraction levels or coordinates, and the same int
columns.  Step values are drawn on small grids, including single-cell and
all-zero values; coordinate values in findim l1/l2/linf, seq_l2 and seq_sup
spaces of dimension 1-4, with mixed denominators, zeros and negatives;
coefficients include 0, negative numbers and plain ints; term lists include
the empty list and a single term.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugelab.errors import SpaceMismatch
from gaugelab.exact import Dyadic
from gaugelab.spaces import ValueSpace, VectorValue, linear_combination

# -- the merge-based oracle ------------------------------------------------------


def merge_steps(a_breaks, a_levels, b_breaks, b_levels):
    out = []
    ia = ib = 0
    cur = a_breaks[0]
    while cur < a_breaks[-1]:
        hi_a = a_breaks[ia + 1]
        hi_b = b_breaks[ib + 1]
        hi = hi_a if hi_a <= hi_b else hi_b
        out.append((cur, hi, a_levels[ia], b_levels[ib]))
        if hi == hi_a:
            ia += 1
        if hi == hi_b:
            ib += 1
        cur = hi
    return out


def canonical_steps(runs):
    breaks = [runs[0][0]]
    levels = []
    for lo, hi, level in runs:
        if levels and level == levels[-1]:
            breaks[-1] = hi
        else:
            levels.append(level)
            breaks.append(hi)
    return tuple(breaks), tuple(levels)


def oracle_add(u, v):
    if u.space != v.space:
        raise SpaceMismatch(f"{u.space} vs {v.space}")
    if u.space.is_step:
        (ab, al), (bb, bl) = u.data, v.data
        runs = [(lo, hi, la + lb) for lo, hi, la, lb in merge_steps(ab, al, bb, bl)]
        return VectorValue(u.space, canonical_steps(runs))
    return VectorValue(u.space, tuple(a + b for a, b in zip(u.data, v.data)))


def oracle_mul(v, scalar):
    c = Fraction(scalar) if not isinstance(scalar, Fraction) else scalar
    if v.space.is_step:
        breaks, levels = v.data
        runs = list(zip(breaks, breaks[1:], (c * l for l in levels)))
        return VectorValue(v.space, canonical_steps(runs))
    return VectorValue(v.space, tuple(c * x for x in v.data))


def oracle_combination(space, terms):
    acc = VectorValue.zero(space)
    for c, v in terms:
        acc = oracle_add(acc, oracle_mul(v, c))
    return acc


def assert_same(got, want):
    assert got.space == want.space
    # repr tells Fraction from int and Dyadic(num, exp) apart, not just values
    assert repr(got.data) == repr(want.data)
    assert (got.keys, got.nums, got.den) == (want.keys, want.nums, want.den)


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
    want = oracle_combination(space, terms)
    assert_same(linear_combination(space, terms), want)
    assert_same(linear_combination(space, iter(terms)), want)  # one pass suffices
    # cancelling terms leave jumps that sum to zero; no breakpoint may remain there
    undo_first = terms + [(-c, v) for c, v in terms[:1]]
    assert_same(linear_combination(space, undo_first), oracle_combination(space, undo_first))
    undo_all = terms + [(-c, v) for c, v in reversed(terms)]
    assert_same(linear_combination(space, undo_all), VectorValue.zero(space))


@settings(max_examples=300, deadline=None)
@given(operands())
def test_operators_match_merge_oracle(case):
    space, u, v, c = case
    assert_same(u + v, oracle_add(u, v))
    assert_same(u - v, oracle_add(u, oracle_mul(v, -1)))
    assert_same(u * c, oracle_mul(u, c))
    assert_same(c * u, oracle_mul(u, c))
    assert_same(u - u, VectorValue.zero(space))


def test_empty_and_zero_combinations_are_the_zero_vector():
    for space in SPACES:
        zero = VectorValue.zero(space)
        assert_same(linear_combination(space, []), zero)
        assert_same(linear_combination(space, [(0, zero)]), zero)
        assert_same(linear_combination(space, [(Fraction(5), zero)]), zero)


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

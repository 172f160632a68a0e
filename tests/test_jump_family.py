"""The lazy jump-family enumerator and the 3e value build against oracles.

The enumerator oracle is the buffered, budgeted enumerator it replaced,
copied in below: it collected each (variation, start level) block in a list
before yielding it and stopped at a member budget or a check cap.  Its pair
check is the Fraction one the int check replaced, also copied in: support
parts are Fraction pairs, and a sum interval is compared with H's columns as
p * 2^exp against q times an endpoint.  Both enumerators must yield the same
first members, in the same order, after the same number of pair checks.  The 3e oracle scans: the cut set is the Fraction union of the
member breaks, and each cell's coordinates are the members' levels at the
cell midpoint, each found by a linear scan of the member's breaks.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, islice

from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import MonkeyPatch

from gaugelab import gallery
from gaugelab.exact import D0, D1, Dyadic, Interval, Region
from gaugelab.gallery import build_A_family, build_fat_set, example_3e, targeted_member
from gaugelab.stability import FunctionFamily, Member


def _hits_closed(H, lo, hi):
    """Does any H part meet [lo, hi]?"""
    e = H.exp
    idx = bisect_right(H.lo, (hi.numerator << e) // hi.denominator) - 1
    return idx >= 0 and H.hi[idx] * lo.denominator >= lo.numerator << e


def _hits_open(H, lo, hi):
    """Does any H part meet the open interval (lo, hi)?"""
    if lo >= hi:
        return False
    e = H.exp
    idx = bisect_left(H.lo, -((-hi.numerator << e) // hi.denominator)) - 1
    return idx >= 0 and H.hi[idx] * lo.denominator > lo.numerator << e


def oracle_pair_violation(H, parts, new, calls):
    calls[0] += 1
    a, b = new
    if _hits_open(H, 2 * a, 2 * b):
        return True
    for c, d in parts:
        if _hits_closed(H, a + c, b + d):
            return True
    return False


def oracle_enumerate(H, depth, vmax, budget, check_cap=400_000, calls=None):
    """Yield (breaks, levels, variation), breaks as Fractions; calls[0]
    counts the pair checks."""
    calls = [0] if calls is None else calls
    if budget <= 0:
        return
    grid = 1 << depth
    checks = 0
    yielded = 0

    def to_break(g):
        return Fraction(g, grid)

    for const in (0, 1):
        parts = [(Fraction(0), Fraction(1))] if const else []
        if not parts or not oracle_pair_violation(H, [], parts[0], calls):
            yield (Fraction(0), Fraction(1)), (const,), 0
            yielded += 1
            if yielded >= budget:
                return

    for v in range(1, vmax + 1):
        for start in (1, 0):

            def dfs(jumps, completed):
                nonlocal checks, yielded
                if yielded >= budget or checks >= check_cap:
                    return
                used = len(jumps)
                level_after = start ^ (used & 1)
                if used == v:
                    final = list(completed)
                    if level_after == 1:
                        run_lo = to_break(jumps[-1]) if jumps else Fraction(0)
                        new = (run_lo, Fraction(1))
                        checks += 1
                        if oracle_pair_violation(H, final, new, calls):
                            return
                        final.append(new)
                    breaks = (Fraction(0), *map(to_break, jumps), Fraction(1))
                    levels = tuple((start ^ (i & 1)) for i in range(v + 1))
                    yield_list.append((breaks, levels, v))
                    yielded += 1
                    return
                first = (jumps[-1] + 1) if jumps else 1
                for g in range(first, grid - (v - used - 1)):
                    if yielded >= budget or checks >= check_cap:
                        return
                    if level_after == 1:
                        run_lo = to_break(jumps[-1]) if jumps else Fraction(0)
                        new = (run_lo, to_break(g))
                        checks += 1
                        if oracle_pair_violation(H, completed, new, calls):
                            return
                        dfs(jumps + [g], completed + [new])
                    else:
                        dfs(jumps + [g], completed)

            yield_list = []
            dfs([], [])
            for item in yield_list:
                yield item
                if yielded > budget:
                    return
            if yielded >= budget or checks >= check_cap:
                return


def counted(monkeypatch):
    """Count the enumerator's pair checks, the constant-1 check included."""
    calls = [0]
    check = gallery._pair_violation

    def wrapper(*args):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(gallery, "_pair_violation", wrapper)
    return calls


def as_dyadic(members):
    return [(tuple(Dyadic.from_fraction(b) for b in breaks), levels, v)
            for breaks, levels, v in members]


@st.composite
def avoid_regions(draw):
    """A fat-set stage, or a few drawn parts of [0, 2] at a drawn exponent."""
    if draw(st.booleans()):
        L = draw(st.integers(2, 4))
        return build_fat_set(L, draw(st.integers(3, 4))).stage(draw(st.integers(2, L)))
    exp = draw(st.integers(2, 7))
    ends = draw(st.lists(st.tuples(st.integers(0, 2 << exp), st.integers(1, 8)), max_size=6))
    return Region([Interval(Dyadic(a, exp), Dyadic(min(a + w, 2 << exp), exp))
                   for a, w in ends if a < 2 << exp])


# the (depth, cap) pairs cross small grids with caps past their end, where an
# off-by-one at the grid's end shows, and the 3e grid with the default cap
@settings(max_examples=60, deadline=None)
@given(avoid_regions(), st.integers(2, 10), st.integers(1, 4), st.integers(1, 200))
def test_lazy_enumerator_matches_buffered_oracle(H, depth, vmax, cap):
    want_checks = [0]
    want = as_dyadic(oracle_enumerate(H, depth, vmax, cap, calls=want_checks))
    with MonkeyPatch.context() as mp:
        calls = counted(mp)
        got = list(islice(gallery._enumerate_jump_members(H, depth, vmax), cap))
    assert got == want
    assert calls[0] == want_checks[0]


def small_avoid_regions():
    """Every one-part region on the 2^-3 grid of [0, 2], and every two-part
    one on the 2^-2 grid: their ends meet the part sums below in every way."""
    for p in range(16):
        for q in range(p + 1, 17):
            yield Region((Interval(Dyadic(p, 3), Dyadic(q, 3)),))
    for p, q, p2, q2 in combinations(range(9), 4):
        yield Region((Interval(Dyadic(p, 2), Dyadic(q, 2)), Interval(Dyadic(p2, 2), Dyadic(q2, 2))))


def test_int_pair_check_matches_fraction_oracle_on_a_small_grid():
    # support parts on the 2^-2 grid of [0, 1], written at exponent 3 for the
    # int check, each alone and against each possible earlier part
    parts = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    for H in small_avoid_regions():
        lo = [x << (3 - H.exp) for x in H.lo]
        hi = [x << (3 - H.exp) for x in H.hi]
        for a, b in parts:
            new = (Fraction(a, 4), Fraction(b, 4))
            for earlier in [[], *([part] for part in parts)]:
                want = oracle_pair_violation(
                    H, [(Fraction(c, 4), Fraction(d, 4)) for c, d in earlier], new, [0])
                got = gallery._pair_violation(lo, hi, [(2 * c, 2 * d) for c, d in earlier],
                                              (2 * a, 2 * b))
                assert got == want, (H, new, earlier)


@settings(max_examples=30, deadline=None)
@given(avoid_regions(), st.integers(2, 6), st.integers(1, 4), st.integers(1, 60))
def test_check_cap_stops_both_alike(H, depth, vmax, check_cap):
    with MonkeyPatch.context() as mp:
        mp.setattr(gallery, "CHECK_CAP", check_cap)
        want = as_dyadic(oracle_enumerate(H, depth, vmax, 10**9, check_cap=check_cap))
        assert list(gallery._enumerate_jump_members(H, depth, vmax)) == want


def test_family_sweep_matches_oracle():
    for L, r in [(2, 3), (4, 3), (4, 4)]:
        fat = build_fat_set(L, r)
        for depth in (6, 10):
            for cap in (1, 64):
                with MonkeyPatch.context() as mp:
                    calls = counted(mp)
                    fam = build_A_family(fat, L, jump_grid_depth=depth, cap=cap)
                want_checks = [0]
                want = as_dyadic(oracle_enumerate(fat.stage(L), depth, L, cap,
                                                  calls=want_checks))
                assert calls[0] == want_checks[0]
                assert [(m.breaks, m.levels) for m in fam.members] == \
                    [(b, tuple(map(Fraction, lv))) for b, lv, _ in want]
                assert fam.metadata["variations"] == [v for _, _, v in want]


# -- the 3e value build ---------------------------------------------------------


def scan_level(member, t):
    cell = 0
    for i, b in enumerate(member.breaks[1:-1], start=1):
        if b.as_fraction() <= t:
            cell = i
    return member.levels[cell]


def oracle_3e(members):
    cuts = sorted({Fraction(0), Fraction(1)}
                  | {b.as_fraction() for m in members for b in m.breaks})
    values = [tuple(scan_level(m, (lo + hi) / 2) for m in members)
              for lo, hi in zip(cuts, cuts[1:])]
    return [Dyadic.from_fraction(c) for c in cuts], values


@st.composite
def fine_members(draw):
    """A step member with breaks at exponents up to 48 and drawn levels."""
    points = draw(st.sets(st.tuples(st.integers(1, 48), st.integers(1, 2**48 - 1)),
                          max_size=10))
    inner = sorted({Dyadic(k % (1 << e) or 1, e) for e, k in points},
                   key=Dyadic.as_fraction)
    breaks = (D0, *inner, D1)
    levels = draw(st.lists(st.fractions(-3, 3, max_denominator=5),
                           min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    return Member("fine", breaks, tuple(levels))


FAT = build_fat_set(4, 3)
JUMPS = build_A_family(FAT, 4, cap=16)


@settings(max_examples=60, deadline=None)
@given(fine_members(), st.integers(1, 16))
def test_example_3e_matches_midpoint_scan(first, R):
    members = [first, *JUMPS.members[:R - 1]]
    phi = example_3e(FunctionFamily("piecewise-step", members), R)
    cuts, values = oracle_3e(members)
    assert list(phi.breaks) == cuts
    assert [v.data for v in phi.values] == values


def test_example_3e_with_a_targeted_member_at_exponent_48():
    # tags 2^-46 apart give the neighborhoods a radius of 2^-48
    tags = [Dyadic(5, 4), Dyadic(5 * (1 << 42) + 1, 46)]
    far = Region((Interval(Dyadic(15, 3), Dyadic(2)),))
    breaks, levels = targeted_member(far, tags)
    assert max(b.exp for b in breaks) == 48
    members = [Member("targeted[T]", breaks, levels), *JUMPS.members[:7]]
    phi = example_3e(FunctionFamily("piecewise-step", members), 8)
    cuts, values = oracle_3e(members)
    assert list(phi.breaks) == cuts
    assert [v.data for v in phi.values] == values


def test_targeted_member_past_exponent_48_keeps_its_breaks_sorted():
    # tags 2^-48 apart need a radius of 2^-50: a radius capped at 2^-48 made
    # the two neighborhoods overlap and the breaks decrease
    tags = [Dyadic(5, 4), Dyadic(5 * (1 << 44) + 1, 48)]
    far = Region((Interval(Dyadic(15, 3), Dyadic(2)),))
    breaks, levels = targeted_member(far, tags)
    assert all(a < b for a, b in zip(breaks, breaks[1:]))
    assert breaks == (D0, Dyadic(5 * (1 << 46) - 1, 50), Dyadic(5 * (1 << 46) + 1, 50),
                      Dyadic(5 * (1 << 46) + 3, 50), Dyadic(5 * (1 << 46) + 5, 50), D1)
    assert levels == (0, 1, 0, 1, 0)
    member = Member("targeted[T]", breaks, levels)
    for t in tags:
        assert scan_level(member, t.as_fraction()) == 1
    members = [member, *JUMPS.members[:3]]
    phi = example_3e(FunctionFamily("piecewise-step", members), 4)
    cuts, values = oracle_3e(members)
    assert list(phi.breaks) == cuts
    assert [v.data for v in phi.values] == values

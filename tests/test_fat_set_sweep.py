"""The int-column fat set and its invariant sweep against oracles.

The oracles are the Dyadic versions they replaced, copied in below: the fat
set placed one Interval per cell from its center and half-length (worked out
here in Fractions) and
normalized the growing list with Region(...) at every stage; the invariant
intersected H with each scale-r cell through region_intersect.  Stages,
diagnostics and the first violating cell must all be equal.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugelab.cli import main
from gaugelab.exact import D0, Dyadic, Interval, Region, region_intersect
from gaugelab.gallery import MAX_FAT_SCALE, build_fat_set, check_fat_invariant


def oracle_stages(L, r):
    stages = [Region.empty()]
    acc = []
    for s in range(1, L + 1):
        cell_exp = r + s - 1
        half = Fraction(1, 1 << (r + 3 + s))  # half of the placed length 2^-(r+2+s)
        for c in range(2 << cell_exp):
            center = Fraction(2 * c + 1, 2 << cell_exp)
            acc.append(Interval.make(center - half, center + half))
        stages.append(Region(acc))
    return stages


def oracle_check_fat_invariant(H, r):
    for j in range(2 << r):
        cell = Interval(Dyadic(j, r), Dyadic(j + 1, r))
        mu = region_intersect(H, Region((cell,))).measure()
        if not (D0 < mu < Fraction(1, 1 << r)):
            return {"cell": [str(cell.lo), str(cell.hi)], "mass": str(mu)}
    return None


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("L", range(1, 7))
def test_fat_set_matches_dyadic_oracle(L, r):
    fat = build_fat_set(L, r)
    want = oracle_stages(L, r)
    assert fat.stages == want
    assert fat.diagnostics == {"L": L, "r": r, "measure": str(want[-1].measure()),
                               "parts": len(want[-1].parts)}
    for stage in fat.stages[1:]:
        assert check_fat_invariant(stage, r) == oracle_check_fat_invariant(stage, r)


@st.composite
def loose_regions(draw):
    """Parts at drawn exponents, some degenerate, some outside [0, 2]."""
    parts = []
    for e, a, w in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(-600, 1600),
                                           st.sampled_from([0, 0, 1, 2, 5, 64, 700])),
                                 max_size=12)):
        a = a % (4 << e) - (1 << e)
        parts.append(Interval(Dyadic(a, e), Dyadic(a + w, e)))
    return Region(parts)


@st.composite
def near_fat_regions(draw, r):
    """One drawn sub-interval (possibly empty, full or a point) in most
    scale-r cells, so the first violation, if any, sits deep in the sweep."""
    w = draw(st.integers(0, 4))
    parts = []
    for j in range(2 << r):
        x = draw(st.integers(0, 1 << w))
        y = draw(st.integers(x, 1 << w))
        if draw(st.integers(0, 19)):
            parts.append(Interval(Dyadic((j << w) + x, r + w), Dyadic((j << w) + y, r + w)))
    return Region(parts)


@settings(max_examples=150, deadline=None)
@given(loose_regions(), st.integers(2, 5))
@example(Region.make((0, 2)), 2)  # the first cell is full: its mass is reported
def test_invariant_sweep_matches_oracle_on_loose_regions(H, r):
    assert check_fat_invariant(H, r) == oracle_check_fat_invariant(H, r)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(2, 4))
def test_invariant_sweep_matches_oracle_near_fat_regions(data, r):
    H = data.draw(near_fat_regions(r))
    assert check_fat_invariant(H, r) == oracle_check_fat_invariant(H, r)


def test_fat_set_refuses_a_scale_past_the_bound():
    with pytest.raises(ValueError, match=r"L=30, r=3"):
        build_fat_set(30, 3)
    with pytest.raises(ValueError, match=r"L=4, r=30"):
        build_fat_set(4, 30)
    with pytest.raises(ValueError):
        build_fat_set(MAX_FAT_SCALE - 2, 3)  # r + L one past the bound


@pytest.mark.parametrize("flag", ["--L", "--r"])
def test_gallery_3e_past_the_bound_exits_2_at_once(flag, tmp_path, capsys):
    start = time.perf_counter()
    code = main(["gallery", "3e", flag, "30", "--deterministic",
                 "--out", str(tmp_path / "r.json")])
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "L=" in err[0] and "r=" in err[0]

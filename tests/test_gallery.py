"""Gallery tests: fat sets, tag searches, jump families, and the three
constructed integrands, verified against independent exact checks."""

import hashlib
from fractions import Fraction

import pytest

from gaugelab.cli import main

from gaugelab.errors import ResolutionExceeded, SearchExhausted
from gaugelab.exact import (D0, D1, Dyadic, Interval, Region, UNIT_REGION,
                            region_intersect, region_subtract)
from gaugelab.gallery import (build_A_family, build_fat_set, check_fat_invariant,
                              example_3e, example_3f, example_3g, harmonic_half,
                              inductive_tag_sequences, oscillation_witness_3e,
                              targeted_member, truncation_cover,
                              truncation_sequence)
from gaugelab.gauges import Gauge, is_partition, is_subordinate
from gaugelab.integrands import exact_vector_integral
from gaugelab.integrate import (NotApproximable, bochner_integrate,
                                default_functionals, lower_norm_integral,
                                riemann_sum, sample_regions, vitali_limit)
from gaugelab.spaces import distance
from gaugelab.stability import FunctionFamily


TWO = Dyadic(2, 0)


def level_at(member, t):
    """A member's level at t by linear scan: half-open cells, the last closed."""
    cell = 0
    for i, b in enumerate(member.breaks[1:-1], start=1):
        if b.as_fraction() <= t:
            cell = i
    return member.levels[cell]


def support_parts(member):
    bs = [b.as_fraction() for b in member.breaks]
    return [(lo, hi) for lo, hi, lev in zip(bs, bs[1:], member.levels) if lev == 1]


def violates_pair_rule(member, H):
    """Independent re-check: some s < t in the support with s + t in H.
    Distinct parts: the closed sum interval may not even touch a part of H.
    A part against itself: the open doubled interval may not overlap H."""
    parts = support_parts(member)
    for i, (a, b) in enumerate(parts):
        for h in H.parts:
            hlo, hhi = h.lo.as_fraction(), h.hi.as_fraction()
            if hlo < 2 * b and hhi > 2 * a:
                return True
        for c, d in parts[i + 1:]:
            for h in H.parts:
                hlo, hhi = h.lo.as_fraction(), h.hi.as_fraction()
                if hlo <= b + d and hhi >= a + c:
                    return True
    return False


# -- fat sets ------------------------------------------------------------------


def test_fat_set_single_stage_measure():
    fat = build_fat_set(1, 2)
    assert fat.top.measure().as_fraction() == Fraction(1, 4)
    assert fat.levels == 1
    assert fat.stages[0].is_empty()


def test_fat_set_stages_increase_and_hold_stationary():
    fat = build_fat_set(3, 3)
    for lo, hi in zip(fat.stages, fat.stages[1:]):
        assert region_subtract(lo, hi).measure() == D0  # lo inside hi
        assert hi.measure() > lo.measure()
    assert fat.stage(3) is fat.stage(99)


def test_fat_set_invariant_holds_and_checker_flags():
    fat = build_fat_set(4, 3)
    assert check_fat_invariant(fat.top, 3) is None
    full = Region((Interval(D0, TWO),))
    assert check_fat_invariant(full, 2) is not None
    sliver = Region((Interval(Dyadic(1, 4), Dyadic(1, 3)),))
    assert check_fat_invariant(sliver, 2) is not None  # most cells empty


def test_fat_set_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_fat_set(0, 3)
    with pytest.raises(ValueError):
        build_fat_set(2, 1)


# -- tag searches ---------------------------------------------------------------


def cell_windows(k_exp, count):
    return [Region((Interval(Dyadic(c, k_exp), Dyadic(c + 1, k_exp)),))
            for c in range(count)]


def test_sums_in_postcondition():
    fat = build_fat_set(4, 3)
    wins = cell_windows(3, 8)
    tags = inductive_tag_sequences(fat.top, wins, "sums-in", seed=2)
    assert len(tags) == 8
    for t, w in zip(tags, wins):
        assert w.contains(t.as_fraction())
    for i in range(8):
        for j in range(i + 1, 8):
            assert fat.top.contains(tags[i].as_fraction() + tags[j].as_fraction())


def test_sums_out_postcondition_includes_doubles():
    fat = build_fat_set(4, 3)
    wins = cell_windows(3, 8)
    tags = inductive_tag_sequences(fat.top, wins, "sums-out", seed=2)
    for i in range(8):
        for j in range(i, 8):
            s = tags[i].as_fraction() + tags[j].as_fraction()
            assert not fat.top.contains(s)
            assert fat.top.distance_to_point(s) > 0


def test_tag_search_is_seed_deterministic():
    fat = build_fat_set(4, 3)
    wins = cell_windows(3, 8)
    a = inductive_tag_sequences(fat.top, wins, "sums-in", seed=7)
    b = inductive_tag_sequences(fat.top, wins, "sums-in", seed=7)
    assert a == b


def test_single_window_needs_no_pairs():
    fat = build_fat_set(2, 3)
    tags = inductive_tag_sequences(fat.top, cell_windows(3, 1), "sums-in", seed=0)
    assert len(tags) == 1
    assert Fraction(0) < tags[0].as_fraction() < Fraction(1, 8)


def test_sums_out_exhausts_against_full_interval():
    full = Region((Interval(D0, TWO),))
    wins = cell_windows(3, 4)
    with pytest.raises(SearchExhausted) as exc:
        inductive_tag_sequences(full, wins, "sums-out", seed=3, max_attempts=6)
    assert exc.value.index == 0
    assert exc.value.trace


def test_tag_search_rejects_junk():
    fat = build_fat_set(2, 3)
    with pytest.raises(ValueError):
        inductive_tag_sequences(fat.top, cell_windows(3, 2), "sums-sideways")
    with pytest.raises(ValueError):
        inductive_tag_sequences(fat.top, [Region.empty()], "sums-in")


# -- jump families ---------------------------------------------------------------


def test_family_contains_zero_not_one():
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=32)
    first = fam.members[0]
    assert set(first.levels) == {Fraction(0)}
    for m in fam.members:
        assert set(m.levels) != {Fraction(1)}


def test_family_members_pass_independent_pair_check():
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=48)
    assert len(fam) == 48
    H = fat.stage(4)
    for m in fam.members:
        assert not violates_pair_rule(m, H)


def test_family_canonical_order_by_variation():
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 3, cap=40)
    vs = fam.metadata["variations"]
    assert vs == sorted(vs)
    assert all(v <= 3 for v in vs)


def test_targeted_member_built_and_infeasible():
    fat = build_fat_set(4, 3)
    wins = cell_windows(3, 8)
    T = inductive_tag_sequences(fat.top, wins, "sums-out", seed=5)
    tm = targeted_member(fat.top, T)
    assert tm is not None
    (member,) = FunctionFamily.from_steps([tm]).members
    assert not violates_pair_rule(member, fat.top)
    for t in T:
        assert level_at(member, t.as_fraction()) == 1
    # 1/32 + 1/32 = 1/16 is a first-stage interval center, inside H
    assert targeted_member(fat.top, [Dyadic(1, 5), Dyadic(21, 5)]) is None


def test_example_3e_coordinates_are_members():
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=8)
    phi = example_3e(fam, 8)
    assert phi.space.dim == 8
    for t in (Fraction(1, 3), Fraction(1, 64), Fraction(799, 1024)):
        got = phi.eval(t).data
        want = tuple(level_at(m, t) for m in fam.members)
        assert got == want
    with pytest.raises(ValueError):
        example_3e(fam, 9)


# -- the oscillation witness -----------------------------------------------------


def test_witness_const_gauge_end_to_end():
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=64)
    w = oscillation_witness_3e(fat, fam, 64, Gauge.const(Fraction(1, 5)), seed=11)
    assert w["k"] == 8 and w["m"] == 8
    assert w["bound"] == Fraction(7, 8)
    p1, p2 = w["partitions"]
    delta = Gauge.const(Fraction(1, 5))
    for p in (p1, p2):
        assert is_partition(p)
        assert is_subordinate(p, delta)
    phi = w["integrand"]
    gap = distance(riemann_sum(phi, p1), riemann_sum(phi, p2))
    assert gap.lo == w["gap"]
    assert w["gap"] >= w["bound"]
    assert w["coordinate_gap"] == Fraction(w["m"] - w["u_hits_on_targeted"], w["k"])


def test_witness_piecewise_gauge_drops_starved_cells():
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=32)
    delta = Gauge.piecewise((D0, Dyadic(7, 3), D1), (Fraction(1, 5), Fraction(1, 100)))
    w = oscillation_witness_3e(fat, fam, 32, delta, seed=4)
    assert w["k"] == 8 and w["m"] == 7
    assert w["bound"] == Fraction(6, 8)
    assert w["gap"] >= w["bound"]
    for p in w["partitions"]:
        assert is_partition(p) and is_subordinate(p, delta)


def test_witness_filler_before_the_cells():
    # the level set is [1/8, 1], so the one filler gap [0, 1/8] sorts before
    # every tagged cell; both partitions must still share that completion
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=64)
    delta = Gauge.piecewise((D0, Dyadic(1, 3), D1), (Fraction(1, 100), Fraction(1, 2)))
    w = oscillation_witness_3e(fat, fam, 64, delta, seed=1)
    assert w["k"] == 8 and w["m"] == 7
    assert w["gap"] >= w["bound"] == Fraction(6, 8)
    p1, p2 = w["partitions"]
    for p in (p1, p2):
        assert is_partition(p) and is_subordinate(p, delta)
    cells = {Interval(Dyadic.parse(lo), Dyadic.parse(hi)) for lo, hi in w["cells"]}
    fillers = [[it for it in p.items if it.interval not in cells] for p in (p1, p2)]
    assert fillers[0] == fillers[1] and fillers[0]
    assert all(it.interval.hi <= Dyadic(1, 3) for it in fillers[0])


def test_witness_proximity_gauge_with_a_breakpoint_past_one():
    # the ball about 3/2 misses [0, 1]: the level sets are [0, 1] less the
    # ball about 1/4, and k = 16 is the first whose set has measure >= 4/5
    fat = build_fat_set(4, 3)
    fam = build_A_family(fat, 4, cap=16)
    delta = Gauge.proximity(2, [1, 6], Fraction(1, 4), Fraction(1, 32))
    w = oscillation_witness_3e(fat, fam, 16, delta, seed=5)
    assert w["k"] == 16 and w["mu_level_set"] == Fraction(7, 8)
    assert w["proxy"] is False
    assert w["gap"] >= w["bound"]
    for p in w["partitions"]:
        assert is_partition(p) and is_subordinate(p, delta)


def test_witness_piecewise_gauge_report_digest(tmp_path):
    # the CLI's non-const witness: its level sets come from a piecewise gauge
    out = tmp_path / "r.json"
    code = main(["gallery", "3e", "--L", "4", "--R", "64", "--gauge",
                 "piecewise:0,1/2,1;1/4,1/8", "--seed", "11", "--deterministic",
                 "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "01addff7d191a200560c8a2894740b494475b6bfe4dc125fd6a6f5771838d280")


def test_witness_needs_resolution():
    fat = build_fat_set(2, 3)
    fam = build_A_family(fat, 2, cap=8)
    with pytest.raises(ResolutionExceeded):
        oscillation_witness_3e(fat, fam, 8, Gauge.const(Fraction(1, 10000)),
                               seed=0, proxy_depth=6)


# -- indicator ramp ---------------------------------------------------------------


def test_indicator_ramp_matches_integral_oracle():
    out = example_3f(5)
    phi, ramp = out["integrand"], out["exact_integral"]
    assert exact_vector_integral(phi) == ramp


def test_indicator_ramp_values_pairwise_separated():
    phi = example_3f(4)["integrand"]
    pts = [Fraction(1, 32), Fraction(9, 16), Fraction(31, 32), Fraction(3, 16)]
    for i, s in enumerate(pts):
        for t in pts[i + 1:]:
            assert distance(phi.eval(s), phi.eval(t)).lo == 1


def test_indicator_ramp_defeats_piece_budget():
    phi = example_3f(12)["integrand"]
    out = bochner_integrate(phi, Fraction(1, 100), max_pieces=64)
    assert isinstance(out, NotApproximable)
    assert out.lower_bound == Fraction(63, 128)


# -- harmonic blocks ---------------------------------------------------------------


def test_harmonic_blocks_integral_coordinates():
    out = example_3g(8)
    phi, integral = out["integrand"], out["exact_integral"]
    assert list(integral.data) == [Fraction(1, 2 * (n + 1)) for n in range(8)]
    assert phi.eval(Fraction(3, 4)).data[0] == 1
    assert phi.eval(Fraction(1, 512)).data == tuple([Fraction(0)] * 8)


def test_harmonic_blocks_lower_norm_is_harmonic_sum():
    phi = example_3g(8)["integrand"]
    assert lower_norm_integral(phi, grid_depth=8) == harmonic_half(8)
    assert lower_norm_integral(phi, grid_depth=3) <= harmonic_half(8)


def test_harmonic_half_crosses_two():
    assert harmonic_half(30) < 2 < harmonic_half(31)
    assert harmonic_half(55) > Fraction(229, 100)


# -- truncations ---------------------------------------------------------------


def test_truncation_cover_unions_to_unit():
    cov = truncation_cover(6)
    total = Region(part for r in cov for part in r.parts)
    assert total.measure().as_fraction() == 1
    assert region_subtract(UNIT_REGION, total).is_empty()


def test_truncation_sequence_restricts_then_saturates():
    out = example_3g(6)
    phi = out["integrand"]
    seq = truncation_sequence(phi, truncation_cover(6))
    early = seq(0)
    assert early.eval(Fraction(3, 4)) == phi.eval(Fraction(3, 4))
    assert early.eval(Fraction(1, 3)).data == tuple([Fraction(0)] * 6)
    late = seq(12)
    assert exact_vector_integral(late) == out["exact_integral"]
    with pytest.raises(ValueError):
        truncation_sequence(phi, truncation_cover(6)[:-1])


def test_truncations_pass_vitali():
    out = example_3g(6)
    phi = out["integrand"]
    seq = truncation_sequence(phi, truncation_cover(6))
    fs = default_functionals(phi.space, 6)
    regions = sample_regions(4, seed=1)
    verdict = vitali_limit(seq, phi, fs, regions, tol=Fraction(1, 1 << 10), n_max=10)
    assert verdict["pass"] is True

"""The sampled strategy's draw, memoized per (seed, node as written).

`gauges._sampled_tag` is a pure function of its arguments, under an
`lru_cache`.  With the memo warm, each draw must still be its own node's
draw as `tests/reference.py` defines it: nodes that share canonical
numerators but not exponents, and one node under two seeds, must not be
served each other's draws.  And a pool of regions integrated as `abscont`
does, under one seed, must give the same partitions whether the memo is
cleared before each region or kept warm across them.
"""

from fractions import Fraction

from gaugelab.exact import Dyadic, Interval
from gaugelab.gauges import _sampled_tag, cousin_partition
from gaugelab.integrands import adapted_gauge, identity_integrand, restrict_integrand
from gaugelab.integrate import sample_regions
from reference import sampled_tag


def test_memo_is_bounded():
    assert _sampled_tag.cache_info().maxsize == 4096


def test_warm_draws_are_each_keys_own_draw():
    # [1/8, 3/8] and [1/32, 3/32] share the canonical numerators 1 and 3;
    # [1/8, 3/8] is drawn again under a second seed
    nodes = [(7, 1, 3, 3), (7, 1, 3, 5), (8, 1, 3, 3), (7, 4, 12, 5)]
    want = [sampled_tag(s, Interval(Dyadic(lo, e), Dyadic(hi, e))) for s, lo, hi, e in nodes]
    _sampled_tag.cache_clear()
    for _ in range(2):
        assert [_sampled_tag(*node) for node in nodes] == want
    # [4/32, 12/32] is [1/8, 3/8] written at a finer exponent: an entry of its own
    info = _sampled_tag.cache_info()
    assert (info.misses, info.hits) == (4, 4)


def _pool_columns(pool, cold):
    phi = identity_integrand()
    out = []
    for region in pool:
        if cold:
            _sampled_tag.cache_clear()
        psi = restrict_integrand(phi, region)
        for level in range(2, 6):
            p = cousin_partition(adapted_gauge(psi, level), tag_strategy="sampled", seed=3)
            out.append((p.exp, tuple(p.lo), tuple(p.hi), tuple(p.tag)))
    return out


def test_pool_partitions_do_not_depend_on_the_memo():
    etas = [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)]
    pool = [r for i, eta in enumerate(etas) for r in sample_regions(4, 31 * i, max_measure=eta)]
    cold = _pool_columns(pool, cold=True)
    _sampled_tag.cache_clear()
    warm = _pool_columns(pool, cold=False)
    assert _sampled_tag.cache_info().hits > 0
    assert warm == cold

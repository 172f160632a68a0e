"""The sampled strategy's draw, memoized per (seed, node).

`gauges._draw` is a pure function of the seed and the node's canonical
endpoints, under an `lru_cache`.  With the memo warm, each draw must still
be the `random.Random(key).randint` draw for its own key: nodes that share
canonical numerators but not exponents, and one node under two seeds, must
not be served each other's draws.  And a pool of regions integrated as
`abscont` does, under one seed, must give the same partitions whether the
memo is cleared before each region or kept warm across them.
"""

import random
from fractions import Fraction

from gaugelab.exact import Dyadic
from gaugelab.gauges import _draw, _sampled_tag, cousin_partition
from gaugelab.integrands import adapted_gauge, identity_integrand, restrict_integrand
from gaugelab.integrate import sample_regions


def oracle_tag(seed, lo, hi, e):
    a, b, w = Dyadic(lo, e), Dyadic(hi, e), Dyadic(hi - lo, e)
    te = max(a.exp, b.exp, w.exp) + 10
    lo_t, hi_t = a.num << (te - a.exp), b.num << (te - b.exp)
    t = random.Random(f"{seed}|{a}|{b}").randint(lo_t + 1, hi_t - 1)
    return t, max(t - lo_t, hi_t - t), te


def test_memo_is_bounded():
    assert _draw.cache_info().maxsize == 4096


def test_warm_draws_are_each_keys_own_draw():
    # [1/8, 3/8] and [1/32, 3/32] share the canonical numerators 1 and 3;
    # [1/8, 3/8] is drawn again under a second seed
    nodes = [(7, 1, 3, 3), (7, 1, 3, 5), (8, 1, 3, 3), (7, 4, 12, 5)]
    _draw.cache_clear()
    for _ in range(2):
        for node in nodes:
            assert _sampled_tag(*node) == oracle_tag(*node)
    # [4/32, 12/32] is [1/8, 3/8] written at a finer exponent: one draw
    info = _draw.cache_info()
    assert (info.misses, info.hits) == (3, 5)


def _pool_columns(pool, cold):
    phi = identity_integrand()
    out = []
    for region in pool:
        if cold:
            _draw.cache_clear()
        psi = restrict_integrand(phi, region)
        for level in range(2, 6):
            p = cousin_partition(adapted_gauge(psi, level), tag_strategy="sampled", seed=3)
            out.append((p.exp, tuple(p.lo), tuple(p.hi), tuple(p.tag)))
    return out


def test_pool_partitions_do_not_depend_on_the_memo():
    etas = [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)]
    pool = [r for i, eta in enumerate(etas) for r in sample_regions(4, 31 * i, max_measure=eta)]
    cold = _pool_columns(pool, cold=True)
    _draw.cache_clear()
    warm = _pool_columns(pool, cold=False)
    assert _draw.cache_info().hits > 0
    assert warm == cold

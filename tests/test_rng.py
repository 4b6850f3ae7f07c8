import math

import pytest

from treeperc.errors import ParameterError
from treeperc.rng import EdgeOracle, _binomial_cdf, derive_trial_seed
from treeperc.tree import TreeParams

TP = TreeParams(2, 2)


def test_binomial_cdf_exact():
    cdf = _binomial_cdf(2, 0.5)
    assert cdf == pytest.approx([0.25, 0.75, 1.0], abs=1e-15)
    assert _binomial_cdf(3, 0.0) == [1.0, 1.0, 1.0, 1.0]
    assert _binomial_cdf(3, 1.0)[:3] == [0.0, 0.0, 0.0]


def test_trial_seeds_distinct():
    seeds = {derive_trial_seed(123, t) for t in range(1000)}
    assert len(seeds) == 1000


def test_probability_validation():
    with pytest.raises(ParameterError):
        EdgeOracle(TP, -0.1, 0.5, 1)


def test_memoized_and_order_independent():
    a = EdgeOracle(TP, 0.4, 0.3, 99)
    b = EdgeOracle(TP, 0.4, 0.3, 99)
    verts = [(), (1,), (2, 2), (1, 2, 1)]
    # query in opposite orders
    fwd = [(a.open_short_children(v), a.open_long_children(v)) for v in verts]
    rev = [(b.open_long_children(v), b.open_short_children(v)) for v in reversed(verts)]
    rev = [(s, l) for l, s in reversed(rev)]
    assert fwd == rev
    assert a.open_short_children(()) is a.open_short_children(())


def test_oracles_share_tables():
    # the CDF tables and selectors depend on (d, k, p, q) alone: every trial's
    # oracle reads one build of them
    a = EdgeOracle(TreeParams(3, 2), 0.2, 0.05, 1, trial=1)
    b = EdgeOracle(TreeParams(3, 2), 0.2, 0.05, 2, trial=7)
    assert a._short_cdf is b._short_cdf
    assert a._long_cdf is b._long_cdf
    assert a._selectors is b._selectors
    assert list(a._long_cdf) == _binomial_cdf(9, 0.05)
    assert len(a._selectors) == 9
    assert EdgeOracle(TreeParams(3, 2), 0.2, 0.06, 1)._long_cdf is not a._long_cdf


def test_trials_differ_and_seeds_differ():
    base = EdgeOracle(TP, 0.5, 0.5, 7, trial=0)
    samples = {
        (EdgeOracle(TP, 0.5, 0.5, 7, trial=t).open_short_children(()),
         EdgeOracle(TP, 0.5, 0.5, 7, trial=t).open_long_children(()))
        for t in range(64)
    }
    assert len(samples) > 1
    assert base.open_short_children(()) == EdgeOracle(TP, 0.5, 0.5, 7).open_short_children(())


def test_membership_wrappers():
    o = EdgeOracle(TP, 1.0, 1.0, 5)
    assert o.open_short_children(()) == (1, 2)
    assert (2, 2) in o.open_long_children((1,))
    closed = EdgeOracle(TP, 0.0, 0.0, 5)
    assert closed.open_short_children(()) == ()
    assert closed.open_long_children(()) == ()


def test_edge_marginals_match_product_law():
    # each short edge open w.p. p, each long edge w.p. q, independently
    p, q = 0.35, 0.15
    n = 20000
    short_counts = [0, 0]
    long_counts = [0] * 4
    pair_count = 0
    for t in range(n):
        o = EdgeOracle(TP, p, q, 2024, trial=t)
        s = o.open_short_children((1,))
        l = o.open_long_children((1,))
        for j in s:
            short_counts[j - 1] += 1
        for sel in l:
            long_counts[(sel[0] - 1) * 2 + sel[1] - 1] += 1
        if 1 in s and 2 in s:
            pair_count += 1
    for c in short_counts:
        assert abs(c / n - p) < 4 * math.sqrt(p * (1 - p) / n)
    for c in long_counts:
        assert abs(c / n - q) < 4 * math.sqrt(q * (1 - q) / n)
    # independence of the two short edges
    assert abs(pair_count / n - p * p) < 4 * math.sqrt(p * p * (1 - p * p) / n)

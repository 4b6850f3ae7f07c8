import math
import random

import numpy as np
import pytest
from scipy.stats import binom, chi2, norm

from treeperc import rng
from treeperc.coupling import HatConfig
from treeperc.errors import ParameterError
from treeperc.rng import EdgeOracle, _binomial_cdf, derive_trial_seed
from treeperc.tree import TreeParams, long_selector

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
    verts = [b"", b"\x01", b"\x02\x02", b"\x01\x02\x01"]
    # query in opposite orders
    fwd = [(a.open_short_children(v), a.open_long_children(v)) for v in verts]
    rev = [(b.open_long_children(v), b.open_short_children(v)) for v in reversed(verts)]
    rev = [(s, l) for l, s in reversed(rev)]
    assert fwd == rev
    assert a.open_short_children(b"") is a.open_short_children(b"")


def test_oracles_share_tables():
    # the CDF tables and selectors depend on (d, k, p, q) alone: every trial's
    # oracle reads one build of them
    a = EdgeOracle(TreeParams(3, 2), 0.2, 0.05, 1, trial=1)
    b = EdgeOracle(TreeParams(3, 2), 0.2, 0.05, 2, trial=7)
    assert a._short is b._short
    assert a._long is b._long
    assert list(a._long[0]) == _binomial_cdf(9, 0.05)
    assert len(a._long[1]) == 9
    assert EdgeOracle(TreeParams(3, 2), 0.2, 0.06, 1)._long is not a._long


def test_cover_configs_share_tables():
    # the cover draws on the oracle's CDFs, with int digits 1..d and
    # d+1..d+d^k in place of the digit bytes and selectors, one build per
    # (d, k, p, q)
    tp = TreeParams(3, 2)
    a = HatConfig.random(tp, 0.2, 0.05, 1, trial=1)
    b = HatConfig.random(tp, 0.2, 0.05, 2, trial=7)
    assert a._short is b._short
    assert a._long is b._long
    oracle = EdgeOracle(tp, 0.2, 0.05, 3)
    assert a._short[0] is oracle._short[0]
    assert a._short[1] == (1, 2, 3)
    assert a._long[0] is oracle._long[0]
    assert a._long[1] == tuple(range(4, 13))
    assert HatConfig.random(tp, 0.2, 0.06, 1)._long is not a._long


def _count_blocks(monkeypatch) -> list:
    """The counter of every stream block hashed from here on."""
    calls = []
    block = rng._block

    def counting(keyed, data, b):
        calls.append(b)
        return block(keyed, data, b)

    monkeypatch.setattr(rng, "_block", counting)
    return calls


def test_one_block_per_vertex_for_both_kinds(monkeypatch):
    # at (2,2) at most 2 + 4 edges are open, so both kinds of a vertex come
    # from one block, hashed at the first query of either
    calls = _count_blocks(monkeypatch)
    for trial in range(200):
        oracle = EdgeOracle(TP, 0.5, 0.5, 11, trial)
        for v in (b"\x01", b"\x02\x01"):
            oracle.open_long_children(v)
            oracle.open_short_children(v)
            oracle.open_long_children(v)
    assert calls == [0] * 400


@pytest.mark.parametrize("n", [2, 8, 16, 361])
def test_one_edge_pick_is_the_shuffle_first_step(n):
    # one open edge of a kind is picked by the index of the shuffle's first
    # step alone: the same entry as the shuffle's, for random words at every
    # offset and for the words at the ends of each index's range
    table = tuple(range(1000, 1000 + n))
    gen = random.Random(n)
    words = [gen.getrandbits(64) for _ in range(20000)]
    words += [0, 2**64 - 1] + [(i * 2**64) // n + e for i in range(1, n) for e in (-1, 0)]
    words += [0] * (-len(words) % 8)
    for start in range(0, len(words), 8):
        block = tuple(words[start : start + 8])
        for at in range(8):
            assert rng._pick(table, 1, block, at) == rng._subset(table, 1, block, at)
    assert rng._pick(table, 0, block, 0) == rng._subset(table, 0, block, 0) == ()


def test_cover_tail_blocks_grow_with_open_digits(monkeypatch):
    # (19,2): 380 cover digits, one block while at most 6 are open and one
    # more per 8 words beyond; one uniform per digit would hash 48 blocks
    tp = TreeParams(19, 2)
    calls = _count_blocks(monkeypatch)
    few = set()
    for trial in range(300):
        before = len(calls)
        m = len(HatConfig.random(tp, 0.1, 0.015, 12, trial).open_digits((3,)))
        assert calls[before:] == list(range((m + 9) >> 3))
        few.add(m <= 6)
    assert few == {True, False}


def test_trials_differ_and_seeds_differ():
    base = EdgeOracle(TP, 0.5, 0.5, 7, trial=0)
    samples = {
        (EdgeOracle(TP, 0.5, 0.5, 7, trial=t).open_short_children(b""),
         EdgeOracle(TP, 0.5, 0.5, 7, trial=t).open_long_children(b""))
        for t in range(64)
    }
    assert len(samples) > 1
    assert base.open_short_children(b"") == EdgeOracle(TP, 0.5, 0.5, 7).open_short_children(b"")


def test_membership_wrappers():
    o = EdgeOracle(TP, 1.0, 1.0, 5)
    assert o.open_short_children(b"") == (b"\x01", b"\x02")
    assert b"\x02\x02" in o.open_long_children(b"\x01")
    closed = EdgeOracle(TP, 0.0, 0.0, 5)
    assert closed.open_short_children(b"") == ()
    assert closed.open_long_children(b"") == ()


def test_edge_marginals_match_product_law():
    # each short edge open w.p. p, each long edge w.p. q, independently
    p, q = 0.35, 0.15
    n = 20000
    short_counts = [0, 0]
    long_counts = [0] * 4
    pair_count = 0
    for t in range(n):
        o = EdgeOracle(TP, p, q, 2024, trial=t)
        s = o.open_short_children(b"\x01")
        l = o.open_long_children(b"\x01")
        for j in s:
            short_counts[j[0] - 1] += 1
        for sel in l:
            long_counts[(sel[0] - 1) * 2 + sel[1] - 1] += 1
        if b"\x01" in s and b"\x02" in s:
            pair_count += 1
    for c in short_counts:
        assert abs(c / n - p) < 4 * math.sqrt(p * (1 - p) / n)
    for c in long_counts:
        assert abs(c / n - q) < 4 * math.sqrt(q * (1 - q) / n)
    # independence of the two short edges
    assert abs(pair_count / n - p * p) < 4 * math.sqrt(p * p * (1 - p * p) / n)


def test_seed_range():
    # seeds are 64-bit words: one outside [0, 2^64) is refused, not wrapped
    for bad in (-1, 2**64):
        with pytest.raises(ParameterError):
            derive_trial_seed(bad, 1)
        for trial in (0, 3):
            with pytest.raises(ParameterError):
                EdgeOracle(TP, 0.5, 0.5, bad, trial)
            with pytest.raises(ParameterError):
                HatConfig.random(TP, 0.5, 0.5, bad, trial)
    with pytest.raises(ParameterError):
        derive_trial_seed(1, -1)
    for good in (0, 2**64 - 1):
        assert EdgeOracle(TP, 0.5, 0.5, good).seed == good
        assert EdgeOracle(TP, 0.5, 0.5, good, trial=3).seed == derive_trial_seed(good, 3)


def test_certain_and_impossible_edges():
    # the count uniform lies in [0, 1): q = 1 opens every edge and q = 0 none,
    # on every stream
    tp = TreeParams(2, 4)
    every = tuple(long_selector(i, tp) for i in range(tp.n_long_children))
    for trial in range(2000):
        assert EdgeOracle(tp, 1.0, 1.0, 3, trial).open_long_children(b"\x01") == every
        assert EdgeOracle(tp, 0.0, 0.0, 3, trial).open_short_children(b"\x01") == ()


# The law tests below draw from fixed seeds chosen before the tests were first
# run.  Each names its false-alarm rate ALPHA: the chance that it fails on a
# stream that does have the product-Bernoulli law.
ALPHA = 1e-4


def _pearson_p(observed, expected) -> float:
    """p-value of Pearson's chi-square test, cells pooled in increasing order
    of expectation until each expects at least 5."""
    cells = []
    obs = exp = 0.0
    for o, e in sorted(zip(observed, expected), key=lambda cell: cell[1]):
        obs, exp = obs + o, exp + e
        if exp >= 5.0:
            cells.append((obs, exp))
            obs = exp = 0.0
    if exp > 0.0:
        last_o, last_e = cells.pop()
        cells.append((last_o + obs, last_e + exp))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return float(chi2.sf(stat, len(cells) - 1))


def _assert_product_law(x: np.ndarray, probs: np.ndarray, alpha: float) -> None:
    """Rows of ``x`` are independent 0/1 draws of n edges.  Every edge's open
    frequency must match its probability, and every pair's joint frequency
    the product of theirs, within the two-sided normal bound at family-wise
    false-alarm rate ``alpha`` (Bonferroni over all n + n(n-1)/2 checks)."""
    draws, n = x.shape
    z = norm.isf(alpha / (2 * (n + n * (n - 1) // 2)))
    freq = x.mean(axis=0)
    assert np.all(np.abs(freq - probs) <= z * np.sqrt(probs * (1 - probs) / draws)), freq
    upper = np.triu_indices(n, 1)
    joint = (x.T @ x)[upper] / draws
    pair = np.outer(probs, probs)[upper]
    worst = np.max(np.abs(joint - pair) / np.sqrt(pair * (1 - pair) / draws))
    assert worst <= z, worst


def _vertex_draws(tp: TreeParams, p: float, q: float, seed: int, draws: int) -> np.ndarray:
    """One row per trial: which of the d short and then the d^k long edges out
    of vertex (1,) are open."""
    index = {long_selector(i, tp): tp.d + i for i in range(tp.n_long_children)}
    x = np.zeros((draws, tp.d + tp.n_long_children))
    for t in range(draws):
        oracle = EdgeOracle(tp, p, q, seed, trial=t)
        for j in oracle.open_short_children(b"\x01"):
            x[t, j[0] - 1] = 1.0
        for s in oracle.open_long_children(b"\x01"):
            x[t, index[s]] = 1.0
    return x


def _long_draws(tp: TreeParams, q: float, seed: int, draws: int) -> np.ndarray:
    """One row per trial: which long edges out of vertex (1,) are open."""
    return _vertex_draws(tp, 0.5, q, seed, draws)[:, tp.d :]


def _assert_count_law(x: np.ndarray, q: float) -> None:
    """The number of open edges per row is Bin(n, q)."""
    draws, n = x.shape
    counts = np.bincount(x.sum(axis=1).astype(int), minlength=n + 1)
    assert _pearson_p(counts, draws * binom.pmf(np.arange(n + 1), n, q)) > ALPHA


def test_long_pattern_law_chi_square():
    # (2,3), q = 0.3: all 2^8 open-set patterns of one vertex's long edges
    # against the product law; one block per draw while m_s + m_l <= 6
    tp, q, draws = TreeParams(2, 3), 0.3, 40000
    x = _long_draws(tp, q, 1901, draws)
    patterns = np.bincount((x @ (1 << np.arange(8))).astype(int), minlength=256)
    opened = np.array([bin(s).count("1") for s in range(256)])
    expected = draws * q**opened * (1 - q) ** (8 - opened)
    assert _pearson_p(patterns, expected) > ALPHA
    _assert_count_law(x, q)


@pytest.mark.parametrize(
    "d, k, q, seed, draws",
    [
        # 2 + m_s + m_l > 8 words: nearly every draw reads a second block
        (2, 4, 0.9, 1902, 20000),
        # n = 361 edges: about 24 blocks per draw
        (19, 2, 0.5, 1903, 6000),
    ],
)
def test_long_edges_product_law_across_blocks(d, k, q, seed, draws):
    tp = TreeParams(d, k)
    x = _long_draws(tp, q, seed, draws)
    _assert_product_law(x, np.full(tp.n_long_children, q), ALPHA)
    _assert_count_law(x, q)


@pytest.mark.parametrize(
    "d, k, p, q, seed, draws",
    [
        # 10 cover digits, a second block when more than 6 are open
        (2, 3, 0.3, 0.6, 1904, 20000),
        # 380 cover digits of two bytes each, about 24 blocks per tail
        (19, 2, 0.4, 0.5, 1905, 3000),
    ],
)
def test_cover_digits_product_law(d, k, p, q, seed, draws):
    tp = TreeParams(d, k)
    n = d + tp.n_long_children
    x = np.zeros((draws, n))
    for t in range(draws):
        for j in HatConfig.random(tp, p, q, seed, t).open_digits((1, 2)):
            x[t, j - 1] = 1.0
    _assert_product_law(x, np.array([p] * d + [q] * tp.n_long_children), ALPHA)


@pytest.mark.parametrize(
    "d, k, p, q, seed, draws",
    [
        # 10 edges, a second block on about 1.5% of draws
        (2, 3, 0.4, 0.3, 1906, 20000),
        # 18 edges, m_s + m_l > 6 on nearly every draw
        (2, 4, 0.9, 0.9, 1907, 20000),
    ],
)
def test_short_and_long_edges_joint_product_law(d, k, p, q, seed, draws):
    # both kinds come from one stream: each edge open at its own probability
    # and every short-long pair independent, as every pair within a kind
    tp = TreeParams(d, k)
    x = _vertex_draws(tp, p, q, seed, draws)
    _assert_product_law(x, np.array([p] * d + [q] * tp.n_long_children), ALPHA)
    _assert_count_law(x[:, :d], p)
    _assert_count_law(x[:, d:], q)

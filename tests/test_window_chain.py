import math

import numpy as np
import pytest

from treeperc.errors import ParameterError, SizeCapError
from treeperc.percolation import PercParams, explore_layers, make_oracle
from treeperc.tree import TreeParams, parent, slot_index, slot_vertex
from treeperc.window_chain import (
    build_offspring_matrix,
    chain_survival,
    child_window_dist,
    initial_window_dist,
    simulate_window_chain,
)

TP22 = TreeParams(2, 2)
TP23 = TreeParams(2, 3)
TP32 = TreeParams(3, 2)


def reference_top_probs(a, child, p, q, params):
    """Scalar reading of the child-window law: the deterministic low bits
    and the activation probability of each top slot, in slot order."""
    base, t = params.top_slot_base, params.n_top_slots
    det = 0
    for j in range(base):
        if a >> slot_index((child,) + slot_vertex(j, params), params) & 1:
            det |= 1 << j
    b = a & 1
    probs = []
    for u in range(t):
        src = slot_index((child,) + parent(slot_vertex(base + u, params)), params)
        aa = a >> src & 1
        probs.append(1.0 - (1.0 - p * aa) * (1.0 - q * b))
    return det, probs


def reference_child_dist(a, child, p, q, params):
    """Child-window pmf by slot-by-slot convolution of the scalar law."""
    det, top_probs = reference_top_probs(a, child, p, q, params)
    base = params.top_slot_base
    pmf = {det: 1.0}
    for u, pi in enumerate(top_probs):
        nxt = {}
        bit = 1 << (base + u)
        for w, pr in pmf.items():
            if pi < 1.0:
                nxt[w] = nxt.get(w, 0.0) + pr * (1.0 - pi)
            if pi > 0.0:
                nxt[w | bit] = nxt.get(w | bit, 0.0) + pr * pi
        pmf = nxt
    return pmf


def test_initial_dist_hand_example():
    p = 0.3
    pmf = initial_window_dist(TP22, p)
    assert pmf[0b001] == pytest.approx((1 - p) ** 2)
    assert pmf[0b011] == pytest.approx(p * (1 - p))
    assert pmf[0b101] == pytest.approx(p * (1 - p))
    assert pmf[0b111] == pytest.approx(p * p)
    assert set(pmf) == {0b001, 0b011, 0b101, 0b111}


@pytest.mark.parametrize("tp", [TP22, TP23, TP32])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_initial_dist_normalized_and_rooted(tp, p):
    pmf = initial_window_dist(tp, p)
    assert abs(sum(pmf.values()) - 1.0) < 1e-12
    assert all(w & 1 for w in pmf)
    if p == 0.0:
        assert pmf == {1: 1.0}
    if p == 1.0:
        assert pmf == {(1 << tp.window_slots) - 1: pytest.approx(1.0)}


def test_initial_dist_support_is_subtrees():
    # every supported window is closed under taking parents within the slab
    pmf = initial_window_dist(TP23, 0.5)
    for w in pmf:
        for i in range(1, TP23.window_slots):
            if w >> i & 1:
                assert w >> ((i - 1) // 2) & 1


@pytest.mark.parametrize("tp", [TP22, TP23, TP32])
def test_child_dist_normalized(tp):
    for a in (1, 3, (1 << tp.window_slots) - 1):
        for i in range(1, tp.d + 1):
            pmf = child_window_dist(a, i, 0.3, 0.2, tp)
            assert abs(sum(pmf.values()) - 1.0) < 1e-12
            assert all(pr >= 0 for pr in pmf.values())


def test_child_dist_hand_example():
    # parent window {o}: the child's low slots are empty and both top slots
    # open independently through the long edge from the base
    q = 0.25
    pmf = child_window_dist(1, 1, 0.3, q, TP22)
    top_pair = 0b110
    assert pmf[0] == pytest.approx((1 - q) ** 2)
    assert pmf[top_pair] == pytest.approx(q * q)
    assert pmf[0b010] == pytest.approx(q * (1 - q))


def test_child_dist_deterministic_cases():
    # no root in parent window and no occupied slot parents for child 1
    # (the sources sit in the subtree of digit 1, but A only holds (2)):
    # every top slot stays closed, a point mass at the deterministic shift,
    # which is empty here
    pmf = child_window_dist(0b100, 1, 0.5, 0.0, TP22)
    assert pmf == {0: 1.0}
    # nonempty deterministic shift: A = {(1,1)} maps into child 1's slot (1)
    pmf = child_window_dist(1 << 3, 1, 0.0, 0.0, TP23)
    assert pmf == {0b010: 1.0}
    # p=0, q=1, parent contains the base: full top layer a.s.
    pmf = child_window_dist(1, 1, 0.0, 1.0, TP22)
    assert pmf == {0b110: pytest.approx(1.0)}


def test_transition_rule_against_direct_slab_percolation():
    """Tabulate the child-window law by simulating the cluster directly."""
    tp = TP22
    p, q = 0.35, 0.2
    trials = 30000
    counts = {1: {}, 2: {}}
    for t in range(trials):
        oracle = make_oracle(tp, PercParams(p, q), 4242, t)
        layers = explore_layers(tp, PercParams(p, q), oracle, 2)
        cluster = {()}
        # rebuild the cluster set from scratch for heights <= 2
        for u in [()]:
            for j in oracle.open_short_children(u):
                cluster.add((j,))
        for u in [(1,), (2,)]:
            if u in cluster:
                for j in oracle.open_short_children(u):
                    cluster.add(u + (j,))
        for s in oracle.open_long_children(()):
            cluster.add(s)
        for i in (1, 2):
            w = 1 if (i,) in cluster else 0
            for j in (1, 2):
                if (i, j) in cluster:
                    w |= 1 << slot_index((j,), tp)
            counts[i][w] = counts[i].get(w, 0) + 1
        assert layers.x[0] == 1
    # compare with the analytic law conditioned on the root window {o}
    # (the root window is {o} when both short edges are closed)
    # instead validate unconditionally: root window A from short edges
    # determines each child law; accumulate the analytic mixture
    mix = {1: {}, 2: {}}
    init = initial_window_dist(tp, p)
    for a, pra in init.items():
        for i in (1, 2):
            for w, prw in child_window_dist(a, i, p, q, tp).items():
                mix[i][w] = mix[i].get(w, 0.0) + pra * prw
    for i in (1, 2):
        for w in set(counts[i]) | set(mix[i]):
            freq = counts[i].get(w, 0) / trials
            expect = mix[i].get(w, 0.0)
            se = math.sqrt(max(expect * (1 - expect), 1e-12) / trials)
            assert abs(freq - expect) < 4 * se, (i, w, freq, expect)


@pytest.mark.parametrize("tp", [TP22, TP23, TP32])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("q", [0.0, 0.2, 1.0])
def test_child_dist_matches_scalar_reference_bitwise(tp, p, q):
    for a in range(1, 1 << tp.window_slots):
        for i in range(1, tp.d + 1):
            assert child_window_dist(a, i, p, q, tp) == reference_child_dist(a, i, p, q, tp)


@pytest.mark.parametrize("tp", [TP22, TP23, TP32])
@pytest.mark.parametrize("p, q", [(0.0, 0.2), (0.3, 0.2), (1.0, 0.0), (0.3, 1.0), (0.2, 0.0861)])
def test_matrix_matches_scalar_reference(tp, p, q):
    n = (1 << tp.window_slots) - 1
    dense = np.zeros((n, n))
    for a in range(1, n + 1):
        for i in range(1, tp.d + 1):
            for w, pr in reference_child_dist(a, i, p, q, tp).items():
                if w:
                    dense[a - 1, w - 1] += pr
    m = build_offspring_matrix(tp, p, q).csr.toarray()
    assert np.abs(m - dense).max() <= 1e-15


def test_law_rejects_bad_probabilities():
    for p, q in [(1.5, 0.1), (-0.5, 0.1), (0.2, math.nan), (0.2, 1.0000001)]:
        with pytest.raises(ParameterError):
            build_offspring_matrix(TP22, p, q)
        with pytest.raises(ParameterError):
            child_window_dist(1, 1, p, q, TP22)
        with pytest.raises(ParameterError):
            simulate_window_chain(TP22, p, q, np.random.default_rng(0), 3)


def test_build_matrix_hand_example():
    m = build_offspring_matrix(TP22, 0.0, 1.0)
    top_pair = 0b110
    assert m.rate(1, top_pair) == pytest.approx(2.0)
    assert m.rate(top_pair, 1) == pytest.approx(2.0)
    assert m.rate(1, 1) == 0.0


def test_row_masses_bounded_by_d():
    for tp, p, q in [(TP22, 0.3, 0.2), (TP32, 0.5, 0.1), (TP23, 0.2, 0.4)]:
        m = build_offspring_matrix(tp, p, q)
        sums = m.row_sums()
        assert (sums <= tp.d + 1e-12).all()
    # equality iff children are a.s. nonempty, e.g. the full window at p=1
    m = build_offspring_matrix(TP22, 1.0, 0.5)
    assert m.row_sums()[-1] == pytest.approx(2.0)
    # while the row of {o} keeps a deficit: both top slots can stay closed
    assert m.row_sums()[0] == pytest.approx(2.0 * (1.0 - 0.25))


@pytest.mark.parametrize("tp", [TP22, TP32])
def test_root_weight_consistency(tp):
    """Sum of M(A, B) over root-containing B equals the direct probability
    that each child window holds its own base, summed over children."""
    p, q = 0.4, 0.15
    m = build_offspring_matrix(tp, p, q)
    for a in (1, 2, 5, (1 << tp.window_slots) - 1):
        via_matrix = sum(rate for b, rate in m.row(a) if b & 1)
        direct = 0.0
        for i in range(1, tp.d + 1):
            pmf = child_window_dist(a, i, p, q, tp)
            direct += sum(pr for w, pr in pmf.items() if w & 1)
        assert abs(via_matrix - direct) < 1e-12


def test_matrix_matches_child_dist_rates():
    m = build_offspring_matrix(TP22, 0.3, 0.2)
    for a in range(1, 8):
        expect = {}
        for i in (1, 2):
            for w, pr in child_window_dist(a, i, 0.3, 0.2, TP22).items():
                if w:
                    expect[w] = expect.get(w, 0.0) + pr
        assert expect == pytest.approx(dict(m.row(a)), abs=1e-14)


def test_simulate_trivial_cases():
    rng = np.random.default_rng(0)
    _, x = simulate_window_chain(TP22, 0.0, 0.0, rng, 4, trials=8, initial=1)
    assert (x[:, 0] == 1).all() and (x[:, 1:] == 0).all()
    _, x = simulate_window_chain(TP22, 0.0, 1.0, rng, 4, trials=8, initial=1)
    assert (x == [1, 0, 4, 0, 16]).all()


def test_simulate_population_cap():
    rng = np.random.default_rng(0)
    with pytest.raises(SizeCapError):
        simulate_window_chain(TP22, 1.0, 1.0, rng, 30, trials=4, population_cap=10**4)


def test_simulate_memory_cap_before_allocating():
    # 10^5 trials at (2,4) would hold two 32767-column generations per trial
    rng = np.random.default_rng(0)
    with pytest.raises(SizeCapError):
        simulate_window_chain(TreeParams(2, 4), 0.25, 0.05, rng, 57, trials=10**5)


def test_simulate_returns_last_generation_and_layer_counts():
    rng = np.random.default_rng(3)
    final, x = simulate_window_chain(TP23, 0.3, 0.1, rng, 6, trials=50)
    assert final.shape == (50, (1 << TP23.window_slots) - 1)
    assert x.shape == (50, 7)
    # x counts the individuals whose window holds the root (odd bitmasks)
    assert (x[:, -1] == final[:, 0::2].sum(axis=1)).all()


def test_chain_outputs_pinned():
    # recorded from the scalar-law implementation this module replaced; the
    # transition tables are bitwise equal, so the draws are too
    freq, se = chain_survival(TP23, 0.2, 0.0861, 60, 300, np.random.default_rng(7))
    assert (freq, se) == (0.23, 0.02429677619218923)
    # the call behind `limits --regime sub --d 2 --k 2 --p 0.2 --q 0.1
    # --trials 3000 --horizon 12` at the default seed
    _, x = simulate_window_chain(TP22, 0.2, 0.1, np.random.default_rng(20240817), 12, trials=3000)
    assert x.sum(axis=0).tolist() == [
        3000, 1255, 1625, 1125, 1098, 824, 743, 598, 558, 460, 395, 329, 292
    ]


def test_chain_survival_trivial():
    rng = np.random.default_rng(1)
    freq, se = chain_survival(TP22, 0.0, 0.0, 10, 500, rng, initial=1)
    assert freq == 0.0
    # from the root-window law, p=1 starts at the full window and lives on
    # (a fixed start at {o} would instead condition the short edges closed)
    freq, _ = chain_survival(TP22, 1.0, 0.0, 10, 500, rng)
    assert freq == 1.0


def test_mean_x1_matches_direct_exploration():
    tp, p, q = TP22, 0.3, 0.1
    trials = 20000
    rng = np.random.default_rng(5)
    _, x = simulate_window_chain(tp, p, q, rng, 1, trials=trials)
    chain_mean = float(x[:, 1].mean())
    tot = 0
    for t in range(trials):
        oracle = make_oracle(tp, PercParams(p, q), 99, t)
        tot += explore_layers(tp, PercParams(p, q), oracle, 1).x[1]
    direct_mean = tot / trials
    se = math.hypot(float(x[:, 1].std()) / math.sqrt(trials), 0.02)
    assert abs(chain_mean - direct_mean) < 3 * max(se, 0.02)

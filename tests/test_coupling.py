import hashlib
import itertools
from collections import Counter
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from treeperc.coupling import (
    HatConfig,
    PhiMap,
    dominance_test,
    explore_hat_to_C,
    finite_coupling,
    leaf_band,
    leaf_count_Z,
    leaf_count_Zhat,
    n_slab_leaves,
    omega_bar,
)
from treeperc.errors import FeasibilityError, ParameterError
from treeperc.rng import EdgeOracle
from treeperc.tree import TreeParams

TP = TreeParams(2, 2)


def cover_digits(tp):
    return st.lists(
        st.integers(1, tp.d + tp.n_long_children), min_size=0, max_size=5
    ).map(tuple)


@settings(max_examples=60, deadline=None)
@given(cover_digits(TP))
def test_phi_round_trip_and_height(vhat):
    pm = PhiMap(TP)
    # phi is injective, so a block decodes to the one cover digit it came from
    inverse = {pm.phi(j): j for j in range(1, pm.n_digits + 1)}
    assert len(inverse) == pm.n_digits
    img = b"".join(pm.phi(j) for j in vhat)
    # blocks have length 1 (short) or k (long); decode blockwise and compare
    decoded = []
    pos = 0
    for j in vhat:
        block = pm.phi(j)
        assert img[pos : pos + len(block)] == block
        decoded.append(inverse[block])
        pos += len(block)
    assert tuple(decoded) == vhat
    assert pos == len(img)
    # image height dominates cover height
    assert len(img) >= len(vhat)


def test_phi_edge_kinds():
    pm = PhiMap(TreeParams(2, 3))
    # short digits append one digit, long digits append a k-block
    for j in range(1, 3):
        assert len(pm.phi(j)) == 1
    for j in range(3, 3 + 8):
        assert len(pm.phi(j)) == 3
    with pytest.raises(ParameterError):
        pm.phi(11)


def test_phi_long_order_is_lexicographic():
    # the d short digits map to single digits, then the long digits to
    # [d]^k in lexicographic order
    for tp in (TP, TreeParams(2, 3), TreeParams(3, 2)):
        pm = PhiMap(tp)
        blocks = [pm.phi(j) for j in range(1, pm.n_digits + 1)]
        digits = range(1, tp.d + 1)
        selectors = itertools.product(digits, repeat=tp.k)
        assert blocks == [bytes((j,)) for j in digits] + [bytes(s) for s in selectors]


def test_leaf_band_and_count():
    assert leaf_band(TP) == (4, 6)
    assert n_slab_leaves(TP) == 48
    assert n_slab_leaves(TreeParams(2, 3)) == 2**6 + 2**7 + 2**8


def test_leaf_count_closed_and_full():
    closed = EdgeOracle(TP, 0.0, 0.0, 1)
    assert leaf_count_Z(TP, closed) == 0
    full = EdgeOracle(TP, 1.0, 1.0, 1)
    assert leaf_count_Z(TP, full) == 48
    # short edges alone only reach the lower leaf level
    short_only = EdgeOracle(TP, 1.0, 0.0, 1)
    assert leaf_count_Z(TP, short_only) == 2**4
    hat_closed = HatConfig.from_rule(TP, lambda tail, digit: False)
    assert leaf_count_Zhat(TP, hat_closed) == 0


def test_omega_bar_membership_rules():
    cfg = omega_bar(TP)
    assert 1 in cfg.open_digits(())  # root short edge
    assert 4 in cfg.open_digits(())  # root long edge
    assert 5 in cfg.open_digits((3,))  # anything under a long root child
    assert 2 in cfg.open_digits((1,))  # short edge to cover height 2 = k
    assert 4 not in cfg.open_digits((1,))  # long edge under a short root child
    assert 1 not in cfg.open_digits((1, 2))  # head would sit at cover height 3 > k


def test_omega_bar_leaf_counts():
    cfg = omega_bar(TP)
    assert leaf_count_Zhat(TP, cfg) >= n_slab_leaves(TP)
    expl = explore_hat_to_C(TP, cfg)
    assert expl.leaf_count(TP) == 0
    # the constructed subgraph is the short-reachable ball of height <= k
    assert expl.vertices == {bytes(v) for v in _short_ball(TP.d, TP.k)}
    # every open long edge from the explored part hits a conflict
    assert expl.conflicts
    for v in expl.conflicts:
        assert any(j > TP.d for j in v)


def _short_ball(d, k):
    out = [()]
    frontier = [()]
    for _ in range(k):
        frontier = [u + (j,) for u in frontier for j in range(1, d + 1)]
        out += frontier
    return out


def test_explore_all_closed():
    cfg = HatConfig.from_rule(TP, lambda tail, digit: False)
    expl = explore_hat_to_C(TP, cfg)
    assert expl.vertices == {b""}
    assert expl.edges == set() and expl.conflicts == set()


def test_explore_image_heights_within_slab():
    cfg = HatConfig.random(TP, 0.6, 0.6, 99)
    expl = explore_hat_to_C(TP, cfg)
    lo, hi = leaf_band(TP)
    assert all(len(v) < hi for v in expl.vertices)
    for tail, head in expl.edges:
        assert len(tail) < lo
        assert len(head) - len(tail) in (1, TP.k)


def test_explore_pinned():
    # sha256 of the sorted output over fixed configurations; tree vertices
    # are hashed as digit tuples, cover vertices are tuples already
    h = hashlib.sha256()
    for tp in (TP, TreeParams(2, 3), TreeParams(3, 2)):
        configs = [omega_bar(tp)] + [
            HatConfig.random(tp, p, q, seed)
            for seed in range(20)
            for p, q in ((0.3, 0.05), (0.5, 0.3), (0.7, 0.6))
        ]
        for cfg in configs:
            expl = explore_hat_to_C(tp, cfg)
            vertices = {tuple(v) for v in expl.vertices}
            edges = {(tuple(tail), tuple(head)) for tail, head in expl.edges}
            for part in (vertices, edges, expl.conflicts):
                h.update(repr(sorted(part)).encode())
    assert h.hexdigest() == "f707c0f22886d12db485de51a8a711cfbbb13b4c58b59ab4b469269a2c30e837"


def test_explore_asks_each_tail_once_per_edge_kind():
    # the cover is a tree and each closure follows one edge kind, so the walk
    # reaches no cover vertex twice and asks a tail at most twice
    for tp in (TP, TreeParams(2, 3), TreeParams(3, 2)):
        configs = [omega_bar(tp)] + [
            HatConfig.random(tp, p, q, seed)
            for seed in range(20)
            for p, q in ((0.3, 0.05), (0.5, 0.3), (0.7, 0.6))
        ]
        for cfg in configs:
            asks = Counter()
            open_digits = cfg.open_digits

            def counted(vhat, open_digits=open_digits, asks=asks):
                asks[vhat] += 1
                return open_digits(vhat)

            cfg.open_digits = counted
            explore_hat_to_C(tp, cfg)
            assert asks[()] == 2  # short closure, then long closure
            assert max(asks.values()) == 2


def test_pathwise_leaf_inequality():
    p = q = 0.5
    for trial in range(1500):
        cfg = HatConfig.random(TP, p, q, 7, trial)
        expl = explore_hat_to_C(TP, cfg)
        assert expl.leaf_count(TP) <= leaf_count_Zhat(TP, cfg)


def test_cover_root_out_degree_mean():
    p, q = 0.3, 0.15
    trials = 20000
    tot = 0
    for trial in range(trials):
        cfg = HatConfig.random(TP, p, q, 13, trial)
        tot += len(cfg.open_digits(()))
    expect = TP.d * p + TP.n_long_children * q
    se = math.sqrt(expect / trials)
    assert abs(tot / trials - expect) < 4 * se


def test_finite_coupling_hand_examples():
    t = finite_coupling({1: 0.5, 2: 0.5}, {1: 0.6, 2: 0.4}, 1)
    assert t.joint == pytest.approx({(1, 1): 0.5, (2, 2): 0.4, (2, 1): 0.1})
    assert t.marginal_errors() == pytest.approx((0.0, 0.0), abs=1e-15)
    assert t.off_support_mass() == 0.0

    t = finite_coupling(
        {"a": 0.5, "b": 0.3, "c": 0.2}, {"a": 0.5, "b": 0.2, "c": 0.3}, "a"
    )
    e1, e2 = t.marginal_errors()
    assert e1 < 1e-12 and e2 < 1e-12
    assert t.off_support_mass() == 0.0
    assert all(pr >= 0 for pr in t.joint.values())

    identical = finite_coupling({0: 0.7, 1: 0.3}, {0: 0.7, 1: 0.3}, 0)
    assert identical.joint == pytest.approx({(0, 0): 0.7, (1, 1): 0.3})


def test_finite_coupling_infeasible():
    with pytest.raises(FeasibilityError):
        finite_coupling({1: 0.1, 2: 0.9}, {1: 0.9, 2: 0.1}, 1)
    with pytest.raises(FeasibilityError):
        finite_coupling({1: 1.0}, {1: 0.5, 2: 0.5}, 2)
    with pytest.raises(ParameterError):
        finite_coupling({1: 0.6, 2: 0.6}, {1: 0.5, 2: 0.5}, 1)
    # NaN passes a mass test and a sign test alike
    with pytest.raises(ParameterError):
        finite_coupling({0: math.nan, 1: 0.5}, {0: 1.0}, 0)


def test_finite_coupling_random_feasible_triples():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 6)
        outcomes = list(range(n))
        base = [rng.random() + 0.05 for _ in outcomes]
        base[0] += 2.0 * n  # heavy pivot keeps the triple feasible
        z = sum(base)
        p1 = {x: w / z for x, w in zip(outcomes, base)}
        shift = [rng.uniform(-0.4, 0.4) * p1[x] for x in outcomes]
        shift[0] = -sum(shift[1:])
        p2 = {x: p1[x] + s for x, s in zip(outcomes, shift)}
        assert all(v > 0 for v in p2.values())
        l1 = sum(abs(p1[x] - p2[x]) for x in outcomes)
        assert l1 < p1[0]
        t = finite_coupling(p1, p2, 0)
        e1, e2 = t.marginal_errors()
        assert e1 <= 1e-12 and e2 <= 1e-12
        assert t.off_support_mass() == 0.0
        assert all(pr >= -0.0 for pr in t.joint.values())


def test_dominance_self_comparison():
    rep = dominance_test(TP, 0.4, 0.4, 0.0, 400, 5)
    assert rep.rows[0].surv_z == 1.0 and rep.rows[0].surv_zhat == 1.0
    assert rep.dominates
    assert rep.max_violation_sigma <= 3.0


def test_dominance_validation():
    with pytest.raises(ParameterError):
        dominance_test(TP, 0.5, 0.1, 0.2, 100, 1)
    with pytest.raises(ParameterError):
        dominance_test(TP, 0.5, 0.5, 0.0, 0, 1)

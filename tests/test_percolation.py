import hashlib
import math
import re
import tracemalloc

import networkx as nx
import pytest

from treeperc import percolation
from treeperc.coupling import leaf_band, leaf_count_Z
from treeperc.errors import ConsistencyError, ParameterError, SizeCapError
from treeperc.percolation import (
    AdmissibleSet,
    PercParams,
    _neighborhood_hash,
    conditioned_cluster_sample,
    criteria_eval,
    decompose,
    estimate_survival,
    exact_long_boundary_mean,
    exact_mean_short_cluster_pair,
    expand_admissible,
    explore_layers,
    long_boundary,
    make_oracle,
    short_cluster,
)
from treeperc.tree import ROOT, TreeParams

TP = TreeParams(2, 2)


def test_perc_params_validation():
    with pytest.raises(ParameterError):
        PercParams(1.2, 0.0)


def test_explore_layers_trivial():
    oracle = make_oracle(TP, PercParams(0.0, 0.0), 1)
    stats = explore_layers(TP, PercParams(0, 0), oracle, 4)
    assert stats.x == [1, 0, 0, 0, 0]

    oracle = make_oracle(TP, PercParams(1.0, 0.0), 1)
    stats = explore_layers(TP, PercParams(1, 0), oracle, 3)
    assert stats.x == [1, 2, 4, 8]

    oracle = make_oracle(TP, PercParams(0.0, 1.0), 1)
    stats = explore_layers(TP, PercParams(0, 1), oracle, 4)
    assert stats.x == [1, 0, 4, 0, 16]


def test_explore_layers_refuses_params_other_than_the_oracles():
    perc = PercParams(0.3, 0.1)
    oracle = make_oracle(TP, perc, 1)
    for params, other in (
        (TP, PercParams(0.3, 0.2)),
        (TP, PercParams(0.2, 0.1)),
        (TreeParams(2, 3), perc),
        (None, perc),
        (TP, (0.3, 0.1)),
    ):
        with pytest.raises(ParameterError):
            explore_layers(params, other, oracle, 2)
    # equal values pass, however they were written
    assert explore_layers(TreeParams(2, 2), PercParams(0.3, 0.1), oracle, 2).x[0] == 1


def test_layer_death_after_k_empty_layers():
    # once k consecutive layers are empty nothing below can be occupied
    perc = PercParams(0.45, 0.12)
    for t in range(200):
        oracle = make_oracle(TP, perc, 31, t)
        x = explore_layers(TP, perc, oracle, 14).x
        for n in range(len(x) - TP.k):
            if all(x[n + j] == 0 for j in range(TP.k)):
                assert all(v == 0 for v in x[n:])
                break


def test_short_cluster_trivial_and_cap(monkeypatch):
    oracle = make_oracle(TP, PercParams(0.0, 0.0), 2)
    assert short_cluster({ROOT}, oracle) == {ROOT}
    monkeypatch.setattr("treeperc.percolation.DEFAULT_CLUSTER_CAP", 100)
    oracle = make_oracle(TP, PercParams(1.0, 0.0), 2)
    with pytest.raises(SizeCapError):
        short_cluster({ROOT}, oracle)


def test_short_cluster_memory_stays_small_up_to_the_cap(monkeypatch):
    # at p = 1 the cluster is the whole short tree; breadth-first, its
    # vertices stay about log2(cap) digits long, where a depth-first walk
    # would hold a path of cap/2 digits and about cap^2/4 bytes (104 MB here)
    monkeypatch.setattr("treeperc.percolation.DEFAULT_CLUSTER_CAP", 2 * 10**4)
    oracle = make_oracle(TP, PercParams(1.0, 0.0), 2)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            short_cluster({ROOT}, oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_short_cluster_mean_size():
    # mean size of the short cluster of the root is 1/(1 - pd)
    p = 0.3
    trials = 20000
    tot = 0
    for t in range(trials):
        oracle = make_oracle(TP, PercParams(p, 0.0), 17, t)
        tot += len(short_cluster({ROOT}, oracle))
    expect = 1.0 / (1.0 - p * TP.d)
    assert abs(tot / trials - expect) < 0.05


def test_long_boundary_trivial():
    oracle = make_oracle(TP, PercParams(0.5, 0.0), 3)
    assert long_boundary({ROOT}, oracle) == set()
    oracle = make_oracle(TP, PercParams(0.0, 1.0), 3)
    assert long_boundary({ROOT}, oracle) == {b"\x01\x01", b"\x01\x02", b"\x02\x01", b"\x02\x02"}


def test_long_boundary_mean_matches_formula():
    perc = PercParams(0.3, 0.1)
    trials = 20000
    tot = 0
    for t in range(trials):
        oracle = make_oracle(TP, perc, 23, t)
        cs = short_cluster({ROOT}, oracle)
        tot += len(long_boundary(cs, oracle))
    expect = exact_long_boundary_mean(1, perc, TP)
    se = math.sqrt(expect / trials)  # crude Poisson-scale bound
    assert abs(tot / trials - expect) < 5 * se


def test_exact_formula_values():
    perc = PercParams(0.25, 0.1)
    assert exact_long_boundary_mean(1, perc, TP) == pytest.approx(
        (1 - 0.0625) * 4 * 0.1 / 0.5
    )
    assert exact_long_boundary_mean(1, PercParams(0.0, 0.1), TP) == pytest.approx(0.4)
    assert exact_mean_short_cluster_pair(0b011, perc, TP) == pytest.approx(3.5)
    assert exact_mean_short_cluster_pair(0b011, PercParams(0, 0), TP) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        exact_mean_short_cluster_pair(0b111, perc, TP)
    with pytest.raises(ParameterError):
        exact_long_boundary_mean(1, PercParams(0.5, 0.1), TP)


def test_pair_cluster_mean_matches_formula():
    perc = PercParams(0.3, 0.0)
    trials = 20000
    tot = 0
    for t in range(trials):
        oracle = make_oracle(TP, perc, 29, t)
        tot += len(short_cluster({ROOT, b"\x01"}, oracle))
    expect = exact_mean_short_cluster_pair(0b011, perc, TP)
    assert abs(tot / trials - expect) < 0.08


def test_decompose_examples():
    assert decompose(set(), TP) == []
    single = decompose({b"\x01\x02"}, TP)
    assert single == [AdmissibleSet(base=b"\x01\x02", rel_type=1)]
    two = decompose({b"\x01\x01", b"\x01\x01\x02", b"\x02\x02\x01"}, TP)
    assert len(two) == 2
    by_base = {b.base: b for b in two}
    assert by_base[b"\x01\x01"].rel_type == 0b001 | (1 << 2)  # base and child 2
    assert by_base[b"\x02\x02\x01"].rel_type == 1


def test_decompose_rejects_bad_geometry():
    # k levels apart in one subtree; the message shows the vertices' digits
    with pytest.raises(ConsistencyError, match=r"\(1,\) and \(1, 2, 1\) are 2 >= k=2"):
        decompose({b"\x01", b"\x01\x02\x01"}, TP)
    # several violations: the message names the first vertex in (height,
    # digits) order and its base, whatever the hash seed
    with pytest.raises(ConsistencyError, match=r"\(\) and \(1, 1\) are 2 >= k=2"):
        decompose({b"", b"\x01\x01", b"\x02\x01", b"\x02\x02"}, TP)


def test_decompose_pinned():
    # sha256 of the pieces of 300 seeded long boundaries at each point; the
    # pieces have 1 to 5 vertices (at (2,2): 173 of size 2, 85 of size 3)
    h = hashlib.sha256()
    for (d, k), (p, q) in (((2, 2), (0.3, 0.5)), ((2, 3), (0.3, 0.3)), ((3, 2), (0.2, 0.3))):
        tp, perc = TreeParams(d, k), PercParams(p, q)
        for t in range(300):
            o = make_oracle(tp, perc, 3, t)
            pieces = decompose(long_boundary(short_cluster({ROOT}, o), o), tp)
            h.update(repr([(tuple(b.base), b.rel_type) for b in pieces]).encode())
    assert h.hexdigest() == "fe4328d1f5192023f3e0b081d5e1bac9150d0e42641651163dccd29923a25720"


def test_admissible_set_requires_base():
    with pytest.raises(ConsistencyError):
        AdmissibleSet(base=b"\x01", rel_type=0b010)


def test_boundary_geometry_pathwise():
    # no long-boundary vertex is within k levels above another, and the
    # boundary avoids the short cluster
    perc = PercParams(0.4, 0.25)
    for t in range(300):
        oracle = make_oracle(TP, perc, 41, t)
        cs = short_cluster({ROOT}, oracle)
        cl = long_boundary(cs, oracle)
        assert not cl & cs
        pieces = decompose(cl, TP)
        assert sum(b.size for b in pieces) == len(cl)
        for b in pieces:
            assert b.rel_type & 1


def test_disjoint_union_matches_direct_cluster():
    """Union of the per-generation short clusters equals the set of vertices
    reachable with at most that many long edges, on a shared realization."""
    perc = PercParams(0.35, 0.2)
    tp = TP
    for t in range(40):
        oracle = make_oracle(tp, perc, 53, t)
        gens = 3
        # generations 0..gens of admissible sets; each set's short cluster
        # is one piece of the union
        union = set()
        generation = [AdmissibleSet(ROOT, 1)]
        for _ in range(gens + 1):
            pieces = []
            for b in generation:
                cs, _cl, children = expand_admissible(b, oracle, tp)
                assert not union & cs  # pairwise disjoint
                union |= cs
                pieces += children
            generation = pieces
        # direct: breadth-first search counting long edges used
        from collections import deque

        best = {ROOT: 0}
        dq = deque([ROOT])
        while dq:
            u = dq.popleft()
            g = best[u]
            for j in oracle.open_short_children(u):
                v = u + j
                if best.get(v, gens + 1) > g:
                    best[v] = g
                    dq.append(v)
            if g < gens:
                for s in oracle.open_long_children(u):
                    v = u + s
                    if best.get(v, gens + 1) > g + 1:
                        best[v] = g + 1
                        dq.append(v)
        assert union == set(best)


def test_estimate_survival_trivial_and_validation():
    assert estimate_survival(TP, PercParams(0, 0), 50, 10, 1) == (0.0, 0.0)
    with pytest.raises(ParameterError):
        estimate_survival(TP, PercParams(0.1, 0.1), 10, 1, 1)


def test_estimate_survival_brackets(monkeypatch):
    # below the branching lower bound the process dies out
    freq, _ = estimate_survival(TP, PercParams(0.2, 0.1), 400, 60, 3)
    assert freq < 0.02
    # comfortably supercritical it survives
    monkeypatch.setattr("treeperc.percolation.ESCAPE_POPULATION", 200)
    freq, se = estimate_survival(TP, PercParams(0.2, 0.25), 300, 60, 3)
    assert freq > 5 * se


def test_estimate_survival_pinned():
    # at the benchmark point
    freq, se = estimate_survival(TreeParams(2, 3), PercParams(0.2, 0.0861), 300, 60, 7)
    assert (freq, se) == (0.18333333333333332, 0.022339965847647886)


def test_fkg_pair_survival():
    # dying from a two-vertex start is at least as likely as two
    # independent single starts both dying
    perc = PercParams(0.2, 0.2)
    trials, depth = 400, 30
    single_dead = pair_dead = 0
    for t in range(trials):
        o1 = make_oracle(TP, perc, 61, t)
        alive1 = _alive(o1, {ROOT}, depth)
        single_dead += not alive1
        o2 = make_oracle(TP, perc, 62, t)
        alive2 = _alive(o2, {ROOT, b"\x01"}, depth)
        pair_dead += not alive2
    ps, pp = single_dead / trials, pair_dead / trials
    se = 3 * math.sqrt(2.0 / trials)
    assert pp >= ps * ps - se


def _alive(oracle, start, depth):
    k = oracle.params.k
    window = [set() for _ in range(k)]
    for v in start:
        window[len(v) % k].add(v)
    base = max(len(v) for v in start)
    for n in range(base + 1, depth + 1):
        layer = set()
        for u in window[(n - 1) % k]:
            for j in oracle.open_short_children(u):
                layer.add(u + j)
        for u in window[n % k]:
            for s in oracle.open_long_children(u):
                layer.add(u + s)
        window[n % k] = layer
        pop = sum(len(s) for s in window)
        if pop == 0:
            return False
        if pop > 200:
            return True
    return True


def test_determinism_across_runs():
    perc = PercParams(0.33, 0.21)
    a = explore_layers(TP, perc, make_oracle(TP, perc, 5, 3), 10)
    b = explore_layers(TP, perc, make_oracle(TP, perc, 5, 3), 10)
    assert a.x == b.x


def test_criteria_eval_trivial_zero_q():
    # s chosen so that q = 0 exactly: s = -(1 - pd) d^k
    tp = TP
    p = 0.2
    s = -(1 - p * tp.d) * tp.d**tp.k
    (a, _), (b, _), q = criteria_eval(tp, p, s, 200, 1)
    assert q == pytest.approx(0.0, abs=1e-15)
    assert a == 0.0 and b == 0.0


def test_expand_admissible_consistency():
    perc = PercParams(0.3, 0.3)
    oracle = make_oracle(TP, perc, 71, 4)
    cs, cl, pieces = expand_admissible(AdmissibleSet(ROOT, 1), oracle, TP)
    assert ROOT in cs
    assert set().union(*[set()] + [
        {b.base + rel for rel in _rels(b)} for b in pieces
    ]) == cl


def _rels(b):
    from treeperc.tree import window_vertices

    return window_vertices(b.rel_type, TP)


def test_conditioned_sample_unconditioned_radius1():
    # without conditioning, acceptance is certain and the radius-1 class
    # frequencies refine the root out-degree law
    tp = TP
    p, q = 0.3, 0.1
    pmf, rate = conditioned_cluster_sample(
        tp, PercParams(p, q), 0, 1, 4000, 77
    )
    assert rate == 1.0
    assert abs(sum(pmf.values()) - 1.0) < 1e-12
    # the class of the isolated root has probability (1-p)^2 (1-q)^4
    isolated = _neighborhood_hash({ROOT}, [], 1)
    expect = (1 - p) ** 2 * (1 - q) ** 4
    se = math.sqrt(expect * (1 - expect) / 4000)
    assert abs(pmf[isolated] - expect) < 4 * se


def test_sweep_cap(monkeypatch):
    # at p = q = 1 layer n holds all 2^n vertices, so the two most recent
    # layers hold 48 vertices at height 5 and would hold 96 at height 6; the
    # cap is checked once per parent vertex, which adds at most d short and
    # d^k long children, so the sweep stops within that of the cap
    monkeypatch.setattr("treeperc.percolation.DEFAULT_CLUSTER_CAP", 50)
    perc = PercParams(1.0, 1.0)
    oracle = make_oracle(TP, perc, 1)
    assert explore_layers(TP, perc, oracle, 5).x == [1, 2, 4, 8, 16, 32]
    with pytest.raises(SizeCapError) as err:
        explore_layers(TP, perc, oracle, 6)
    held = int(re.search(r"population (\d+) exceeded", str(err.value)).group(1))
    assert 50 < held <= 50 + TP.d + TP.d**TP.k
    # the slab leaf count and the survival estimate sweep the same layers
    with pytest.raises(SizeCapError):
        leaf_count_Z(TreeParams(2, 3), make_oracle(TreeParams(2, 3), perc, 1))
    monkeypatch.setattr("treeperc.percolation.ESCAPE_POPULATION", 10**6)
    with pytest.raises(SizeCapError):
        estimate_survival(TP, perc, 1, 10, 1)


def test_conditioned_sample_budget_error():
    with pytest.raises(SizeCapError):
        conditioned_cluster_sample(TP, PercParams(0.0, 0.0), 5, 1, 50, 1)


def test_conditioned_sample_stabilization_trend():
    tp = TP
    point_q = 0.1585  # near-critical long-edge probability for p = 0.2
    perc = PercParams(0.2, point_q)
    laws = {}
    for n in (10, 50, 100):
        laws[n], _ = conditioned_cluster_sample(tp, perc, n, 1, 6000, 13)

    def tv(p1, p2):
        keys = set(p1) | set(p2)
        return 0.5 * sum(abs(p1.get(k, 0.0) - p2.get(k, 0.0)) for k in keys)

    assert tv(laws[50], laws[100]) < tv(laws[10], laws[100])


def reference_reach(oracle, expand_below=None, stop_above=None):
    """The depth-first walk the sweep replaced, kept as an independent check.

    Vertices reachable from the root through open edges of either kind.  With
    ``expand_below`` only vertices of lower height have their out-edges
    followed; with ``stop_above`` the walk stops once the set holds more
    vertices than that.
    """
    cluster = {ROOT}
    stack = [ROOT]
    while stack and (stop_above is None or len(cluster) <= stop_above):
        u = stack.pop()
        if expand_below is not None and len(u) >= expand_below:
            continue
        heads = [u + j for j in oracle.open_short_children(u)]
        heads += [u + s for s in oracle.open_long_children(u)]
        for v in heads:
            if v not in cluster:
                cluster.add(v)
                stack.append(v)
    return cluster


REFERENCE_PS = (0.0, 0.3, 1.0)


@pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", REFERENCE_PS)
@pytest.mark.parametrize("q", REFERENCE_PS)
def test_leaf_count_matches_reference_reach(d, k, p, q):
    tp = TreeParams(d, k)
    lo, _hi = leaf_band(tp)
    for t in range(4 if 1.0 in (p, q) else 30):
        oracle = make_oracle(tp, PercParams(p, q), 83, t)
        expect = sum(len(v) >= lo for v in reference_reach(oracle, expand_below=lo))
        assert leaf_count_Z(tp, make_oracle(tp, PercParams(p, q), 83, t)) == expect


@pytest.mark.parametrize("p", REFERENCE_PS)
@pytest.mark.parametrize("q", REFERENCE_PS)
@pytest.mark.parametrize("threshold, radius", [(0, 0), (0, 2), (6, 1), (20, 2)])
def test_conditioned_sample_matches_reference_reach(monkeypatch, p, q, threshold, radius):
    # the sampler's accept decisions and balls, read off the hash it is
    # handed, against the depth-first walk on the same realizations
    perc = PercParams(p, q)
    trials, seed = 30, 89
    balls = []

    def record(cluster, edges, r):
        balls.append(set(cluster))
        return str(len(balls))

    monkeypatch.setattr("treeperc.percolation._neighborhood_hash", record)
    expect = []
    for t in range(trials):
        oracle = make_oracle(TP, perc, seed, t)
        if len(reference_reach(oracle, stop_above=threshold)) > threshold:
            h = radius * TP.k
            expect.append({v for v in reference_reach(oracle, expand_below=h + 1) if len(v) <= h})
    if not expect:
        with pytest.raises(SizeCapError):
            conditioned_cluster_sample(TP, perc, threshold, radius, trials, seed)
        return
    _pmf, rate = conditioned_cluster_sample(TP, perc, threshold, radius, trials, seed)
    assert rate == len(expect) / trials
    assert balls == expect


CONDITIONED_PINS = {
    (2, 3, 1): (0.2966666666666667, "74e22b12bb821d19ca2b0c0444c468c2d8f94590f2bab84f02619c3f086c876c"),
    (2, 3, 2): (0.2966666666666667, "36ddcd48f2119df1c5009379d6c5cef05a987fa57e3569840888badf27179939"),
    (3, 2, 1): (0.3466666666666667, "cb5f60b4dfee7424ee589ffddc8f3136f3eacc930487c9c800e21bbc9004622d"),
    (3, 2, 2): (0.3466666666666667, "c2ac51e61824dc2e72501a7c759993aedd30cbfc11b3479cc6e0ca0523f06f62"),
}


@pytest.mark.parametrize("d, k, radius", sorted(CONDITIONED_PINS))
def test_conditioned_sample_pinned(d, k, radius):
    q = {(2, 3): 0.0761, (3, 2): 0.0566}[(d, k)]
    pmf, rate = conditioned_cluster_sample(
        TreeParams(d, k), PercParams(0.2, q), 10, radius, 300, 20240817
    )
    digest = hashlib.sha256(repr(sorted(pmf.items())).encode()).hexdigest()
    assert (rate, digest) == CONDITIONED_PINS[(d, k, radius)]


@pytest.fixture(scope="module")
def sampled_balls():
    """(label, ball) for every ball the conditioned sampler draws in 500
    trials at radii 0-2 and size thresholds 0 and 10 on three tree shapes;
    each ball is the induced networkx graph, its vertices carrying their
    distance from the root as "dist"."""
    balls = []
    label_of = percolation._neighborhood_hash

    def record(cluster, edges, radius):
        g = nx.Graph(edges)
        g.add_nodes_from(cluster)
        dists = nx.single_source_shortest_path_length(g, ROOT, cutoff=radius)
        ball = g.subgraph(dists).copy()
        nx.set_node_attributes(ball, dists, "dist")
        balls.append((label_of(cluster, edges, radius), ball))
        return balls[-1][0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(percolation, "_neighborhood_hash", record)
        for (d, k), p, q in [
            ((2, 2), 0.2, 0.15), ((2, 2), 0.4, 0.2), ((2, 3), 0.3, 0.05), ((3, 2), 0.2, 0.05)
        ]:
            for radius in (0, 1, 2):
                for threshold in (0, 10):
                    conditioned_cluster_sample(
                        TreeParams(d, k), PercParams(p, q), threshold, radius, 500, 7
                    )
    return balls


def test_neighborhood_hash_matches_networkx(sampled_balls):
    # the label is networkx's WL graph hash of the ball, bitwise
    assert len(sampled_balls) > 8000
    for label, ball in sampled_balls:
        assert label == nx.weisfeiler_lehman_graph_hash(ball, node_attr="dist", iterations=4)


def test_neighborhood_hash_separates_sampled_classes(sampled_balls):
    # two sampled balls share a label iff they are isomorphic as graphs with
    # distance-from-root labels
    same_dist = lambda a, b: a["dist"] == b["dist"]
    classes = {}
    for label, ball in sampled_balls:
        classes.setdefault(label, []).append(ball)
    assert len(classes) > 100
    for first, *rest in classes.values():
        assert all(nx.is_isomorphic(first, ball, node_match=same_dist) for ball in rest)
    firsts = [balls[0] for balls in classes.values()]
    for i, a in enumerate(firsts):
        assert not any(nx.is_isomorphic(a, b, node_match=same_dist) for b in firsts[:i])


# Sums over 200 seeded oracles.
LEAF_COUNT_PINS = {(2, 3): 249, (3, 2): 262, (2, 4): 195}


@pytest.mark.parametrize("d, k", sorted(LEAF_COUNT_PINS))
def test_leaf_count_sum_pinned(d, k):
    tp = TreeParams(d, k)
    q = {(2, 3): 0.09, (3, 2): 0.06, (2, 4): 0.04}[(d, k)]
    total = sum(leaf_count_Z(tp, make_oracle(tp, PercParams(0.2, q), 97, t)) for t in range(200))
    assert total == LEAF_COUNT_PINS[(d, k)]

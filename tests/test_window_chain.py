import hashlib
import itertools
import json
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from treeperc.cli import main
from treeperc.errors import ParameterError, SizeCapError
from treeperc.percolation import PercParams, estimate_survival, explore_layers, make_oracle
from treeperc.tree import TreeParams, slot_index, slot_vertex
from treeperc.window_chain import (
    MAX_ARRAY_BYTES,
    _chain_bytes,
    _check_run,
    _ray_children,
    _ray_pi,
    _ray_shift,
    build_offspring_matrix,
    chain_survival,
    child_window_dist,
    initial_window_dist,
    simulate_window_chain,
)
from window_law import ChildWindowLaw, law_blocks, window_matrix

TP22 = TreeParams(2, 2)
TP23 = TreeParams(2, 3)
TP32 = TreeParams(3, 2)


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


@pytest.mark.parametrize("tp", [TP22, TP32])
def test_child_dist_rejects_child_digit_outside_range(tp):
    for child in (0, tp.d + 1):
        with pytest.raises(ParameterError, match="child digit"):
            child_window_dist(1, child, 0.3, 0.2, tp)


@pytest.mark.parametrize("tp", [TP22, TP32])
def test_child_dist_rejects_window_outside_slab(tp):
    # a window is a bitmask over the slab's W slots: 0 and anything past
    # bit W - 1 are no window
    for a in (0, -1, 1 << tp.window_slots, 1 << 10):
        with pytest.raises(ParameterError, match="parent window"):
            child_window_dist(a, 1, 0.3, 0.2, tp)
    assert child_window_dist((1 << tp.window_slots) - 1, 1, 0.3, 0.2, tp)


# sha256 over the root-window pmf and the child-window pmfs at six windows
# and every child digit, recorded from the nested-loop root law (its items
# sorted, as they now come in increasing window order) and the vectorised
# child law that the slot-by-slot law replaced
WINDOW_PMF_SHA256 = {
    ((2, 3), 0.3, 0.2): "e5602bd20bbbf76121a41cca66667c824df2f6621df74e3b53d5fba135341639",
    ((2, 3), 0.17, 0.0861): "a6f8fb76992eeeb0a0bac30858d6a7295c34c50c6b3f99b058259905b32147df",
    ((2, 3), 1.0, 0.0): "3603acd201b6555518a6b1f658c2e311fe81a2adc0190edefcb72cc8f59eaa02",
    ((2, 3), 0.0, 1.0): "7e57039fe84cecfe7cb108477d03f3dc8a17a5fb6cdb503ef29d78c70836cf4d",
    ((3, 2), 0.3, 0.2): "e8f7a59a4fd2314cae9ec14542859f8e33a2c463e64cdae4f11a47e34c067539",
    ((3, 2), 0.17, 0.0861): "d70357aca182fd50697edfbbde60ae419e1f52de555c73dded4c879e714f383d",
    ((3, 2), 1.0, 0.0): "acd7e55bbcf31ce73b509b4e6c6e15dc537bc3b6986404517a13f67a58d1f869",
    ((3, 2), 0.0, 1.0): "607a0b5ec3f1d696598d36e0833dc92c901cbcc6e4e04ccf1c55d77e6d6211b5",
    ((2, 4), 0.3, 0.2): "0de2cab5fdfd73a4b19f77d30817a49ce822fcd9ac2116003a7fafea2bcdbcd7",
    ((2, 4), 0.17, 0.0861): "4b9d907d627759e016bfc4bdda08e6eaa3d714ad516206396a9dd6ce698920dc",
    ((2, 4), 1.0, 0.0): "1ec5aa1db4ba93b174b7bcde181907b2ded1c4e4b30fb40062d33e17d306e5da",
    ((2, 4), 0.0, 1.0): "73a9d6e83e3e1a06eec2dc64938f9e9db6f844c6f5d92a3135397d6fa9e5f831",
}


@pytest.mark.parametrize("dk, p, q", list(WINDOW_PMF_SHA256))
def test_window_pmfs_pinned(dk, p, q):
    tp = TreeParams(*dk)
    top = (1 << tp.window_slots) - 1
    pmfs = [initial_window_dist(tp, p)] + [
        child_window_dist(a, i, p, q, tp)
        for a in (1, 3, 5, top // 3, top // 5 * 2 + 1, top)
        for i in range(1, tp.d + 1)
    ]
    got = repr([list(pmf.items()) for pmf in pmfs]).encode()
    assert hashlib.sha256(got).hexdigest() == WINDOW_PMF_SHA256[dk, p, q]


def test_transition_rule_against_direct_slab_percolation():
    """Tabulate the child-window law by simulating the cluster directly."""
    tp = TP22
    p, q = 0.35, 0.2
    trials = 30000
    counts = {1: {}, 2: {}}
    for t in range(trials):
        oracle = make_oracle(tp, PercParams(p, q), 4242, t)
        layers = explore_layers(tp, PercParams(p, q), oracle, 2)
        cluster = {b""}
        # rebuild the cluster set from scratch for heights <= 2
        for u in [b""]:
            for j in oracle.open_short_children(u):
                cluster.add(j)
        for u in [b"\x01", b"\x02"]:
            if u in cluster:
                for j in oracle.open_short_children(u):
                    cluster.add(u + j)
        for s in oracle.open_long_children(b""):
            cluster.add(s)
        for i in (1, 2):
            w = 1 if bytes((i,)) in cluster else 0
            for j in (1, 2):
                if bytes((i, j)) in cluster:
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
    # the slot-by-slot pmf against the vectorised law, outcome order included
    windows = np.arange(1, 1 << tp.window_slots, dtype=np.int64)
    for i in range(1, tp.d + 1):
        rows, probs = ChildWindowLaw(tp, p, q)(windows, i)
        for a, row, prob in zip(windows.tolist(), rows, probs):
            keep = prob > 0.0
            expect = list(zip(row[keep].tolist(), prob[keep].tolist()))
            assert list(child_window_dist(a, i, p, q, tp).items()) == expect


@pytest.mark.parametrize("tp", [TP22, TP23, TP32])
@pytest.mark.parametrize("p, q", [(0.0, 0.2), (0.3, 0.2), (1.0, 0.0), (0.3, 1.0), (0.2, 0.0861)])
def test_matrix_matches_scalar_reference(tp, p, q):
    n = (1 << tp.window_slots) - 1
    dense = np.zeros((n, n))
    for a in range(1, n + 1):
        for i in range(1, tp.d + 1):
            for w, pr in child_window_dist(a, i, p, q, tp).items():
                if w:
                    dense[a - 1, w - 1] += pr
    m = window_matrix(tp, p, q).toarray()
    assert np.abs(m - dense).max() <= 1e-15


# sha256 of the mean matrix's CSR indptr, indices and data bytes, recorded
# from the per-chunk COO assembly that the law blocks replaced
CSR_SHA256 = {
    ((2, 2), 0.0, 0.0): (
        "272c06cff073e73c0604bef1707b24db80531d7b4327bee59f30395ba6f9f165",
        "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
        "c361da6e6fe97119d62c8b137be88b405d8a8a7d6990d8ee85b5024088f587dc",
    ),
    ((2, 2), 0.25, 0.03): (
        "dfb8051a13ae61fde91f504b71d47c05785397a9afebe4ffdaaf8aa2545c99f0",
        "efade3b6d723e5f87ebc6e97e9195e941b4237d3a2281c5a42e85c35ca3b3d4a",
        "e1ce67243d1be7f23a7940ff6fb20444e0cf8832a3332d76dd27805e46cb0b79",
    ),
    ((2, 2), 1.0, 0.5): (
        "b00069b942b5edf4adf777040f916874e77d1012f8f86df6f5c28620e7efee33",
        "4d2f3312e0e3b394bed66f319ea7ebc516e158e2d6bf81411569fa6411b57479",
        "32af337baf1127317a0f9e69b8a84fb904d8f1ad403a9440586bdf612b281c6f",
    ),
    ((2, 2), 0.1, 1.0): (
        "242eb8ecb9aa7ddef1326c11e96a764528dd7edead2160867c6e8db6b444b9a8",
        "dfde1b472cefb2faaf8bd599bc01c3b494327b4f485c27cb68f503023daa1c9f",
        "3731b2d49eddebbec01977548de96a370126f22ac8dcadcffd1d05b50b9519bc",
    ),
    ((2, 3), 0.0, 0.0): (
        "f019da1ef33c84f92e6632963d589c2eea5414cbd8f42809b3dd8c9b75600ade",
        "138baaa9bb7ee0af08f003dc56d31c2d5aa69dcd5aaed9b3b38d0c10775338d5",
        "f8c36afcffac205c16234daa160e15c98eda879595bb1e56f6740e82594bdf81",
    ),
    ((2, 3), 0.25, 0.03): (
        "bdd2bfc550a5ac431276852e94047080077a6e00638f064ccf599535d582ae2b",
        "c6345a88f311c15c3f56e7a5f0a0f95f09612472f508a150a19888c9590ae705",
        "b6cdaf04591b6eef144534065020bee290949542c210a81213379a4b7f16a73a",
    ),
    ((2, 3), 1.0, 0.5): (
        "e24016fa05c7bb9995f8e56c24176a2e5b8b1ff180f56939ceaba3eebb50bc5f",
        "d8c444d124e027b3c0392e6d7d6fe39dc92e783edafc2f36b3f43ecbee4f4a6e",
        "17b4d10854e61950b22ebacf7a3d0cdaaa20cb13cc2f44afb81c6403a13ececd",
    ),
    ((2, 3), 0.1, 1.0): (
        "32d7f0affe531ff02abd771542a500c1eaafdeebf7aaa5ce01f7f0c4cbda09f6",
        "a8202579280c95c4957e9d3297bff1a206dc98e97bb08f28ca2057a80507c92b",
        "1135cbb4b3c7ece584d86833bbd361f9e17663597e2f661f7d95e74cb7409854",
    ),
    ((3, 2), 0.0, 0.0): (
        "51aac7a5128abd07e97b0610749e6365b1010e57b453e299c75758a5fc0930cf",
        "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb",
        "ca8dbac2b784d2b0a39c3ad7e54897d6a990b759026cee82a4fe734f8bef5c13",
    ),
    ((3, 2), 0.25, 0.03): (
        "692666a95175f87d2754d1c6e2072d00f525661f8fea5bcf95ef71000c01a3dd",
        "c829eb2d2aade761f9d7adc38f10cb1e1265b3efb124661db300ef525999ed7b",
        "addad7c96c65abba6067017a455b9fd0ac056f556181a98b91f2426b054e6fba",
    ),
    ((3, 2), 1.0, 0.5): (
        "dd39fb2b2153c43a4a830799ad188a1cf58ad03c7333ce1110231e0ad0c49b7f",
        "5ed61bddf11f07b4524d6097269e0ce58e39ba0648b84260e43e771376ad2f16",
        "086f05044846dab079d4a4320e652af834ae7a52b03e2ccb6b135ef4a72e365e",
    ),
    ((3, 2), 0.1, 1.0): (
        "37d31a3f8b1cd08848c504e0b48f9b5a281b3656932eac2d21689e7e80098d8f",
        "289ffdcd40c282b6378da0f3cd8962ba7b0e4daf2e2ee51acc8619a1bf93fced",
        "7be5c08232f3ff9eb46a93c69f6dbafa01585c6d57cc053c5272ef07ac968274",
    ),
    ((2, 4), 0.25, 0.03): (
        "eb0619a4522fbe555ffabc10370408a96d21939b35fd0b5341212918db210834",
        "45e132999d5d816b6714c90abbf0b37f632482d4b97e18513ae546f547e83887",
        "36e0e78ff83f9691cd57c4eed996db8542b4ffe5ec03bc924b0420d4e16ce970",
    ),
}


@pytest.mark.parametrize("point", list(CSR_SHA256))
def test_matrix_csr_pinned(point):
    (d, k), p, q = point
    csr = window_matrix(TreeParams(d, k), p, q)
    assert csr.has_canonical_format
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (csr.indptr, csr.indices, csr.data))
    assert got == CSR_SHA256[point]


@lru_cache(maxsize=None)
def window_orbits(params):
    """Reference labelling: the orbit id of every window bitmask in [0,
    2^W), and the smallest window of each nonempty orbit.

    A vertex's code is (its bit, the sorted codes of its children), numbered
    over all vertices of one height at once by ``np.unique`` (Aho, Hopcroft
    & Ullman, 1974), so the empty window has id 0.
    """
    d, n = params.d, 1 << params.window_slots
    # bits[w, s] is slot s of window w, one byte each
    as_bytes = np.arange(n, dtype="<u4").view(np.uint8).reshape(n, 4)
    bits = np.unpackbits(as_bytes, axis=1, count=params.window_slots, bitorder="little")
    lo, hi = params.top_slot_base, params.window_slots
    codes, n_codes = bits[:, lo:hi], 2  # a top slot's code is its bit
    while lo > 0:
        lo, hi = (lo - 1) // d, lo  # one height nearer the root; slot s has children d*s+1..d*s+d
        children = np.sort(codes.reshape(n, hi - lo, d), axis=2)
        key = bits[:, lo:hi].astype(np.int64)
        for c in range(d):
            key = key * n_codes + children[:, :, c]
        ids, codes = np.unique(key.ravel(), return_inverse=True)
        codes = codes.reshape(key.shape)
        n_codes = len(ids)
    orbit = codes[:, 0]
    reps = np.unique(orbit, return_index=True)[1][1:]
    orbit.flags.writeable = reps.flags.writeable = False
    return orbit, reps


def ray_states(params, windows):
    """The ray state of every top slot of every window in ``windows``, in
    slot order along a new last axis: the slot's bits along its path from
    the window's base, its own bit as bit 0 and the base's as bit k-1."""
    k, states = params.k, []
    for u in range(params.top_slot_base, params.window_slots):
        v = slot_vertex(u, params)
        state = np.zeros_like(windows)
        for h in range(k):  # v[:h] is the path vertex at height h
            state |= (windows >> slot_index(v[:h], params) & 1) << (k - 1 - h)
        states.append(state)
    return np.stack(states, axis=-1)


def ray_counts(params, states, weights=1.0):
    """R(A, s) for each row A of ``states`` (``ray_states`` of one or more
    windows per row, flattened over its other axes), summed with
    ``weights``: the number of top slots in ray state s, column s - 1 for s
    in [1, 2^k); the zero state is no type."""
    n, width = len(states), 1 << params.k
    weights = np.broadcast_to(weights, states.shape).reshape(n, -1)
    cells = np.arange(n)[:, None] * width + states.reshape(n, -1)
    counts = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=n * width)
    return counts.reshape(n, width)[:, 1:]


def ray_matrix(tp, p, q):
    return build_offspring_matrix(tp, p, q).dense


@pytest.mark.parametrize("d, k", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
def test_ray_children_follows_ray_shift(d, k):
    # the chain's pairing of states s and s + 2^(k-1) sends each count to
    # the state _ray_shift names, the one rule the ray matrix is built from,
    # and its mean step over one vertex per state is that matrix
    tp = TreeParams(d, k)
    s = np.arange(1 << k)
    stay, born = np.random.default_rng(k).integers(0, 50, (2, 5, 1 << k))
    expect = np.zeros_like(stay)
    np.add.at(expect.T, _ray_shift(tp, s), stay.T)
    np.add.at(expect.T, _ray_shift(tp, s) + 1, born.T)
    expect[:, 0] = 0
    assert (_ray_children(tp, stay, born) == expect).all()
    pi = _ray_pi(tp, 0.3, 0.1)
    mean = _ray_children(tp, np.diag(tp.d * (1.0 - pi)), np.diag(tp.d * pi))
    assert np.abs(mean[1:, 1:] - ray_matrix(tp, 0.3, 0.1)).max() <= 1e-15


@pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (5, 2)])
def test_count_law_blocks_match_subset_enumeration(d, k):
    # the law of the ray counts, child by child: over the 2^t top-slot
    # subsets of child i's window, E[R(B_i) | A] = R_i(A) (d T), where R_i
    # counts A's top slots below child i, whose d children are B_i's top slots
    tp = TreeParams(d, k)
    n_windows = (1 << tp.window_slots) - 1
    rng = np.random.default_rng(d * 10 + k)
    a = np.arange(1, n_windows + 1) if n_windows <= 512 else np.unique(
        np.r_[1, n_windows, rng.integers(1, n_windows, 300)]
    )
    below = ray_states(tp, a).reshape(len(a), d, -1)  # parent top slots by child
    for p, q in itertools.product((0.0, 0.2, 1.0), (0.0, 0.05, 0.5, 1.0)):
        dt = ray_matrix(tp, p, q)
        for i in range(1, d + 1):
            windows, probs = ChildWindowLaw(tp, p, q)(a, i)
            expect = ray_counts(tp, below[:, i - 1]) @ dt
            got = ray_counts(tp, ray_states(tp, windows), probs[:, :, None])
            assert np.abs(got - expect).max() <= 1e-12 * max(1, expect.max())


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chain_bytes_bounds_traced_peak():
    # the estimate behind the chain's memory cap covers a ray chain run,
    # alone or in survival's batches
    tp = TreeParams(3, 3)
    for trials in (300, 2000, 20000):
        rng = np.random.default_rng(0)
        sim = traced_peak(lambda: simulate_window_chain(tp, 0.2, 0.02, rng, 30, trials))
        assert sim <= _chain_bytes(tp, trials, 30)
        survival = traced_peak(lambda: chain_survival(tp, 0.2, 0.02, 30, 2 * trials, rng, trials))
        assert survival <= _chain_bytes(tp, trials, 30)


@pytest.mark.parametrize("tp", [TreeParams(16, 2), TreeParams(17, 2)])
def test_chain_refused_before_its_arrays(tp):
    # the chain never builds the window law's 2^t top-slot outcomes, and the
    # ray's estimate refuses a history it cannot hold before allocating
    def refused():
        with pytest.raises(SizeCapError):
            simulate_window_chain(tp, 0.01, 0.01, np.random.default_rng(0), 10**9)

    assert traced_peak(refused) < 8 << tp.n_top_slots
    rng = np.random.default_rng(0)
    ran = traced_peak(lambda: simulate_window_chain(tp, 0.01, 0.001, rng, 60, 100))
    assert ran < 8 << tp.n_top_slots


@pytest.mark.parametrize("tp", [TP22, TP23, TP32])
@pytest.mark.parametrize("p, q", [(0.0, 0.2), (0.3, 0.2), (1.0, 0.0), (0.3, 1.0), (0.2, 0.0861)])
def test_quotient_is_lumped_full_matrix(tp, p, q):
    # M R = R (d T): the ray matrix is the quotient of the full matrix along
    # the ray counts R, as a lumping is along an orbit indicator U
    full = window_matrix(tp, p, q).toarray()
    counts = ray_counts(tp, ray_states(tp, np.arange(1, 1 << tp.window_slots)))
    assert counts.sum(axis=1).all() and counts.sum(axis=0).all()  # no zero row or column
    assert np.abs(full @ counts - counts @ ray_matrix(tp, p, q)).max() <= 1e-14
    # and M is lumpable over window orbits: the law is invariant under the
    # slab's automorphisms, so orbit members have equal rows M U
    orbit, reps = window_orbits(tp)
    lumped = full @ (orbit[1:, None] == np.arange(1, len(reps) + 1))
    assert np.abs(lumped - lumped[reps[orbit[1:] - 1] - 1]).max() <= 1e-15


@pytest.mark.parametrize("p, q", [(0.25, 0.0315), (0.0, 0.1)])
def test_quotient_is_lumped_full_matrix_d2k4(p, q):
    # M R = R (d T) at (2,4), the widest ray, as a sparse product: dense,
    # the 32767-type window matrix would take 8.6 GB.  The lumping is exact,
    # so it stands for a power solve of M against the ray's rho
    tp = TreeParams(2, 4)
    counts = ray_counts(tp, ray_states(tp, np.arange(1, 1 << tp.window_slots)))
    assert counts.sum(axis=1).all() and counts.sum(axis=0).all()
    lumped = window_matrix(tp, p, q) @ counts
    assert np.abs(lumped - counts @ ray_matrix(tp, p, q)).max() <= 1e-12


def test_law_rejects_bad_probabilities():
    for p, q in [(1.5, 0.1), (-0.5, 0.1), (0.2, math.nan), (0.2, 1.0000001)]:
        with pytest.raises(ParameterError):
            build_offspring_matrix(TP22, p, q)
        with pytest.raises(ParameterError):
            child_window_dist(1, 1, p, q, TP22)
        with pytest.raises(ParameterError):
            simulate_window_chain(TP22, p, q, np.random.default_rng(0), 3)
    for p in (1.5, -0.5, math.nan):
        with pytest.raises(ParameterError):
            initial_window_dist(TP22, p)


def test_build_matrix_hand_example():
    m = window_matrix(TP22, 0.0, 1.0)
    top_pair = 0b110
    # row/column index w - 1 holds window w
    assert m[0, top_pair - 1] == pytest.approx(2.0)
    assert m[top_pair - 1, 0] == pytest.approx(2.0)
    assert m[0, 0] == 0.0


def test_row_masses_bounded_by_d():
    for tp, p, q in [(TP22, 0.3, 0.2), (TP32, 0.5, 0.1), (TP23, 0.2, 0.4)]:
        sums = np.asarray(window_matrix(tp, p, q).sum(axis=1)).ravel()
        assert (sums <= tp.d + 1e-12).all()
    # equality iff children are a.s. nonempty, e.g. the full window at p=1
    sums = np.asarray(window_matrix(TP22, 1.0, 0.5).sum(axis=1)).ravel()
    assert sums[-1] == pytest.approx(2.0)
    # while the row of {o} keeps a deficit: both top slots can stay closed
    assert sums[0] == pytest.approx(2.0 * (1.0 - 0.25))


@pytest.mark.parametrize("tp", [TP22, TP32])
def test_root_weight_consistency(tp):
    """Sum of M(A, B) over root-containing B equals the direct probability
    that each child window holds its own base, summed over children."""
    p, q = 0.4, 0.15
    m = window_matrix(tp, p, q)
    for a in (1, 2, 5, (1 << tp.window_slots) - 1):
        # column j holds window B = j + 1, which contains the root iff j is even
        via_matrix = m[a - 1].toarray().ravel()[::2].sum()
        direct = 0.0
        for i in range(1, tp.d + 1):
            pmf = child_window_dist(a, i, p, q, tp)
            direct += sum(pr for w, pr in pmf.items() if w & 1)
        assert abs(via_matrix - direct) < 1e-12


def test_matrix_matches_child_dist_rates():
    m = window_matrix(TP22, 0.3, 0.2)
    for a in range(1, 8):
        expect = {}
        for i in (1, 2):
            for w, pr in child_window_dist(a, i, 0.3, 0.2, TP22).items():
                if w:
                    expect[w] = expect.get(w, 0.0) + pr
        row = m.getrow(a - 1)
        got = {int(j) + 1: float(v) for j, v in zip(row.indices, row.data)}
        assert expect == pytest.approx(got, abs=1e-14)


def test_simulate_trivial_cases():
    # every trial starts from the root alone, in ray state 1
    rng = np.random.default_rng(0)
    _, x = simulate_window_chain(TP22, 0.0, 0.0, rng, 4, trials=8)
    assert (x[:, 0] == 1).all() and (x[:, 1:] == 0).all()
    _, x = simulate_window_chain(TP22, 0.0, 1.0, rng, 4, trials=8)
    assert (x == [1, 0, 4, 0, 16]).all()


def test_simulate_population_cap(monkeypatch):
    monkeypatch.setattr("treeperc.window_chain.POPULATION_CAP", 10**4)
    rng = np.random.default_rng(0)
    with pytest.raises(SizeCapError):
        simulate_window_chain(TP22, 1.0, 1.0, rng, 30, trials=4)


def test_simulate_memory_cap_before_allocating():
    # 10^5 trials over 2000 generations would hold a 1.6 GB history, and one
    # batch of 10^8 trials 64 GB of ray counts and a 49 GB history
    tp = TreeParams(2, 4)
    rng = np.random.default_rng(0)

    def refused_peak(fn, *args):
        def run():
            with pytest.raises(SizeCapError, match="above the cap"):
                fn(*args)

        return traced_peak(run)

    assert _chain_bytes(tp, 10**5, 2000) > MAX_ARRAY_BYTES
    assert refused_peak(simulate_window_chain, tp, 0.25, 0.05, rng, 2000, 10**5) < 1 << 20
    assert _chain_bytes(tp, 10**8, 60) > MAX_ARRAY_BYTES
    assert refused_peak(chain_survival, tp, 0.25, 0.05, 60, 10**8, rng, 10**8) < 1 << 20


def test_chain_survival_keeps_no_history_and_bounds_its_work():
    # survival reads only the last generation: a deep run holds no
    # (trials, depth + 1) history, and its depth is bounded by its worst
    # case, every trial alive to the last generation, instead
    rng = np.random.default_rng(0)
    deep = traced_peak(lambda: chain_survival(TP22, 0.2, 0.1, 10**6, 1000, rng))
    assert deep <= _chain_bytes(TP22, 1000, 10**6, history=False) < 2 << 20
    # admitted: the CLI defaults on the widest ray, and 10^5 trials to 10^4
    _check_run(TreeParams(2, 4), 60, 10**5, 20000, history=False)
    _check_run(TP22, 10**4, 10**5, 20000, history=False)
    # refused before the first draw: one trial to depth 2 * 10^8
    state = rng.bit_generator.state
    with pytest.raises(SizeCapError, match="count cells, above the cap"):
        chain_survival(TP22, 0.2, 0.1, 2 * 10**8, 1, rng)
    assert rng.bit_generator.state == state


def test_simulate_returns_last_generation_and_layer_counts():
    rng = np.random.default_rng(3)
    final, x = simulate_window_chain(TP23, 0.3, 0.1, rng, 6, trials=50)
    assert final.shape == (50, (1 << TP23.k) - 1)
    assert x.shape == (50, 7)
    # x counts the individuals in an odd ray state (the even columns), the
    # vertices that are in the cluster themselves
    assert (x[:, -1] == final[:, 0::2].sum(axis=1)).all()


def reference_simulate(params, p, q, rng, generations, trials=1):
    """The count-level window chain the ray chain replaced, kept as an
    independent check: the root's window drawn from ``initial_window_dist``,
    then each occupied window type drawing its offspring from the rows of
    the full law blocks for all trials at once.  x counts the windows that
    hold their own base; generation n of the window chain covers heights
    [n, n + k - 1] of the cluster."""
    blocks = law_blocks(params, p, q)
    n_types = (1 << params.window_slots) - 1
    cur = np.zeros((trials, n_types), dtype=np.int64)
    nxt = np.zeros_like(cur)
    x = np.zeros((trials, generations + 1), dtype=np.int64)
    support, pvals = map(np.array, zip(*sorted(initial_window_dist(params, p).items())))
    drawn = support[rng.choice(len(support), size=trials, p=pvals / pvals.sum())]
    cur[np.arange(trials), drawn - 1] = 1
    x[:, 0] = cur[:, 0::2].sum(axis=1)
    for gen in range(generations):
        nxt.fill(0)
        for row in np.flatnonzero(cur.any(axis=0)):
            for block in blocks:
                s, e = block.indptr[row], block.indptr[row + 1]
                draws = rng.multinomial(cur[:, row], block.data[s:e])
                outcomes = block.indices[s:e]
                live = outcomes > 0
                nxt[:, outcomes[live] - 1] += draws[:, live]
        cur, nxt = nxt, cur
        x[:, gen + 1] = cur[:, 0::2].sum(axis=1)
        if not cur.any():
            break
    return cur, x


def chain_run(simulate, tp, p, q, seed, generations, trials):
    """``(final, x, next)``: a chain run and the generator's next draw after it."""
    rng = np.random.default_rng(seed)
    final, x = simulate(tp, p, q, rng, generations, trials=trials)
    return final, x, int(rng.integers(2**63))


def pmf_distance(a, b):
    """Total variation between the empirical pmfs of two equal-size integer
    samples, and its 4-SE bound: the sum over values of the binomial SE of
    half the difference of two frequencies, as in criterion 5."""
    n, tv, bound = len(a), 0.0, 0.0
    for v in set(a.tolist()) | set(b.tolist()):
        f1, f2 = float((a == v).mean()), float((b == v).mean())
        pbar = 0.5 * (f1 + f2)
        tv += 0.5 * abs(f1 - f2)
        bound += 4 * 0.5 * math.sqrt(pbar * (1.0 - pbar) * 2.0 / n)
    return tv, bound


@pytest.mark.parametrize("tp, p, q", [(TP22, 0.2, 0.15), (TP23, 0.2, 0.08), (TP32, 0.15, 0.08)])
def test_ray_chain_matches_window_chain_in_law(tp, p, q):
    # independent samples of the ray chain and of the window chain: the pmf
    # of x_n at every height n up to 8, and survival to depth 20, which is
    # generation 20 of the ray and generation 20 - k + 1 of the window chain
    n, generations, depth = 3000, 8, 20
    _, ray_x = simulate_window_chain(tp, p, q, np.random.default_rng(1), generations, n)
    _, window_x = reference_simulate(tp, p, q, np.random.default_rng(2), generations, n)
    assert (ray_x[:, 0] == 1).all() and (window_x[:, 0] == 1).all()
    for h in range(1, generations + 1):
        tv, bound = pmf_distance(ray_x[:, h], window_x[:, h])
        assert tv < bound, (h, tv, bound)
    ray, _ = chain_survival(tp, p, q, depth, n, np.random.default_rng(3))
    final, _ = reference_simulate(tp, p, q, np.random.default_rng(4), depth - tp.k + 1, n)
    window = float(final.any(axis=1).mean())
    pbar = 0.5 * (ray + window)
    assert 0.0 < pbar < 1.0
    assert abs(ray - window) < 4 * math.sqrt(pbar * (1.0 - pbar) * 2.0 / n)


# sha256 over (final, x, next draw) of every run in
# test_simulate_matches_all_trials_reference, recorded from the ray chain
CHAIN_SHA256 = {
    ((2, 2), 0.0, 0.0): "9de19d70146d03cd605e002e3e10a4348efb39df695aae936bfe38cb1378faf9",
    ((2, 2), 0.2, 0.1): "24a46d245cf2dc385abe61881cb83b9f83849415020f5eda2176104b30634594",
    ((2, 2), 0.2, 0.3): "0397a03c40afa33f0c9bd938a37df5100874d7e5c3ec2c4c407b044088f0ad30",
    ((2, 3), 0.0, 0.0): "b08fb4daa8fb52535c4d3d488555a428cfab3b0b5db8a8d987c49cb0012c2046",
    ((2, 3), 0.2, 0.05): "4eecfb564aa717781f677bda31b90b4b4bf6b690e87d539211e62f30968146ad",
    ((2, 3), 0.2, 0.15): "9d5e6841ad8df334e2032c193b79b45b459d09c82fc282d45e2cd19cea2e4d13",
    ((3, 2), 0.0, 0.0): "9de19d70146d03cd605e002e3e10a4348efb39df695aae936bfe38cb1378faf9",
    ((3, 2), 0.2, 0.03): "ce8c30a4a0a1e0eb68e2362e30884cc20b66f113ff66d9b024ae70b3c9cdcdec",
    ((3, 2), 0.2, 0.12): "cfb08b34be4743da73203a49851caa5034e8272ad217bedcf30d2fda016e2dfc",
}


def chain_digest(tp, p, q):
    digest = hashlib.sha256()
    for trials, generations, seed in itertools.product((1, 50, 3000), (0, 8), (0, 1, 2)):
        final, x, after = chain_run(simulate_window_chain, tp, p, q, seed, generations, trials)
        assert final.dtype == x.dtype == np.int64
        digest.update(final.tobytes() + x.tobytes() + after.to_bytes(8, "little"))
    return digest.hexdigest()


@pytest.mark.parametrize("point", list(CHAIN_SHA256))
def test_simulate_matches_all_trials_reference(point):
    # a pin of the ray chain's outputs and of the generator state after each
    # run, at extinct, subcritical and supercritical points; the window
    # chain (reference_simulate) agrees with it in law, not draw for draw
    (d, k), p, q = point
    assert chain_digest(TreeParams(d, k), p, q) == CHAIN_SHA256[point]


def test_chain_survival_stream_position_pinned():
    # criterion 4's pattern: the second estimate reads the generator where
    # the first left it; recorded from the ray chain
    rng = np.random.default_rng(2024)
    below = chain_survival(TP22, 0.2, 0.138, 60, 2000, rng)
    above = chain_survival(TP22, 0.2, 0.178, 60, 2000, rng)
    assert below == (0.01, 0.0022248595461286987)
    assert above == (0.1765, 0.008524897360085926)


def test_chain_outputs_pinned():
    # recorded from the ray chain
    freq, se = chain_survival(TP23, 0.2, 0.0861, 60, 300, np.random.default_rng(7))
    assert (freq, se) == (0.19666666666666666, 0.02294841235531621)
    # the call behind `limits --regime sub --d 2 --k 2 --p 0.2 --q 0.1
    # --trials 3000 --horizon 12` at the default seed
    _, x = simulate_window_chain(TP22, 0.2, 0.1, np.random.default_rng(20240817), 12, trials=3000)
    assert x.sum(axis=0).tolist() == [
        3000, 1255, 1599, 1125, 1021, 876, 711, 602, 523, 439, 402, 323, 286
    ]


def test_chain_survival_trivial():
    rng = np.random.default_rng(1)
    # p = q = 0: the root has no children in the cluster
    freq, se = chain_survival(TP22, 0.0, 0.0, 10, 500, rng)
    assert freq == 0.0
    # p = 1: every short edge is open and the cluster lives on
    freq, _ = chain_survival(TP22, 1.0, 0.0, 10, 500, rng)
    assert freq == 1.0


def exact_survival(params, p, q, depth):
    """P(alive at ``depth``) in the sense of ``chain_survival``, from the
    offspring pgf of the ray process: it is alive at generation n exactly
    when the cluster meets depths [n-k+1, n].  Entry s of e_j is the
    probability that the process started from one vertex in ray state s is
    extinct after j generations.  Each of the d children of a vertex in
    state s is set independently with probability pi_s, so e_j(s) =
    ((1 - pi_s) e_{j-1}(s << 1) + pi_s e_{j-1}(s << 1 | 1))^d, the shift
    keeping k bits, where the zero state stays extinct (e = 1); the root
    starts in state 1."""
    k = params.k
    s = np.arange(1 << k)
    pi = 1.0 - (1.0 - p * (s & 1)) * (1.0 - q * (s >> (k - 1) & 1))
    to = (s << 1) & ((1 << k) - 1)
    extinct = (s == 0).astype(float)
    for _ in range(depth):
        extinct = ((1.0 - pi) * extinct[to] + pi * extinct[to | 1]) ** params.d
    return 1.0 - extinct[1]


def window_exact_survival(params, p, q, depth):
    """``exact_survival`` from the offspring pgf of the window chain's full
    law blocks: e_j = prod_i (block_i @ [1, e_{j-1}]) over windows, with
    column 0 the empty window, after depth - k + 1 generations from the
    root-window law."""
    blocks = law_blocks(params, p, q)
    extinct = np.zeros(blocks[0].shape[0])
    for _ in range(depth - params.k + 1):
        s = np.concatenate([[1.0], extinct])
        extinct = np.prod([block @ s for block in blocks], axis=0)
    start = initial_window_dist(params, p)
    return 1.0 - sum(pr * extinct[a - 1] for a, pr in start.items())


@pytest.mark.parametrize("tp, p, q", [(TP22, 0.2, 0.18), (TP22, 0.3, 0.05), (TP23, 0.2, 0.0861)])
def test_ray_pgf_matches_window_pgf(tp, p, q):
    # pins the reference to the window chain's own law
    assert abs(exact_survival(tp, p, q, 60) - window_exact_survival(tp, p, q, 60)) <= 1e-12


@pytest.mark.parametrize(
    "tp, p, q, expect", [(TP23, 0.2, 0.0861, 0.185286), (TP22, 0.2, 0.18, 0.203135)]
)
def test_survival_estimates_match_exact_pgf(tp, p, q, expect):
    exact = exact_survival(tp, p, q, 60)
    assert exact == pytest.approx(expect, abs=5e-7)
    estimates = (
        chain_survival(tp, p, q, 60, 4000, np.random.default_rng(11)),
        estimate_survival(tp, PercParams(p, q), 1000, 60, 13),
    )
    for freq, se in estimates:
        assert abs(freq - exact) < 4 * se


@pytest.mark.parametrize("d", [16, 17, 18, 19])
def test_survival_chain_runs_at_large_d(tmp_path, d):
    # the ray has 4 states at (d, 2), where the window law has 2^d top-slot
    # outcomes; q lies below the branching lower bound (1 - p d) / d^2, so
    # the point is subcritical
    out = tmp_path / "s.json"
    argv = [
        "survival", "--method", "chain", "--d", str(d), "--k", "2", "--p", "0.01",
        "--q", "0.002", "--depth", "20", "--trials", "20000", "--out", str(out),
    ]
    assert main(argv) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert 0.002 < (1 - 0.01 * d) / d**2
    assert abs(row["frequency"] - exact_survival(TreeParams(d, 2), 0.01, 0.002, 20)) < 4 * row["se"]


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


def swap_subtrees(tp, at, a, b):
    """The window map of the slab automorphism that swaps the subtrees below
    children ``at + bytes((a,))`` and ``at + bytes((b,))``, as an array over
    all windows."""
    windows = np.arange(1 << tp.window_slots, dtype=np.int64)
    image = np.zeros_like(windows)
    h = len(at)
    for s in range(tp.window_slots):
        v = slot_vertex(s, tp)
        if len(v) > h and v[:h] == at and v[h] in (a, b):
            v = v[:h] + bytes((a + b - v[h],)) + v[h + 1 :]
        image |= (windows >> s & 1) << slot_index(v, tp)
    return image


def swap_generators(tp):
    """Adjacent child swaps below every vertex of height <= k-2; together
    they generate the slab's automorphism group."""
    return [
        swap_subtrees(tp, slot_vertex(s, tp), a, a + 1)
        for s in range(tp.top_slot_base)
        for a in range(1, tp.d)
    ]


@pytest.mark.parametrize(
    "d, k, nonempty",
    [(2, 2, 5), (2, 3, 41), (3, 2, 7), (3, 3, 239), (2, 4, 1805), (4, 2, 9), (16, 2, 33), (19, 2, 39)],
)
def test_window_orbit_counts(d, k, nonempty):
    # f(0) = 2, f(h) = 2 C(f(h-1) + d - 1, d) orbits of height-h subtrees
    # (a bit and a multiset of d child orbits), the empty window among them
    f = 2
    for _ in range(k - 1):
        f = 2 * math.comb(f + d - 1, d)
    assert nonempty == f - 1 == len(window_orbits(TreeParams(d, k))[1])


@pytest.mark.parametrize("tp", [TP23, TreeParams(2, 4)])
def test_window_orbits_invariant_under_swaps(tp):
    orbit, _ = window_orbits(tp)
    root_swap = swap_subtrees(tp, b"", 1, 2)
    depth1_swap = swap_subtrees(tp, b"\x01", 1, 2)
    assert (orbit[root_swap] == orbit).all()
    assert (orbit[depth1_swap] == orbit).all()
    # both move windows: {(1,)} to {(2,)}, and {(1,1)} to {(1,2)}
    assert root_swap[1 << 1] == 1 << 2
    assert depth1_swap[1 << 3] == 1 << 4


@pytest.mark.parametrize("tp", [TP22, TP23, TP32, TreeParams(3, 3)])
def test_window_orbits_are_automorphism_orbits(tp):
    # label each window by the smallest window reachable under the
    # generators: the orbit partition found by brute force
    label = np.arange(1 << tp.window_slots)
    generators = swap_generators(tp)
    while True:
        nxt = label
        for g in generators:
            nxt = np.minimum(nxt, nxt[g])
        if (nxt == label).all():
            break
        label = nxt
    orbit, reps = window_orbits(tp)
    assert len(np.unique(label)) == len(reps) + 1
    # the two labellings determine each other
    assert (label == label[np.concatenate([[0], reps])][orbit]).all()

"""The library's input boundary.  Every name that ``treeperc`` exports either
returns or raises one of the ``treeperc.errors`` classes, whatever kind of
value each argument of a kind the boundary checks is given: counts, seeds,
probabilities, reals, tolerances, d and k, matrices, ``pf_eigen``'s warm
start.  Structural arguments (vertex sets, oracles, generators, cover
configurations) are drawn well formed.  Valid counts and (d, k) stay small,
and a short cluster's p subcritical, so that every valid call ends within
the deadline and in little memory."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import treeperc
from treeperc import errors
from treeperc.errors import ParameterError

ERRORS = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)

# values of no numeric kind the boundary accepts
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.just(np.array([0.1, 0.2])),
    st.just(np.bool_(True)),
    st.just(1j),
)
NON_INT_REAL = st.one_of(
    st.floats(),
    st.fractions(),
    st.sampled_from([np.float64(0.2), np.float32(0.5), np.int64(1), Fraction(1, 5)]),
)
ANY_REAL = st.one_of(NON_INT_REAL, st.integers())


def mostly(valid, *others):
    """A valid value six times in seven, so that a call of six arguments is
    valid in about two draws of five; else one of ``others``."""
    return st.integers(0, 6).flatmap(lambda i: valid if i else st.one_of(*others))


def count(low, high):
    """Counts: mostly the ints of [low, high] (small), else ints below low
    and values of every other kind."""
    return mostly(st.integers(low, high), st.integers(low - 3, low - 1), NON_INT_REAL, JUNK)


PROB = mostly(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 1, Fraction(1, 5), np.float32(0.5)])),
    ANY_REAL,
    JUNK,
)
# a probability of at most 0.3, under 1/d, or no probability at all
SMALL_P = mostly(st.floats(0.0, 0.3), ANY_REAL.filter(lambda v: not 0 <= v <= 1), JUNK)
REAL = mostly(st.floats(-0.01, 0.01), ANY_REAL, JUNK)
TOL = mostly(st.floats(1e-12, 1e-2), ANY_REAL, JUNK)
SEED = mostly(st.integers(0, 2**64 - 1), st.integers(-3, -1), st.just(2**64), NON_INT_REAL, JUNK)
# (d, k): valid pairs up to (3, 3), or d and k of any other kind
TREE = mostly(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.tuples(count(2, 3), count(2, 3)))
VERTICES = st.sets(st.binary(max_size=3), max_size=4)
DISTRIBUTION = mostly(
    st.sampled_from([{0: 1.0}, {0: 0.5, 1: 0.5}, {0: 0.6, 1: 0.3, 2: 0.1}]),
    st.dictionaries(st.integers(0, 2), st.floats()),
)


# warm starts: no start, real vectors of any length and entry, nested lists
X0 = st.one_of(
    st.none(),
    st.lists(st.floats(), max_size=4),
    st.lists(st.lists(st.floats(0.0, 1.0), max_size=2), max_size=2),
    JUNK,
)


def square(entries):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


MATRIX = mostly(
    square(st.floats(0.0, 2.0)),
    square(st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf])),
    st.lists(st.lists(st.floats(0.0, 2.0), max_size=3), max_size=3),
    st.sampled_from([sparse.csr_matrix(np.eye(2)), np.eye(2, dtype=complex), np.zeros((0, 0))]),
    JUNK,
)


def tree(d_k):
    return treeperc.TreeParams(*d_k)


def oracle(d_k, p, q, seed=1, trial=0):
    return treeperc.EdgeOracle(tree(d_k), p, q, seed, trial)


def config(d_k, p, q, seed, trial=0):
    return treeperc.HatConfig.random(tree(d_k), p, q, seed, trial)


def rng():
    return np.random.default_rng(0)


# name -> (call, one strategy per argument); the call builds the tree and
# the other structural arguments itself, so their errors are the call's
CASES = {
    # any ints too: a window past the cap is refused before d^k is computed
    "TreeParams": (tree, [st.one_of(TREE, st.tuples(st.integers(), st.integers()))]),
    "PercParams": (treeperc.PercParams, [PROB, PROB]),
    "AdmissibleSet": (treeperc.AdmissibleSet, [st.binary(max_size=3), count(0, 64)]),
    "EdgeOracle": (oracle, [TREE, PROB, PROB, SEED, SEED]),
    "HatConfig": (lambda *args: config(*args).open_digits(()), [TREE, PROB, PROB, SEED, SEED]),
    "omega_bar": (lambda t: treeperc.omega_bar(tree(t)).open_digits(()), [TREE]),
    "explore_hat_to_C": (
        lambda t, *args: treeperc.explore_hat_to_C(tree(t), config(t, *args)),
        [TREE, PROB, PROB, SEED],
    ),
    "dominance_test": (
        lambda t, *args: treeperc.dominance_test(tree(t), *args),
        [TREE, PROB, PROB, REAL, count(1, 4), SEED],
    ),
    "finite_coupling": (
        treeperc.finite_coupling,
        [DISTRIBUTION, DISTRIBUTION, st.integers(0, 2)],
    ),
    "rho": (lambda p, q, t, tol: treeperc.rho(p, q, tree(t), tol), [PROB, PROB, TREE, TOL]),
    "qc": (lambda p, t, tol: treeperc.qc(p, tree(t), tol), [PROB, TREE, TOL]),
    "qc_sweep": (
        lambda grid, t, tol: treeperc.qc_sweep(grid, tree(t), tol),
        [st.lists(PROB, max_size=3), TREE, TOL],
    ),
    "asymptotics_table": (
        treeperc.asymptotics_table, [PROB, st.lists(count(2, 3), max_size=2), count(2, 3), TOL]
    ),
    "s_star": (treeperc.s_star, [PROB, count(2, 3)]),
    "pf_eigen": (treeperc.pf_eigen, [MATRIX, TOL, X0]),
    "build_offspring_matrix": (
        lambda t, p, q: treeperc.build_offspring_matrix(tree(t), p, q), [TREE, PROB, PROB]
    ),
    "child_window_dist": (
        lambda a, child, p, q, t: treeperc.child_window_dist(a, child, p, q, tree(t)),
        [count(1, 130), count(1, 4), PROB, PROB, TREE],
    ),
    "initial_window_dist": (lambda t, p: treeperc.initial_window_dist(tree(t), p), [TREE, PROB]),
    "simulate_window_chain": (
        lambda t, p, q, *args: treeperc.simulate_window_chain(tree(t), p, q, rng(), *args),
        [TREE, PROB, PROB, count(0, 30), count(1, 50)],
    ),
    "chain_survival": (
        lambda t, p, q, depth, trials, batch: treeperc.chain_survival(
            tree(t), p, q, depth, trials, rng(), batch
        ),
        [TREE, PROB, PROB, count(2, 30), count(1, 50), count(1, 20)],
    ),
    "explore_layers": (
        lambda t, p, q, n: treeperc.explore_layers(
            tree(t), treeperc.PercParams(p, q), oracle(t, p, q), n
        ),
        [TREE, PROB, PROB, count(0, 8)],
    ),
    "estimate_survival": (
        lambda t, p, q, *args: treeperc.estimate_survival(
            tree(t), treeperc.PercParams(p, q), *args
        ),
        [TREE, PROB, PROB, count(1, 10), count(2, 30), SEED],
    ),
    "conditioned_cluster_sample": (
        lambda t, p, q, *args: treeperc.conditioned_cluster_sample(
            tree(t), treeperc.PercParams(p, q), *args
        ),
        [TREE, PROB, PROB, count(0, 30), count(0, 2), count(1, 5), SEED],
    ),
    "criteria_eval": (
        lambda t, *args: treeperc.criteria_eval(tree(t), *args),
        [TREE, SMALL_P, REAL, count(1, 3), SEED],
    ),
    # a short cluster at p >= 1/d is supercritical: only its 10^7-vertex cap
    # ends it, after the cluster set and the oracle's memo reach about 1.4 GB
    # (about 140 bytes a vertex) and some 100 s (criteria_eval's p too)
    "short_cluster": (
        lambda v, t, p, q: treeperc.short_cluster(v, oracle(t, p, q)),
        [VERTICES, TREE, SMALL_P, PROB],
    ),
    "long_boundary": (
        lambda v, t, p, q: treeperc.long_boundary(v, oracle(t, p, q)),
        [VERTICES, TREE, PROB, PROB],
    ),
    "decompose": (lambda v, t: treeperc.decompose(v, tree(t)), [VERTICES, TREE]),
}


def test_cases_cover_every_export():
    exported = {name for name in vars(treeperc) if not name.startswith("_")}
    modules = {name for name, v in vars(treeperc).items() if type(v) is type(treeperc)}
    assert set(CASES) == exported - modules


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=3000)
@given(data=st.data())
def test_every_export_returns_or_raises_a_package_error(name, data):
    call, strategies = CASES[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        call(*args)
    except ERRORS:
        pass


def test_motivating_probes():
    tp = treeperc.TreeParams(2, 2)
    # a real scalar of any type is taken as its float
    assert treeperc.qc(Fraction(1, 5), tp) == treeperc.qc(0.2, tp)
    probes = [
        lambda: treeperc.TreeParams(2, 2.5),
        lambda: treeperc.chain_survival(tp, 0.2, 0.1, 10, True, rng()),
        lambda: treeperc.qc(0.2, tp, tol=True),
        lambda: treeperc.EdgeOracle(tp, 0.2, 0.1, seed=1.5),
        lambda: treeperc.conditioned_cluster_sample(
            tp, treeperc.PercParams(0.2, 0.1), 10, 1.0, 10, 1
        ),
        lambda: treeperc.pf_eigen(sparse.csr_matrix(np.eye(2))),
    ]
    for probe in probes:
        with pytest.raises(ParameterError):
            probe()

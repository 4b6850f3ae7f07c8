import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from treeperc.errors import MIN_TOL, ParameterError
from treeperc.spectral import pf_eigen
from treeperc.tree import TreeParams
from treeperc.window_chain import build_offspring_matrix


def test_symmetric_circulant():
    res = pf_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert res.rho == pytest.approx(3.0, abs=1e-10)
    assert res.nu[0] == pytest.approx(res.nu[1], rel=1e-8)


def test_periodic_matrix():
    res = pf_eigen([[0.0, 2.0], [2.0, 0.0]])
    assert res.rho == pytest.approx(2.0, abs=1e-10)


def test_window_matrix_two_cycle():
    m = build_offspring_matrix(TreeParams(2, 2), 0.0, 1.0)
    res = pf_eigen(m)
    assert res.rho == pytest.approx(2.0, abs=1e-10)
    # brute-force dense oracle on the same 7x7 matrix
    dense = m.csr.toarray()
    brute = max(abs(np.linalg.eigvals(dense)))
    assert res.rho == pytest.approx(float(brute), abs=1e-9)


def test_normalizations_and_residual():
    rng = np.random.default_rng(7)
    a = rng.random((12, 12))
    res = pf_eigen(a, tol=1e-12)
    left = pf_eigen(a.T, tol=1e-12)
    assert res.residual <= 1e-12 and left.residual <= 1e-12
    assert left.rho == pytest.approx(res.rho, abs=1e-10)
    assert res.nu.sum() == pytest.approx(1.0, abs=1e-10)
    assert left.nu.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.abs(left.nu @ a - res.rho * left.nu).max() <= 1e-10
    assert (left.nu > 0).all() and (res.nu > 0).all()


def test_warm_start_reaches_same_pair():
    rng = np.random.default_rng(5)
    a = rng.random((10, 10))
    cold = pf_eigen(a, tol=1e-12)
    warm = pf_eigen(a + 0.01, tol=1e-12, x0=cold.nu)
    again = pf_eigen(a + 0.01, tol=1e-12)
    assert warm.rho == pytest.approx(again.rho, abs=1e-10)
    assert np.abs(warm.nu - again.nu).max() <= 1e-10
    # a vector of the wrong shape falls back to the uniform start
    assert pf_eigen(a, tol=1e-12, x0=np.ones(3)).rho == cold.rho


def test_tolerance_floor():
    a = np.array([[1.0, 0.4], [0.3, 0.8]])
    assert pf_eigen(a, tol=MIN_TOL).residual <= MIN_TOL
    for tol in (MIN_TOL / 2, 1e-300, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            pf_eigen(a, tol=tol)


def test_rejects_negative_entries():
    with pytest.raises(ParameterError):
        pf_eigen([[1.0, -0.5], [0.0, 1.0]])
    with pytest.raises(ParameterError):
        pf_eigen(sparse.csr_matrix(np.array([[-1.0]])))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_shift_identity(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    r1 = pf_eigen(a).rho
    r2 = pf_eigen(a + np.eye(n)).rho
    assert abs(r2 - (r1 + 1.0)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_domination_monotonicity(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.random((n, n))
    e = rng.random((n, n)) * 0.3
    assert pf_eigen(a + e).rho >= pf_eigen(a).rho - 1e-9


def test_dense_oracle_agreement():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.random((9, 9))
        expect = max(np.linalg.eigvals(a), key=abs)
        assert pf_eigen(a).rho == pytest.approx(float(abs(expect)), abs=1e-9)


def test_bitwise_reproducibility():
    rng = np.random.default_rng(3)
    a = rng.random((15, 15))
    r1 = pf_eigen(a)
    r2 = pf_eigen(a)
    l1 = pf_eigen(a.T)
    l2 = pf_eigen(a.T)
    assert r1.rho == r2.rho and l1.rho == l2.rho
    assert (l1.nu == l2.nu).all() and (r1.nu == r2.nu).all()

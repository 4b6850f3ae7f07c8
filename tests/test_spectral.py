import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy import sparse

from treeperc.errors import MIN_TOL, NonConvergenceError, ParameterError
from treeperc.spectral import CHECK_EVERY, MAX_ITER, NILPOTENCY_CHECK_AT, pf_eigen
from treeperc.tree import TreeParams
from window_law import window_matrix


def test_symmetric_circulant():
    res = pf_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert res.rho == pytest.approx(3.0, abs=1e-10)
    assert res.nu[0] == pytest.approx(res.nu[1], rel=1e-8)


def test_periodic_matrix():
    res = pf_eigen([[0.0, 2.0], [2.0, 0.0]])
    assert res.rho == pytest.approx(2.0, abs=1e-10)


def test_window_matrix_two_cycle():
    m = window_matrix(TreeParams(2, 2), 0.0, 1.0).toarray()
    res = pf_eigen(m)
    assert res.rho == pytest.approx(2.0, abs=1e-10)
    # brute-force dense oracle on the same 7x7 matrix
    brute = max(abs(np.linalg.eigvals(m)))
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


def test_warm_start_takes_any_array_of_reals():
    a = np.array([[1.0, 0.4], [0.3, 0.8]])
    listed, array = pf_eigen(a, x0=[0.5, 0.5]), pf_eigen(a, x0=np.array([0.5, 0.5]))
    assert (listed.rho, listed.iterations) == (array.rho, array.iterations)
    assert (listed.nu == array.nu).all()
    # one that is not a nonnegative vector of positive finite sum is ignored
    cold = pf_eigen(a)
    for x0 in ([1.0], [0.0, 0.0], [-1.0, 2.0], [math.inf, 1.0], [math.nan, 1.0], 1.0):
        assert pf_eigen(a, x0=x0).rho == cold.rho, x0
    for x0 in ([[1.0], [1.0, 2.0]], [1j, 1.0], np.array([1j, 1.0]), ["0.5", "0.5"], "ab"):
        with pytest.raises(ParameterError):
            pf_eigen(a, x0=x0)


def test_exact_warm_start_certifies_in_one_step():
    # a strictly positive start is used as given and checked after its
    # first step: an eigenvector exact to working precision costs one step
    rng = np.random.default_rng(5)
    a = rng.random((10, 10))
    values, vectors = np.linalg.eig(a)
    x0 = np.abs(vectors[:, np.argmax(values.real)].real)
    warm = pf_eigen(a, tol=1e-12, x0=x0)
    cold = pf_eigen(a, tol=1e-12)
    assert warm.iterations == 1 and cold.iterations > 1
    assert warm.rho == pytest.approx(cold.rho, abs=1e-11)
    # a poor start is still checked after one step, then every CHECK_EVERY
    assert pf_eigen(a, tol=1e-12, x0=np.arange(1.0, 11.0)).iterations % CHECK_EVERY == 0


def test_tolerance_floor():
    a = np.array([[1.0, 0.4], [0.3, 0.8]])
    assert pf_eigen(a, tol=MIN_TOL).residual <= MIN_TOL
    for tol in (MIN_TOL / 2, 1e-300, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            pf_eigen(a, tol=tol)


def test_nilpotent_dense_upper_triangular():
    a = np.triu(np.random.default_rng(2).random((6, 6)) + 0.1, k=1)
    res = pf_eigen(a)
    assert (res.rho, res.residual) == (0.0, 0.0)
    # only the first column is empty, so the null vector is e_1
    assert res.nu.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert np.abs(a @ res.nu).max() == 0.0
    # one cycle, here a self-loop, makes it an ordinary solve again
    a[3, 3] = 0.5
    assert pf_eigen(a).rho == pytest.approx(0.5, abs=1e-10)


def test_nilpotent_window_matrix():
    m = window_matrix(TreeParams(2, 2), 0.0, 0.0).toarray()
    res = pf_eigen(m)
    assert (res.rho, res.residual) == (0.0, 0.0)
    assert res.nu.sum() == pytest.approx(1.0, abs=1e-15) and (res.nu >= 0).all()
    assert np.abs(m @ res.nu).max() == 0.0
    assert pf_eigen(m.T).rho == 0.0


@pytest.mark.parametrize("p, q", [(2e-5, 0.0), (1e-7, 0.0), (0.0, 1e-9)])
def test_rho_far_below_one_converges(p, q):
    # rho of order 1e-7 to 1e-4 and not nilpotent: past the nilpotency check
    # the solve shifts by its Rayleigh estimate, not by one, and both the
    # matrix and its transpose reach the tolerance on the unshifted matrix
    m = window_matrix(TreeParams(2, 2), p, q).toarray()
    for mat in (m, m.T):
        res = pf_eigen(mat, tol=1e-12)
        assert res.iterations > NILPOTENCY_CHECK_AT and res.residual <= 1e-12
        assert np.abs(mat @ res.nu - res.rho * res.nu).max() / res.nu.max() <= 1e-12
        # the residual is a backward error: rho lies within the root's
        # condition number times it of the dense eigenvalue, which at q = 0
        # (a near-rank-one matrix with kappa up to 1.7e7) is far from tol
        rho = max(np.linalg.eigvals(mat).real)
        vals, left, right = scipy.linalg.eig(mat, left=True, right=True)
        i = np.argmax(vals.real)
        x, y = right[:, i].real, left[:, i].real
        kappa = np.linalg.norm(x) * np.linalg.norm(y) / abs(y @ x)
        eta = np.linalg.norm(mat @ res.nu - res.rho * res.nu) / np.linalg.norm(res.nu)
        assert abs(res.rho - rho) <= 2 * kappa * eta


def test_slow_solve_above_one_keeps_unit_shift():
    # rho > 1 and lambda_2 close to it: the solve runs past the nilpotency
    # check, keeps its unit shift (a shift of rho would slow it to 2944
    # steps) and takes the iterates of the unit-shift loop bit for bit
    a = np.array([[2.0, 0.01], [0.01, 1.98]])
    res = pf_eigen(a, tol=1e-12)
    assert res.iterations == 2456 > NILPOTENCY_CHECK_AT
    assert res.rho == float.fromhex("0x1.0087bac0850f0p+1")
    assert res.rho == pytest.approx(1.99 + math.sqrt(2e-4), abs=1e-12)


def test_rejects_negative_entries():
    with pytest.raises(ParameterError):
        pf_eigen([[1.0, -0.5], [0.0, 1.0]])
    with pytest.raises(ParameterError):
        pf_eigen(sparse.csr_matrix(np.array([[-1.0]])))


@pytest.mark.parametrize(
    "matrix",
    [
        sparse.csr_matrix(np.eye(2)),  # dense arrays only
        np.eye(2, dtype=complex),
        [["1", "0"], ["0", "1"]],
        [[1.0, 0.0], [1.0]],  # ragged
        np.ones((2, 3)),
        np.ones(3),
        np.zeros((0, 0)),
        [[1.0, math.nan], [0.0, 1.0]],
        [[1.0, math.inf], [0.0, 1.0]],
    ],
)
def test_rejects_what_is_not_a_square_real_array(matrix):
    with pytest.raises(ParameterError):
        pf_eigen(matrix)


def test_jordan_block_does_not_converge():
    # a Jordan block's iterate converges like 1/n: the residual is still
    # above tol at the iteration budget, and the error carries its state
    with pytest.raises(NonConvergenceError) as exc:
        pf_eigen([[1.0, 1.0], [0.0, 1.0]])
    assert exc.value.iterations == MAX_ITER
    assert math.isfinite(exc.value.residual) and exc.value.residual < 1e-9


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

"""Perron-Frobenius eigenvalue and eigenvectors of nonnegative matrices.

Power iteration is applied to M + I rather than M itself: the identity shift
makes the iteration immune to periodicity (a bipartite two-cycle chain, for
example, would otherwise oscillate), and eigenvectors are unchanged while the
dominant eigenvalue shifts by exactly one.  Convergence is certified by the
eigen-residual on the *unshifted* matrix, not by iterate distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import NonConvergenceError, ParameterError, check_tolerance

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6


@dataclass
class SpectralResult:
    rho: float
    mu: np.ndarray  # left eigenvector, entries sum to 1
    nu: np.ndarray  # right eigenvector, scaled so that mu . nu = 1
    residual: float
    iterations: int


def _as_operator(matrix):
    """Return (matvec, rmatvec, n) for a dense array, scipy sparse matrix, or
    an object exposing ``csr`` (the window-chain offspring matrix)."""
    if hasattr(matrix, "csr"):
        matrix = matrix.csr
    if sparse.issparse(matrix):
        matrix = matrix.tocsr()
        if (matrix.data < 0).any():
            raise ParameterError("matrix must be entrywise nonnegative")
        mt = matrix.T.tocsr()
        return matrix.dot, mt.dot, matrix.shape[0]
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError("matrix must be square")
    if (arr < 0).any():
        raise ParameterError("matrix must be entrywise nonnegative")
    return arr.dot, arr.T.dot, arr.shape[0]


def _power_iterate(apply_fn, n, tol, max_iter, x0=None, check_every=8):
    if x0 is not None and x0.shape == (n,) and x0.sum() > 0 and (x0 >= 0).all():
        # blend in the uniform vector: a warm start with structural zeros must
        # not confine the iteration to an invariant subspace
        v = 0.9 * (x0 / x0.sum()) + 0.1 / n
    else:
        v = np.full(n, 1.0 / n)
    rho = 0.0
    for it in range(1, max_iter + 1):
        mv = apply_fn(v)
        w = mv + v  # shifted iterate; reductions stay in fixed order
        norm = w.sum()
        if norm == 0.0:
            return v, 0.0, 0.0, it
        w /= norm
        v = w
        if it % check_every == 0 or it == max_iter:
            mv = apply_fn(v)
            rho = float(v @ mv / (v @ v))
            # residual is measured relative to the iterate's sup norm so it is
            # invariant under the eventual eigenvector rescaling
            res = float(np.abs(mv - rho * v).max() / np.abs(v).max())
            if res <= tol:
                return v, rho, res, it
    raise NonConvergenceError(
        f"power iteration did not reach tolerance {tol} in {max_iter} iterations "
        f"(last residual {res:.3e}); the matrix may be reducible with a "
        "zero-pattern-dependent iterate",
        residual=res,
        iterations=max_iter,
    )


def pf_eigen(
    matrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: SpectralResult | None = None,
) -> SpectralResult:
    """Dominant eigenvalue with left and right eigenvectors.

    The left vector is normalized to sum to one and the right vector so that
    their inner product is one.  ``residual`` is the larger of the two
    eigen-residuals, each measured in the sup norm relative to the sup norm
    of the corresponding eigenvector.  A previous :class:`SpectralResult` may
    be passed as ``x0`` to warm-start the iteration (useful along parameter
    continuation paths); the output does not depend on the starting point
    beyond the certified tolerance.
    """
    check_tolerance(tol)
    matvec, rmatvec, n = _as_operator(matrix)
    nu0 = x0.nu if x0 is not None else None
    mu0 = x0.mu if x0 is not None else None
    # iterate a bit past the requested tolerance so the certified residual
    # still holds after cross-normalizing the two eigenvectors
    nu, rho_r, res_r, it_r = _power_iterate(matvec, n, 0.25 * tol, max_iter, x0=nu0)
    mu, rho_l, res_l, it_l = _power_iterate(rmatvec, n, 0.25 * tol, max_iter, x0=mu0)
    rho = rho_r
    mu_sum = mu.sum()
    if mu_sum > 0:
        mu = mu / mu_sum
    scale = mu @ nu
    if scale > 0:
        nu = nu / scale
    res_left = float(np.abs(rmatvec(mu) - rho * mu).max() / max(np.abs(mu).max(), 1e-300))
    res_right = float(np.abs(matvec(nu) - rho * nu).max() / max(np.abs(nu).max(), 1e-300))
    residual = max(res_left, res_right)
    return SpectralResult(
        rho=rho, mu=mu, nu=nu, residual=residual, iterations=it_r + it_l
    )


def pf_perturbation_check(matrix, perturbation, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER):
    """Compare the eigenvalue shift under a nonnegative perturbation with its
    first-order estimate mu'E nu / mu'nu.

    Returns (rho_before, rho_after, first_order_estimate).
    """
    if hasattr(matrix, "csr"):
        matrix = matrix.csr
    if hasattr(perturbation, "csr"):
        perturbation = perturbation.csr
    base = pf_eigen(matrix, tol=tol, max_iter=max_iter)
    if sparse.issparse(matrix) or sparse.issparse(perturbation):
        perturbed = sparse.csr_matrix(matrix) + sparse.csr_matrix(perturbation)
        e_quad = float(base.mu @ sparse.csr_matrix(perturbation).dot(base.nu))
    else:
        e = np.asarray(perturbation, dtype=float)
        if (e < 0).any():
            raise ParameterError("perturbation must be entrywise nonnegative")
        perturbed = np.asarray(matrix, dtype=float) + e
        e_quad = float(base.mu @ e @ base.nu)
    after = pf_eigen(perturbed, tol=tol, max_iter=max_iter)
    first_order = e_quad / float(base.mu @ base.nu)
    return base.rho, after.rho, first_order

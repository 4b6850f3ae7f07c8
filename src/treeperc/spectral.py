"""Perron-Frobenius eigenvalue and right eigenvector of nonnegative matrices.

Power iteration is applied to M + I rather than M itself: the identity shift
makes the iteration immune to periodicity (a bipartite two-cycle chain, for
example, would otherwise oscillate), and eigenvectors are unchanged while the
dominant eigenvalue shifts by exactly one.  Convergence is certified by the
eigen-residual on the *unshifted* matrix, not by iterate distance.

The solve is one-sided; the left Perron pair is the same solve on the
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import NonConvergenceError, ParameterError, check_tolerance

DEFAULT_TOL = 1e-12
#: Iteration budget.  Each step contracts the error by about
#: (1 + |lambda_2|) / (1 + rho); window-chain solves near rho = 1 take tens of
#: iterations.  A matrix whose rho is far below one (nilpotent at p = q = 0)
#: contracts barely or not at all and spends the budget.
MAX_ITER = 10**5
#: Iterations between residual checks.
CHECK_EVERY = 8


@dataclass
class SpectralResult:
    rho: float
    nu: np.ndarray  # right eigenvector, entries sum to 1
    residual: float
    iterations: int


def _as_operator(matrix):
    """Return (matvec, n) for a dense array, scipy sparse matrix, or an object
    exposing ``csr`` (the window-chain offspring matrix)."""
    if hasattr(matrix, "csr"):
        matrix = matrix.csr
    if sparse.issparse(matrix):
        matrix = matrix.tocsr()
        if (matrix.data < 0).any():
            raise ParameterError("matrix must be entrywise nonnegative")
        return matrix.dot, matrix.shape[0]
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError("matrix must be square")
    if (arr < 0).any():
        raise ParameterError("matrix must be entrywise nonnegative")
    return arr.dot, arr.shape[0]


def pf_eigen(matrix, tol: float = DEFAULT_TOL, x0: np.ndarray | None = None) -> SpectralResult:
    """Dominant eigenvalue and right eigenvector, normalized to sum to one.

    ``residual`` is the eigen-residual measured in the sup norm relative to
    the sup norm of the eigenvector; it is at most ``tol``.  A previous right
    vector may be passed as ``x0`` to warm-start the iteration (useful along
    parameter continuation paths); the output does not depend on the starting
    point beyond the certified tolerance.
    """
    check_tolerance(tol)
    apply_fn, n = _as_operator(matrix)
    if x0 is not None and x0.shape == (n,) and x0.sum() > 0 and (x0 >= 0).all():
        # blend in the uniform vector: a warm start with structural zeros must
        # not confine the iteration to an invariant subspace
        v = 0.9 * (x0 / x0.sum()) + 0.1 / n
    else:
        v = np.full(n, 1.0 / n)
    for it in range(1, MAX_ITER + 1):
        w = apply_fn(v) + v  # shifted iterate; reductions stay in fixed order
        v = w / w.sum()
        if it % CHECK_EVERY == 0 or it == MAX_ITER:
            mv = apply_fn(v)
            rho = float(v @ mv / (v @ v))
            # relative to the iterate's sup norm, so invariant under rescaling
            res = float(np.abs(mv - rho * v).max() / np.abs(v).max())
            if res <= tol:
                return SpectralResult(rho=rho, nu=v, residual=res, iterations=it)
    raise NonConvergenceError(
        f"power iteration did not reach tolerance {tol} in {MAX_ITER} iterations "
        f"(last residual {res:.3e}); the matrix may be reducible with a "
        "zero-pattern-dependent iterate",
        residual=res,
        iterations=MAX_ITER,
    )

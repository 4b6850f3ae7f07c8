"""Perron-Frobenius eigenvalue and right eigenvector of nonnegative matrices.

Power iteration is applied to M + I rather than M itself: the identity shift
makes the iteration immune to periodicity (a bipartite two-cycle chain, for
example, would otherwise oscillate), and eigenvectors are unchanged while the
dominant eigenvalue shifts by exactly one.  Convergence is certified by the
eigen-residual on the *unshifted* matrix, not by iterate distance.  The
matrix is a dense array, as the package's ray matrices are; anything else,
a sparse matrix among them, raises ``ParameterError``.

The solve is one-sided; the left Perron pair is the same solve on the
transpose.  It starts from the uniform vector, or from a nonnegative warm
start ``x0``: a strictly positive one as given, one with zeros blended with
the uniform vector, so that the iteration is not confined to an invariant
subspace.  A warm start is checked after its first step, then every
``CHECK_EVERY`` steps like a cold one, so a start exact to working precision
(a dense eigenvector) costs one step and the same residual certifies it.
A nilpotent matrix (as at p = q = 0) stalls the iteration, so a
solve still running at ``NILPOTENCY_CHECK_AT`` steps checks for one once.
A unit shift contracts the error by only about 1/(1 + rho) per step when rho
is far below one, so a solve that passes the check and is not nilpotent
shifts by its current Rayleigh estimate instead, where that is below one:
any positive shift keeps the immunity to periodicity, and one of the order
of rho restores a contraction that does not depend on the scale of M.

The certificate is a residual, a backward error: ``nu`` is an exact
eigenvector of a matrix within about ``tol`` of M.  Where the Perron root is
badly conditioned (left and right vectors nearly orthogonal, as for the
near-rank-one mean matrices at q = 0 and tiny p) that does not pin ``rho`` to
``tol``; comparing the left and right solves, as the ``matrix`` command
does, shows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, ParameterError, check_tolerance

DEFAULT_TOL = 1e-12
#: Iteration budget.  Each step contracts the error by about
#: (s + |lambda_2|) / (s + rho) for the shift s; window-chain solves near
#: rho = 1 take tens of iterations.
MAX_ITER = 10**5
#: Window-chain solves near rho = 1 converge within a few hundred steps; one
#: still running here checks for a nilpotent matrix and then rescales its shift.
NILPOTENCY_CHECK_AT = 1000
#: Iterations between residual checks.
CHECK_EVERY = 8


@dataclass
class SpectralResult:
    rho: float
    nu: np.ndarray  # right eigenvector, entries sum to 1
    residual: float
    iterations: int


def _real_array(value) -> np.ndarray | None:
    """``value`` as a float array, or None where it is ragged or not real."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        return None
    return arr.astype(float, copy=False) if arr.dtype.kind in "biuf" else None


def _as_matrix(matrix) -> np.ndarray:
    """``matrix`` as a dense float array, which must be nonempty, square,
    real, finite and entrywise nonnegative."""
    arr = _real_array(matrix)
    square = arr is not None and arr.ndim == 2 and arr.shape[0] == arr.shape[1] > 0
    # a NaN minimum fails the first comparison
    if not square or not 0 <= arr.min() <= arr.max() < np.inf:
        raise ParameterError("matrix must be a nonempty square array of finite reals >= 0")
    return arr


def _null_vector_if_nilpotent(mat):
    """M v = 0 for v the indicator of the empty columns, summing to one, if
    the nonzero pattern has no cycle (M is nilpotent); else None.  Peels empty
    columns, and the rows of the same index, until none is left; entries are
    left over exactly when the pattern has a cycle."""
    pattern = mat != 0
    in_degree = pattern.sum(axis=0)
    sources = in_degree == 0
    frontier = np.flatnonzero(sources)
    while frontier.size:
        removed = pattern[frontier].sum(axis=0)
        in_degree -= removed
        # a column empties in the round its last entry is peeled
        frontier = np.flatnonzero((in_degree == 0) & (removed > 0))
    return None if in_degree.any() else sources / sources.sum()


def pf_eigen(matrix, tol: float = DEFAULT_TOL, x0: np.ndarray | None = None) -> SpectralResult:
    """Dominant eigenvalue and right eigenvector, normalized to sum to one.

    ``residual`` is the eigen-residual measured in the sup norm relative to
    the sup norm of the eigenvector; it is at most ``tol``.  An approximate
    right vector may be passed as ``x0``, any array of reals, to warm-start
    the iteration (see the module docstring); one that is not a nonnegative
    vector of the matrix's order with a positive finite sum is ignored.  The
    output does not depend on the starting point beyond the certified
    tolerance.
    """
    tol = check_tolerance(tol)
    mat = _as_matrix(matrix)
    apply_fn, n = mat.dot, mat.shape[0]
    if x0 is not None:
        x0 = _real_array(x0)
        if x0 is None:
            raise ParameterError("x0 must be an array of reals")
    warm = x0 is not None and x0.shape == (n,) and 0 < x0.sum() < np.inf and (x0 >= 0).all()
    if warm and (x0 > 0).all():
        v = x0 / x0.sum()
    elif warm:
        # blend in the uniform vector: a warm start with structural zeros must
        # not confine the iteration to an invariant subspace
        v = 0.9 * (x0 / x0.sum()) + 0.1 / n
    else:
        v = np.full(n, 1.0 / n)
    shift = 1.0
    for it in range(1, MAX_ITER + 1):
        # shifted iterate; reductions stay in fixed order
        w = apply_fn(v) + shift * v
        v = w / w.sum()
        if it % CHECK_EVERY == 0 or it == MAX_ITER or (warm and it == 1):
            mv = apply_fn(v)
            rho = float(v @ mv / (v @ v))
            # relative to the iterate's sup norm, so invariant under rescaling
            res = float(np.abs(mv - rho * v).max() / np.abs(v).max())
            if res <= tol:
                return SpectralResult(rho=rho, nu=v, residual=res, iterations=it)
        if it == NILPOTENCY_CHECK_AT:
            if (null := _null_vector_if_nilpotent(mat)) is not None:
                return SpectralResult(rho=0.0, nu=null, residual=0.0, iterations=it)
            # only ever lower the shift: above one it would slow the solve
            shift = min(1.0, max(rho, np.finfo(float).tiny))
    raise NonConvergenceError(
        f"power iteration did not reach tolerance {tol} in {MAX_ITER} iterations "
        f"(last residual {res:.3e}); the matrix may be reducible with a "
        "zero-pattern-dependent iterate",
        residual=res,
        iterations=MAX_ITER,
    )

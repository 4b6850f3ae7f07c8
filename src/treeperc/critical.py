"""Critical curve computation via the spectral characterization.

The long-edge threshold q_c(p) is the unique root in q of rho(p, q) = 1,
where rho is the Perron root of the cluster's exact multi-type mean
offspring matrix, solved on the ancestral ray (below).  Only the *sign* of
rho - 1 is guaranteed monotone in q (the supercritical region is an
interval).  ``qc`` certifies an estimate of the root (below) by that sign
on either side of it and bisects where the certificate fails, so its answer
rests on the sign alone; only its speed depends on the estimate.  A priori
bounds confine the search to [(1 - p d)/d^k, d^-k]: q_c lies above the
critical curve of the dominating Bin(d, p) + Bin(d^k, q) branching process,
and is largest at p = 0, where the model is percolation on disjoint d^k-ary
trees.  The certificate's two solves come first; the ends of that bracket
are solved only where it fails, so a confirmed point costs 2 solves.

rho is solved on the ancestral ray, not on windows.  In the oriented tree
every path to a vertex runs through its ancestors, so the indicators of its
last k ancestors, itself included, form a Markov chain, and each of its d
children joins the cluster independently with probability
1 - (1 - p a)(1 - q b), a the newest indicator and b the oldest.  Counting
vertices by that state is a (2^k - 1)-type Galton-Watson process with mean
matrix d T (``window_chain._ray_matrix``), and rho is its Perron root
(first-moment method: Lyons & Peres, *Probability on Trees and Networks*,
2016, ch. 5).  Exactly: if R(A, s) counts the top slots of window A whose
bits along the path from A's base are s, then M R = R (d T), and R has no
zero row or column, so d T's right Perron vector nu lifts to R nu >= 0, an
eigenvector of M, and M's left one mu projects to mu R >= 0, one of d T:
each Perron root bounds the other.  At (d, k) = (2, 4) that is 15 types,
not 32767.

The estimate is the long-edge operator's.  The child probability
pi_s = p a + q b (1 - p a) is affine in q, so d T(q) = R0 + q (R1 - R0), with
R0 and R1 the ray matrix at q = 0 and q = 1, and d T(q) nu = nu reads
nu = q K nu for K = (I - R0)^-1 (R1 - R0): 1/q_c is an eigenvalue of K (the
k-eigenvalue form of reactor criticality: Lewis & Miller, *Computational
Methods of Neutron Transport*, 1984, ch. 4).  I - R0 is invertible for
d p < 1, since the graph of R0 is a DAG plus the self-loop d p at the
all-ones state.  1/q_c is K's largest real eigenvalue: a real eigenvalue
1/q above it would give d T(q) the eigenvalue 1 at some q in (0, q_c), where
every eigenvalue of d T(q) has modulus below 1.  K has 2^k - 1 rows, an odd
number, so it has a real eigenvalue at all.

Each solve reads d T(q) = R0 + q (R1 - R0) off the dense pencil of p
(``_pencil``), built once per (d, k, p) from the q = 0 and q = 1 ray
matrices and cached.  A ray has at most 15 states under ``MAX_WINDOW_BITS``,
small enough for one dense LAPACK eigensolve, whose Perron vector starts the
power solve; ``pf_eigen`` then certifies it by its residual, after one step
where the dense vector is exact to working precision.

A curve is solved in passes of up to ``SWEEP_CHUNK`` points (``qc_sweep``).
At 7 or 15 states a point's time goes to per-call overhead, not arithmetic,
so a pass makes each LAPACK call once for all its points: the estimates
(``_long_edge_roots``) and the start vectors of both probes.  LAPACK solves a
stack one matrix at a time, so every point is bit for bit ``qc``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, ParameterError, check_count, check_probabilities
from .errors import check_solve_tolerance
from .spectral import DEFAULT_TOL, pf_eigen
from .tree import TreeParams
from .window_chain import build_offspring_matrix

DEFAULT_Q_TOL = 1e-10
#: Default q_c tolerance of ``asymptotics_table``.
DEFAULT_ASYMPTOTICS_TOL = 1e-9
#: p above 1/d - BOUNDARY_EPS short-circuits to q_c = lower_bound, which is 0
#: from p = 1/d on.
BOUNDARY_EPS = 1e-12
#: Points per batched pass of ``qc_sweep``, and the size of ``_pencil``'s
#: cache, so that a point of a pass that falls back to ``qc`` finds its pencil
#: cached.
SWEEP_CHUNK = 64


@dataclass
class CurvePoint:
    p: float
    q_c: float
    lower_bound: float  # critical q of the dominating binomial-sum branching process
    gap: float
    rho_residual: float
    bisection_width: float
    rho_evals: int  # Perron solves spent on this point


@dataclass
class AsymptoticsRow:
    k: int
    q_c: float
    s_k: float  # rescaled second-order term d^2k (q_c - (1-pd)/d^k)
    s_star: float
    residual: float


def rho(p: float, q: float, params: TreeParams, tol: float = DEFAULT_TOL) -> float:
    """Dominant eigenvalue of the exact offspring matrix at (p, q)."""
    return rho_result(p, q, params, tol=tol).rho


def rho_result(p: float, q: float, params: TreeParams, tol: float = DEFAULT_TOL):
    """Perron solve of the ray matrix R0 + q (R1 - R0), read off the cached
    pencil of p (``_pencil``); ``nu`` is indexed by nonzero ray state.  The
    solve starts from |Re v| for v the eigenvector of the eigenvalue of
    largest real part, which for a nonnegative matrix is the Perron root."""
    p, q = check_probabilities(p=p, q=q)
    r0, dr = _pencil(params, p)
    matrix = r0 + q * dr
    return pf_eigen(matrix, tol=tol, x0=_perron_start(*np.linalg.eig(matrix)))


def _perron_start(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """|Re v| for v the dense eigenvector of the eigenvalue of largest real
    part, which for a nonnegative matrix is the Perron root."""
    return np.abs(vectors[:, np.argmax(values.real)].real)


@lru_cache(maxsize=SWEEP_CHUNK)
def _pencil(params: TreeParams, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The ray matrix's pencil at p, R0 and R1 - R0 (R0 and R1 the ray matrix
    at q = 0 and q = 1), as dense read-only arrays: one build per (d, k, p),
    shared by every solve of ``qc``.  Dense, since ``MAX_WINDOW_BITS`` caps
    the ray at 15 states."""
    r0 = build_offspring_matrix(params, p, 0.0).dense
    dr = build_offspring_matrix(params, p, 1.0).dense - r0
    r0.flags.writeable = False
    dr.flags.writeable = False
    return r0, dr


def branching_lower_bound(p: float, params: TreeParams) -> float:
    """Critical q of the Bin(d, p) + Bin(d^k, q) branching process, clamped at 0."""
    return max(0.0, (1.0 - params.d * p) / params.d**params.k)


def _long_edge_root(p: float, params: TreeParams) -> float:
    """Estimate of q_c on the cached pencil of p (``_pencil``); see
    ``_long_edge_roots``."""
    return float(_long_edge_roots(*_pencil(params, p)))


def _long_edge_roots(r0: np.ndarray, dr: np.ndarray) -> np.ndarray:
    """Estimates of q_c for a pencil R0, R1 - R0, or a stack of them: 1 / the
    largest real eigenvalue of each long-edge operator
    K = (I - R0)^-1 (R1 - R0), solved densely.  LAPACK returns a real
    eigenvalue with imaginary part exactly 0."""
    values = np.linalg.eigvals(np.linalg.solve(np.eye(r0.shape[-1]) - r0, dr))
    return 1.0 / np.where(values.imag == 0.0, values.real, -np.inf).max(axis=-1)


def qc(p: float, params: TreeParams, tol: float = DEFAULT_Q_TOL) -> CurvePoint:
    """Critical long-edge probability at short-edge probability p.

    A bracket across which rho(p, q) - 1 changes sign shrinks from the a
    priori [``branching_lower_bound``, d^-k] until it is at most ``tol``
    wide; ``bisection_width`` is its width and ``q_c`` its midpoint, rounded
    up where needed so that q_c - width/2 does not fall below the bracket,
    which never starts below the bound.
    rho = 1 counts as subcritical.  The search first probes q* -/+ tol/4,
    q* the long-edge estimate (``_long_edge_root``); where both probes lie
    inside the a priori bracket and confirm q*, that is the answer, in 2
    solves.  Otherwise it solves the two ends, reuses the probes and bisects;
    a point not strictly inside the bracket is skipped, and no q is solved
    twice.  Each solve is a right-only Perron solve (``rho_result``);
    ``rho_residual`` is the last one's eigen-residual and ``rho_evals``
    their number.
    """
    (p,) = check_probabilities(p=p)
    solve_tol = _solve_tol(params, tol)
    lower = branching_lower_bound(p, params)
    if p > 1.0 / params.d - BOUNDARY_EPS:
        return CurvePoint(
            p=p, q_c=lower, lower_bound=lower, gap=0.0, rho_residual=0.0,
            bisection_width=0.0, rho_evals=0,
        )
    results = {}  # q -> its solve: no q is solved twice

    def solve(q):
        if q not in results:
            results[q] = rho_result(p, q, params, tol=solve_tol)
        return results[q]

    # [lo, hi] is the sign-change bracket, a priori [lower, d^-k]; at p = 0
    # lower == hi.  The certificate probes the estimate at -/+ tol/4 first:
    # where both lie inside the bracket and straddle the root, the end
    # solves change nothing, and the search ends there
    lo, hi = lower, 1.0 / params.d**params.k
    guess = _long_edge_root(p, params) if hi - lo > tol else hi
    probes = [guess - 0.25 * tol, guess + 0.25 * tol]
    if lo < probes[0] and probes[1] < hi and solve(probes[0]).rho <= 1.0:
        last = solve(probes[1])
        if last.rho > 1.0:
            return _bracket_point(p, lower, probes[0], probes[1], last, len(results))
    last = solve(hi)
    if last.rho - 1.0 < -10.0 * solve_tol:
        raise ConsistencyError(
            f"rho(p={p}, q=d^-k) = {last.rho} < 1: no supercritical bracket endpoint"
        )
    # q_c <= d^-k a priori, so a reading of rho(d^-k) just under 1 is solve
    # noise and counts as supercritical
    if lo < hi:
        last = solve(lo)
        if last.rho > 1.0 and hi - lo > tol:
            # the gap above the bound is below the solve's resolution; at
            # q = 0 rho = d p < 1 exactly, and the matrix there can be
            # nilpotent.  A bracket already within tol keeps the bound
            lo = 0.0
    # the probes again, from memory, then bisection if either landed on the
    # wrong side of the root; a point not strictly inside the bracket is
    # skipped
    while hi - lo > tol:
        q = probes.pop(0) if probes else 0.5 * (lo + hi)
        if not lo < q < hi:
            continue
        last = solve(q)
        # rho == 1 counts as subcritical
        if last.rho > 1.0:
            hi = q
        else:
            lo = q
    return _bracket_point(p, lower, lo, hi, last, len(results))


def _solve_tol(params: TreeParams, tol: float) -> float:
    """The Perron solves' tolerance for a q_c tolerance ``tol``: the
    eigenvalue only has to resolve sign changes of rho - 1 on the q-scale of
    tol, and the slope drho/dq near the root is of order d^k / k."""
    return check_solve_tolerance(
        tol, params.d**params.k, 10.0 * params.k,
        f"q_c accepts at (d={params.d}, k={params.k})",
    )


def _bracket_point(p, lower, lo, hi, last, evals) -> CurvePoint:
    """The point of the final bracket [lo, hi], ``last`` its last solve.
    q_c lies above the bound a priori, so a bracket that the fall back to
    q = 0 carried below it is cut at the bound (an end below it moves up to
    it).  q_c is the midpoint, rounded up where needed so that the printed
    bracket q_c -/+ width/2 does not start below the cut one."""
    lo = max(lo, lower)
    hi = max(hi, lo)
    width = hi - lo
    q_crit = 0.5 * (lo + hi)
    while q_crit - 0.5 * width < lo:
        q_crit = math.nextafter(q_crit, math.inf)
    return CurvePoint(
        p=p,
        q_c=q_crit,
        lower_bound=lower,
        gap=q_crit - lower,
        rho_residual=last.residual,
        bisection_width=width,
        rho_evals=evals,
    )


def qc_sweep(p_grid, params: TreeParams, tol: float = DEFAULT_Q_TOL) -> list[CurvePoint]:
    """``qc`` at each p of ``p_grid``, field for field, in batched passes of
    up to ``SWEEP_CHUNK`` points.  Every p and the solve tolerance are checked
    before the first solve.  In each pass, the points whose certificate
    ``qc`` would probe (p at most 1/d - ``BOUNDARY_EPS``, an a priori bracket
    wider than ``tol`` and both probes inside it) get their estimates and
    their probes' dense start vectors from batched LAPACK calls, and
    ``pf_eigen`` certifies the probes point by point.  A point whose probes
    confirm its estimate is ``qc``'s 2-solve answer; every other point is
    ``qc``'s own search."""
    grid = [check_probabilities(p=p)[0] for p in p_grid]
    solve_tol = _solve_tol(params, tol)
    points = []
    for start in range(0, len(grid), SWEEP_CHUNK):
        points += _sweep_pass(grid[start:start + SWEEP_CHUNK], params, tol, solve_tol)
    return points


def _sweep_pass(grid, params: TreeParams, tol: float, solve_tol: float) -> list[CurvePoint]:
    """One pass of ``qc_sweep`` over at most ``SWEEP_CHUNK`` points."""
    hi = 1.0 / params.d**params.k
    lower = [branching_lower_bound(p, params) for p in grid]
    # qc estimates q_c at an interior p whose bracket is wider than tol
    inner = [
        i for i, p in enumerate(grid)
        if p <= 1.0 / params.d - BOUNDARY_EPS and hi - lower[i] > tol
    ]
    confirmed = {}
    if inner:
        r0, dr = (np.stack(a) for a in zip(*(_pencil(params, grid[i]) for i in inner)))
        probes = _long_edge_roots(r0, dr)[:, None] + [-0.25 * tol, 0.25 * tol]
        # and probes it where both probes lie inside the bracket
        keep = (np.take(lower, inner) < probes[:, 0]) & (probes[:, 1] < hi)
        # the probes' ray matrices R0 + q (R1 - R0), (point, probe, n, n)
        matrices = r0[keep, None] + probes[keep, :, None, None] * dr[keep, None]
        values, vectors = np.linalg.eig(matrices)
        kept = zip(np.compress(keep, inner).tolist(), probes[keep].tolist(), matrices, values, vectors)
        for i, (q_lo, q_hi), m, w, v in kept:
            # qc's certificate, in its order: the upper probe only where the
            # lower one reads subcritical
            last = pf_eigen(m[0], tol=solve_tol, x0=_perron_start(w[0], v[0]))
            if last.rho <= 1.0:
                last = pf_eigen(m[1], tol=solve_tol, x0=_perron_start(w[1], v[1]))
                if last.rho > 1.0:
                    confirmed[i] = _bracket_point(grid[i], lower[i], q_lo, q_hi, last, 2)
    return [
        confirmed[i] if i in confirmed else qc(p, params, tol=tol) for i, p in enumerate(grid)
    ]


def s_star(p: float, d: int) -> float:
    """Second-order coefficient of the large-k expansion of q_c."""
    (p,) = check_probabilities(p=p)
    check_count("d", d, 2)
    if p * d >= 1.0:
        raise ConsistencyError(f"s_star requires p d < 1, got p={p}, d={d}")
    return (1.0 - p * d) ** 2 * p * p * d / (1.0 - p * p * d)


def asymptotics_table(
    p: float, k_values, d: int, tol: float = DEFAULT_ASYMPTOTICS_TOL
) -> list[AsymptoticsRow]:
    """Rescaled residuals of q_c against the two-term large-k expansion,
    which needs p d < 1: from p = 1/d on q_c is 0 and the leading term
    (1 - pd)/d^k is not positive."""
    (p,) = check_probabilities(p=p)
    check_count("d", d, 2)
    if p * d >= 1.0:
        raise ParameterError(f"the expansion needs p d < 1, got p={p}, d={d}")
    target = s_star(p, d)
    rows = []
    # every (d, k) passes its size cap before the first q_c is computed
    for params in [TreeParams(d=d, k=k) for k in k_values]:
        point = qc(p, params, tol=tol)
        dk = float(d) ** params.k
        s_k = dk * dk * (point.q_c - (1.0 - p * d) / dk)
        rows.append(
            AsymptoticsRow(
                k=params.k, q_c=point.q_c, s_k=s_k, s_star=target, residual=abs(s_k - target)
            )
        )
    return rows

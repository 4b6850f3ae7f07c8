"""Critical curve computation via the spectral characterization.

The long-edge threshold q_c(p) is the unique root in q of rho(p, q) = 1,
where rho is the dominant eigenvalue of the exact window-chain offspring
matrix.  Only the *sign* of rho - 1 is guaranteed monotone in q (the
supercritical region is an interval), so bisection is used rather than a
derivative-based root finder.  A priori bounds confine the search to
[0, d^-k]: q_c is largest at p = 0, where the model is percolation on
disjoint d^k-ary trees.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, ParameterError, check_probabilities, check_tolerance
from .spectral import pf_eigen
from .tree import TreeParams
from .window_chain import build_offspring_matrix

DEFAULT_Q_TOL = 1e-10
#: p within this distance above 1/d short-circuits to q_c = 0.
BOUNDARY_EPS = 1e-12


@dataclass
class CurvePoint:
    p: float
    q_c: float
    lower_bound: float  # critical q of the dominating binomial-sum branching process
    gap: float
    rho_residual: float
    bisection_width: float


@dataclass
class AsymptoticsRow:
    k: int
    q_c: float
    s_k: float  # rescaled second-order term d^2k (q_c - (1-pd)/d^k)
    s_star: float
    residual: float


def rho(p: float, q: float, params: TreeParams, tol: float = 1e-12) -> float:
    """Dominant eigenvalue of the exact offspring matrix at (p, q)."""
    return rho_result(p, q, params, tol=tol).rho


def rho_result(p: float, q: float, params: TreeParams, tol: float = 1e-12, x0=None):
    """Perron solve of the ray matrix; ``nu`` is indexed by nonzero ray state."""
    return pf_eigen(build_offspring_matrix(params, p, q, ray=True), tol=tol, x0=x0)


def branching_lower_bound(p: float, params: TreeParams) -> float:
    """Critical q of the Bin(d, p) + Bin(d^k, q) branching process, clamped at 0."""
    return max(0.0, (1.0 - params.d * p) / params.d**params.k)


def qc(p: float, params: TreeParams, tol: float = DEFAULT_Q_TOL) -> CurvePoint:
    """Critical long-edge probability at short-edge probability p.

    Bisects the sign of rho(p, q) - 1 in q until the bracket is at most
    ``tol`` wide.  Each step needs only rho, so it runs a right-only Perron
    solve, warm-started from the previous step's right vector;
    ``rho_residual`` is that solve's eigen-residual.
    """
    check_probabilities(p=p)
    check_tolerance(tol)
    # the eigenvalue only has to resolve sign changes of rho - 1 on the
    # q-scale of tol; the slope drho/dq near the root is of order d^k / k
    solve_tol = tol * params.d**params.k / (10.0 * params.k)
    check_tolerance(solve_tol)
    lower = branching_lower_bound(p, params)
    if p > 1.0 / params.d - BOUNDARY_EPS:
        return CurvePoint(
            p=p, q_c=0.0, lower_bound=lower, gap=0.0, rho_residual=0.0, bisection_width=0.0
        )
    lo, hi = 0.0, params.d ** (-params.k)
    # q = 0 is subcritical a priori for p < 1/d (short edges alone cannot
    # percolate), and its offspring matrix can be nilpotent, which degenerates
    # power iteration; the lower bracket endpoint is therefore not evaluated.
    rho_hi = rho(p, hi, params, tol=solve_tol)
    if rho_hi < 1.0 - 10.0 * solve_tol:
        raise ConsistencyError(
            f"rho(p={p}, q=d^-k) = {rho_hi} < 1: no supercritical bracket endpoint"
        )
    residual = 0.0
    warm = None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        result = rho_result(p, mid, params, tol=solve_tol, x0=warm)
        warm = result.nu
        if result.rho > 1.0:
            hi = mid
        else:
            lo = mid
        residual = result.residual
    q_crit = 0.5 * (lo + hi)
    return CurvePoint(
        p=p,
        q_c=q_crit,
        lower_bound=lower,
        gap=q_crit - lower,
        rho_residual=residual,
        bisection_width=hi - lo,
    )


def qc_sweep(p_grid, params: TreeParams, tol: float = DEFAULT_Q_TOL) -> list[CurvePoint]:
    return [qc(p, params, tol=tol) for p in p_grid]


def s_star(p: float, d: int) -> float:
    """Second-order coefficient of the large-k expansion of q_c."""
    if p * p * d >= 1.0:
        raise ConsistencyError(f"s_star requires p^2 d < 1, got p={p}, d={d}")
    return (1.0 - p * d) ** 2 * p * p * d / (1.0 - p * p * d)


def asymptotics_table(
    p: float, k_values, d: int, tol: float = 1e-9
) -> list[AsymptoticsRow]:
    """Rescaled residuals of q_c against the two-term large-k expansion,
    which needs p^2 d < 1."""
    if p * p * d >= 1.0:
        raise ParameterError(f"the expansion needs p^2 d < 1, got p={p}, d={d}")
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

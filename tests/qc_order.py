"""Test-side oracle: the q_c search with its end solves first.

``qc_end_solves_first`` solves the a priori bracket's ends (d^-k, then the
branching bound) before it probes the long-edge estimate at -/+ tol/4 and
bisects, as ``critical.qc`` did before it probed first.  It solves on
``critical.rho_result`` and estimates on ``critical._long_edge_root``, so
``qc``'s answer can be checked against it field by field: only the number
of solves may differ.  It resets the bracket's lower end to 0 only while
the a priori bracket is wider than tol, and cuts the final bracket at the
bound, as ``qc`` does.
"""

import math

from treeperc import critical
from treeperc.critical import CurvePoint, branching_lower_bound
from treeperc.errors import ConsistencyError


def qc_end_solves_first(p, params, tol):
    """``critical.qc`` at an interior p and an accepted tol, end solves
    first; one solve per visited q, repeats included."""
    solve_tol = tol * params.d**params.k / (10.0 * params.k)
    evals = 0

    def solve(q):
        nonlocal evals
        evals += 1
        return critical.rho_result(p, q, params, tol=solve_tol)

    lower = branching_lower_bound(p, params)
    hi = 1.0 / params.d**params.k
    last = solve(hi)
    if last.rho - 1.0 < -10.0 * solve_tol:
        raise ConsistencyError(f"rho(p={p}, q=d^-k) = {last.rho} < 1")
    lo = lower
    if lo < hi:
        last = solve(lo)
        if last.rho > 1.0 and hi - lo > tol:
            lo = 0.0
    guess = critical._long_edge_root(p, params) if hi - lo > tol else hi
    probes = [guess - 0.25 * tol, guess + 0.25 * tol]
    while hi - lo > tol:
        q = probes.pop(0) if probes else 0.5 * (lo + hi)
        if not lo < q < hi:
            continue
        last = solve(q)
        if last.rho > 1.0:
            hi = q
        else:
            lo = q
    lo = max(lo, lower)
    hi = max(hi, lo)
    width = hi - lo
    q_crit = 0.5 * (lo + hi)
    while q_crit - 0.5 * width < lo:
        q_crit = math.nextafter(q_crit, math.inf)
    return CurvePoint(
        p=p, q_c=q_crit, lower_bound=lower, gap=q_crit - lower,
        rho_residual=last.residual, bisection_width=width, rho_evals=evals,
    )

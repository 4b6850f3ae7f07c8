"""Exception types shared across the package, and the shared checks of seeds,
edge probabilities and solver tolerances that raise them."""

import math


class ParameterError(ValueError):
    """Invalid or out-of-range model parameters."""


class OutOfSlabError(ValueError):
    """A vertex was addressed outside the height-(k-1) window slab."""


class SizeCapError(RuntimeError):
    """A configured size cap (cluster, population, or type space) was exceeded."""


class ConsistencyError(RuntimeError):
    """Input data violates a structural invariant it was promised to satisfy."""


class FeasibilityError(RuntimeError):
    """A construction's feasibility condition does not hold for the given inputs."""


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within the iteration budget."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


#: Seeds are 64-bit words: every stream is keyed by the 8 bytes of one.
SEED_LIMIT = 1 << 64


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2^64)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ParameterError(f"seed must lie in [0, 2^64), got {seed}")


def check_probabilities(**probs: float) -> None:
    """Reject edge probabilities outside [0, 1]; NaN fails every comparison
    and is rejected too."""
    if not all(0.0 <= v <= 1.0 for v in probs.values()):
        got = ", ".join(f"{name}={v}" for name, v in probs.items())
        raise ParameterError(f"probabilities must lie in [0, 1], got {got}")


#: Smallest solver tolerance accepted.  Power iteration certifies residuals
#: down to about 1e-14 on small dense and window-chain matrices; below the
#: floor it would only spin towards its iteration budget.
MIN_TOL = 1e-13


def check_tolerance(tol: float) -> None:
    """Reject a solver tolerance below ``MIN_TOL`` or not finite; NaN fails
    the comparison and is rejected too."""
    if not MIN_TOL <= tol < math.inf:
        raise ParameterError(f"tolerance must lie in [{MIN_TOL}, inf), got {tol}")


def check_solve_tolerance(tol: float, times: float, per: float, accepted_by: str) -> float:
    """The solve tolerance ``tol * times / per`` that a solver derives from
    ``tol``.  Rejects a ``tol`` that fails ``check_tolerance``, or whose solve
    tolerance does; the message names the smallest ``tol`` of 3 significant
    digits accepted, and ``accepted_by`` ends it."""
    check_tolerance(tol)
    solve_tol = tol * times / per
    if solve_tol < MIN_TOL:
        shown = float(f"{MIN_TOL * per / times:.3g}")
        if shown * times / per < MIN_TOL:
            shown += 10.0 ** (math.floor(math.log10(shown)) - 2)
        raise ParameterError(
            f"--tol {tol:g} is below {shown:g}, the smallest tolerance {accepted_by}"
        )
    check_tolerance(solve_tol)
    return solve_tol

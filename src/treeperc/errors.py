"""Exception types shared across the package, and the one encoding of the
model's input domain: checks of counts, seeds, reals, probabilities and
tolerances that raise ``ParameterError`` for a wrong kind or range alike."""

import math
from numbers import Real


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


def check_count(name: str, value, low: int, below: float = math.inf) -> None:
    """Reject a count that is not an ``int`` (a bool is not) in [low, below)."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value < below:
        raise ParameterError(f"{name} must be an int in [{low}, {below}), got {value!r}")


def check_seed(seed, name: str = "seed") -> None:
    """Reject a seed, or a trial index named by ``name``, outside [0, 2^64)."""
    check_count(name, seed, 0, SEED_LIMIT)


def check_real(name: str, value) -> float:
    """The float value of a real scalar, such as a ``Fraction`` or a numpy
    scalar; rejects a bool, a non-real and a value beyond the float range."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParameterError(f"{name} must be a real number, got {value!r}")


def check_probabilities(**probs) -> list[float]:
    """The float values (``check_real``) of edge probabilities in argument
    order; rejects one outside [0, 1], NaN too."""
    values = [check_real(name, v) for name, v in probs.items()]
    if not all(0.0 <= v <= 1.0 for v in values):
        got = ", ".join(f"{name}={v}" for name, v in probs.items())
        raise ParameterError(f"probabilities must lie in [0, 1], got {got}")
    return values


#: Smallest solver tolerance accepted.  Power iteration certifies residuals
#: down to about 1e-14 on small dense and window-chain matrices; below the
#: floor it would only spin towards its iteration budget.
MIN_TOL = 1e-13


def check_tolerance(tol) -> float:
    """The float value (``check_real``) of a solver tolerance; rejects one
    below ``MIN_TOL`` or not finite, NaN too."""
    tol = check_real("tolerance", tol)
    if not MIN_TOL <= tol < math.inf:
        raise ParameterError(f"tolerance must lie in [{MIN_TOL}, inf), got {tol}")
    return tol


def check_solve_tolerance(tol, times: float, per: float, accepted_by: str) -> float:
    """The solve tolerance ``tol * times / per`` that a solver derives from
    ``tol``.  Rejects a ``tol`` that fails ``check_tolerance``, or whose solve
    tolerance does; the message names the smallest ``tol`` of 3 significant
    digits accepted, and ``accepted_by`` ends it."""
    tol = check_tolerance(tol)
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

import numpy as np
import pytest

from treeperc.critical import (
    asymptotics_table,
    branching_lower_bound,
    qc,
    qc_sweep,
    rho,
    s_star,
)
from treeperc.errors import ConsistencyError, ParameterError
from treeperc.tree import TreeParams

TP = TreeParams(2, 2)


def test_rho_boundary_values():
    assert rho(0.0, 0.25, TP) == pytest.approx(1.0, abs=1e-9)
    assert rho(0.0, 1.0, TP) == pytest.approx(2.0, abs=1e-10)


def test_rho_q_zero_matches_dense_eigensolve():
    # with long edges closed the chain only shifts windows around; the
    # spectral radius is pd, computed here by brute force on the 7x7 matrix
    from treeperc.window_chain import build_offspring_matrix

    m = build_offspring_matrix(TP, 0.3, 0.0).csr.toarray()
    brute = max(abs(np.linalg.eigvals(m)))
    assert brute == pytest.approx(0.3 * 2, abs=1e-12)


def test_qc_known_endpoint():
    point = qc(0.0, TP)
    assert point.q_c == pytest.approx(0.25, abs=1e-9)
    assert point.bisection_width <= 1e-10


def test_qc_above_threshold_is_zero():
    point = qc(0.6, TP)
    assert point.q_c == 0.0 and point.gap == 0.0


def test_qc_interior_point_and_mc_bracket():
    from treeperc.window_chain import chain_survival

    point = qc(0.2, TP)
    assert 0.15 < point.q_c < 0.25
    assert point.gap > 1e-4
    rng = np.random.default_rng(12)
    below, _ = chain_survival(TP, 0.2, point.q_c - 0.02, 60, 4000, rng)
    above, se = chain_survival(TP, 0.2, point.q_c + 0.02, 60, 4000, rng)
    # the tight 0.01 bound needs 1e5 trials; at this scale just separate them
    assert below < 0.02
    assert above > 5 * se


# Exact (q_c, bisection_width): the root finder's output must not depend on
# which Perron vectors each of its solves computes.
QC_PINS = [
    (2, 3, 0.0, 0.12499999997089617, 5.820766091346741e-11),
    (2, 3, 0.2, 0.07614860995090567, 5.820766091346741e-11),
    (2, 3, 0.45, 0.013842319982359186, 5.820766091346741e-11),
    (3, 2, 0.3, 0.01224195944248802, 5.1740143419687357e-11),
]


@pytest.mark.parametrize("d, k, p, q_c, width", QC_PINS)
def test_qc_pinned(d, k, p, q_c, width):
    point = qc(p, TreeParams(d, k))
    assert (point.q_c, point.bisection_width) == (q_c, width)
    # the reported residual is the right-vector one, within the rho tolerance
    assert 0.0 < point.rho_residual <= 1e-10 * d**k / (10.0 * k)


def test_qc_rejects_tolerance_below_floor():
    # tol itself passes the floor at 1e-13, but the derived rho tolerance
    # tol * d^k / (10 k) = 2e-14 does not; p above 1/d is refused as well
    for p, tol in ((0.2, 1e-13), (0.2, 1e-300), (0.6, 1e-300)):
        with pytest.raises(ParameterError):
            qc(p, TP, tol=tol)


def test_qc_rho_brackets():
    tol = 1e-8
    point = qc(0.25, TP, tol=tol)
    assert rho(0.25, point.q_c - 10 * tol, TP) < 1.0 < rho(0.25, point.q_c + 10 * tol, TP)


def test_sweep_monotone_with_positive_gaps():
    points = qc_sweep([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], TP, tol=1e-8)
    values = [pt.q_c for pt in points]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert points[0].q_c == pytest.approx(0.25, abs=1e-7)
    assert points[-1].q_c == pytest.approx(0.0, abs=1e-7)
    for pt in points[1:-1]:
        assert pt.gap > 0
    assert all(pt.q_c <= 0.25 + 1e-9 for pt in points)


def test_lower_bound_field():
    assert branching_lower_bound(0.2, TP) == pytest.approx(0.6 / 4)
    assert branching_lower_bound(0.7, TP) == 0.0


def test_s_star_formula():
    assert s_star(0.25, 2) == pytest.approx(0.25**2 * 2 * 0.5**2 / (1 - 0.125))
    assert s_star(0.25, 2) == pytest.approx(0.0357142857, abs=1e-9)
    with pytest.raises(ConsistencyError):
        s_star(0.8, 2)


def test_asymptotics_small_k():
    rows = asymptotics_table(0.25, [2, 3], 2, tol=1e-8)
    assert rows[0].residual > rows[1].residual
    assert rows[0].s_star == pytest.approx(rows[1].s_star)
    # leading order: d^k qc -> 1 - pd
    lead = [abs(2**r.k * r.q_c - 0.5) for r in rows]
    assert lead[0] > lead[1]

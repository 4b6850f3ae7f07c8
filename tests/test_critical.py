import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from treeperc import critical
from treeperc.cli import parse_grid
from treeperc.critical import (
    BOUNDARY_EPS,
    asymptotics_table,
    branching_lower_bound,
    qc,
    qc_sweep,
    rho,
    s_star,
)
from treeperc.errors import MIN_TOL, ConsistencyError, ParameterError, check_solve_tolerance
from treeperc.spectral import SpectralResult, pf_eigen
from treeperc.tree import TreeParams
from treeperc.window_chain import build_offspring_matrix
from qc_order import qc_end_solves_first
from window_law import window_rho

TP = TreeParams(2, 2)


def test_rho_boundary_values():
    assert rho(0.0, 0.25, TP) == pytest.approx(1.0, abs=1e-9)
    assert rho(0.0, 1.0, TP) == pytest.approx(2.0, abs=1e-10)
    # q = 0: short edges alone, a Bin(d, p) branching process; p = 0,
    # q = d^-k: long edges alone, a critical Bin(d^k, q) one
    for d, k in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (5, 2), (19, 2)]:
        tp = TreeParams(d, k)
        for p in (0.0, 0.1, 0.3):
            assert rho(p, 0.0, tp) == pytest.approx(d * p, abs=1e-9)
        assert rho(0.0, float(d) ** -k, tp) == pytest.approx(1.0, abs=1e-9)


def test_rho_q_zero_matches_dense_eigensolve():
    # with long edges closed a cluster vertex's children join it through
    # their short edges alone; the spectral radius is pd, computed here by
    # brute force on the 3x3 ray matrix
    m = build_offspring_matrix(TP, 0.3, 0.0).dense
    brute = max(abs(np.linalg.eigvals(m)))
    assert brute == pytest.approx(0.3 * 2, abs=1e-12)


# (d, k, p, q): near and away from q_c, and at the corners of the square
RHO_POINTS = [
    (d, k, p, q)
    for d, k in [(2, 2), (2, 3), (3, 2)]
    for p, q in [(0.0, 0.3), (0.2, 0.1), (0.25, 1.0), (1.0, 0.0), (0.1, 0.05)]
] + [
    (3, 3, 0.1, 0.03),
    (3, 3, 0.3, 0.5),
]


@pytest.mark.parametrize("d, k, p, q", RHO_POINTS)
def test_quotient_rho_matches_full_rho(d, k, p, q):
    # rho solves the ray matrix d T, the quotient of the full window matrix
    # M along the ray counts R (M R = R d T), which has M's Perron root.  The
    # ray solve starts from a dense eigenvector and lands on the root; M's
    # root comes from ARPACK, not from the power solve under test.  At (2,4)
    # the exact lumping alone is checked (test_window_chain)
    tp, tol = TreeParams(d, k), 1e-12
    assert abs(rho(p, q, tp, tol=tol) - window_rho(tp, p, q)) <= tol


def test_ray_solves_certify_in_one_step():
    # the power solve starts from LAPACK's Perron vector, which one step
    # certifies
    for d, k in [(2, 2), (2, 3), (2, 4), (3, 3), (19, 2)]:
        tp = TreeParams(d, k)
        for p in (0.0, 0.1, 0.25):
            result = critical.rho_result(p, branching_lower_bound(p, tp) + 1e-3, tp)
            assert result.iterations == 1 and result.residual <= 1e-12


def direct_rho(params, p, q):
    """rho solved on the matrix built directly at q, as ``rho_result`` did
    before the pencil: a cold solve at the default tolerance is only within
    its backward error of the root, so it starts from the dense Perron
    vector too."""
    matrix = build_offspring_matrix(params, p, q).dense
    values, vectors = np.linalg.eig(matrix)
    return pf_eigen(matrix, x0=np.abs(vectors[:, np.argmax(values.real)].real)).rho


def test_pencil_matches_direct_build():
    # each solve reads d T(q) = R0 + q (R1 - R0) off the cached pencil of p;
    # the matrix and its Perron root agree with the direct build at q, which
    # the matrix command still solves
    eps = np.finfo(float).eps
    for d, k in [(2, 2), (2, 3), (2, 4), (3, 2), (19, 2)]:
        tp = TreeParams(d, k)
        for p in [j / (4 * d) for j in range(5)]:
            r0, dr = critical._pencil(tp, p)
            lower = branching_lower_bound(p, tp)
            for q in (0.0, lower, lower + 1e-3, 0.5 * float(d) ** -k, float(d) ** -k, 0.3, 1.0):
                direct = build_offspring_matrix(tp, p, q)
                assert np.abs(r0 + q * dr - direct.dense).max() <= 4 * eps * d, (d, k, p, q)
                expected = direct_rho(tp, p, q)
                assert abs(critical.rho_result(p, q, tp).rho - expected) <= 1e-13, (d, k, p, q)


def test_pencil_built_once_per_p(monkeypatch):
    builds = []

    def counting_build(params, p, q):
        builds.append((p, q))
        return build_offspring_matrix(params, p, q)

    monkeypatch.setattr(critical, "build_offspring_matrix", counting_build)
    critical._pencil.cache_clear()
    tp = TreeParams(2, 3)
    # the long-edge estimate and its two probes share the q = 0 and q = 1
    # builds
    assert qc(0.2, tp).rho_evals == 2
    assert sorted(q for _, q in builds) == [0.0, 1.0]
    builds.clear()
    grid = [0.05, 0.1, 0.15, 0.3, 0.45]
    qc_sweep(grid, tp)
    assert len(builds) == 2 * len(grid)
    assert {p for p, _ in builds} == set(grid)


def test_pencil_is_read_only_and_rho_checks_its_arguments():
    tp = TreeParams(2, 3)
    for array in critical._pencil(tp, 0.2):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    # the pencil does not check q; rho does before reading it
    for p, q in ((0.2, 1.5), (0.2, math.nan), (math.nan, 0.1)):
        with pytest.raises(ParameterError):
            rho(p, q, tp)


def test_quotient_rho_matches_full_rho_at_large_d():
    # (10, 2): 2047 windows with 2^10 top-slot outcomes each against 3 ray
    # states
    tp, tol = TreeParams(10, 2), 1e-12
    for p, q in [(0.01, 0.004), (0.05, 0.02)]:
        assert abs(rho(p, q, tp, tol=tol) - window_rho(tp, p, q)) <= tol


def test_qc_strict_gap_at_d16():
    # the gap at (16, 2), p = 0.01 is about 3.5e-7: resolved at tol 1e-9
    point = qc(0.01, TreeParams(16, 2), tol=1e-9)
    assert point.lower_bound < point.q_c <= 16.0**-2
    assert point.gap > 10 * point.bisection_width


def test_qc_runs_past_sixteen_top_slots():
    # 2^17 and 2^19 top-slot subsets per child window, but 3 ray states:
    # the gaps there are about 3.0e-7 and 2.3e-7
    for d in (17, 19):
        point = qc(0.01, TreeParams(d, 2), tol=1e-9)
        assert point.lower_bound < point.q_c <= float(d) ** -2


def qc_closed_form(p, d):
    """q_c at k = 2 for p < 1/d: the smaller root in q of det(I/d - T) = 0
    for the 3-state ray matrix T."""
    root = math.sqrt((d - 1) * (1 - p) * (3 * d * p + d + p - 1))
    return ((d + 1) * (1 - p) - root) / (2 * d * d * (1 - p))


@pytest.mark.parametrize("d", [2, 3, 5, 10])
def test_qc_matches_closed_form_at_k2(d):
    for j in range(8):
        p = j / (8 * d)
        assert abs(qc(p, TreeParams(d, 2), tol=1e-12).q_c - qc_closed_form(p, d)) <= 1e-12


def test_qc_known_endpoint():
    point = qc(0.0, TP)
    assert point.q_c == pytest.approx(0.25, abs=1e-9)
    assert point.bisection_width <= 1e-10


def test_qc_above_threshold_is_zero():
    point = qc(0.6, TP)
    assert point.q_c == 0.0 and point.gap == 0.0


@pytest.mark.parametrize("d, k", [(2, 2), (2, 4), (3, 2), (19, 2)])
def test_qc_not_below_lower_bound_next_to_threshold(d, k):
    # within BOUNDARY_EPS below p = 1/d, q_c is the bound, which is positive
    for p in (1.0 / d - 0.5 * BOUNDARY_EPS, 1.0 / d - 1e-13, 1.0 / d):
        point = qc(p, TreeParams(d, k))
        assert point.q_c >= point.lower_bound and point.gap == point.q_c - point.lower_bound
    assert qc(1.0 / d - 0.5 * BOUNDARY_EPS, TreeParams(d, k)).q_c > 0.0


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


# (q_c, bisection_width): the root finder's output must not depend on which
# Perron vectors each of its solves computes.  The width is exact; q_c may
# move by an ulp or so with the BLAS kernel's dot product in the Rayleigh
# quotient (OPENBLAS_CORETYPE), so it is pinned to QC_PIN_ABS.
QC_PIN_ABS = 1e-15
QC_PINS = [
    (2, 3, 0.0, 0.125, 0.0),
    (2, 3, 0.2, 0.07614860997397722, 5.000000413701855e-11),
    (2, 3, 0.45, 0.013842320004541917, 5.00000006675716e-11),
    (3, 2, 0.3, 0.012241959439318191, 5.00000006675716e-11),
]


@pytest.mark.parametrize(
    "d, k, p, q_c, width", QC_PINS, ids=[f"{d}-{k}-{p}" for d, k, p, _, _ in QC_PINS]
)
def test_qc_pinned(d, k, p, q_c, width):
    point = qc(p, TreeParams(d, k))
    assert abs(point.q_c - q_c) <= QC_PIN_ABS
    assert point.bisection_width == width
    # the reported residual is the right-vector one, within the rho tolerance
    assert 0.0 < point.rho_residual <= 1e-10 * d**k / (10.0 * k)


def fake_rho(monkeypatch, rho_of_q):
    """Replace every Perron solve of ``qc`` by ``rho_of_q``; returns the
    list of solved q."""
    calls = []

    def rho_result(p, q, params, tol=1e-12):
        calls.append(q)
        return SpectralResult(rho=rho_of_q(q), nu=None, residual=0.0, iterations=1)

    monkeypatch.setattr(critical, "rho_result", rho_result)
    return calls


def test_qc_counts_rho_equal_one_as_subcritical(monkeypatch):
    # rho reads exactly 1 on the whole subcritical side: the root finder may
    # not stop there, and must close the bracket around the jump
    root, tol = 0.2, 1e-10
    calls = fake_rho(monkeypatch, lambda q: 1.0 if q <= root else 2.0)
    point = qc(0.2, TP, tol=tol)
    half = 0.5 * point.bisection_width
    assert half <= 0.5 * tol
    assert point.q_c - half <= root < point.q_c + half
    # both probes read 1, so the search falls back, and solves no q twice
    assert point.rho_evals == len(calls) == len(set(calls)) > 2


def test_qc_falls_back_to_zero_below_unresolved_bound(monkeypatch):
    # a solve that reads rho > 1 at the lower bound moves the bracket's lower
    # end to q = 0, where rho = d p is known and no solve runs; the first
    # probe reads rho > 1, so both ends are solved
    tol = 1e-10
    lower = branching_lower_bound(0.2, TP)
    root = lower - 0.01
    calls = fake_rho(monkeypatch, lambda q: 1.0 + 4.0 * (q - root))
    point = qc(0.2, TP, tol=tol)
    assert 0.25 in calls and lower in calls and 0.0 not in calls
    # the bisection closes on the stand-in's root, below the bound; q_c lies
    # above the bound a priori, so the reported bracket is cut there
    assert any(abs(q - root) <= tol for q in calls)
    assert point.q_c == point.lower_bound == lower and point.bisection_width == 0.0


@pytest.fixture(scope="module")
def curve_d2k3():
    # the grid and tolerance of the benchmark's qc-curve-d2k3 workload
    return qc_sweep(parse_grid("0:0.5:0.005"), TreeParams(2, 3), tol=1e-10)


def test_qc_curve_within_benchmark_gate(curve_d2k3):
    # every point within 2 tol of the benchmark's reference curve, solved at
    # tol 1e-11, as the benchmark itself checks
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    ref = json.loads(path.read_text())["qc-curve-d2k3"]
    assert len(curve_d2k3) == len(ref["p"]) == 101
    for point, p, q_c in zip(curve_d2k3, ref["p"], ref["q_c"]):
        assert abs(point.p - p) <= 1e-12
        assert abs(point.q_c - q_c) <= 2e-10


def test_qc_curve_solves_per_point(curve_d2k3):
    # the long-edge estimate's two certificate solves at every interior
    # point, where bisection from q = 0 needed about 32; p = 0 needs one
    # solve and p = 1/d none
    for point in curve_d2k3:
        if 0.0 < point.p < 0.5 - 1e-12:
            assert point.rho_evals == 2, point


def test_cold_solves_agree_with_dense_start(curve_d2k3):
    # the matrix command solves the ray matrix cold, from the uniform vector;
    # rho_result starts from LAPACK's Perron vector.  Both certify a residual
    # of 1e-12, so on the well-conditioned roots of the curve they agree
    # within a few times that (at most 1.4e-12 measured)
    tp = TreeParams(2, 3)
    for point in curve_d2k3:
        cold = pf_eigen(build_offspring_matrix(tp, point.p, point.q_c).dense)
        assert cold.iterations > 1
        dense = critical.rho_result(point.p, point.q_c, tp)
        assert abs(cold.rho - dense.rho) <= 1e-11, point


def smallest_tol(d, k):
    """The smallest tol ``qc`` accepts at (d, k): its solve tolerance
    tol d^k / (10 k) and tol itself at least MIN_TOL."""
    tol = max(MIN_TOL, MIN_TOL * 10.0 * k / d**k)
    while tol * d**k / (10.0 * k) < MIN_TOL:
        tol = math.nextafter(tol, math.inf)
    return tol


def test_qc_certificate_holds():
    # the long-edge estimate's two probes confirm it wherever the root lies
    # more than tol above the lower bound: 2 solves, and rho - 1 changes sign
    # across the reported bracket
    for d, k in [(2, 2), (2, 3), (2, 4), (3, 3), (19, 2)]:
        tp = TreeParams(d, k)
        for tol in (1e-4, 1e-8, smallest_tol(d, k)):
            for j in range(20):
                point = qc(j / (20 * d), tp, tol=tol)
                if point.gap <= tol:
                    continue
                half = 0.5 * point.bisection_width
                assert point.rho_evals == 2, (d, k, tol, point)
                assert rho(point.p, point.q_c - half, tp) <= 1.0 < rho(point.p, point.q_c + half, tp)


def test_qc_falls_back_to_bisection(monkeypatch):
    # an estimate outside the bracket is skipped, and one inside it but
    # 100 tol off fails its certificate: bisection finishes either search
    tol = 1e-10
    for d in (2, 3):
        for p in (0.05 / d, 0.5 / d, 0.95 / d):
            exact = qc_closed_form(p, d)
            for guess in (2.0, exact - 100 * tol, exact + 100 * tol):
                monkeypatch.setattr(critical, "_long_edge_root", lambda p, params: guess)
                point = qc(p, TreeParams(d, 2), tol=tol)
                assert abs(point.q_c - exact) <= tol
                assert point.rho_evals > 4


def test_qc_probes_first(monkeypatch):
    # where the probes confirm the estimate, they are the only solves; the
    # gaps above the bound exceed tol at these points (at (19, 2) they are
    # 7e-8 to 1e-6)
    calls = []
    solve = critical.rho_result

    def spy(p, q, params, tol=1e-12):
        calls.append(q)
        return solve(p, q, params, tol=tol)

    monkeypatch.setattr(critical, "rho_result", spy)
    for d, k in [(2, 2), (2, 4), (3, 3), (19, 2)]:
        tp = TreeParams(d, k)
        for p, tol in ((0.1 / d, 1e-10), (0.5 / d, 1e-8), (0.9 / d, 1e-10)):
            calls.clear()
            guess = critical._long_edge_root(p, tp)
            point = qc(p, tp, tol=tol)
            assert calls == [guess - 0.25 * tol, guess + 0.25 * tol], (d, k, p)
            assert point.bisection_width == calls[1] - calls[0]


def test_qc_fallback_still_checks_supercritical_end(monkeypatch):
    # an estimate outside the bracket sends the search to the end solves,
    # where rho(d^-k) < 1 is inconsistent with q_c <= d^-k
    calls = fake_rho(monkeypatch, lambda q: 0.5)
    monkeypatch.setattr(critical, "_long_edge_root", lambda p, params: 2.0)
    with pytest.raises(ConsistencyError):
        qc(0.2, TP)
    assert calls == [0.25]


@pytest.mark.parametrize("d, k", [(2, 4), (3, 3)])
@pytest.mark.parametrize("tol", [1e-4, 0.9])
def test_qc_stays_in_bracket_narrower_than_tol(d, k, tol):
    # at p = 1e-9 the a priori bracket is about 1.2e-10 wide, and the solve
    # at its lower end reads rho > 1 from rounding: the search may not leave
    # the bracket for q = 0 when it is already within tol
    tp = TreeParams(d, k)
    point = qc(1e-9, tp, tol=tol)
    half = 0.5 * point.bisection_width
    assert point.lower_bound <= point.q_c - half
    assert point.q_c + half <= float(d) ** -k
    assert 0.0 < point.gap < point.bisection_width


def curve_bits(point):
    """Every field of a CurvePoint but ``rho_evals``, bit for bit."""
    fields = (point.p, point.q_c, point.lower_bound, point.gap, point.rho_residual,
              point.bisection_width)
    return tuple(float(x).hex() for x in fields)


def test_qc_agrees_with_end_solves_first(curve_d2k3):
    # solving the ends only where the probes fail changes the solve count
    # and nothing else
    tp = TreeParams(2, 3)
    for point in curve_d2k3[:-1]:
        oracle = qc_end_solves_first(point.p, tp, 1e-10)
        assert curve_bits(point) == curve_bits(oracle), point.p
        assert point.rho_evals <= oracle.rho_evals
    for d, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (19, 2)]:
        tp = TreeParams(d, k)
        for tol in (1e-4, 1e-8, smallest_tol(d, k)):
            for j in range(20):
                p = j / (20 * d)
                point, oracle = qc(p, tp, tol=tol), qc_end_solves_first(p, tp, tol)
                assert curve_bits(point) == curve_bits(oracle), (d, k, tol, p)
                assert point.rho_evals <= oracle.rho_evals


def test_qc_bracket_stays_above_lower_bound(curve_d2k3):
    for point in curve_d2k3:
        if point.p < 0.5 - 1e-12:
            assert point.q_c - 0.5 * point.bisection_width >= point.lower_bound


@pytest.mark.parametrize("d, k", [(2, 4), (3, 3)])
def test_qc_bracket_not_below_bound_when_a_priori_bracket_exceeds_tol(d, k):
    # at p = 1e-9 the a priori bracket is about 1.2e-10 wide, above tol, and
    # the solve at its lower end reads rho > 1 from rounding; the bisection
    # below the bound that follows may not move the reported bracket there
    point = qc(1e-9, TreeParams(d, k), tol=1e-10)
    assert point.gap >= 0.0
    assert point.q_c - 0.5 * point.bisection_width >= point.lower_bound
    assert point.q_c + 0.5 * point.bisection_width <= float(d) ** -k


def test_qc_rejects_tolerance_below_floor():
    # tol itself passes the floor at 1e-13, but the derived rho tolerance
    # tol * d^k / (10 k) = 2e-14 does not; p above 1/d is refused as well
    for p, tol in ((0.2, 1e-13), (0.2, 1e-300), (0.6, 1e-300)):
        with pytest.raises(ParameterError):
            qc(p, TP, tol=tol)


def test_solve_tolerance_floor_names_an_accepted_tol():
    # the message names the smallest tol of 3 significant digits whose solve
    # tolerance passes the floor: that tol is accepted, one step below it is
    # not.  q_c solves at tol d^k / (10 k), matrix at tol / 4.  At 1/11 the
    # rounded 1.1e-12 is not accepted: 1.1e-12 / 11 rounds below the floor
    scales = [(d**k, 10.0 * k) for d in range(2, 40) for k in range(1, 12) if d**k < 10 * k]
    for times, per in scales + [(1, 4), (1, 11), (3, 7), (1, 1000)]:
        with pytest.raises(ParameterError, match="^--tol 1e-13 is below .*, the smallest") as exc:
            check_solve_tolerance(MIN_TOL, times, per, "x")
        shown = float(str(exc.value).split()[4].rstrip(","))
        assert check_solve_tolerance(shown, times, per, "x") == shown * times / per
        step = 10.0 ** (math.floor(math.log10(shown)) - 2)
        with pytest.raises(ParameterError):
            check_solve_tolerance(shown - step, times, per, "x")


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


def test_sweep_checks_grid_before_solving(monkeypatch):
    # a bad p anywhere in the grid, or a tol below the floor, is refused
    # before the first solve
    solves = []
    for name in ("rho_result", "pf_eigen"):
        def spy(*args, solve=getattr(critical, name), **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(critical, name, spy)
    for grid, tol in (
        (parse_grid("0:1.0001:0.0001"), 1e-10),
        ([0.1, 0.2, math.nan], 1e-10),
        ([0.1, 0.2], 1e-13),
    ):
        with pytest.raises(ParameterError):
            qc_sweep(grid, TP, tol=tol)
        assert solves == []


@pytest.mark.parametrize("d, k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (19, 2)])
def test_sweep_agrees_with_per_point_qc(d, k):
    # the batched passes change no bit of any field, rho_evals included; the
    # (2, 4) grid has 201 points, so it crosses passes
    tp = TreeParams(d, k)
    grid = [j / (20 * d) for j in range(21)] + [1e-9, 1.0 / d - 1e-9, 1.0 / d + 0.01]
    if (d, k) == (2, 4):
        grid = parse_grid("0:0.5:0.0025")
    for tol in (1e-4, 1e-8, smallest_tol(d, k)):
        swept = qc_sweep(grid, tp, tol=tol)
        assert [repr(pt) for pt in swept] == [repr(qc(p, tp, tol=tol)) for p in grid], tol


def test_sweep_falls_back_to_per_point_qc(monkeypatch):
    # an estimate 100 tol below the root fails its upper probe, one 100 tol
    # above it its lower probe, and one outside the bracket is not probed:
    # each interior point is then qc's own search, bit for bit
    roots, tol, tp = critical._long_edge_roots, 1e-8, TreeParams(2, 3)
    grid = [j / 40 for j in range(21)]
    for miss in (lambda r: r - 100 * tol, lambda r: r + 100 * tol, lambda r: np.full_like(r, 2.0)):
        monkeypatch.setattr(critical, "_long_edge_roots", lambda r0, dr: miss(roots(r0, dr)))
        swept = qc_sweep(grid, tp, tol=tol)
        assert [repr(pt) for pt in swept] == [repr(qc(p, tp, tol=tol)) for p in grid]
        assert all(pt.rho_evals > 2 for pt in swept[1:-1])


def test_sweep_builds_each_pencil_once_across_passes(monkeypatch):
    # a pass never holds more pencils than the cache, so a point that falls
    # back to qc finds its pencil cached; p = 1/d builds none
    builds = Counter()

    def counting_build(params, p, q):
        builds[p] += 1
        return build_offspring_matrix(params, p, q)

    monkeypatch.setattr(critical, "build_offspring_matrix", counting_build)
    critical._pencil.cache_clear()
    grid = parse_grid("0:0.5:0.0025")
    points = qc_sweep(grid, TreeParams(2, 4), tol=1e-4)
    assert any(pt.rho_evals > 2 for pt in points[1:-1])
    assert builds == Counter({p: 2 for p in grid[:-1]})


def test_sweep_memory_does_not_grow_with_grid():
    # the passes' working memory, the traced peak above what the call
    # returns and caches, is the same for 200 points and for 2000; the
    # returned points themselves grow with the grid
    tp = TreeParams(2, 4)
    qc_sweep([0.1], tp, tol=1e-4)
    working = []
    for n in (200, 2000):
        grid = [0.5 * j / n for j in range(n)]
        tracemalloc.start()
        try:
            points = qc_sweep(grid, tp, tol=1e-4)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(points) == n
        working.append(peak - held)
    assert working[1] <= 1.5 * working[0]


def test_lower_bound_field():
    assert branching_lower_bound(0.2, TP) == pytest.approx(0.6 / 4)
    assert branching_lower_bound(0.7, TP) == 0.0


def test_s_star_formula():
    assert s_star(0.25, 2) == pytest.approx(0.25**2 * 2 * 0.5**2 / (1 - 0.125))
    assert s_star(0.25, 2) == pytest.approx(0.0357142857, abs=1e-9)
    # p d >= 1, whether or not p^2 d < 1
    for p in (0.8, 0.6):
        with pytest.raises(ConsistencyError):
            s_star(p, 2)


def test_asymptotics_small_k():
    rows = asymptotics_table(0.25, [2, 3], 2, tol=1e-8)
    assert rows[0].residual > rows[1].residual
    assert rows[0].s_star == pytest.approx(rows[1].s_star)
    # leading order: d^k qc -> 1 - pd
    lead = [abs(2**r.k * r.q_c - 0.5) for r in rows]
    assert lead[0] > lead[1]

"""Command line front end: argument parsing, orchestration, CSV/JSON output.

Every command writes either CSV with '#'-prefixed metadata lines or a JSON
object carrying the same metadata under "meta".  Outputs are deterministic
for a fixed seed (the default seed is a constant, not the clock).

Exit codes: 0 success, 2 usage error, 3 cap or feasibility error,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal

import numpy as np

from . import __version__
from .critical import asymptotics_table, qc, qc_sweep, rho_result
from .coupling import dominance_test
from .errors import (
    FeasibilityError,
    NonConvergenceError,
    ParameterError,
    SizeCapError,
    check_tolerance,
)
from .percolation import (
    PercParams,
    conditioned_cluster_sample,
    criteria_eval,
    estimate_survival,
)
from .tree import TreeParams
from .window_chain import (
    build_offspring_matrix,
    chain_survival,
    simulate_window_chain,
)
from .spectral import pf_eigen

DEFAULT_SEED = 20240817

EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_NONCONVERGENCE = 4

#: Largest number of points a --p-grid may hold.
MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> list[float]:
    """Inclusive a:b:step grid parsed in decimal, so 0.5 lands on-grid."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be a:b:step, got {spec!r}")
    try:
        a, b, h = (Decimal(s) for s in parts)
    except ArithmeticError:
        raise ParameterError(f"grid values must be decimal numbers: {spec!r}")
    if not all(v.is_finite() for v in (a, b, h)):
        raise ParameterError(f"grid values must be finite: {spec!r}")
    if h <= 0 or b < a:
        raise ParameterError(f"grid needs step > 0 and b >= a: {spec!r}")
    try:
        n = int((b - a) / h) + 1
    except ArithmeticError:  # the quotient overflows the decimal context
        n = MAX_GRID_POINTS + 1
    if n > MAX_GRID_POINTS:
        raise SizeCapError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [float(a + j * h) for j in range(n)]


def _meta(args, **extra) -> dict:
    cfg = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "out", "format") and v is not None
    }
    cfg.update(extra)
    return {"version": __version__, "config": cfg, "seed": getattr(args, "seed", None)}


def _fmt(v):
    if isinstance(v, np.integer):
        v = int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _json_scalar(v):
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    raise TypeError(f"not JSON serializable: {type(v)}")


def write_output(path: str, write) -> None:
    """Call ``write(stream)`` on stdout for path '-'.  Otherwise write a temp
    file beside ``path`` and rename it onto ``path`` once ``write`` returns,
    so a run that fails partway leaves an existing file as it was."""
    if path == "-":
        write(sys.stdout)
        return
    import os

    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as stream:
            write(stream)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(args, meta: dict, header: list[str], rows: list[list]):
    """Write one result table as CSV (commented metadata) or JSON."""

    def write(stream):
        if args.format == "json":
            payload = {
                "meta": meta,
                "rows": [dict(zip(header, row)) for row in rows],
            }
            json.dump(payload, stream, indent=2, sort_keys=True, default=_json_scalar)
            stream.write("\n")
        else:
            stream.write(f"# treeperc {meta['version']}\n")
            cfg = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta["config"].items()))
            stream.write(f"# config: {cfg}\n")
            if meta.get("seed") is not None:
                stream.write(f"# seed: {meta['seed']}\n")
            stream.write(",".join(header) + "\n")
            for row in rows:
                stream.write(",".join(_fmt(v) for v in row) + "\n")

    write_output(args.out, write)


def cmd_qc_point(args):
    point = qc(args.p, TreeParams(args.d, args.k), tol=args.tol)
    emit(
        args,
        _meta(args),
        ["p", "qc", "lower_bound", "gap", "rho_residual", "bisection_width"],
        [[point.p, point.q_c, point.lower_bound, point.gap, point.rho_residual, point.bisection_width]],
    )


def cmd_qc_curve(args):
    points = qc_sweep(parse_grid(args.p_grid), TreeParams(args.d, args.k), tol=args.tol)
    emit(
        args,
        _meta(args),
        ["p", "qc", "lower_bound", "gap", "rho_residual"],
        [[pt.p, pt.q_c, pt.lower_bound, pt.gap, pt.rho_residual] for pt in points],
    )


def cmd_asymptotics(args):
    rows = asymptotics_table(
        args.p, range(args.k_min, args.k_max + 1), args.d, tol=args.tol
    )
    emit(
        args,
        _meta(args),
        ["k", "qc", "s_k", "s_star", "residual"],
        [[r.k, r.q_c, r.s_k, r.s_star, r.residual] for r in rows],
    )


def cmd_survival(args):
    params = TreeParams(args.d, args.k)
    if args.method == "direct":
        freq, se = estimate_survival(
            params, PercParams(args.p, args.q), args.trials, args.depth, args.seed
        )
    else:
        rng = np.random.default_rng(args.seed)
        freq, se = chain_survival(params, args.p, args.q, args.depth, args.trials, rng)
    meta = _meta(args, depth_proxy="alive means a vertex at height in [depth-k+1, depth]")
    emit(args, meta, ["frequency", "se"], [[freq, se]])


def cmd_limits(args):
    params = TreeParams(args.d, args.k)
    if args.regime != "critical" and args.horizon < 0:
        raise ParameterError(f"--horizon must be >= 0, got {args.horizon}")
    if args.regime == "super":
        rng = np.random.default_rng(args.seed)
        _, x = simulate_window_chain(
            params, args.p, args.q, rng, args.horizon + 1, trials=args.trials
        )
        mean_x = x.mean(axis=0)
        rho_val = rho_result(args.p, args.q, params).rho
        rows = [
            [n, mean_x[n], mean_x[n + 1] / mean_x[n] if mean_x[n] > 0 else float("nan"), rho_val]
            for n in range(args.horizon + 1)
        ]
        emit(args, _meta(args), ["n", "mean_x", "growth_ratio", "rho"], rows)
    elif args.regime == "sub":
        rng = np.random.default_rng(args.seed)
        n1, n2 = args.horizon_low, args.horizon
        if not 0 <= n1 <= n2:
            raise ParameterError(f"--horizon-low {n1} must lie in [0, --horizon {n2}]")
        _, x = simulate_window_chain(params, args.p, args.q, rng, n2, trials=args.trials)
        pmf1 = _conditional_pmf(x[:, n1])
        pmf2 = _conditional_pmf(x[:, n2])
        support = sorted(set(pmf1) | set(pmf2))
        tv = 0.5 * sum(abs(pmf1.get(i, 0.0) - pmf2.get(i, 0.0)) for i in support)
        rows = [[i, pmf1.get(i, 0.0), pmf2.get(i, 0.0), tv] for i in support]
        emit(args, _meta(args, n_low=n1, n_high=n2), ["i", "pmf_low", "pmf_high", "tv"], rows)
    else:
        point = qc(args.p, params)
        pmf, rate = conditioned_cluster_sample(
            params,
            PercParams(args.p, point.q_c),
            args.size_threshold,
            args.radius,
            args.trials,
            args.seed,
        )
        meta = _meta(args, q=point.q_c, acceptance_rate=rate)
        emit(
            args,
            meta,
            ["neighborhood_class", "probability"],
            [[label, pr] for label, pr in pmf.items()],
        )


def _conditional_pmf(values) -> dict:
    positive = values[values > 0]
    if positive.size == 0:
        raise ParameterError("no surviving trials to condition on")
    out = {}
    for v in positive:
        out[int(v)] = out.get(int(v), 0) + 1
    return {i: c / positive.size for i, c in sorted(out.items())}


def cmd_dominance(args):
    report = dominance_test(
        TreeParams(args.d, args.k), args.p, args.q, args.delta, args.trials, args.seed
    )
    meta = _meta(args, dominates=report.dominates, max_violation_sigma=report.max_violation_sigma)
    emit(
        args,
        meta,
        ["threshold", "surv_Z", "se_Z", "surv_Zhat", "se_Zhat", "violation_sigma"],
        [
            [r.threshold, r.surv_z, r.se_z, r.surv_zhat, r.se_zhat, r.violation_sigma]
            for r in report.rows
        ],
    )


def cmd_matrix(args):
    # iterate a bit past the requested tolerance so the certified residual
    # still holds after cross-normalizing the two eigenvectors
    tol = 0.25 * args.tol
    check_tolerance(tol)
    matrix = build_offspring_matrix(TreeParams(args.d, args.k), args.p, args.q)
    transpose = matrix.csr.T.tocsr()
    right = pf_eigen(matrix, tol=tol)
    left = pf_eigen(transpose, tol=tol)
    rho = right.rho
    mu = left.nu / left.nu.sum()  # left vector sums to one
    nu = right.nu
    scale = mu @ nu
    if scale > 0:
        nu = nu / scale  # mu . nu = 1
    residual = max(
        float(np.abs(op.dot(v) - rho * v).max() / max(np.abs(v).max(), 1e-300))
        for op, v in ((transpose, mu), (matrix.csr, nu))
    )
    if args.dump:

        def write(fh):
            fh.write(f"# treeperc {__version__}\n")
            fh.write(f"# config: d={args.d} k={args.k} p={_fmt(args.p)} q={_fmt(args.q)}\n")
            fh.write("row_window_hex,col_window_hex,rate\n")
            for a, b, rate in matrix.iter_entries():
                fh.write(f"{a:x},{b:x},{_fmt(rate)}\n")

        write_output(args.dump, write)
    emit(
        args,
        _meta(args),
        ["rho", "residual", "iterations", "n_types", "nnz", "mu_max", "nu_max"],
        [[
            rho,
            residual,
            right.iterations + left.iterations,
            matrix.n_types,
            int(matrix.csr.nnz),
            float(mu.max()),
            float(nu.max()),
        ]],
    )


def cmd_criteria(args):
    (lhs_a, se_a), (lhs_b, se_b), q = criteria_eval(
        TreeParams(args.d, args.k), args.p, args.s, args.trials, args.seed
    )
    meta = _meta(args, q=q)
    emit(
        args,
        meta,
        ["lhs_a", "se_a", "lhs_a_lo", "lhs_a_hi", "lhs_b", "se_b", "lhs_b_lo", "lhs_b_hi"],
        [[
            lhs_a, se_a, lhs_a - 1.96 * se_a, lhs_a + 1.96 * se_a,
            lhs_b, se_b, lhs_b - 1.96 * se_b, lhs_b + 1.96 * se_b,
        ]],
    )


def _add_common(sp, *, seed=True, fmt="csv"):
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")
    sp.add_argument("--format", choices=("csv", "json"), default=fmt)
    if seed:
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeperc",
        description="critical curves and Monte Carlo experiments for "
        "two-range oriented percolation on trees",
    )
    parser.add_argument("--version", action="version", version=f"treeperc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("qc-point", help="critical long-edge probability at one p")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp, seed=False, fmt="json")
    sp.set_defaults(func=cmd_qc_point)

    sp = sub.add_parser("qc-curve", help="critical curve over a p grid")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p-grid", required=True, help="inclusive a:b:step")
    sp.add_argument("--tol", type=float, default=1e-10)
    _add_common(sp, seed=False)
    sp.set_defaults(func=cmd_qc_curve)

    sp = sub.add_parser("asymptotics", help="two-term large-k expansion residuals")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--k-min", type=int, required=True)
    sp.add_argument("--k-max", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    _add_common(sp, seed=False)
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("survival", help="Monte Carlo survival frequency at depth")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--trials", type=int, default=10**5)
    sp.add_argument("--depth", type=int, default=60)
    sp.add_argument(
        "--method",
        choices=("chain", "direct"),
        default="chain",
        help="count-level chain simulation or per-vertex exploration",
    )
    _add_common(sp, fmt="json")
    sp.set_defaults(func=cmd_survival)

    sp = sub.add_parser("limits", help="long-horizon layer-count diagnostics")
    sp.add_argument("--regime", choices=("super", "sub", "critical"), required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, help="ignored for --regime critical")
    sp.add_argument("--trials", type=int, default=10**5)
    sp.add_argument("--horizon", type=int, default=25)
    sp.add_argument("--horizon-low", type=int, default=15, help="sub regime only")
    sp.add_argument("--size-threshold", type=int, default=50, help="critical regime")
    sp.add_argument("--radius", type=int, default=1, help="critical regime")
    _add_common(sp)
    sp.set_defaults(func=cmd_limits)

    sp = sub.add_parser("dominance", help="slab leaf-count stochastic dominance test")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--trials", type=int, default=10**5)
    _add_common(sp)
    sp.set_defaults(func=cmd_dominance)

    sp = sub.add_parser("matrix", help="offspring matrix spectrum and optional dump")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--dump", help="write the sparse matrix as CSV to this path")
    _add_common(sp, seed=False, fmt="json")
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("criteria", help="survival/extinction functional estimates")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--s", type=float, required=True, help="second-order offset")
    sp.add_argument("--trials", type=int, default=10**5)
    _add_common(sp, fmt="json")
    sp.set_defaults(func=cmd_criteria)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (SizeCapError, FeasibilityError) as exc:
        print(f"treeperc: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NonConvergenceError as exc:
        print(f"treeperc: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ParameterError as exc:
        print(f"treeperc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: argument parsing, orchestration, CSV/JSON output.

Each flag that several commands share (the model parameters, the Monte Carlo
trials and seed, the output path and format) is declared once, in ``FLAGS``;
``COMMANDS`` lists, for each command, the shared flags it takes and its own.
``main`` builds the parser of the command it runs and no other.  Each
``--tol`` default is the library default of the solver it sets.
Every command returns its table as ``(header, rows, extra)`` and ``main``
writes it once through ``emit``, with ``extra`` added to the run's config:
CSV with '#'-prefixed metadata lines, or a JSON object carrying the same
metadata under "meta", with a non-finite value written as null.  Outputs are
deterministic for a fixed seed (the default seed is a constant, not the clock).

Exit codes: 0 success, 2 usage error, 3 cap or feasibility error,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal

import numpy as np

# numpy imports numpy.random (and with it secrets, hmac and base64) on first
# use; importing it here moves that cost out of a command's first default_rng
import numpy.random

from . import __version__
from .critical import (
    DEFAULT_ASYMPTOTICS_TOL,
    DEFAULT_Q_TOL,
    asymptotics_table,
    qc,
    qc_sweep,
    rho_result,
)
from .coupling import dominance_test
from .errors import (
    FeasibilityError,
    NonConvergenceError,
    ParameterError,
    SizeCapError,
    check_seed,
    check_solve_tolerance,
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
from .spectral import DEFAULT_TOL, pf_eigen

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


def _cell(v, fmt: str):
    """A table value as ``fmt`` writes it: a numpy scalar as the Python value
    it holds; in CSV a float by its repr, in JSON a non-finite one as null."""
    if isinstance(v, np.generic):
        v = v.item()
    if fmt == "csv":
        return repr(v) if isinstance(v, float) else str(v)
    return None if isinstance(v, float) and not math.isfinite(v) else v


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


def check_output_path(path: str | None) -> None:
    """Reject a directory, or a file in a missing directory, as output path."""
    import os

    if path not in (None, "-") and (
        os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")
    ):
        raise ParameterError(f"output path {path!r} is a directory or lies in a missing one")


def emit(out: str, fmt: str, meta: dict, header: list[str], rows) -> None:
    """Write one result table to ``out`` as CSV (commented metadata) or JSON.
    JSON allows no NaN or infinity, so that any strict parser reads it."""

    def write(stream):
        if fmt == "json":
            config = {k: _cell(v, fmt) for k, v in meta["config"].items()}
            payload = {
                "meta": {**meta, "config": config},
                "rows": [{h: _cell(v, fmt) for h, v in zip(header, row)} for row in rows],
            }
            json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
            stream.write("\n")
        else:
            stream.write(f"# treeperc {meta['version']}\n")
            cfg = " ".join(f"{k}={_cell(v, fmt)}" for k, v in sorted(meta["config"].items()))
            stream.write(f"# config: {cfg}\n")
            if meta.get("seed") is not None:
                stream.write(f"# seed: {meta['seed']}\n")
            stream.write(",".join(header) + "\n")
            for row in rows:
                stream.write(",".join(_cell(v, fmt) for v in row) + "\n")

    write_output(out, write)


def cmd_qc_point(args):
    pt = qc(args.p, TreeParams(args.d, args.k), tol=args.tol)
    header = ["p", "qc", "lower_bound", "gap", "rho_residual", "bisection_width"]
    return header, [[pt.p, pt.q_c, pt.lower_bound, pt.gap, pt.rho_residual, pt.bisection_width]], {}


def cmd_qc_curve(args):
    points = qc_sweep(parse_grid(args.p_grid), TreeParams(args.d, args.k), tol=args.tol)
    rows = [[pt.p, pt.q_c, pt.lower_bound, pt.gap, pt.rho_residual] for pt in points]
    return ["p", "qc", "lower_bound", "gap", "rho_residual"], rows, {}


def cmd_asymptotics(args):
    if args.k_min > args.k_max:
        raise ParameterError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    rows = asymptotics_table(
        args.p, range(args.k_min, args.k_max + 1), args.d, tol=args.tol
    )
    header = ["k", "qc", "s_k", "s_star", "residual"]
    return header, [[r.k, r.q_c, r.s_k, r.s_star, r.residual] for r in rows], {}


def cmd_survival(args):
    params = TreeParams(args.d, args.k)
    if args.method == "direct":
        freq, se = estimate_survival(
            params, PercParams(args.p, args.q), args.trials, args.depth, args.seed
        )
    else:
        rng = np.random.default_rng(args.seed)
        freq, se = chain_survival(params, args.p, args.q, args.depth, args.trials, rng)
    proxy = "alive means a vertex at height in [depth-k+1, depth]"
    return ["frequency", "se"], [[freq, se]], {"depth_proxy": proxy}


def cmd_limits(args):
    params = TreeParams(args.d, args.k)
    if args.regime != "critical" and args.q is None:
        raise ParameterError(f"--regime {args.regime} needs --q")
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
        return ["n", "mean_x", "growth_ratio", "rho"], rows, {}
    if args.regime == "sub":
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
        return ["i", "pmf_low", "pmf_high", "tv"], rows, {"n_low": n1, "n_high": n2}
    point = qc(args.p, params)
    pmf, rate = conditioned_cluster_sample(
        params,
        PercParams(args.p, point.q_c),
        args.size_threshold,
        args.radius,
        args.trials,
        args.seed,
    )
    rows = [[label, pr] for label, pr in pmf.items()]
    return ["neighborhood_class", "probability"], rows, {"q": point.q_c, "acceptance_rate": rate}


def _conditional_pmf(values) -> dict:
    positive = values[values > 0]
    if positive.size == 0:
        raise FeasibilityError("no surviving trials to condition on")
    levels, counts = np.unique(positive, return_counts=True)
    return {int(v): c / positive.size for v, c in zip(levels, counts.tolist())}


def cmd_dominance(args):
    report = dominance_test(
        TreeParams(args.d, args.k), args.p, args.q, args.delta, args.trials, args.seed
    )
    header = ["threshold", "surv_Z", "se_Z", "surv_Zhat", "se_Zhat", "violation_sigma"]
    rows = [
        [r.threshold, r.surv_z, r.se_z, r.surv_zhat, r.se_zhat, r.violation_sigma]
        for r in report.rows
    ]
    extra = {"dominates": report.dominates, "max_violation_sigma": report.max_violation_sigma}
    return header, rows, extra


def cmd_matrix(args):
    # iterate a bit past the requested tolerance so the certified residual
    # still holds after cross-normalizing the two eigenvectors; where rho is
    # too badly conditioned for that, the two solves disagree and it is refused
    tol = check_solve_tolerance(args.tol, 1, 4, "matrix accepts, as it solves at tol/4")
    matrix = build_offspring_matrix(TreeParams(args.d, args.k), args.p, args.q)
    dense = matrix.dense
    right = pf_eigen(dense, tol=tol)
    left = pf_eigen(dense.T, tol=tol)
    rho = right.rho
    mu = left.nu / left.nu.sum()  # left vector sums to one
    nu = right.nu
    scale = mu @ nu
    if scale > 0:
        nu = nu / scale  # mu . nu = 1
    residual = max(
        float(np.abs(op.dot(v) - rho * v).max() / max(np.abs(v).max(), 1e-300))
        for op, v in ((dense.T, mu), (dense, nu))
    )
    iterations = right.iterations + left.iterations
    if residual > args.tol:
        raise NonConvergenceError(
            f"the left and right Perron solves agree only to residual {residual:.3e}, "
            f"above tolerance {args.tol}: rho is too badly conditioned here for it",
            residual=residual,
            iterations=iterations,
        )
    if args.dump:
        config = {"d": args.d, "k": args.k, "p": args.p, "q": args.q}
        emit(
            args.dump, "csv", {"version": __version__, "config": config},
            ["row_state_hex", "col_state_hex", "rate"],
            ([f"{a:x}", f"{b:x}", rate] for a, b, rate in matrix.iter_entries()),
        )
    nnz = int(np.count_nonzero(dense))
    header = ["rho", "residual", "iterations", "n_types", "nnz", "mu_max", "nu_max"]
    row = [rho, residual, iterations, matrix.n_types, nnz, float(mu.max()), float(nu.max())]
    return header, [row], {}


def cmd_criteria(args):
    (lhs_a, se_a), (lhs_b, se_b), q = criteria_eval(
        TreeParams(args.d, args.k), args.p, args.s, args.trials, args.seed
    )
    header = ["lhs_a", "se_a", "lhs_a_lo", "lhs_a_hi", "lhs_b", "se_b", "lhs_b_lo", "lhs_b_hi"]
    row = [
        lhs_a, se_a, lhs_a - 1.96 * se_a, lhs_a + 1.96 * se_a,
        lhs_b, se_b, lhs_b - 1.96 * se_b, lhs_b + 1.96 * se_b,
    ]
    return header, [row], {"q": q}


#: Each flag that several commands take, declared once by its add_argument
#: keywords.  ``--tol`` is the q_c tolerance; ``--format`` takes its default
#: from the command.
FLAGS = {
    "--d": {"type": int, "required": True},
    "--k": {"type": int, "required": True},
    "--p": {"type": float, "required": True},
    "--q": {"type": float, "required": True},
    "--tol": {"type": float, "default": DEFAULT_Q_TOL},
    "--trials": {"type": int, "default": 10**5},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--out": {"default": "-", "help": "output path, '-' for stdout"},
    "--format": {"choices": ("csv", "json")},
}

#: Each command: its function, help line, default output format, the FLAGS it
#: takes before ``--out`` and ``--format``, and its own flags as
#: (name, add_argument keywords).
COMMANDS = {
    "qc-point": (
        cmd_qc_point, "critical long-edge probability at one p", "json",
        ("--d", "--k", "--p", "--tol"), (),
    ),
    "qc-curve": (
        cmd_qc_curve, "critical curve over a p grid", "csv",
        ("--d", "--k", "--tol"), (("--p-grid", {"required": True, "help": "inclusive a:b:step"}),),
    ),
    "asymptotics": (
        cmd_asymptotics, "two-term large-k expansion residuals", "csv",
        ("--d", "--p"),
        (
            ("--k-min", {"type": int, "required": True}),
            ("--k-max", {"type": int, "required": True}),
            ("--tol", {"type": float, "default": DEFAULT_ASYMPTOTICS_TOL}),
        ),
    ),
    "survival": (
        cmd_survival, "Monte Carlo survival frequency at depth", "json",
        ("--d", "--k", "--p", "--q", "--trials", "--seed"),
        (
            ("--depth", {"type": int, "default": 60}),
            ("--method", {
                "choices": ("chain", "direct"),
                "default": "chain",
                "help": "count-level chain simulation or per-vertex exploration",
            }),
        ),
    ),
    "limits": (
        cmd_limits, "long-horizon layer-count diagnostics", "csv",
        ("--d", "--k", "--p", "--trials", "--seed"),
        (
            ("--regime", {"choices": ("super", "sub", "critical"), "required": True}),
            ("--q", {"type": float, "help": "ignored for --regime critical"}),
            ("--horizon", {"type": int, "default": 25}),
            ("--horizon-low", {"type": int, "default": 15, "help": "sub regime only"}),
            ("--size-threshold", {"type": int, "default": 50, "help": "critical regime"}),
            ("--radius", {"type": int, "default": 1, "help": "critical regime"}),
        ),
    ),
    "dominance": (
        cmd_dominance, "slab leaf-count stochastic dominance test", "csv",
        ("--d", "--k", "--p", "--q", "--trials", "--seed"),
        (("--delta", {"type": float, "required": True}),),
    ),
    "matrix": (
        cmd_matrix, "Perron pair of the ray mean matrix d*T, optional dump", "json",
        ("--d", "--k", "--p", "--q"),
        (
            ("--tol", {"type": float, "default": DEFAULT_TOL}),
            ("--dump", {"help": "write the entries of d*T as CSV to this path"}),
        ),
    ),
    "criteria": (
        cmd_criteria, "survival/extinction functional estimates", "json",
        ("--d", "--k", "--p", "--trials", "--seed"),
        (("--s", {"type": float, "required": True, "help": "second-order offset"}),),
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The treeperc parser, with every command, or with only ``command`` (a
    key of COMMANDS) when that is given.  Its usage line names every command
    either way."""
    parser = argparse.ArgumentParser(
        prog="treeperc",
        description="critical curves and Monte Carlo experiments for "
        "two-range oriented percolation on trees",
    )
    parser.add_argument("--version", action="version", version=f"treeperc {__version__}")
    # left unset in the full parser, where argparse names the argument
    # "command" in its invalid-choice error
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, help_line, fmt, shared, own) in COMMANDS.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_line)
        for flag in (*shared, "--out", "--format"):
            sp.add_argument(flag, **FLAGS[flag])
        for flag, kwargs in own:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func, format=fmt)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no value before the command, so a run that
    # reaches a command names it first, and only its parser need be built
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        check_output_path(args.out)
        check_output_path(getattr(args, "dump", None))
        if getattr(args, "seed", None) is not None:
            check_seed(args.seed)
        header, rows, extra = args.func(args)
        emit(args.out, args.format, _meta(args, **extra), header, rows)
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

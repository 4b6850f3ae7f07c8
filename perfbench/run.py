"""treeperc benchmark: time to q_c and Monte Carlo throughput through the CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one call of ``treeperc.cli.main`` in a fresh process (see
``child.py``), driven as a closed loop by a single client: the next operation
starts only after the last one has finished, until ``--seconds`` have passed
(at least one operation always runs).  Every output is checked against
``reference.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``.  With ``--trace 1`` one untraced operation runs, then the
same operation traced, and the metrics are the per-layer ones.  README.md
lists every metric and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A run must end within this many seconds; no operation starts that would
#: likely overrun it.
RUN_BUDGET_S = 170.0
#: Set-up samples taken in their own processes at the start of every run.
SETUP_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SURVIVAL_POINT = ("--d", "2", "--k", "3", "--p", "0.2", "--q", "0.0861", "--depth", "60")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI argv without the per-operation flags
    kind: str  # "qc" or "survival"
    points: int = 1  # operations counted by fail_frac: q_c points, or 1 estimate
    trials: int = 0  # Monte Carlo trials per survival operation
    max_error: float = 0.0  # allowed |q_c - reference| for qc workloads

    @property
    def units(self) -> int:
        """Units of work per operation: q_c points or Monte Carlo trials."""
        return self.trials if self.kind == "survival" else self.points


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qc-d2k4",
            ("qc-point", "--d", "2", "--k", "4", "--p", "0.25", "--tol", "1e-4"),
            "qc",
            max_error=1e-4,
        ),
        Workload(
            "qc-curve-d2k3",
            ("qc-curve", "--d", "2", "--k", "3", "--p-grid", "0:0.5:0.005", "--tol", "1e-10"),
            "qc",
            points=101,
            max_error=2e-10,
        ),
        Workload(
            "survival-chain-d2k3",
            ("survival", "--method", "chain") + SURVIVAL_POINT,
            "survival",
            trials=2000,
        ),
        Workload(
            "survival-direct-d2k3",
            ("survival", "--method", "direct") + SURVIVAL_POINT,
            "survival",
            trials=2000,
        ),
    )
}


def op_seed(seed: int, index: int) -> int:
    """Program seed of operation ``index`` in a run with benchmark seed ``seed``."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def op_argv(w: Workload, seed: int, index: int, out: Path) -> list:
    argv = list(w.command)
    if w.kind == "survival":
        argv += ["--trials", str(w.trials), "--seed", str(op_seed(seed, index))]
    return argv + ["--format", "json", "--out", str(out)]


def flags(w: Workload) -> dict:
    """The workload's ``--name value`` pairs."""
    return dict(zip(w.command[1::2], w.command[2::2]))


def survival_probe(w: Workload):
    """Arguments of the transition-table probe for a chain workload."""
    f = flags(w)
    if f.get("--method") != "chain":
        return None
    return {"d": int(f["--d"]), "k": int(f["--k"]), "p": float(f["--p"]), "q": float(f["--q"])}


def check_output(w: Workload, payload: dict, ref: dict) -> int:
    """Number of wrong points in one operation's output (0 when correct)."""
    rows = payload["rows"]
    if w.kind == "survival":
        freq = rows[0]["frequency"]
        f0 = ref["frequency"]
        se = math.sqrt(f0 * (1.0 - f0) / w.trials + ref["se"] ** 2)
        return int(not abs(freq - f0) <= 4.0 * se)
    if len(rows) != len(ref["q_c"]):
        return w.points
    return sum(
        not (abs(row["p"] - p) <= 1e-12 and abs(row["qc"] - q) <= w.max_error)
        for row, p, q in zip(rows, ref["p"], ref["q_c"])
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, ncpu))
        except ValueError:
            n = ncpu
        env[var] = str(min(max(n, 1), ncpu))
    return env


class Runner:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, request: dict) -> dict:
        """Run one child; returns its result plus ``peak_rss_mb`` and, on a
        crash or timeout, ``error``."""
        self.count += 1
        req = self.workdir / f"request-{self.count}.json"
        res = self.workdir / f"result-{self.count}.json"
        req.write_text(json.dumps(dict(request, src=str(SRC))))
        with open(self.workdir / f"stderr-{self.count}.txt", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(req), str(res)],
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                status, rusage, timed_out = self._wait(proc)
            finally:
                if proc.returncode is None:  # interrupted while waiting
                    proc.kill()
                    proc.wait()
        result = json.loads(res.read_text()) if res.exists() else {}
        result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
        code = os.waitstatus_to_exitcode(status)
        if timed_out or code != 0:
            result["error"] = f"child exited with {code}" + (" after timeout" if timed_out else "")
        return result

    def _wait(self, proc):
        # os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would be the
        # maximum over every child of the run.
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, rusage, False
            if time.monotonic() > self.deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return status, rusage, True
            time.sleep(0.01)


def run_op(runner: Runner, w: Workload, ref: dict, seed: int, index: int, trace: bool = False) -> dict:
    """One checked operation: result of the child plus ``wrong`` points."""
    out = runner.workdir / f"output-{runner.count + 1}.json"
    result = runner.run(
        {
            "mode": "op",
            "argv": op_argv(w, seed, index, out),
            "trace": trace,
            "run_id": f"{w.name}-{seed}-{index}-{'traced' if trace else 'untraced'}",
            "probe": survival_probe(w) if trace else None,
        }
    )
    wrong = w.points
    if "error" not in result and result.get("exit_code") == 0:
        try:
            wrong = check_output(w, json.loads(out.read_text()), ref)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            result["error"] = f"unreadable output: {exc!r}"
    else:
        result.setdefault("error", f"treeperc exited with {result.get('exit_code')}")
    result["wrong"] = wrong
    return result


def measure(w: Workload, ref: dict, seed: int, seconds: float, runner: Runner) -> tuple:
    """Set-up samples, then the closed loop of untraced operations."""
    runner.run({"mode": "setup"})  # untimed: fills the bytecode cache
    setup = [runner.run({"mode": "setup"}).get("setup_s") for _ in range(SETUP_SAMPLES)]
    ops = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        if ops and time.monotonic() + 2 * max(op["wall_s"] for op in ops) > runner.deadline:
            break
        t0 = time.monotonic()
        op = run_op(runner, w, ref, seed, len(ops))
        op["wall_s"] = time.monotonic() - t0
        ops.append(op)
        setup.append(op.get("setup_s"))
    return [s for s in setup if s is not None], ops


def end_to_end_metrics(w: Workload, setup: list, ops: list) -> dict:
    timed = [op["main_s"] / w.units for op in ops if "main_s" in op]
    return {
        "unit_s": (statistics.median(timed) if timed else float("nan"), "s"),
        "peak_rss_mb": (statistics.median(op["peak_rss_mb"] for op in ops), "MB"),
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
    }


def layer_metrics(w: Workload, trace: dict, tables_s, traced_main_s: float, untraced_main_s: float) -> dict:
    """Per-layer numbers from one traced operation.  A layer the workload does
    not reach, or a traced name the program no longer has, reads 0."""
    spans, rollups = trace["spans"], trace["rollups"]
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_s[s["parent"]] += dur[s["id"]]
    calls, total_s = defaultdict(int), defaultdict(float)
    self_s = defaultdict(float)
    for r in rollups:
        calls[r["name"]] += r["calls"]
        total_s[r["name"]] += r["total_s"]
        self_s[r["name"].split(".")[0]] += r["outer_s"]
        if r["parent"] is not None:
            child_s[r["parent"]] += r["outer_s"]
    for s in spans:
        self_s[s["name"].split(".")[0]] += dur[s["id"]] - child_s[s["id"]]

    def per(x, n):
        return x / n if n else 0.0

    def durations(name):
        return [dur[s["id"]] for s in by_name[name]]

    def mean_dur(name):
        return per(sum(durations(name)), len(by_name[name]))

    def attr(name, key):
        return [s[key] for s in by_name[name] if s.get(key) is not None]

    n_qc = len(by_name["critical.qc"])
    trials = w.trials if by_name["percolation.estimate_survival"] else 0
    queries = ("open_short_children", "open_long_children", "short_edge_open", "long_edge_open")
    n_queries = sum(calls[f"rng.EdgeOracle.{m}"] for m in queries)
    query_s = sum(total_s[f"rng.EdgeOracle.{m}"] for m in queries)
    iterations = attr("spectral.pf_eigen", "iterations")
    solve_s = mean_dur("spectral.pf_eigen")
    sims = [s for s in by_name["window_chain.simulate_window_chain"] if s.get("generations")]
    tables = tables_s or 0.0
    return {
        "cli.self_s": (self_s["cli"], "s"),
        "critical.rho_evals": (per(len(by_name["critical.rho_result"]), n_qc), "count"),
        "critical.self_s": (per(self_s["critical"], n_qc), "s"),
        "window_chain.build_s": (mean_dur("window_chain.build_offspring_matrix"), "s"),
        "window_chain.build_calls": (per(len(by_name["window_chain.build_offspring_matrix"]), n_qc), "count"),
        "window_chain.nnz": (max(attr("window_chain.build_offspring_matrix", "nnz"), default=0), "count"),
        "window_chain.operator_mb": (max(attr("window_chain.build_offspring_matrix", "operator_bytes"), default=0) / 1e6, "MB"),
        "spectral.solve_s": (solve_s, "s"),
        "spectral.iterations": (per(sum(iterations), len(iterations)), "count"),
        "spectral.iter_s": (per(solve_s, per(sum(iterations), len(iterations))), "s"),
        "window_chain.tables_s": (tables, "s"),
        "window_chain.sim_s": (mean_dur("window_chain.simulate_window_chain"), "s"),
        "window_chain.gen_s": (
            per(sum(dur[s["id"]] - tables for s in sims), sum(s["generations"] for s in sims)),
            "s",
        ),
        "window_chain.history_mb": (max(attr("window_chain.simulate_window_chain", "history_bytes"), default=0) / 1e6, "MB"),
        "percolation.trial_s": (per(sum(durations("percolation.estimate_survival")), trials), "s"),
        "percolation.self_s": (per(self_s["percolation"], trials), "s"),
        "percolation.vertices_per_trial": (per(calls["rng.EdgeOracle.open_short_children"], trials), "count"),
        "rng.queries": (per(n_queries, trials), "count"),
        "rng.query_s": (per(query_s, n_queries), "s"),
        "rng.oracle_init_s": (per(total_s["rng.EdgeOracle.__init__"], calls["rng.EdgeOracle.__init__"]), "s"),
        "trace.overhead_s": (traced_main_s - untraced_main_s, "s"),
    }


def describe(name: str, values: list, unit: str) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    line = f"{name}: median {statistics.median(values):.6g} {unit} (n={n}"
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if pct >= 1 else values[0]
        return line + f", p{pct} {q:.6g} {unit})"
    return line + f", max {values[-1]:.6g} {unit}; too few samples for a tail percentile)"


def run_workload(w: Workload, ref: dict, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Measure one workload; returns the result object the benchmark prints."""
    runner = Runner(workdir, time.monotonic() + RUN_BUDGET_S)
    # a traced run prints no end-to-end metric, so one untraced operation,
    # the baseline of the tracing overhead, is enough
    setup, ops = measure(w, ref, seed, 0 if trace else seconds, runner)
    report = [
        describe("setup_s", setup, "s"),
        describe("unit_s", [op["main_s"] / w.units for op in ops if "main_s" in op], "s"),
        describe("peak_rss_mb", [op["peak_rss_mb"] for op in ops], "MB"),
    ]
    if trace:
        traced = run_op(runner, w, ref, seed, 0, trace=True)
        ops.append(traced)
        if "trace" not in traced:
            raise RuntimeError(f"traced operation failed: {traced.get('error')}")
        (OUT / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps(traced["trace"]))
        untraced = ops[0].get("main_s", float("nan"))
        metrics = layer_metrics(w, traced["trace"], traced.get("tables_s"), traced["main_s"], untraced)
        if traced["trace"]["absent"]:
            report.append("absent traced names: " + ", ".join(traced["trace"]["absent"]))
    else:
        metrics = end_to_end_metrics(w, setup, ops)
    attempted = w.points * len(ops)
    failed = sum(op["wrong"] for op in ops)
    report.append(f"fail_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    if w.kind == "qc":
        report.append(f"qc_s = unit_s: seconds per q_c, {w.points} per operation")
    else:
        report.append(f"trials_per_s = 1/unit_s, {w.trials} trials per operation")
    report += [op["error"].strip().splitlines()[-1] for op in ops if op.get("error")]
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeperc" / "cli.py").is_file():
        print(f"perfbench: no treeperc sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.iterdir():
        stale.unlink()
    outcome = run_workload(w, load_reference()[w.name], args.seed, args.seconds, bool(args.trace), workdir)
    for line in outcome["report"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

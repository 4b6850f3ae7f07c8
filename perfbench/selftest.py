"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. Each workload's check accepts its reference and rejects a wrong one.
2. A real operation checked against a deliberately wrong reference counts
   as failed.
3. The tracer reports a missing name as absent and the per-layer metrics of
   an empty trace as 0, without failing.
4. Smoke: every workload runs traced with reduced trials. It must be correct
   and report every per-layer metric that BENCHMARK.json lists. The layers
   the workload exercises must read nonzero. The end-to-end metrics are
   checked on one untraced run.

Takes about two minutes on a 2-core container, most of it one `qc-d2k4` q_c.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
import tempfile
import time
import types
from pathlib import Path

import run
from tracer import Tracer

SMOKE_TRIALS = 200
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that must be nonzero on each workload's traced operation
EXERCISED = {
    "qc-d2k4": ("critical.rho_evals", "window_chain.build_s", "window_chain.nnz", "spectral.iterations"),
    "qc-curve-d2k3": ("critical.rho_evals", "critical.self_s", "spectral.solve_s", "spectral.iter_s"),
    "survival-chain-d2k3": ("window_chain.tables_s", "window_chain.gen_s", "window_chain.history_mb"),
    "survival-direct-d2k3": ("percolation.trial_s", "rng.queries", "rng.query_s", "rng.oracle_init_s"),
}


def fake_output(w, ref) -> dict:
    if w.kind == "survival":
        return {"rows": [{"frequency": ref["frequency"], "se": ref["se"]}]}
    return {"rows": [{"p": p, "qc": q} for p, q in zip(ref["p"], ref["q_c"])]}


def test_checks(refs):
    for name, w in run.WORKLOADS.items():
        ref = refs[name]
        assert run.check_output(w, fake_output(w, ref), ref) == 0, name
        wrong = copy.deepcopy(ref)
        if w.kind == "survival":
            wrong["frequency"] += 0.1
            assert run.check_output(w, fake_output(w, ref), wrong) == 1, name
        else:
            wrong["q_c"][-1] += 10 * w.max_error
            assert run.check_output(w, fake_output(w, ref), wrong) == 1, name


def test_wrong_reference_counts_as_failure(refs, workdir: Path):
    w = dataclasses.replace(run.WORKLOADS["survival-direct-d2k3"], trials=SMOKE_TRIALS)
    wrong = dict(refs[w.name], frequency=refs[w.name]["frequency"] + 0.3)
    runner = run.Runner(workdir, time.monotonic() + 60)
    op = run.run_op(runner, w, wrong, seed=1, index=0)
    assert "error" not in op, op.get("error")
    assert op["wrong"] == 1, op


def test_tracer_survives_missing_names():
    tracer = Tracer("selftest")
    module = types.SimpleNamespace()
    tracer._patch(module, "build_offspring_matrix", "window_chain.build_offspring_matrix", "span")
    assert tracer.absent == ["window_chain.build_offspring_matrix"]
    empty = {"spans": [], "rollups": [], "absent": tracer.absent}
    for name, w in run.WORKLOADS.items():
        metrics = run.layer_metrics(w, empty, None, 1.0, 1.0)
        assert all(v == 0 for v, _ in metrics.values()), name


def test_smoke(refs, workdir: Path):
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for name, w in run.WORKLOADS.items():
        if w.kind == "survival":
            w = dataclasses.replace(w, trials=SMOKE_TRIALS)
        sub = workdir / name
        sub.mkdir()
        t0 = time.monotonic()
        out = run.run_workload(w, refs[name], seed=7, seconds=0, trace=True, workdir=sub)
        result = out["result"]
        assert result["correct"] and result["failed"] == 0, (name, out["report"])
        assert set(result["metrics"]) == per_layer, (name, set(result["metrics"]) ^ per_layer)
        for metric in EXERCISED[name]:
            assert result["metrics"][metric]["value"] > 0, (name, metric)
        print(f"smoke {name}: ok in {time.monotonic() - t0:.1f} s")
    w = dataclasses.replace(run.WORKLOADS["survival-direct-d2k3"], trials=SMOKE_TRIALS)
    sub = workdir / "untraced"
    sub.mkdir()
    result = run.run_workload(w, refs[w.name], seed=8, seconds=0, trace=False, workdir=sub)["result"]
    assert set(result["metrics"]) == end_to_end and result["correct"], result
    assert all(m["value"] > 0 for m in result["metrics"].values()), result


def main() -> int:
    refs = run.load_reference()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        (workdir / "wrong").mkdir()
        test_checks(refs)
        test_wrong_reference_counts_as_failure(refs, workdir / "wrong")
        test_tracer_survives_missing_names()
        test_smoke(refs, workdir)
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())

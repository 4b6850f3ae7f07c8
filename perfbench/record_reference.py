"""Record the reference values that run.py checks every output against.

Run from the root of a checkout whose outputs are taken as correct, for all
workloads or the named ones, and merge the printed JSON into reference.json:

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

q_c references are solved more tightly than the workloads ask; survival
references use many more trials than one operation, with a seed that no
benchmark operation uses.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from run import WORKLOADS, flags
from treeperc.cli import parse_grid
from treeperc.critical import qc_sweep
from treeperc.percolation import PercParams, estimate_survival
from treeperc.tree import TreeParams
from treeperc.window_chain import chain_survival

QC_TOL = {"qc-d2k4": 1e-9, "qc-curve-d2k3": 1e-11}
SURVIVAL_TRIALS = 50_000
SURVIVAL_SEED = 987_654_321_000  # above 2^32, so op_seed never yields it
CHAIN_BATCH = 5000  # bounds the history array; the law does not depend on it


def record(name: str) -> dict:
    w = WORKLOADS[name]
    f = flags(w)
    params = TreeParams(int(f["--d"]), int(f["--k"]))
    if w.kind == "qc":
        grid = parse_grid(f["--p-grid"]) if "--p-grid" in f else [float(f["--p"])]
        points = qc_sweep(grid, params, tol=QC_TOL[name])
        return {"p": [pt.p for pt in points], "q_c": [pt.q_c for pt in points], "tol": QC_TOL[name]}
    p, q, depth = float(f["--p"]), float(f["--q"]), int(f["--depth"])
    if f["--method"] == "chain":
        rng = np.random.default_rng(SURVIVAL_SEED)
        freq, se = chain_survival(params, p, q, depth, SURVIVAL_TRIALS, rng, batch=CHAIN_BATCH)
    else:
        freq, se = estimate_survival(params, PercParams(p, q), SURVIVAL_TRIALS, depth, SURVIVAL_SEED)
    return {"frequency": freq, "se": se, "trials": SURVIVAL_TRIALS, "seed": SURVIVAL_SEED}


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(WORKLOADS)
    print(json.dumps({name: record(name) for name in names}, indent=1))

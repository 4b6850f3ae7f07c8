"""One workload operation in a fresh process: import, parse, run ``cli.main``.

Usage: python3 child.py REQUEST_JSON RESULT_JSON

The request holds ``mode`` ("setup" or "op"), ``argv`` for ``treeperc.cli.main``,
``trace`` (bool), ``run_id`` and an optional ``probe`` for the window-chain
transition tables.  The result records the set-up time (importing
``treeperc.cli`` and building its parser), the wall time of ``main``, its
exit code, any traceback, and, when traced, every span and roll-up.

The process must be started with ``src`` of the checkout first on
``sys.path``; it refuses to run against a ``treeperc`` imported from anywhere
else, so the benchmark never measures an installed copy by mistake.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback


def main() -> int:
    request_path, result_path = sys.argv[1], sys.argv[2]
    with open(request_path) as fh:
        request = json.load(fh)
    src = os.path.realpath(request["src"])

    t0 = time.perf_counter()
    import treeperc.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"treeperc imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = {"setup_s": setup_s}
    if request["mode"] == "op":
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer(request["run_id"])
            tracer.install()
        run_main = tracer.wrap(cli.main, "cli.main") if tracer else cli.main
        t1 = time.perf_counter()
        try:
            result["exit_code"] = run_main(request["argv"])
        except BaseException:  # record and report; the parent counts it as a failure
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
        result["main_s"] = time.perf_counter() - t1
        if tracer:
            tracer.uninstall()
            result["trace"] = tracer.export()
            if request.get("probe"):
                result["tables_s"] = tables_probe(**request["probe"])

    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


def tables_probe(d: int, k: int, p: float, q: float, repeats: int = 5):
    """Median time of ``simulate_window_chain`` at 0 generations and 1 trial,
    which is the cost of building its transition tables; None when that
    function or signature is gone."""
    import numpy as np

    from treeperc import window_chain
    from treeperc.tree import TreeParams

    fn = getattr(window_chain, "simulate_window_chain", None)
    if fn is None:
        return None
    times = []
    for _ in range(repeats):
        rng = np.random.default_rng(0)
        t0 = time.perf_counter()
        try:
            fn(TreeParams(d, k), p, q, rng, 0, trials=1)
        except TypeError:
            return None
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())

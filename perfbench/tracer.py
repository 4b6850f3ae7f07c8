"""In-memory span tracer that wraps treeperc's public names from outside.

Each wrapper is installed at the module attribute its caller looks up, so the
program itself carries no tracing code.  A span records its name (the layer
called into, then the function), start, end, parent span and the run id that
every span of one run shares.  Methods called millions of times (the edge
oracle queries) are rolled up per parent span as a call count and total time
instead of one span each, which keeps memory bounded.

A name that a later version of the program removes is recorded as absent and
skipped, so the traced run never fails on a refactor.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, kind); kind is "span" or "rollup".  Each
# entry is the binding its caller resolves at call time.
TARGETS = [
    ("treeperc.cli", "qc", "critical.qc", "span"),
    ("treeperc.cli", "qc_sweep", "critical.qc_sweep", "span"),
    ("treeperc.cli", "chain_survival", "window_chain.chain_survival", "span"),
    ("treeperc.cli", "estimate_survival", "percolation.estimate_survival", "span"),
    ("treeperc.critical", "qc", "critical.qc", "span"),
    ("treeperc.critical", "rho_result", "critical.rho_result", "span"),
    ("treeperc.critical", "build_offspring_matrix", "window_chain.build_offspring_matrix", "span"),
    ("treeperc.critical", "pf_eigen", "spectral.pf_eigen", "span"),
    ("treeperc.window_chain", "simulate_window_chain", "window_chain.simulate_window_chain", "span"),
]
ORACLE_METHODS = (
    "__init__",
    "open_short_children",
    "open_long_children",
    "short_edge_open",
    "long_edge_open",
)


def _array_bytes(obj, depth: int = 2) -> int:
    """Bytes held by the numpy arrays an object exposes, up to ``depth``
    attribute levels down (for a CSR operator: data, indices and indptr)."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(obj, "dtype"):
        return nbytes
    if depth == 0:
        return 0
    fields = getattr(obj, "__dict__", None) or {}
    return sum(_array_bytes(v, depth - 1) for v in fields.values())


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _operator_attrs(args, kwargs, result):
    csr = getattr(result, "csr", None)
    return {
        "nnz": int(csr.nnz) if csr is not None else None,
        "operator_bytes": _array_bytes(result),
    }


def _solve_attrs(args, kwargs, result):
    return {"iterations": getattr(result, "iterations", None)}


def _chain_attrs(args, kwargs, result):
    counts = result[0] if isinstance(result, tuple) else None
    return {
        "generations": _arg(args, kwargs, 4, "generations"),
        "history_bytes": int(getattr(counts, "nbytes", 0)) or None,
    }


ATTRS = {
    "window_chain.build_offspring_matrix": _operator_attrs,
    "spectral.pf_eigen": _solve_attrs,
    "window_chain.simulate_window_chain": _chain_attrs,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.rollups: dict[tuple, list] = {}  # (parent id, name) -> [calls, total_s, outer_s]
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._in_rollup = False
        self._restore: list[tuple] = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)
        run_id = self.run_id

        def traced(*args, **kwargs):
            span = {
                "run": run_id,
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": name,
                "start": clock(),
            }
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if attrs is not None:
                try:
                    span.update(attrs(args, kwargs, result))
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass
            return result

        return traced

    def wrap_rollup(self, fn, name):
        stack, rollups, clock = self._stack, self.rollups, time.perf_counter

        def traced(*args, **kwargs):
            nested = self._in_rollup
            self._in_rollup = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_rollup = nested
                key = (stack[-1] if stack else None, name)
                acc = rollups.get(key)
                if acc is None:
                    acc = rollups[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt
                if not nested:
                    acc[2] += dt

        return traced

    def _patch(self, owner, attr, name, kind):
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self.wrap(original, name) if kind == "span" else self.wrap_rollup(original, name)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def install(self):
        for module_name, attr, name, kind in TARGETS:
            self._patch(importlib.import_module(module_name), attr, name, kind)
        oracle = getattr(importlib.import_module("treeperc.rng"), "EdgeOracle", None)
        for method in ORACLE_METHODS:
            name = f"rng.EdgeOracle.{method}"
            if oracle is None:
                self.absent.append(name)
            else:
                self._patch(oracle, method, name, "rollup")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def export(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "rollups": [
                {"parent": parent, "name": name, "calls": c, "total_s": t, "outer_s": o}
                for (parent, name), (c, t, o) in self.rollups.items()
            ],
            "absent": self.absent,
        }

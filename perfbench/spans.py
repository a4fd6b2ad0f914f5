"""Per-layer tracing of mannafair from outside the package.

The package imports names directly (``from .core import bundle_value``), so
one function is reachable under several module attributes.  `Tracer.install`
replaces the function at every such binding site and `uninstall` puts the
originals back.  A span wrapper records calls and self time (its duration
minus the time of the traced calls it made); a count wrapper, used for the
hottest functions, records calls only, and its time stays in the caller's
self time.  Some wrappers also read counts from a function's return value.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("core", "algorithms", "welfare", "fixed_n", "oracles", "harness", "cli")

SPANS = {  # the functions whose calls or self time the benchmark reports
    "core": ("validate_certificate", "is_ef1", "build_envy_graph"),
    "algorithms": (
        "double_round_robin_ef1", "resolve_top_trading_cycles", "efr_n_minus_1",
        "run_picking_rounds", "extend_with_round_robin",
    ),
    "welfare": (
        "check_nondegenerate", "perturb_nondegenerate", "solve_leq_system",
        "po_certificate_lp",
    ),
    "fixed_n": ("search_efr_po", "reconstruct_I", "build_f_ij"),
    "oracles": (
        "decide_efr_k", "min_efr_k", "is_pareto_optimal_bruteforce",
        "solve_partition",
    ),
    "harness": (
        "serialize_instance", "serialize_allocation", "serialize_certificate",
        "serialize_perturbed", "parse_instance", "parse_allocation",
        "parse_certificate", "parse_perturbed",
    ),
    "cli": ("main",),
}
COUNT_ONLY = {"core": ("bundle_value", "validate_allocation")}


def _picking_counts(result):
    _, reserved, trace = result
    return {
        "algorithms.picking_iterations": len(trace),
        "algorithms.reserve_size": len(reserved),
    }


def _lp_counts(result):
    return {"welfare.po_certificate_lp.feasible": int(result is not None)}


RESULT_COUNTS = {
    "algorithms.run_picking_rounds": _picking_counts,
    "welfare.po_certificate_lp": _lp_counts,
}


def _is_serializer(name):
    return name.startswith("harness.serialize_")


class Tracer:
    """Counters and self times for the traced functions of mannafair."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack = []  # [name, time spent in traced callees]
        self._patches = []  # (module, attribute, original)
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mannafair.{layer}")
            for attr in SPANS.get(layer, ()):
                fn = getattr(module, attr)
                self._wrappers[fn] = self._span(f"{layer}.{attr}", fn)
            for attr in COUNT_ONLY.get(layer, ()):
                fn = getattr(module, attr)
                self._wrappers[fn] = self._count(f"{layer}.{attr}", fn)
        self._modules = [importlib.import_module("mannafair")] + [
            importlib.import_module(f"mannafair.{layer}") for layer in LAYERS
        ]

    def _span(self, name, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        on_result = RESULT_COUNTS.get(name)
        serializer = _is_serializer(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                self.counts.update(on_result(result))
            if serializer and not any(_is_serializer(f[0]) for f in stack):
                self.counts["harness.bytes_out"] += len(result.encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every binding of a traced function with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._stack.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def merge(self, snap):
        self.calls.update(snap["calls"])
        self.self_s.update(snap["self_s"])
        self.counts.update(snap["counts"])

    def deterministic(self):
        """Every call count and result count; these must repeat exactly."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

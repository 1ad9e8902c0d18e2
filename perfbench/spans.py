"""Layer spans recorded from outside calimp by wrapping its public functions.

A wrapper replaces a function under every name calimp binds it to, so
``calimp.pipeline.reduce_system`` (a ``from .edits import`` copy) is timed
as well as ``calimp.edits.reduce_system``.  Spans are appended to flat
arrays while the run lasts and summarised or written only at the end.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter

import numpy as np

#: Every traced calimp function, as ``module.function``.
TRACED = (
    "edits.parse_edit_rules",
    "edits.reduce_system",
    "edits.violation_matrix",
    "fm.admissible_interval",
    "fm.resolve_companions",
    "fm.back_substitute",
    "regression.fit_ols",
    "regression.fit_benchmarked",
    "adjust.zero_sum_interval_adjust",
    "residuals.cell_rng",
    "residuals.draw_ar_residual",
    "residuals.benchmarked_residuals",
    "pipeline.impute",
    "mcmc.select_pair",
    "mcmc.pair_constraint_system",
    "mcmc.posterior_model",
    "mcmc.draw_truncated_posterior",
    "mcmc.mcmc_refine",
    "metrics.d_l1",
    "metrics.ks_statistic",
    "metrics.std_pct_diff",
    "metrics.weighted_pearson",
    "sim.generate_population",
    "sim.run_replication",
    "io.read_dataset",
    "io.read_totals",
    "io.write_dataset",
    "cli.main",
)

#: Functions every workload calls; their self time is reported as a metric.
#: The others run on one or two workloads only and report calls alone.
SHARED = (
    "edits.reduce_system",
    "edits.violation_matrix",
    "fm.admissible_interval",
    "fm.resolve_companions",
    "regression.fit_ols",
    "regression.fit_benchmarked",
    "adjust.zero_sum_interval_adjust",
    "residuals.cell_rng",
    "residuals.draw_ar_residual",
    "residuals.benchmarked_residuals",
    "pipeline.impute",
)


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Tracer:
    """Span recorder for the functions in :data:`TRACED`.

    Each span stores its function, its parent span, and its start and end.
    Benchmark-level spans (``setup``, ``op:<method>``) are opened with
    :meth:`span` and become the parents of the calimp calls beneath them.
    """

    def __init__(self):
        self.names: list[str] = []
        self._fid: dict[str, int] = {}
        self.fn = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = Patches()
        self.adjust = {"calls": 0, "failures": 0, "cells": 0, "at_bound": 0}
        self.io_bytes = {"read": 0, "write": 0}

    def _id(self, name: str) -> int:
        if name not in self._fid:
            self._fid[name] = len(self.names)
            self.names.append(name)
        return self._fid[name]

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.fn.append(fid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self._id(name))

    def install(self) -> None:
        """Wrap every traced function under every calimp name bound to it."""
        wrappers = {}
        for qualified in TRACED:
            module_name, fn_name = qualified.split(".")
            module = importlib.import_module(f"calimp.{module_name}")
            original = getattr(module, fn_name)
            probe = _PROBES.get(qualified)
            wrappers[id(original)] = self._wrap(self._id(qualified), original, probe)
        for name, module in list(sys.modules.items()):
            if name != "calimp" and not name.startswith("calimp."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.set(module, attr, wrapper)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, fid: int, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx)
                if probe is not None:
                    probe(self, args, kwargs, None, failed=True)
                raise
            self._close(idx)
            if probe is not None:
                probe(self, args, kwargs, result, failed=False)
            return result

        return wrapper

    def summary(self) -> dict:
        """Calls, total and self seconds per function, and per parent edge."""
        n = len(self.start)
        fn = np.array(self.fn, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        k = len(self.names)
        per_fn = {
            name: {
                "calls": int(np.count_nonzero(fn == f)),
                "total_s": float(dur[fn == f].sum()),
                "self_s": float(self_s[fn == f].sum()),
            }
            for f, name in enumerate(self.names)
        }
        parent_fn = np.where(has_parent, fn[np.maximum(parent, 0)], k)
        key = fn * (k + 1) + parent_fn
        edges = {}
        for code in np.unique(key):
            sel = key == code
            f, p = divmod(int(code), k + 1)
            edges[f"{self.names[f]}<-{self.names[p] if p < k else 'root'}"] = {
                "calls": int(sel.sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return {"spans": n, "functions": per_fn, "edges": edges}

    def write(self, path) -> None:
        """All spans, for flame graphs or re-aggregation after the run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        start = np.array(self.start, dtype=float)
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.array(self.fn, dtype=np.uint16),
            parent=np.array(self.parent, dtype=np.int32),
            start=start,
            duration=(np.array(self.end, dtype=float) - start).astype(np.float32),
        )


def wrapper_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds, measured on a function that does nothing
    but takes positional and keyword arguments, as the traced ones do.  A
    lower bound: it leaves out the cache the span arrays take from the work."""

    def nothing(a, b, tol=0.0):
        return None

    wrapped = Tracer()._wrap(0, nothing, None)
    timings = []
    for fn in (nothing, wrapped, nothing, wrapped):
        t0 = perf_counter()
        for _ in range(calls):
            fn(0, 1, tol=0.0)
        timings.append(perf_counter() - t0)
    return (timings[1] + timings[3] - timings[0] - timings[2]) / (2 * calls)


class _Span:
    def __init__(self, tracer: Tracer, fid: int):
        self._tracer = tracer
        self._fid = fid

    def __enter__(self):
        self._idx = self._tracer._open(self._fid)
        return self

    def __exit__(self, *exc):
        self._tracer._close(self._idx)
        return False


def _probe_adjust(tracer, args, kwargs, result, failed):
    """Cells the zero-sum adjustment left at a bound of their interval."""
    stats = tracer.adjust
    stats["calls"] += 1
    if failed:
        stats["failures"] += 1
        return
    problem = args[0] if args else kwargs["problem"]
    final = problem.predictions + result
    stats["cells"] += final.size
    slack = 1e-9 * np.maximum(1.0, np.abs(final))
    at_bound = (final <= problem.lower + slack) | (final >= problem.upper - slack)
    stats["at_bound"] += int(np.count_nonzero(at_bound))


def _probe_read(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.io_bytes["read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _probe_write(tracer, args, kwargs, result, failed):
    if not failed:
        tracer.io_bytes["write"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


_PROBES = {
    "adjust.zero_sum_interval_adjust": _probe_adjust,
    "io.read_dataset": _probe_read,
    "io.write_dataset": _probe_write,
}

"""Spans around the public functions of ``thd``, installed at run time.

A :class:`Tracer` replaces every module binding of each target function
(``hochschild_differential`` is bound in ``cochain``, ``structure``,
``examples`` and ``thd.ainfty``, for instance) with a wrapper that records a
span ``[name, start, end, parent]``.  Counters that need to look at a call's
arguments or result are taken after the span closes, inside a span of their
own (``trace.count``), so that counting shows up as tracing overhead and not
as the self time of the caller.

Spans stay in memory and are written out once, at the end of the run.
A target whose module or attribute no longer exists is skipped, and every
metric that depends on it is reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional


def _cells(rows) -> int:
    return len(rows) * (len(rows[0]) if rows else 0)


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for value in row if value)


def _count_rank(c, args, kwargs, result):
    rows = args[0]
    c["linalg.rank_cells"] += _cells(rows)
    c["linalg.rank_nonzeros"] += _nonzeros(rows)


def _count_nullspace(c, args, kwargs, result):
    rows = args[0]
    c["linalg.nullspace_cells"] += _cells(rows)
    c["linalg.nullspace_nonzeros"] += _nonzeros(rows)


def _count_basis(c, args, kwargs, result):
    c["cochain.basis_keys"] += len(result)


def _count_differential(c, args, kwargs, result):
    c["cochain.differential_terms"] += sum(len(vec) for vec in result.data.values())


def _count_verify(c, args, kwargs, result):
    c["structure.tuple_evaluations"] += result.evaluations


def _count_search(c, args, kwargs, result):
    c["hochschild.search_rows"] += len(result)


def _count_render(c, args, kwargs, result):
    c["output.bytes"] += len(result.encode())


#: (module, attribute, span name, counter).  An attribute ``Cls.meth`` names a
#: method, wrapped on its class.
TARGETS = [
    ("thd.ainfty.cochain", "hh_dimensions", "cochain.hh_dimensions", None),
    ("thd.ainfty.cochain", "cocycle_space", "cochain.cocycle_space", None),
    ("thd.ainfty.cochain", "cochain_basis", "cochain.basis", _count_basis),
    ("thd.ainfty.cochain", "hochschild_differential", "cochain.differential", _count_differential),
    ("thd.ainfty.linalg", "exact_rank", "linalg.rank", _count_rank),
    ("thd.ainfty.linalg", "nullspace", "linalg.nullspace", _count_nullspace),
    ("thd.ainfty.structure", "verify_stasheff", "structure.verify", _count_verify),
    ("thd.ainfty.structure", "deform", "structure.deform", None),
    ("thd.ainfty.structure", "tensor_with_algebra", "structure.tensor", None),
    ("thd.hodge", "diamond", "hodge.diamond", None),
    ("thd.hodge", "hodge_number", "hodge.hodge_number", None),
    ("thd.hochschild", "les_ledger", "hochschild.ledger", None),
    ("thd.hochschild", "kernel_table", "hochschild.kernel", None),
    ("thd.hochschild", "candidate_search", "hochschild.search", _count_search),
    ("thd.hochschild", "guaranteed_kernel_check", "hochschild.quadric", None),
    ("thd.cli", "main", "cli.main", None),
    ("thd.output", "OutputDocument.render", "output.render", _count_render),
]

#: lru_cache'd helpers whose misses are reported: metric -> (module, names).
CACHES = {
    "hodge.edge_cache_misses": ("thd.hodge", ("_edge_h0",)),
    "hodge.middle_cache_misses": ("thd.hodge", ("_middle",)),
    "hodge.chi_cache_misses": ("thd.hodge", ("_chi_forms",)),
    "hochschild.hh_cache_misses": ("thd.hochschild", ("_hh_on_X", "_hh_push")),
}

LAYERS = ("cochain", "linalg", "structure", "hodge", "hochschild", "cli", "output")

#: Per-layer metric -> (unit, span names whose inclusive time or count it sums).
SPAN_METRICS = {
    "cochain.hh_dimensions_s": ("s", ("cochain.hh_dimensions",)),
    "cochain.cocycle_space_s": ("s", ("cochain.cocycle_space",)),
    "cochain.basis_s": ("s", ("cochain.basis",)),
    "cochain.differential_s": ("s", ("cochain.differential",)),
    "cochain.differential_calls": ("count", ("cochain.differential",)),
    "linalg.rank_s": ("s", ("linalg.rank",)),
    "linalg.rank_calls": ("count", ("linalg.rank",)),
    "linalg.nullspace_s": ("s", ("linalg.nullspace",)),
    "linalg.nullspace_calls": ("count", ("linalg.nullspace",)),
    "structure.verify_s": ("s", ("structure.verify",)),
    "structure.deform_s": ("s", ("structure.deform",)),
    "structure.tensor_s": ("s", ("structure.tensor",)),
    "hodge.diamond_s": ("s", ("hodge.diamond",)),
    "hodge.diamond_calls": ("count", ("hodge.diamond",)),
    "hodge.hodge_number_calls": ("count", ("hodge.hodge_number",)),
    "hochschild.ledger_s": ("s", ("hochschild.ledger",)),
    "hochschild.kernel_s": ("s", ("hochschild.kernel",)),
    "hochschild.search_s": ("s", ("hochschild.search", "hochschild.quadric")),
    "cli.main_s": ("s", ("cli.main",)),
    "output.render_s": ("s", ("output.render",)),
}

#: Counter metric -> span name that produces it.
COUNTER_METRICS = {
    "cochain.basis_keys": "cochain.basis",
    "cochain.differential_terms": "cochain.differential",
    "linalg.rank_cells": "linalg.rank",
    "linalg.rank_nonzeros": "linalg.rank",
    "linalg.nullspace_cells": "linalg.nullspace",
    "linalg.nullspace_nonzeros": "linalg.nullspace",
    "structure.tuple_evaluations": "structure.verify",
    "hochschild.search_rows": "hochschild.search",
    "output.bytes": "output.render",
}


def metric_units() -> Dict[str, str]:
    """Unit of every per-layer metric the tracer produces."""
    units = {m: unit for m, (unit, _) in SPAN_METRICS.items()}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({m: "count" for m in COUNTER_METRICS})
    units.update({m: "count" for m in CACHES})
    units.update({"budget.spent": "count", "trace.spans": "count"})
    return units


def _resolve(modname: str, attr: str):
    """``(owner, name, value)`` for ``attr`` in ``modname``, or None if gone."""
    owner = sys.modules.get(modname)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Collects spans ``[name, start, end, parent]`` and call counters."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_METRICS, 0)
        self.present: set = set()
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                tally = ["trace.count", clock(), 0.0, span[3]]
                spans.append(tally)
                count(counters, args, kwargs, result)
                tally[2] = clock()
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target in the loaded ``thd`` modules."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "thd" or name.startswith("thd."))]
        for modname, attr, name, count in TARGETS:
            found = _resolve(modname, attr)
            if found is None:
                continue
            owner, short, fn = found
            self.present.add(name)
            wrapper = self._wrap(name, fn, count)
            if "." in attr:  # a method: its class is its only binding
                self._restore.append((owner, short, fn))
                setattr(owner, short, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, binding, fn))
                        setattr(module, binding, wrapper)

    def uninstall(self) -> None:
        for owner, binding, fn in reversed(self._restore):
            setattr(owner, binding, fn)
        self._restore.clear()

    def mark(self) -> int:
        return len(self.spans)

    def aggregate(self, begin: int, end: int) -> Dict[str, float]:
        """Per-layer totals over ``spans[begin:end]``."""
        window = self.spans[begin:end]
        out: Dict[str, float] = {}
        for metric, (unit, names) in SPAN_METRICS.items():
            if not any(n in self.present for n in names):
                continue
            chosen = [s for s in window if s[0] in names]
            out[metric] = len(chosen) if unit == "count" else sum(s[2] - s[1] for s in chosen)
        # self time: a span's duration minus the time its child spans cover
        child_time: Dict[int, float] = {}
        for s in window:
            if s[3] >= begin:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        for layer in LAYERS:
            if any(name.startswith(layer + ".") for name in self.present):
                out[f"{layer}.self_s"] = 0.0
        for offset, s in enumerate(window):
            key = s[0].split(".")[0] + ".self_s"
            if key in out:
                out[key] += (s[2] - s[1]) - child_time.get(begin + offset, 0.0)
        out["trace.spans"] = len(window)
        return out

    def take_counters(self) -> Dict[str, int]:
        """Counter totals since the last call, for the targets still present."""
        out = {m: v for m, v in self.counters.items() if COUNTER_METRICS[m] in self.present}
        for m in self.counters:
            self.counters[m] = 0
        return out

    def write(self, path, limit: int) -> None:
        """Write the first ``limit`` spans as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans[:limit]):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def cache_misses() -> Dict[str, int]:
    """Current ``cache_info().misses`` of the reported lru_caches, where they exist."""
    out = {}
    for metric, (modname, names) in CACHES.items():
        module = sys.modules.get(modname)
        fns = [getattr(module, n, None) for n in names]
        if all(fn is not None and hasattr(fn, "cache_info") for fn in fns):
            out[metric] = sum(fn.cache_info().misses for fn in fns)
    return out

"""Span tracer for the hdcca benchmark.

The package is not edited.  ``Tracer.install`` replaces every public function
of the layer modules at each module attribute that holds it (for example
``sample_cca`` in ``hdcca.linalg``, ``hdcca.inference``, ``hdcca.simulate``
and ``hdcca.cli``), so callers that look the name up at call time reach the
wrapper.  Five ``numpy.linalg`` kernels are wrapped too; they are recorded
only while an hdcca function runs.  ``Tracer.uninstall`` puts the originals
back.

Spans live in memory and are written once, when the run ends.  A span opened
on a thread with no open span of its own (a Monte Carlo worker) takes as
parent the innermost open span of the thread that runs the operation, so
worker spans keep their operation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("simulate", "linalg", "inference", "wachter", "master", "io", "cli")
KERNELS = ("qr", "cond", "svd", "solve", "lstsq")
ROOT = "bench.op"


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    op: str
    thread: int
    end: float = float("nan")
    counts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Counters attached to spans: (args, kwargs, result) -> dict
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _mn(a):
    m, n = np.shape(a)[-2:]
    return max(m, n), min(m, n)


def _qr_flops(args, kwargs):
    m, k = _mn(args[0])
    mode = _arg(args, kwargs, 1, "mode", "reduced")
    flops = 2 * m * k * k - 2 * k**3 / 3            # Householder R (geqrf)
    if mode == "reduced":
        flops += 2 * m * k * k - 2 * k**3 / 3       # thin Q (orgqr)
    elif mode == "complete":
        flops += 4 * m * m * k - 4 * m * k * k + 4 * k**3 / 3
    return flops


def _svd_flops(args, kwargs):
    m, n = _mn(args[0])
    if not _arg(args, kwargs, 2, "compute_uv", True):
        return 4 * m * n * n - 4 * n**3 / 3
    if _arg(args, kwargs, 1, "full_matrices", True):
        return 4 * m * m * n + 8 * m * n * n + 9 * n**3
    return 14 * m * n * n + 8 * n**3


def _cond_flops(args, kwargs):
    m, n = _mn(args[0])
    return 4 * m * n * n - 4 * n**3 / 3              # singular values only


def _rhs(b):
    return 1 if np.ndim(b) == 1 else np.shape(b)[-1]


def _solve_flops(args, kwargs):
    n = np.shape(args[0])[-1]
    return 2 * n**3 / 3 + 2 * n * n * _rhs(args[1])


def _lstsq_flops(args, kwargs):
    m, n = _mn(args[0])
    return 4 * m * n * n - 4 * n**3 / 3 + 2 * m * n * _rhs(args[1])


# Operation counts from the shapes (Golub & Van Loan, LAWN 41), not measured.
_FLOPS = {
    "qr": _qr_flops,
    "cond": _cond_flops,
    "svd": _svd_flops,
    "solve": _solve_flops,
    "lstsq": _lstsq_flops,
}


def _kernel_counter(kind):
    flops = _FLOPS[kind]
    return lambda args, kwargs, result: {"gflop": flops(args, kwargs) / 1e9}


def _load_csv_counter(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0]), "cells": int(result.values.size)}


def _write_counter(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


COUNTERS = {
    "io.load_csv": _load_csv_counter,
    "master.master_roots": lambda a, k, r: {"roots": int(np.shape(r)[0])},
    "inference.detect_spikes": lambda a, k, r: {"spikes": len(r)},
    "simulate.mc_angles": lambda a, k, r: {"replications": int(r.replications)},
}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Records spans for calls into hdcca while an operation is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._op: str | None = None
        self._op_thread: int | None = None
        self._root: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- operations --------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        """Open the root span of one operation on the calling thread."""
        self._op = op_id
        self._op_thread = threading.get_ident()
        self._root = self._open(ROOT, "bench", kernel=False)

    def end_op(self) -> None:
        self._close(self._root, None)
        self._op = None

    # -- spans -------------------------------------------------------------

    def _open(self, name, layer, kernel):
        tid = threading.get_ident()
        start = time.perf_counter()
        with self._lock:
            if self._op is None:
                return None
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                op_stack = self._stacks.get(self._op_thread)
                parent = op_stack[-1] if op_stack else None
            if kernel and (parent is None or self.spans[parent].layer == "bench"):
                return None  # a kernel called outside any hdcca function
            self.spans.append(Span(name, layer, start, parent, self._op, tid))
            idx = len(self.spans) - 1
            stack.append(idx)
            return idx

    def _close(self, idx, counts):
        end = time.perf_counter()
        with self._lock:
            span = self.spans[idx]
            span.end = end
            if counts:
                span.counts.update(counts)
            stack = self._stacks[span.thread]
            stack.remove(idx)

    def _wrap(self, fn, name, layer, kernel=False, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name, layer, kernel)
            if idx is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, None)
                raise
            self._close(idx, counter(args, kwargs, result) if counter else None)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("hdcca")
        modules = [importlib.import_module(f"hdcca.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    full = f"{layer}.{name}"
                    counter = COUNTERS.get(full)
                    if counter is None and layer == "io" and name.startswith("write_"):
                        counter = _write_counter
                    wrappers[obj] = self._wrap(obj, full, layer, counter=counter)
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        for kind in KERNELS:
            fn = getattr(np.linalg, kind)
            self._restore.append((np.linalg, kind, fn))
            setattr(
                np.linalg,
                kind,
                self._wrap(fn, f"linalg.kernel.{kind}", "linalg", kernel=True,
                           counter=_kernel_counter(kind)),
            )

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "thread": s.thread,
                **s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanSet:
    """Spans of a chosen set of operations, with self times and totals."""

    def __init__(self, spans: list[Span], ops):
        ops = set(ops)
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s.op in ops]
        children: dict[int, list[int]] = {}
        for i in self.ids:
            if spans[i].parent is not None:
                children.setdefault(spans[i].parent, []).append(i)
        self.self_time = {}
        for i in self.ids:
            s = spans[i]
            kids = [(spans[c].start, spans[c].end) for c in children.get(i, [])]
            self.self_time[i] = (s.end - s.start) - _union_length(kids, s.start, s.end)

    def _ancestors(self, i):
        p = self.spans[i].parent
        while p is not None:
            yield self.spans[p]
            p = self.spans[p].parent

    def total(self, match) -> float:
        """Summed duration of matching spans not nested in another match."""
        return sum(
            s.end - s.start
            for i in self.ids
            if match((s := self.spans[i]).name)
            and not any(match(a.name) for a in self._ancestors(i))
        )

    def calls(self, match) -> int:
        return sum(1 for i in self.ids if match(self.spans[i].name))

    def count(self, key, match=None) -> float:
        """Sum of counter ``key`` over the spans (matching ``match``, if given)."""
        return sum(
            self.spans[i].counts.get(key, 0)
            for i in self.ids
            if match is None or match(self.spans[i].name)
        )

    def self_s(self, match) -> float:
        return sum(t for i, t in self.self_time.items() if match(self.spans[i].name))

    def layer_self_s(self, layer) -> float:
        return sum(
            t for i, t in self.self_time.items() if self.spans[i].layer == layer
        )

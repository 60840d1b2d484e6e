"""Span tracing of the package's layers, installed from outside the package.

Layers are the package's modules.  ``install`` replaces each public
function of each layer module, at every module attribute that binds it
(``cli.analyze`` and ``entropy.analyze`` as well as the defining
``entropy.analyze``), with a wrapper that records a span: name, start,
end, parent span and operation id.  Nothing under ``src/`` changes, and
``uninstall`` puts every original back.

Two bindings stay unwrapped on purpose:

* ``spectrum``'s own binding of ``hadamard_inplace``, so that the
  single-table transform is self time of ``spectrum.wht`` and
  ``spectrum.hadamard_inplace`` measures only the batched calls that
  ``search`` makes through its own binding;
* ``search._write_checkpoint`` gets a counting wrapper without a span, so
  checkpoint I/O stays in the self time of ``search.run`` (the sweep's
  residual: sample hashing, merge, checkpoint writes and pool dispatch).

A recursive re-entry (``render_json`` renders nested values by calling
itself) is folded into the outermost span.  Spans stay in memory until
``write`` saves them; ``summarize`` derives per-name self time, the span's
duration minus the durations of its direct children.

Counts are exact and repeat for a given seed: calls, rows, checkpoint
writes and bytes, and ``bytes_computed``, which is computed from array
sizes and pass counts (every butterfly pass reads and writes each
element once), not measured.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "hypercube_spectra"
LAYERS = ("cli", "boolfn", "spectrum", "entropy", "inequality", "moments", "search")

METHODS = (("boolfn", "BooleanFunction", "values"), ("boolfn", "BooleanFunction", "from_hex"))

SKIP_BINDINGS = frozenset({("spectrum", "hadamard_inplace")})


def _passes(size: int) -> int:
    return size.bit_length() - 1


def _count_wht(counts, args, kwargs, result):
    c = result.coeffs
    counts["spectrum.wht.bytes_computed"] += 2 * result.n * c.size * c.itemsize


def _count_hadamard(counts, args, kwargs, result):
    size = result.shape[-1]
    counts["spectrum.hadamard_inplace.rows"] += result.size // size
    counts["spectrum.hadamard_inplace.bytes_computed"] += 2 * _passes(size) * result.size * result.itemsize


def _count_batch_stats(counts, args, kwargs, result):
    bits = args[0] if args else kwargs["bits"]
    counts["search.batch_stats.rows"] += bits.shape[0]
    counts["search.useful_rows"] += int(np.count_nonzero(result["nonconstant"]))


def _count_checkpoint(counts, args, kwargs, result):
    counts["search.checkpoint.writes"] += 1
    counts["search.checkpoint.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "spectrum.wht": _count_wht,
    "spectrum.hadamard_inplace": _count_hadamard,
    "search.batch_stats": _count_batch_stats,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._span_wrapper(name, fn, COUNTERS.get(name))
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is fn and (owner is not mod or (layer, attr) not in SKIP_BINDINGS):
                            self._set(owner, bound, wrapper)
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span_wrapper(name, raw.__func__, None)))
            else:
                self._set(cls, attr, self._span_wrapper(name, raw, None))
        search = importlib.import_module(f"{PACKAGE}.search")
        self._set(search, "_write_checkpoint", self._count_wrapper(search._write_checkpoint, _count_checkpoint))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- recording ----------------------------------------------------
    # A span is the tuple (id, name, start, end, parent id, op id), appended
    # when it ends; a tuple of plain values costs the garbage collector
    # less than a list kept open while the call runs.

    def _span_wrapper(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if name in tracer._open:  # recursive re-entry: fold into the outer span
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            tracer._open.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open.discard(name)
                tracer.spans.append((sid, name, start, end, parent, tracer.op))
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def operation(self, label: str):
        """Root span of one benchmark operation; its spans share one op id."""
        self.op += 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((sid, f"op.{label}", start, perf_counter(), -1, self.op))

    # --- results ------------------------------------------------------

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a wrapped no-op."""
        def bare():
            return None

        probe = Tracer()
        wrapped = probe._span_wrapper("probe", bare, None)
        with probe.operation("probe"):  # a span inside an operation, as in a traced pass
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            traced = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            bare()
        return max(0.0, traced - (perf_counter() - start)) / calls

    def mark(self) -> tuple[int, Counter]:
        """Position to summarize from: span index and a copy of the counts."""
        return len(self.spans), Counter(self.counts)

    def summarize(self, begin: tuple[int, Counter], end: tuple[int, Counter]) -> tuple[dict, Counter]:
        """Per-name calls, total and self seconds, and counts, between two marks."""
        spans = self.spans[begin[0]:end[0]]
        child: dict[int, float] = {}
        for sid, name, start, stop, parent, op in spans:
            child[parent] = child.get(parent, 0.0) + (stop - start)
        stats: dict[str, dict] = {}
        for sid, name, start, stop, parent, op in spans:
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += stop - start
            s["self_s"] += stop - start - child.get(sid, 0.0)
        counts = Counter(end[1])
        counts.subtract(begin[1])
        return stats, +counts

    def write(self, path: str) -> None:
        """Save every span, names interned, as gzip-compressed JSON."""
        names: dict[str, int] = {}
        rows = [[sid, names.setdefault(name, len(names)), start, stop, parent, op]
                for sid, name, start, stop, parent, op in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "names": list(names), "spans": rows}, fh, separators=(",", ":"))

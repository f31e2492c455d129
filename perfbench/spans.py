"""Spans around the benchmark's calls into the engine's layers.

Every layer call in a workload goes through ``tracer.call(name, fn, *args)``.
The untraced run uses :class:`NullTracer`, which only calls ``fn``, and
calls each op directly; the traced run uses :class:`Tracer`, which runs
each op through ``tracer.op`` and keeps one span per call in memory:
(span id, parent span id, op id, name, start ns, end ns, raised, out items).
Spans are written out, with the per-layer metrics derived from them, when
the run ends.
"""

from __future__ import annotations

import time

# Layers whose result is a value or tensor; their spans record its item count.
SIZED = frozenset({
    "normal.normalize", "normal.apply_functor", "modality.mu",
    "carrier.tensor_bimap", "derive.d_n",
})


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._op_id = None

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def call(self, name, fn, *args):
        sid, parent = self._open()
        raised, size = True, 0
        start = time.perf_counter_ns()
        try:
            out = fn(*args)
            raised = False
            if name in SIZED:
                size = len(out.items)
            return out
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self._op_id, name, start, end, raised, size))

    def op(self, op_id, fn, *args):
        """Run one op as ``fn(*args)`` under a root span; the layer spans
        inside it are its children."""
        self._op_id = op_id
        sid, parent = self._open()
        raised = True
        start = time.perf_counter_ns()
        try:
            out = fn(*args)
            raised = False
            return out
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, op_id, "op", start, end, raised, 0))
            self._op_id = None

    def layer_totals(self):
        """Per span name: calls, self time in seconds, raised calls, items.

        Self time is a span's duration minus its direct children's, so a map
        callback traced inside ``tensor_bimap`` is not counted twice.
        """
        child_ns = {}
        for sid, parent, _op, _name, start, end, _r, _s in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        totals = {}
        for sid, _parent, _op, name, start, end, raised, size in self.spans:
            calls, busy, errors, items = totals.get(name, (0, 0, 0, 0))
            totals[name] = (calls + 1, busy + (end - start) - child_ns.get(sid, 0),
                            errors + raised, items + size)
        return {name: (c, busy / 1e9, e, s) for name, (c, busy, e, s) in totals.items()}

"""In-memory span tracer wrapped around calls into cosnet's layers.

The benchmark records spans from its own files: :func:`instrument` replaces
each traced function with a wrapper wherever a module holds it by name.
That matters because ``mm``, ``im2col_nd`` and ``col2im_nd`` are imported
by name into ``ops`` and ``runtime``, and ``graph_forward`` and
``graph_backward`` into ``training``; wrapping only the defining module would
miss those calls.  :func:`instrument` returns a function that restores every
original.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Spans kept in memory: one record per traced call.

    Each record is ``[name, start, end, parent, phase, work]`` where
    ``parent`` is the index of the enclosing span (or -1), ``phase`` is the
    benchmark phase current when the span opened, and ``work`` is a count
    the wrapper computed from the call (MACs or bytes), or 0.
    """

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []

    def wrap(self, fn, name, work=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            rec = [label, clock(), 0.0, stack[-1] if stack else -1,
                   self.phase, 0]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """``{(phase, name): {"self_s", "calls", "work"}}`` over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, phase, work in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0})
        for i, (name, t0, t1, parent, phase, work) in enumerate(self.spans):
            agg = out[(phase, name)]
            agg["self_s"] += (t1 - t0) - child[i]
            agg["calls"] += 1
            agg["work"] += work
        return out

    def durations(self, phase, name):
        """Inclusive durations in seconds of every span of one kind."""
        return [t1 - t0 for n, t0, t1, _, ph, _ in self.spans
                if n == name and ph == phase]


def _mm_macs(args, out):
    a, b = args[0], args[1]
    return a.shape[0] * a.shape[1] * b.shape[1]


def _array_bytes(args, out):
    return out.nbytes


def _tensor_bytes(args, out):
    return out.data.nbytes


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    name = "graph.graph_forward"
    return name if mode == "train" else name + ".eval"


def _plan_name(args, kwargs):
    return "runtime.plan." + kwargs.get("mode", args[1] if len(args) > 1
                                        else "")


def _targets(cosnet):
    """(original function, span name, work counter) for each traced call."""
    tensor, ops = cosnet.tensor, cosnet.ops
    out = [
        (tensor.mm, "tensor.mm", _mm_macs),
        (tensor.im2col_nd, "tensor.im2col_nd", _array_bytes),
        (tensor.col2im_nd, "tensor.col2im_nd", None),
        (tensor.elementwise, "tensor.elementwise", None),
        (cosnet.runtime.plan, _plan_name, None),
        (cosnet.runtime.execute, "runtime.execute", None),
        (cosnet.graph.graph_forward, _forward_name, None),
        (cosnet.graph.graph_backward, "graph.graph_backward", None),
        (cosnet.training.train, "training.train", None),
        (cosnet.training.evaluate, "training.evaluate", None),
        (cosnet.arch.build_network, "arch.build", None),
        (cosnet.arch.build_mini_network, "arch.build", None),
    ]
    # every public function of ops, so that execute's self time holds only
    # work done outside ops and tensor calls
    for attr, fn in vars(ops).items():
        if (callable(fn) and not attr.startswith("_")
                and getattr(fn, "__module__", None) == ops.__name__
                and not isinstance(fn, type)):
            work = _tensor_bytes if attr == "input_replicate" else None
            out.append((fn, f"ops.{attr}", work))
    return out


def instrument(tracer, cosnet):
    """Wrap every traced function at each place it is bound; returns a
    function that puts the originals back."""
    modules = [cosnet.tensor, cosnet.ops, cosnet.graph, cosnet.runtime,
               cosnet.training, cosnet.arch, cosnet.analysis]
    wrappers = {id(fn): tracer.wrap(fn, name, work)
                for fn, name, work in _targets(cosnet)}
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            wrapper = wrappers.get(id(val))
            if wrapper is not None:
                undo.append((mod, attr, val))
                setattr(mod, attr, wrapper)

    def restore():
        for mod, attr, val in undo:
            setattr(mod, attr, val)

    return restore

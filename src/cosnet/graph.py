"""Immutable static computation graph, the layer-kind table, the forward
interpreter, the reverse-mode backward pass, and the finite-difference
gradient-check harness.

Every layer kind is defined once, as an :class:`OpDef` in :data:`OPS`: its
shape rule, forward, backward, weight init, parameter and MAC counts and
description.  Shape propagation, both forward paths (:func:`graph_forward`
and ``runtime.execute``), the backward pass, weight init, ``describe`` and
the analyzer all look the kind up there.

:func:`graph_forward` and :func:`graph_backward` run any step program: a
:class:`Graph` or an execution plan.  Training and the gradient check run
the batched plan (:meth:`Graph.batched_plan`), whose folded level-1 conv
reads the un-replicated input; only a plan with per-group steps
(``unrolled``) cannot be differentiated.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from math import inf, prod
from typing import Callable

import numpy as np

from . import ops
from .errors import ConfigError, CosnetError, GraphError, ShapeError
from .ops import ConvParams
from .tensor import (Tensor, _out_hw, check_seed, elementwise, seeded_rng,
                     tensor_create)


@dataclass(frozen=True)
class LayerNode:
    id: int
    kind: str
    config: dict
    inputs: tuple[int, ...]
    name: str


@dataclass(frozen=True)
class PlanStep:
    id: int
    kind: str
    config: dict
    inputs: tuple
    name: str
    src_node: int | None = None   # graph node whose weight table this reads
    group: int | None = None      # group index for unrolled per-group convs


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    per_param: dict  # "name.field" -> max relative error
    input_error: float
    passed: bool

    def max_error(self) -> float:
        errs = list(self.per_param.values()) + [self.input_error]
        return max(errs) if errs else 0.0


class Graph:
    """A frozen DAG of layers plus its weight table.

    Node ids are assigned in construction order, which is a topological
    order by construction (a node may only consume already-added nodes).
    ``steps`` is the graph as a program for :func:`run_steps`: one step per
    non-input node, each reading its own weight table.  The nodes never
    change after :meth:`GraphBuilder.freeze`, so the graph keeps its batched
    execution plan once :meth:`batched_plan` has lowered it.
    """

    def __init__(self, nodes, input_id, output_id, weights):
        self.nodes = {n.id: n for n in nodes}
        self.order = sorted(self.nodes)
        self.input_id = input_id
        self.output_id = output_id
        self.weights = weights
        self.steps = [PlanStep(n.id, n.kind, n.config, n.inputs, n.name,
                               src_node=n.id)
                      for n in map(self.nodes.get, self.order)
                      if n.id != input_id]
        self._batched_plan = None

    def batched_plan(self):
        """``runtime.plan(self, "batched")``, lowered on the first call and
        kept: the program training, evaluation and the gradient check
        run."""
        if self._batched_plan is None:
            from .runtime import plan
            self._batched_plan = plan(self, "batched")
        return self._batched_plan

    def node(self, nid) -> LayerNode:
        return self.nodes[nid]

    def param_names(self):
        """Trainable parameter table entries, in deterministic order."""
        out = []
        for nid in self.order:
            for field_name in sorted(self.weights.get(nid, ())):
                if field_name in ("running_mean", "running_var"):
                    continue
                out.append((nid, field_name))
        return out

    def num_params(self) -> int:
        return sum(self.weights[nid][f].size for nid, f in self.param_names())

    def copy_weights(self, dtype=None):
        out = {}
        for nid, table in self.weights.items():
            out[nid] = {k: (v.astype(dtype) if dtype else v.copy())
                        for k, v in table.items()}
        return out


# ---------------------------------------------------------------------------
# the layer-kind table


@dataclass(frozen=True)
class OpDef:
    """One layer kind.  ``cfg`` is a node's config dict, ``ins`` its input
    shapes (shape rule) or tensors and ``table`` its weight table.  A
    forward runs in train mode exactly when it gets a ``saved`` dict (None
    in eval mode), and puts into it everything its backward reads; the
    backward gets that dict and nothing else, so the tape is the steps'
    dicts.  Backward runs only after a train-mode forward.  The defaults
    describe a weightless layer that passes its first input through
    unchanged."""

    # (cfg, ins) -> output shape; raises ShapeError
    shape: Callable = lambda cfg, ins: ins[0]
    # (cfg, ins, table, saved) -> Tensor
    forward: Callable = lambda cfg, ins, table, saved: ins[0]
    # (cfg, grad_out, saved, table) -> (per-input grads, param grads)
    backward: Callable = lambda cfg, grad_out, saved, table: ([grad_out], {})
    init: Callable = lambda cfg, rng: {}       # -> fresh weight table
    draws: bool = False  # init draws from ``rng`` (else it gets None)
    params: Callable = lambda cfg: 0           # -> trainable parameter count
    macs: Callable = lambda cfg, out_shape: 0  # -> multiply-accumulates
    describe: Callable = lambda cfg: ""        # -> detail text
    min_inputs: int = 1
    depth: int = 0       # 1 if the layer counts toward network depth
    # (cfg, saved) -> bytes fingerprinting the piecewise-linear decisions
    # taken (gradient check); None for smooth layers
    kinks: Callable | None = None


def _conv_shape(cfg, ins):
    p: ConvParams = cfg["params"]
    n, c, h, w = ins[0]
    if c != p.in_channels:
        raise ShapeError(f"{c} channels into conv expecting {p.in_channels}")
    return (n, p.out_channels, *_out_hw(h, w, p.kernel, p.stride, p.pad))


def _conv_backward(cfg, grad_out, saved, table):
    gx, gw, gb = ops.conv2d_backward(grad_out, saved, table["weight"],
                                     cfg["params"])
    grads = {"weight": gw}
    if gb is not None:
        grads["bias"] = gb
    return [gx], grads


def _he_normal(rng, shape, fan_in) -> np.ndarray:
    """He normal (He et al. 2015, arXiv:1502.01852): float32 draws scaled
    in place to std sqrt(2/fan_in), with no float64 temporary."""
    w = rng.standard_normal(shape, dtype=np.float32)
    w *= np.float32(np.sqrt(2.0 / fan_in))
    return w


def _conv_init(cfg, rng):
    """He normal weight (:func:`_he_normal`), zero bias.  ``rng`` is the
    node's own stream (:func:`_init_weights`)."""
    p: ConvParams = cfg["params"]
    fan_in = (p.in_channels // p.groups) * p.kernel[0] * p.kernel[1]
    table = {"weight": _he_normal(rng, p.weight_shape, fan_in)}
    if p.has_bias:
        table["bias"] = np.zeros(p.out_channels, dtype=np.float32)
    return table


def _conv_params(cfg):
    p: ConvParams = cfg["params"]
    return prod(p.weight_shape) + (p.out_channels if p.has_bias else 0)


def _conv_macs(cfg, out_shape):
    _, cout, ho, wo = out_shape
    return prod(cfg["params"].weight_shape[1:]) * cout * ho * wo


def _conv_describe(cfg):
    p: ConvParams = cfg["params"]
    g = f" g={p.groups}" if p.groups > 1 else ""
    return (f" {p.in_channels}->{p.out_channels} "
            f"k={p.kernel[0]}x{p.kernel[1]} s={p.stride[0]}{g}")


def _bn_shape(cfg, ins):
    if ins[0][1] != cfg["channels"]:
        raise ShapeError(f"{ins[0][1]} channels into bn expecting "
                         f"{cfg['channels']}")
    return ins[0]


def _bn_backward(cfg, grad_out, saved, table):
    gx, gg, gb = ops.batchnorm2d_backward(grad_out, saved, table)
    return [gx], {"gamma": gg, "beta": gb}


def _bn_init(cfg, rng):
    """The affine starts as the identity."""
    c = cfg["channels"]
    return {"gamma": np.ones(c, dtype=np.float32),
            "beta": np.zeros(c, dtype=np.float32),
            "running_mean": np.zeros(c, dtype=np.float32),
            "running_var": np.ones(c, dtype=np.float32)}


def _pool_op(kind: str, **extra) -> OpDef:
    def shape(cfg, ins):
        n, c, h, w = ins[0]
        return (n, c, *_out_hw(h, w, cfg["kernel"], cfg["stride"],
                               cfg["pad"]))

    def forward(cfg, ins, table, saved):
        return ops.pool2d(ins[0], kind, cfg["kernel"], cfg["stride"],
                          cfg["pad"], saved)

    def backward(cfg, grad_out, saved, table):
        return [ops.pool2d_backward(grad_out, saved, kind, cfg["kernel"],
                                    cfg["stride"], cfg["pad"])], {}

    return OpDef(shape, forward, backward, **extra)


def _gap_forward(cfg, ins, table, saved):
    if saved is not None:
        saved["in_shape"] = ins[0].shape
    return ops.global_avg_pool(ins[0])


def _linear_shape(cfg, ins):
    n, c, h, w = ins[0]
    if c != cfg["in_features"] or (h, w) != (1, 1):
        raise ShapeError(f"linear expects ({cfg['in_features']},1,1) "
                         f"features, got ({c},{h},{w})")
    return (n, cfg["out_features"], 1, 1)


def _linear_forward(cfg, ins, table, saved):
    if saved is not None:
        saved["x"] = ins[0]
    return ops.linear(ins[0], table["weight"], table["bias"])


def _linear_backward(cfg, grad_out, saved, table):
    gx, gw, gb = ops.linear_backward(grad_out, saved["x"], table["weight"])
    return [gx], {"weight": gw, "bias": gb}


def _linear_init(cfg, rng):
    """He normal weight (:func:`_he_normal`), zero bias.  ``rng`` is the
    node's own stream (:func:`_init_weights`)."""
    cin, cout = cfg["in_features"], cfg["out_features"]
    return {"weight": _he_normal(rng, (cout, cin), cin),
            "bias": np.zeros(cout, dtype=np.float32)}


def _concat_shape(cfg, ins):
    n, _, h, w = ins[0]
    if any(s[0] != n or tuple(s[2:]) != (h, w) for s in ins):
        raise ShapeError(f"concat inputs disagree: {ins}")
    return (n, sum(s[1] for s in ins), h, w)


def _concat_forward(cfg, ins, table, saved):
    if saved is not None:
        saved["channels"] = [t.c for t in ins]
    return ops.channel_concat(ins)


def _block_sum_shape(cfg, ins):
    n, c, h, w = ins[0]
    if c % cfg["m"]:
        raise ShapeError(f"{c} channels not divisible by m={cfg['m']}")
    return (n, c // cfg["m"], h, w)


def _slice_range(cfg, channels):
    start, stop = cfg["start"], cfg["stop"]
    if not 0 <= start < stop <= channels:
        raise ShapeError(f"slice [{start}:{stop}] out of range for "
                         f"{channels} channels")
    return start, stop


def _slice_shape(cfg, ins):
    n, c, h, w = ins[0]
    start, stop = _slice_range(cfg, c)
    return (n, stop - start, h, w)


def _slice_forward(cfg, ins, table, saved):
    start, stop = _slice_range(cfg, ins[0].c)
    if saved is not None:
        saved["channels"] = ins[0].c
    return Tensor(ins[0].data[:, start:stop].copy())


def _slice_backward(cfg, grad_out, saved, table):
    full = np.zeros((grad_out.n, saved["channels"], grad_out.h, grad_out.w),
                    dtype=grad_out.dtype)
    full[:, cfg["start"]:cfg["stop"]] = grad_out.data
    return [Tensor(full)], {}


def _add_shape(cfg, ins):
    if any(s != ins[0] for s in ins):
        raise ShapeError(f"add inputs disagree: {ins}")
    return ins[0]


def _add_forward(cfg, ins, table, saved):
    if saved is not None:
        saved["count"] = len(ins)
    out = ins[0]
    for t in ins[1:]:
        out = elementwise("add", out, t)
    return out


def _m_describe(cfg):
    return f" m={cfg['m']}"


_CONV = OpDef(
    _conv_shape,
    lambda cfg, ins, table, saved: ops.conv2d_forward(
        ins[0], table["weight"], table.get("bias"), cfg["params"], saved),
    _conv_backward, init=_conv_init, draws=True, params=_conv_params,
    macs=_conv_macs, describe=_conv_describe, depth=1)

OPS: dict[str, OpDef] = {
    "input": OpDef(min_inputs=0),
    "conv": _CONV,
    # a grouped conv run as two gemms per group over one im2col (a
    # different reduction order from "conv"); batched plans lower to it
    "conv_grouped": replace(
        _CONV, forward=lambda cfg, ins, table, saved:
        ops.conv2d_grouped_forward(ins[0], table["weight"],
                                   table.get("bias"), cfg["params"], saved)),
    "bn": OpDef(
        _bn_shape,
        lambda cfg, ins, table, saved: ops.batchnorm2d(
            ins[0], table, "train" if saved is not None else "eval", saved),
        _bn_backward, init=_bn_init,
        # affine scale and shift only; running statistics are not trainable
        params=lambda cfg: 2 * cfg["channels"]),
    "relu": OpDef(
        forward=lambda cfg, ins, table, saved: ops.relu(ins[0], saved),
        backward=lambda cfg, grad_out, saved, table: (
            [ops.relu_backward(grad_out, saved)], {}),
        kinks=lambda cfg, saved: np.packbits(saved["mask"]).tobytes()),
    "pool_max": _pool_op("max", kinks=lambda cfg, saved:
                         saved["arg"].astype(np.uint8).tobytes()),
    "pool_avg": _pool_op("avg"),
    "gap": OpDef(
        lambda cfg, ins: (*ins[0][:2], 1, 1), _gap_forward,
        lambda cfg, grad_out, saved, table: (
            [ops.global_avg_pool_backward(grad_out, saved["in_shape"])], {})),
    "linear": OpDef(
        _linear_shape, _linear_forward, _linear_backward, init=_linear_init,
        draws=True,
        params=lambda cfg: (cfg["in_features"] + 1) * cfg["out_features"],
        macs=lambda cfg, out_shape: cfg["in_features"] * cfg["out_features"],
        describe=lambda cfg: f" {cfg['in_features']}->{cfg['out_features']}",
        depth=1),
    "ir": OpDef(
        lambda cfg, ins: (ins[0][0], ins[0][1] * cfg["m"], *ins[0][2:]),
        lambda cfg, ins, table, saved: ops.input_replicate(
            ins[0], cfg["m"]),
        lambda cfg, grad_out, saved, table: (
            [ops.input_replicate_backward(grad_out, cfg["m"])], {}),
        describe=_m_describe),
    "concat": OpDef(
        _concat_shape, _concat_forward,
        lambda cfg, grad_out, saved, table: (
            ops.channel_concat_backward(grad_out, saved["channels"]), {}),
        min_inputs=2),
    "block_sum": OpDef(
        _block_sum_shape,
        lambda cfg, ins, table, saved: ops.channel_block_sum(
            ins[0], cfg["m"]),
        lambda cfg, grad_out, saved, table: (
            [ops.channel_block_sum_backward(grad_out, cfg["m"])], {}),
        describe=_m_describe),
    "slice": OpDef(_slice_shape, _slice_forward, _slice_backward),
    "add": OpDef(_add_shape, _add_forward,
                 lambda cfg, grad_out, saved, table: (
                     [grad_out] * saved["count"], {}),
                 min_inputs=2),
    "output": OpDef(),
}


# ---------------------------------------------------------------------------
# construction


class GraphBuilder:
    def __init__(self):
        self._nodes = []
        self._names = set()

    def add(self, kind: str, inputs=(), name: str = "", **config) -> int:
        if kind not in OPS:
            raise GraphError(f"unknown node kind {kind!r}")
        nid = len(self._nodes)
        inputs = tuple(inputs)
        name = base = name or f"{kind}{nid}"
        for src in inputs:
            if not 0 <= src < nid:
                raise GraphError(f"node {name!r} references unknown input {src}")
        if len(inputs) < OPS[kind].min_inputs:
            raise GraphError(f"node {name!r} ({kind}) needs >= "
                             f"{OPS[kind].min_inputs} inputs")
        # a taken name gets "#<id>", or the first free "#<id+k>"
        suffix = nid
        while name in self._names:
            name, suffix = f"{base}#{suffix}", suffix + 1
        self._names.add(name)
        self._nodes.append(LayerNode(nid, kind, dict(config), inputs, name))
        return nid

    def freeze(self, output_id: int, seed: int = 0,
               init: bool = True) -> Graph:
        """Freeze into a Graph whose weights :func:`_init_weights` draws
        from ``seed``; ``init=False`` skips weight instantiation (static
        analysis only)."""
        inputs = [n.id for n in self._nodes if n.kind == "input"]
        if len(inputs) != 1:
            raise GraphError(f"graph must have exactly one input, got {len(inputs)}")
        weights = _init_weights(self._nodes, seed) if init else {}
        return Graph(self._nodes, inputs[0], output_id, weights)


# Tables of at least this many parameters are drawn on the worker pool.  On
# 2 vCPUs a float32 normal costs about 16 ns, so such a table takes 1 ms or
# more, against about 0.05 ms to hand one task to a running worker and back
# and 0.23 ms to start and stop a pool.  Every table of the minis is smaller
# (9216 at most), so building one starts no thread.
_POOL_MIN_PARAMS = 1 << 16


def _init_workers() -> int:
    """Worker threads for drawing weights: one per core this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _init_weights(nodes, seed: int) -> dict:
    """Seeded weight tables for ``nodes``, keyed by node id in node order.

    A node whose init draws (``OpDef.draws``) draws from its own stream,
    ``seeded_rng(seed, node.id)``, so its table depends only on the seed,
    the node's id and its config: not on the other nodes, the draw order or
    the number of workers.  numpy releases the interpreter lock while it
    fills an array, so tables of :data:`_POOL_MIN_PARAMS` or more are drawn
    on a pool of :func:`_init_workers` threads, largest first, while the
    calling thread draws the rest; a graph with no such table starts no
    thread.
    """
    check_seed(seed)
    nodes = list(nodes)

    def init(n):
        op = OPS[n.kind]
        return op.init(n.config, seeded_rng(seed, n.id) if op.draws else None)

    large = sorted((n for n in nodes if OPS[n.kind].draws
                    and OPS[n.kind].params(n.config) >= _POOL_MIN_PARAMS),
                   key=lambda n: OPS[n.kind].params(n.config), reverse=True)
    pool = (ThreadPoolExecutor(min(len(large), _init_workers()))
            if large else None)
    try:
        pending = {n.id: pool.submit(init, n) for n in large}
        tables = {n.id: init(n) for n in nodes if n.id not in pending}
        tables.update((nid, f.result()) for nid, f in pending.items())
    finally:
        if pool is not None:
            pool.shutdown()
    return {n.id: tables[n.id] for n in nodes if tables[n.id]}


def reinit_weights(graph: Graph, seed: int) -> dict:
    """Fresh seeded weight table for an existing graph (same shapes), equal
    to the one ``freeze(seed=seed)`` made (:func:`_init_weights`)."""
    return _init_weights(map(graph.node, graph.order), seed)


def infer_shapes(graph: Graph, input_shape) -> dict:
    """Propagate (n,c,h,w) shapes through the graph without executing it.

    ``graph`` needs only ``order`` and ``node(id)``, so an execution plan's
    steps can be walked too; a node without inputs takes ``input_shape``.
    """
    shapes = {}
    for nid in graph.order:
        n = graph.node(nid)
        try:
            ins = [shapes[i] for i in n.inputs] or [tuple(input_shape)]
            shapes[nid] = tuple(OPS[n.kind].shape(n.config, ins))
        except (ShapeError, KeyError) as exc:
            raise GraphError(f"shape propagation failed at node {nid} "
                             f"({n.name}): {exc}") from exc
    return shapes


# ---------------------------------------------------------------------------
# execution


def run_steps(program, x: Tensor, weights, mode: str, error=GraphError):
    """The forward interpreter of :func:`graph_forward` and
    ``runtime.execute``.

    ``program`` (a :class:`Graph` or an execution plan) has ``steps``,
    ``input_id`` and ``output_id``.  Each step runs
    ``OPS[step.kind].forward`` on the weight table of its ``src_node``.  A
    step with a ``group`` index reads only that group's block of the table's
    rows; the table holds one block per group step reading it.  Tensors are
    freed at their last use.  In train mode each step's forward gets a
    fresh ``saved`` dict, and the tape records that dict, keyed by step id,
    and nothing else: it keeps a tensor alive only while some backward
    reads it.  Any :class:`CosnetError` or missing
    table entry raised inside a step is re-raised as ``error``, naming the
    step.

    Returns (output, tape); the tape is None in eval mode.
    """
    steps = program.steps
    uses = Counter(src for s in steps for src in s.inputs)
    blocks = Counter(s.src_node for s in steps if s.group is not None)
    acts = {program.input_id: x}
    tape = {} if mode == "train" else None
    out = None
    for s in steps:
        op = OPS[s.kind]
        try:
            table = weights.get(s.src_node, {})
            if s.group is not None:
                nb = blocks[s.src_node]
                table = {f: a[s.group * len(a) // nb:
                              (s.group + 1) * len(a) // nb]
                         for f, a in table.items()}
            ins = [acts[src] for src in s.inputs]
            saved = {} if tape is not None else None
            acts[s.id] = op.forward(s.config, ins, table, saved)
        except (CosnetError, KeyError) as exc:
            raise error(f"forward failed at step {s.id} ({s.name}): "
                        f"{exc}") from exc
        if tape is not None:
            tape[s.id] = saved
        if s.id == program.output_id:
            out = acts[s.id]
        for src in s.inputs:
            uses[src] -= 1
            if uses[src] == 0:
                del acts[src]
    if out is None:
        raise error("the program never produced its output tensor")
    return out, tape


def _weights_of(program, weights):
    """``weights``, or the table of the graph that ``program`` (a graph or
    a plan of one) runs."""
    if weights is not None:
        return weights
    return getattr(program, "graph", program).weights


def graph_forward(program, x: Tensor, mode: str = "eval", weights=None):
    """Run a graph or an execution plan; ``weights`` defaults to the
    graph's table.

    Returns (output, tape); the tape is :func:`run_steps`'s: each step's
    ``saved`` dict by step id in train mode, None in eval mode.
    """
    if mode not in ("train", "eval"):
        raise GraphError(f"unknown mode {mode!r}")
    return run_steps(program, x, _weights_of(program, weights), mode)


def graph_backward(program, tape, grad_output: Tensor, weights=None):
    """Reverse-mode gradients over the program a train-mode
    :func:`graph_forward` ran; fan-out accumulates by summation.  The pass
    takes each step's entry off the tape as it reaches the step, so a tape
    serves one backward pass and is empty after it.

    Returns (grad table keyed like the weight table, by each step's
    ``src_node``; grad w.r.t. the input).  Every step reads an earlier one
    and every backward returns a gradient per input, so the input always
    gets one.
    """
    if not tape:
        raise GraphError("backward requires an unused tape from a "
                         "train-mode forward")
    grouped = next((s for s in program.steps if s.group is not None), None)
    if grouped is not None:
        raise GraphError(f"cannot differentiate the per-group step "
                         f"{grouped.name}; run the graph or its batched plan")
    weights = _weights_of(program, weights)
    out_grads = {program.output_id: grad_output}
    param_grads = {}
    for s in reversed(program.steps):
        saved = tape.pop(s.id)
        if s.id not in out_grads:
            continue
        go = out_grads.pop(s.id)
        in_grads, pgrads = OPS[s.kind].backward(
            s.config, go, saved, weights.get(s.src_node, {}))
        if pgrads:
            param_grads[s.src_node] = pgrads
        for src, g in zip(s.inputs, in_grads):
            if src in out_grads:
                out_grads[src] = Tensor(out_grads[src].data + g.data)
            else:
                out_grads[src] = g
    return param_grads, out_grads[program.input_id]


def _activation_signature(program, tape) -> bytes:
    """Fingerprint of every piecewise-linear decision taken in a forward
    pass (ReLU sign masks and max-pool winner indices).  Two evaluations
    with different signatures sit on different linear pieces, so a finite
    difference across them is not an estimate of the local derivative."""
    return b"".join(OPS[s.kind].kinks(s.config, tape[s.id])
                    for s in program.steps if OPS[s.kind].kinks is not None)


def grad_check(graph: Graph, input_shape, seed: int = 0, eps: float = 1e-3,
               tol: float = 1e-3) -> GradCheckReport:
    """Central finite differences against the analytic backward pass, over
    the graph's batched plan (the program training differentiates).

    The loss is the sum of all network outputs; everything is re-executed in
    64-bit.  BN runs in train mode so normalization gradients are exercised.
    Relative error uses a unit floor in the denominator:
    ``|a-f| / max(|a|, |f|, 1)``.  Elements whose ±eps perturbation crosses
    a ReLU or max-pool kink are skipped: the difference quotient there does
    not measure a derivative.
    """
    if not 0 < eps < inf:
        raise ConfigError(f"eps must be positive and finite, got {eps}")
    if not tol >= 0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    if graph.num_params() > 10_000:
        raise GraphError(f"grad_check guard: {graph.num_params()} parameters "
                         "exceeds the 10,000 limit")
    program = graph.batched_plan()
    w64 = graph.copy_weights(dtype=np.float64)
    x = tensor_create(input_shape, "uniform", seed=seed, lo=-1.0, hi=1.0,
                      dtype=np.float64)

    def loss_of(weights, xt):
        out, tape = graph_forward(program, xt, mode="train", weights=weights)
        return float(out.data.sum()), _activation_signature(program, tape)

    out, tape = graph_forward(program, x, mode="train", weights=w64)
    ones = Tensor(np.ones(out.shape, dtype=np.float64))
    pgrads, gin = graph_backward(program, tape, ones, weights=w64)

    def worst_error(arr, analytic):
        """Max relative error of ``analytic`` over the elements of ``arr``,
        each perturbed in place by +-eps and restored."""
        flat, aflat = arr.reshape(-1), np.asarray(analytic).reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, sp = loss_of(w64, x)
            flat[i] = orig - eps
            lm, sm = loss_of(w64, x)
            flat[i] = orig
            if sp == sm:
                fd = (lp - lm) / (2 * eps)
                worst = max(worst, abs(aflat[i] - fd)
                            / max(abs(aflat[i]), abs(fd), 1.0))
        return worst

    per_param = {}
    for nid, fname in graph.param_names():
        arr = w64[nid][fname]
        analytic = pgrads.get(nid, {}).get(fname)
        per_param[f"{graph.node(nid).name}.{fname}"] = worst_error(
            arr, np.zeros_like(arr) if analytic is None else analytic)
    worst_in = worst_error(x.data, gin.data)

    errs = list(per_param.values()) + [worst_in]
    passed = all(e <= tol for e in errs)
    return GradCheckReport(eps=eps, tol=tol, per_param=per_param,
                           input_error=worst_in, passed=passed)


def describe(graph: Graph, input_shape=None) -> str:
    """Text rendering of nodes in topological order."""
    shapes = infer_shapes(graph, input_shape) if input_shape else {}
    lines = []
    for nid in graph.order:
        n = graph.node(nid)
        detail = OPS[n.kind].describe(n.config)
        shape = f" -> {shapes[nid]}" if shapes else ""
        src = ",".join(str(s) for s in n.inputs)
        lines.append(f"[{nid:3d}] {n.name:<24} {n.kind:<9} in=({src}){detail}{shape}")
    return "\n".join(lines)

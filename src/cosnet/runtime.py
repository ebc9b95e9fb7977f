"""Reference execution engine: lowering a graph to an execution plan and
running it, in two column-execution modes.

Every layer kind is defined once, in ``graph.OPS``, and one interpreter,
``graph.run_steps``, runs both a graph (``graph_forward``) and a plan
(:func:`execute`).  The interpreter never looks at the mode: the lowering
chooses each step's kind, and through it the kernel.  The modes differ only
in how they lower a grouped convolution:

``batched`` keeps it as one ``conv_grouped`` step
(``ops.conv2d_grouped_forward``: one im2col, then per group two gemms over
the halves of its input channels, summed).  It also folds input
replication: a grouped conv reading ``ir(M)`` with groups=M becomes one
dense ``conv`` over the ``ir``'s own input with the same weight table, and
the ``ir`` step is dropped unless another node reads it.  ``unrolled``
expands a grouped conv into explicit per-group slice / convolve /
concatenate steps; each per-group conv reads its group's block of the
weight rows and runs the im2col path.  The two modes are mathematically
identical but accumulate in a different order, so their float32 outputs
differ at rounding level; the equivalence checker bounds that difference.
A graph whose convolutions all have a single group lowers to
step-identical plans in both modes.

Training, evaluation and the gradient check also run the ``batched`` plan,
through ``graph.graph_forward`` and ``graph.graph_backward``; an
``unrolled`` plan's per-group steps cannot be differentiated.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import ConfigError, PlanError
from .graph import Graph, PlanStep, reinit_weights, run_steps
from .ops import ConvParams
from .tensor import Tensor, tensor_create

MODES = ("batched", "unrolled")
INPUT_ID = -1   # plan-level id of the external input tensor


@dataclass
class ExecutionPlan:
    mode: str
    graph: Graph
    steps: list
    output_id: int
    input_id = INPUT_ID   # a constant, not a field: no plan uses another id

    def num_steps(self) -> int:
        return len(self.steps)


def plans_identical(a: ExecutionPlan, b: ExecutionPlan) -> bool:
    """Step-by-step structural equality (ignores the mode label)."""
    return a.steps == b.steps and a.output_id == b.output_id


def _replication_folds(graph: Graph):
    """The batched mode's replication fold.

    ``ir(M)`` feeding a conv with groups=M hands every group the same
    un-replicated input, so the pair is one dense conv over that input with
    the identical weight tensor (M*N, S, k, k).  Returns ({conv node: ir
    node} for each such conv, the ir nodes that nothing else reads).
    """
    folds = {}
    for s in graph.steps:
        p = s.config.get("params")
        if s.kind == "conv" and p.groups > 1:
            src = graph.node(s.inputs[0])
            if src.kind == "ir" and src.config["m"] == p.groups:
                folds[s.id] = src.id
    readers = Counter(src for s in graph.steps if s.id not in folds
                      for src in s.inputs)
    dropped = {ir for ir in folds.values()
               if not readers[ir] and ir != graph.output_id}
    return folds, dropped


def plan(graph: Graph, mode: str) -> ExecutionPlan:
    """Lower a graph into an ordered step list for the chosen mode."""
    if mode not in MODES:
        raise PlanError(f"unknown execution mode {mode!r}; pick from {MODES}")
    steps = []
    produced = {graph.input_id: INPUT_ID}   # graph node -> plan tensor id
    folds, dropped = (_replication_folds(graph) if mode == "batched"
                      else ({}, set()))

    def emit(kind, config, inputs, name, src_node=None, group=None):
        sid = len(steps)
        steps.append(PlanStep(id=sid, kind=kind, config=config,
                              inputs=tuple(inputs), name=name,
                              src_node=src_node, group=group))
        return sid

    for node in graph.steps:
        nid = node.id
        if nid in dropped:
            continue
        kind, config, srcs = node.kind, dict(node.config), node.inputs
        p: ConvParams | None = config.get("params")
        if nid in folds:
            kind, srcs = "conv", graph.node(folds[nid]).inputs
            p = config["params"] = dc_replace(
                p, in_channels=p.in_channels // p.groups, groups=1)
        try:
            ins = [produced[src] for src in srcs]
        except KeyError as exc:
            raise PlanError(f"node {node.name} reads unplanned node "
                            f"{exc.args[0]}") from None
        if kind == "conv" and p.groups > 1:
            if mode == "batched":
                produced[nid] = emit("conv_grouped", config, ins, node.name,
                                     src_node=nid)
                continue
            g = p.groups
            cin_g = p.in_channels // g
            gp = dc_replace(p, in_channels=cin_g,
                            out_channels=p.out_channels // g, groups=1)
            parts = []
            for gi in range(g):
                sl = emit("slice",
                          {"start": gi * cin_g, "stop": (gi + 1) * cin_g},
                          ins, f"{node.name}.g{gi}.slice")
                parts.append(emit("conv", {"params": gp}, [sl],
                                  f"{node.name}.g{gi}", src_node=nid,
                                  group=gi))
            produced[nid] = emit("concat", {}, parts, f"{node.name}.join")
            continue
        produced[nid] = emit(kind, config, ins, node.name, src_node=nid)
    return ExecutionPlan(mode=mode, graph=graph, steps=steps,
                         output_id=produced[graph.output_id])


def execute(p: ExecutionPlan, x: Tensor, weights=None) -> Tensor:
    """Run a plan in inference mode; tensors are freed at last use."""
    weights = weights if weights is not None else p.graph.weights
    out, _ = run_steps(p, x, weights, "eval", error=PlanError)
    return out


@dataclass
class EquivalenceReport:
    tol: float
    trial_diffs: list    # max |batched - unrolled| per trial
    trial_scales: list   # largest |output| of either mode per trial
    identical_plans: bool
    passed: bool

    def max_diff(self) -> float:
        return max(self.trial_diffs) if self.trial_diffs else 0.0

    def max_scale(self) -> float:
        return max(self.trial_scales) if self.trial_scales else 0.0

    def max_rel_diff(self) -> float:
        """Largest per-trial difference as a share of that trial's largest
        output magnitude (0 where both outputs are all zero)."""
        return max((d / s if s else 0.0
                    for d, s in zip(self.trial_diffs, self.trial_scales)),
                   default=0.0)


def equivalence_check(graph: Graph, input_shape, trials: int = 5,
                      seed: int = 0, tol: float = 1e-5) -> EquivalenceReport:
    """Compare batched and unrolled execution over freshly seeded weights.

    Each trial draws new weights and a new input, then reports the maximum
    absolute elementwise difference between the two modes and the largest
    output magnitude it compares against.  ``tol`` bounds the absolute
    difference.  Failures are reported, not raised.
    """
    if trials < 1:
        raise ConfigError(f"equivalence check needs >= 1 trial, got {trials}")
    if not tol >= 0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    pb = plan(graph, "batched")
    pu = plan(graph, "unrolled")
    diffs, scales = [], []
    for t in range(trials):
        weights = reinit_weights(graph, seed + 1000 * t)
        x = tensor_create(input_shape, "uniform", seed=seed + 1000 * t + 1,
                          lo=-1.0, hi=1.0)
        yb = execute(pb, x, weights=weights)
        yu = execute(pu, x, weights=weights)
        diffs.append(float(np.abs(yb.data - yu.data).max()))
        scales.append(float(max(np.abs(yb.data).max(),
                                np.abs(yu.data).max())))
    return EquivalenceReport(tol=tol, trial_diffs=diffs, trial_scales=scales,
                             identical_plans=plans_identical(pb, pu),
                             passed=all(d <= tol for d in diffs))


def bench(p: ExecutionPlan, input_shape, warmup: int = 1, iters: int = 5,
          seed: int = 0) -> dict:
    """Wall-clock timing of :func:`execute`; returns milliseconds."""
    if iters < 1:
        raise ConfigError(f"bench needs >= 1 timed iteration, got {iters}")
    if warmup < 0:
        raise ConfigError(f"bench needs >= 0 warm-up iterations, got {warmup}")
    x = tensor_create(input_shape, "uniform", seed=seed, lo=-1.0, hi=1.0)
    for _ in range(warmup):
        execute(p, x)
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        execute(p, x)
        times.append((time.perf_counter() - t0) * 1000.0)
    times.sort()
    return {"mode": p.mode, "steps": p.num_steps(), "iters": iters,
            "mean_ms": sum(times) / len(times),
            "p50_ms": times[len(times) // 2],
            "p95_ms": times[min(len(times) - 1, int(len(times) * 0.95))]}

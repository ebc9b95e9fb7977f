"""Reference execution engine: lowering a graph to an execution plan and
running it, in two column-execution modes.

Every layer kind is defined once, in ``graph.OPS``, and one interpreter,
``graph.run_steps``, runs every plan, through :func:`execute` or
``graph.graph_forward``.  Every forward and backward pass runs one of the
two plans below; a graph runs as its ``batched`` plan.  The modes differ
only in how they lower a grouped convolution:

``batched`` keeps it as one ``conv`` step (``ops.conv2d_forward``: one
im2col, then one gemm per group over that group's patch rows).  It also
folds input replication: a grouped conv reading ``ir(M)`` with groups=M
becomes one dense ``conv`` over the ``ir``'s own input with the same
weight table, and the ``ir`` step is dropped unless another node reads it.
``unrolled`` expands a grouped conv into explicit per-group slice /
convolve / concatenate steps; each per-group conv has one group, reads its
group's block of the weight rows and runs one gemm.  The two modes are
mathematically identical and reduce each output in the same order, so
their float32 outputs agree to rounding level (on the registry networks,
exactly).  The equivalence checker bounds their difference, and bounds
each mode's error against a float64 run of the batched plan, which is
what shows that the float32 programs are right and not merely alike.  A
graph whose convolutions all have a single group lowers to step-identical
plans in both modes.

Training, evaluation and the gradient check run the ``batched`` plan,
through ``graph.graph_forward`` and ``graph.graph_backward``; an
``unrolled`` plan's per-group steps cannot be differentiated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .errors import ConfigError, PlanError
from .graph import Graph, _array_of, reinit_weights, run_steps
from .ops import ConvParams
from .tensor import Tensor, tensor_create

MODES = ("batched", "unrolled")
INPUT_ID = -1   # plan-level id of the external input tensor


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
    the identical weight tensor (M*N, S, k, k).  Returns {conv node: ir
    node} for each such conv.
    """
    nodes = [graph.node(nid) for nid in graph.order if nid != graph.input_id]
    folds = {}
    for n in nodes:
        p = n.config.get("params")
        if n.kind == "conv" and p.groups > 1:
            src = graph.node(n.inputs[0])
            if src.kind == "ir" and src.config["m"] == p.groups:
                folds[n.id] = src.id
    return folds


def plan(graph: Graph, mode: str) -> ExecutionPlan:
    """Lower a graph into an ordered step list for the chosen mode.  Only
    nodes the output reads, directly or through others, get steps: one
    reverse pass over the inputs as the plan reads them decides, so a
    branch that reaches no output never runs, nor an ``ir`` that only
    folded convs read."""
    if mode not in MODES:
        raise PlanError(f"unknown execution mode {mode!r}; pick from {MODES}")
    steps = []
    produced = {graph.input_id: INPUT_ID}   # graph node -> plan tensor id
    folds = _replication_folds(graph) if mode == "batched" else {}

    def sources(node):
        return (graph.node(folds[node.id]).inputs if node.id in folds
                else node.inputs)

    live = {graph.output_id}
    for nid in reversed(graph.order):
        if nid in live:
            live.update(sources(graph.node(nid)))

    def emit(kind, config, inputs, name, src_node=None, group=None):
        sid = len(steps)
        steps.append(PlanStep(id=sid, kind=kind, config=config,
                              inputs=tuple(inputs), name=name,
                              src_node=src_node, group=group))
        return sid

    for node in map(graph.node, graph.order):
        nid = node.id
        if nid == graph.input_id or nid not in live:
            continue
        kind, config, srcs = node.kind, dict(node.config), sources(node)
        p: ConvParams | None = config.get("params")
        if nid in folds:
            p = config["params"] = dc_replace(
                p, in_channels=p.in_channels // p.groups, groups=1)
        try:
            ins = [produced[src] for src in srcs]
        except KeyError as exc:
            raise PlanError(f"node {node.name} reads unplanned node "
                            f"{exc.args[0]}") from None
        if kind == "conv" and p.groups > 1 and mode == "unrolled":
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
    """Run a plan in inference mode; arrays are freed at their last read
    (``graph.last_reads``), and a malformed plan raises :class:`PlanError`."""
    out, _ = run_steps(p, _array_of(x, PlanError), weights, "eval",
                       error=PlanError)
    return Tensor(out)


@dataclass
class EquivalenceReport:
    tol: float
    trial_diffs: list    # max |batched - unrolled| per trial
    trial_scales: list   # largest |output| of either mode per trial
    trial_errors: list   # per trial, the larger max |float32 - float64| of
                         # the two modes
    identical_plans: bool
    passed: bool

    def max_diff(self) -> float:
        return max(self.trial_diffs) if self.trial_diffs else 0.0

    def max_scale(self) -> float:
        return max(self.trial_scales) if self.trial_scales else 0.0

    def max_rel_error(self) -> float:
        """Largest per-trial float64 error as a share of that trial's
        largest output magnitude (0 where the outputs are all zero)."""
        return max((e / s if s else 0.0
                    for e, s in zip(self.trial_errors, self.trial_scales)),
                   default=0.0)


def equivalence_check(graph: Graph, input_shape, trials: int = 5,
                      seed: int = 0, tol: float = 1e-5) -> EquivalenceReport:
    """Compare batched and unrolled execution with each other and with a
    float64 run of the batched plan, over freshly seeded weights.

    Each trial draws new weights and a new input, runs both float32 plans
    and the batched plan on float64 copies of the same weights and input,
    and reports the maximum absolute difference between the two modes, the
    largest output magnitude, and the larger of the two modes' maximum
    absolute errors against the float64 output.  A trial passes when the
    modes differ by at most ``tol`` and that error is at most ``tol`` times
    the largest output magnitude.  Failures are reported, not raised.
    """
    if trials < 1:
        raise ConfigError(f"equivalence check needs >= 1 trial, got {trials}")
    if not tol >= 0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    pb = plan(graph, "batched")
    pu = plan(graph, "unrolled")
    diffs, scales, errors = [], [], []
    for t in range(trials):
        weights = reinit_weights(graph, seed + 1000 * t)
        x = tensor_create(input_shape, "uniform", seed=seed + 1000 * t + 1,
                          lo=-1.0, hi=1.0)
        yb = execute(pb, x, weights=weights).data
        yu = execute(pu, x, weights=weights).data
        w64 = {nid: {k: v.astype(np.float64) for k, v in table.items()}
               for nid, table in weights.items()}
        y64 = execute(pb, Tensor(x.data.astype(np.float64)), weights=w64).data
        diffs.append(float(np.abs(yb - yu).max()))
        scales.append(float(max(np.abs(yb).max(), np.abs(yu).max())))
        errors.append(float(max(np.abs(yb - y64).max(),
                                np.abs(yu - y64).max())))
    passed = (all(d <= tol for d in diffs)
              and all(e <= tol * s for e, s in zip(errors, scales)))
    return EquivalenceReport(tol=tol, trial_diffs=diffs, trial_scales=scales,
                             trial_errors=errors,
                             identical_plans=plans_identical(pb, pu),
                             passed=passed)


def bench(p: ExecutionPlan, input_shape, warmup: int = 1,
          iters: int = 5) -> dict:
    """Wall-clock timing of :func:`execute` on a seed-0 uniform input;
    returns milliseconds."""
    if iters < 1:
        raise ConfigError(f"bench needs >= 1 timed iteration, got {iters}")
    if warmup < 0:
        raise ConfigError(f"bench needs >= 0 warm-up iterations, got {warmup}")
    x = tensor_create(input_shape, "uniform", seed=0, lo=-1.0, hi=1.0)
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

"""Static analysis of layer graphs: depth, parameter and multiply-accumulate
counts, per-layer reports (text table / CSV), concurrent-tensor statistics,
and the registry-wide knob calibration against the published totals.

Two independent parameter counters exist on purpose: :func:`count_params`
computes totals arithmetically from layer configurations, while
:func:`count_params_enumerated` walks the instantiated weight table.  They
must agree exactly; a mismatch means either the builders or the counters are
wrong.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from .arch import PAPER_REFERENCE, VariantSpec, build_network
from .errors import ConfigError, GraphError
from .graph import OPS, Graph, infer_shapes, last_reads, program_of


@dataclass(frozen=True)
class AnalysisRow:
    name: str
    kind: str
    out_shape: tuple      # (n, c, h, w)
    params: int
    macs: int


@dataclass
class AnalysisReport:
    rows: list
    depth: int
    total_params: int
    total_macs: int
    input_shape: tuple
    paper_row: tuple | None = None   # (depth, params, macs) reference totals

    def deltas(self):
        """(depth_diff, rel_param_delta, rel_mac_delta) vs the reference."""
        if self.paper_row is None:
            return None
        d, p, f = self.paper_row
        return (self.depth - d,
                (self.total_params - p) / p,
                (self.total_macs - f) / f)


def count_depth(graph: Graph) -> int:
    """Length of the longest input-to-output path, counting only layers with
    weights applied multiplicatively (convolutions and the linear head)."""
    depth = {}
    for nid in graph.order:
        node = graph.node(nid)
        base = max((depth[src] for src in node.inputs), default=0)
        depth[nid] = base + OPS[node.kind].depth
    return depth[graph.output_id]


def count_params(graph: Graph) -> int:
    """Trainable parameter total from layer configurations (closed form)."""
    return sum(OPS[n.kind].params(n.config)
               for n in map(graph.node, graph.order))


def count_params_enumerated(graph: Graph) -> int:
    """Trainable parameter total by enumerating the actual weight table."""
    if not graph.weights:
        raise GraphError("graph carries no weight table "
                         "(built with init=False?)")
    return graph.num_params()


def count_flops(graph: Graph, input_shape) -> int:
    """Multiply-accumulate total for one forward pass at ``input_shape``.

    One MAC is one multiply plus one add; normalization, activations,
    pooling, replication and fusion are counted as zero.
    """
    shapes = infer_shapes(graph, input_shape)
    return sum(OPS[n.kind].macs(n.config, shapes[n.id])
               for n in map(graph.node, graph.order))


def branch_stats(program):
    """Peak number of simultaneously live tensors while ``program`` runs.

    ``program`` is an execution plan, or a :class:`Graph` standing for its
    batched plan (``graph.program_of``).  Lifetimes are the interpreter's
    own (``graph.last_reads``): the input is live from the start, each
    step's output from its step, and a tensor dies once its last reader
    has run; the output never dies.  Returns a dict with ``peak_live``,
    ``total_steps`` and ``final_live``.
    """
    program = program_of(program)
    live = peak = 1
    for dead in last_reads(program):
        peak = max(peak, live + 1)
        live += 1 - len(dead)
    return {"peak_live": peak, "total_steps": len(program.steps),
            "final_live": live}


def emit_report(graph: Graph, input_shape, paper_row=None) -> AnalysisReport:
    """Per-layer analysis rows plus totals for one input shape."""
    shapes = infer_shapes(graph, input_shape)
    rows = []
    for nid in graph.order:
        node = graph.node(nid)
        if node.kind in ("input", "output"):
            continue
        op = OPS[node.kind]
        rows.append(AnalysisRow(name=node.name, kind=node.kind,
                                out_shape=shapes[nid],
                                params=op.params(node.config),
                                macs=op.macs(node.config, shapes[nid])))
    return AnalysisReport(rows=rows, depth=count_depth(graph),
                          total_params=sum(r.params for r in rows),
                          total_macs=sum(r.macs for r in rows),
                          input_shape=tuple(input_shape),
                          paper_row=paper_row)


CSV_HEADER = ("name", "kind", "out_n", "out_c", "out_h", "out_w",
              "params", "macs")


def render_csv(report: AnalysisReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in report.rows:
        writer.writerow([r.name, r.kind, *r.out_shape, r.params, r.macs])
    return buf.getvalue()


def parse_csv(text: str) -> list:
    """Inverse of :func:`render_csv`; returns the list of rows."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ConfigError("empty analysis CSV") from None
    if header != CSV_HEADER:
        raise ConfigError(f"bad analysis CSV header: {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(CSV_HEADER):
            raise ConfigError(f"bad analysis CSV record: {rec}")
        rows.append(AnalysisRow(name=rec[0], kind=rec[1],
                                out_shape=tuple(int(v) for v in rec[2:6]),
                                params=int(rec[6]), macs=int(rec[7])))
    return rows


def render_table(report: AnalysisReport) -> str:
    """Aligned human-readable layer table with totals."""
    lines = [f"{'layer':<28} {'kind':<9} {'output':<20} "
             f"{'params':>12} {'macs':>14}"]
    lines.append("-" * len(lines[0]))
    for r in report.rows:
        shape = "x".join(str(d) for d in r.out_shape)
        lines.append(f"{r.name:<28} {r.kind:<9} {shape:<20} "
                     f"{r.params:>12,} {r.macs:>14,}")
    lines.append("-" * len(lines[0]))
    lines.append(f"depth {report.depth}   params {report.total_params:,}   "
                 f"macs {report.total_macs:,}   "
                 f"input {'x'.join(str(d) for d in report.input_shape)}")
    if report.paper_row is not None:
        dd, dp, df = report.deltas()
        lines.append(f"vs reference: depth {dd:+d}, params {dp:+.1%}, "
                     f"macs {df:+.1%}")
    return "\n".join(lines)


def analyze_variant(spec: VariantSpec, input_res: int = 224,
                    compare: bool = False) -> AnalysisReport:
    graph = build_network(spec, init=False)
    paper_row = PAPER_REFERENCE.get(spec.name) if compare else None
    return emit_report(graph, (1, 3, input_res, input_res),
                       paper_row=paper_row)


def calibrate_registry(input_res: int = 224):
    """Sweep both architecture knobs over every registry variant and compare
    parameter/MAC totals against the published numbers.

    Returns ``{"combos": {(fusion, first_level): {variant: (dp, df)}},
    "mean_abs_param": {combo: mean |dp|}, "worst": {combo: worst |delta|},
    "best": combo}`` where dp/df are relative deltas
    (ours - published) / published and ``best`` minimizes the mean absolute
    parameter delta across variants.
    """
    from .arch import FIRST_LEVEL_INPUTS, FUSIONS, registry_lookup

    names = [n for n in PAPER_REFERENCE if not n.startswith("ResNet")]
    combos = {}
    worst = {}
    mean_abs = {}
    for fusion in FUSIONS:
        for flv in FIRST_LEVEL_INPUTS:
            deltas = {}
            w = 0.0
            for name in names:
                spec = replace(registry_lookup(name), fusion=fusion,
                               first_level_input=flv)
                rep = analyze_variant(spec, input_res, compare=True)
                _, dp, df = rep.deltas()
                deltas[name] = (dp, df)
                w = max(w, abs(dp), abs(df))
            combos[(fusion, flv)] = deltas
            worst[(fusion, flv)] = w
            mean_abs[(fusion, flv)] = sum(
                abs(dp) for dp, _ in deltas.values()) / len(deltas)
    best = min(mean_abs, key=mean_abs.get)
    return {"combos": combos, "mean_abs_param": mean_abs, "worst": worst,
            "best": best}

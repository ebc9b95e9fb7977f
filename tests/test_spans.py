"""The benchmark's span tracer (``perfbench/spans.py``) against the package:
every name it wraps must exist, so that a renamed or deleted function fails
here rather than only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import cosnet
from cosnet import analysis, arch, graph, ops, runtime, tensor, training
from cosnet.arch import build_mini_network
from cosnet.training import TrainConfig, synth_dataset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = (tensor, ops, graph, runtime, training, arch, analysis)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    return {(mod.__name__, attr): val for mod in MODULES
            for attr, val in vars(mod).items()}


def test_every_target_resolves():
    targets = _spans()._targets(cosnet)
    assert all(callable(fn) for fn, _, _ in targets)
    names = {name for _, name, _ in targets if isinstance(name, str)}
    assert {"tensor.elementwise", "ops.input_replicate",
            "ops.conv2d_forward", "ops.conv2d_backward",
            "ops.softmax_cross_entropy"} <= names


def test_restore_puts_every_binding_back():
    spans = _spans()
    before = _bindings()
    restore = spans.instrument(spans.Tracer(), cosnet)
    try:
        assert ops.mm is not before[("cosnet.ops", "mm")]
    finally:
        restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_execute_counts_replicated_bytes():
    spans = _spans()
    g = build_mini_network(columns=2, seed=0)
    x = tensor.tensor_create((2, 3, 32, 32), "uniform", seed=1)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, cosnet)
    try:
        runtime.execute(runtime.plan(g, "unrolled"), x)
    finally:
        restore()
    summary = tracer.summary()
    replicate = summary[("setup", "ops.input_replicate")]
    assert replicate["calls"] == 3   # one per unit
    assert replicate["work"] > 0
    assert summary[("setup", "runtime.execute")]["calls"] == 1


def test_traced_batched_execute_spans_every_conv():
    # the per-layer conv metric covers grouped convs and the head: each
    # conv step of the batched plan, grouped or not, is one
    # ops.conv2d_forward span, and the linear head runs the conv kernel
    # once more, inside its ops.linear span
    spans = _spans()
    p = build_mini_network(columns=4, seed=0).batched_plan()
    convs = [s.config["params"].groups for s in p.steps if s.kind == "conv"]
    heads = [s for s in p.steps if s.kind == "linear"]
    assert 1 in convs and max(convs) == 4 and len(heads) == 1
    x = tensor.tensor_create((2, 3, 32, 32), "uniform", seed=1)
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, cosnet)
    try:
        runtime.execute(p, x)
    finally:
        restore()
    summary = tracer.summary()
    assert summary[("setup", "ops.conv2d_forward")]["calls"] == \
        len(convs) + len(heads)
    names = [rec[0] for rec in tracer.spans]
    head = names.index("ops.linear")
    assert tracer.spans[head + 1][0] == "ops.conv2d_forward"
    assert tracer.spans[head + 1][3] == head


def _traced(fn):
    """The tracer of one call of ``fn`` under :func:`instrument`."""
    spans = _spans()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, cosnet)
    try:
        fn()
    finally:
        restore()
    return tracer


def test_forward_span_names_read_the_mode():
    # the session tells train-mode forwards from eval ones by the mode,
    # passed by position or by keyword
    g = build_mini_network(columns=2, seed=0)
    x = tensor.tensor_create((2, 3, 32, 32), "uniform", seed=1)

    def forwards():
        graph.graph_forward(g, x, "train")
        graph.graph_forward(g, x, mode="train")
        graph.graph_forward(g, x)

    names = [rec[0] for rec in _traced(forwards).spans
             if rec[0].startswith("graph.graph_forward")]
    assert names == ["graph.graph_forward", "graph.graph_forward",
                     "graph.graph_forward.eval"]


def test_traced_training_records_one_backward_per_batch():
    # the session divides the train per-layer metrics by this count
    g = build_mini_network(columns=2, seed=0)
    ds = synth_dataset(count=50, seed=0)
    config = TrainConfig(epochs=1, batch_size=16)
    tracer = _traced(lambda: training.train(g, ds, config))
    n = len(ds.train_idx)
    batches = sum(1 for lo in range(0, n, config.batch_size)
                  if n - lo >= 2)
    summary = tracer.summary()
    assert summary[("setup", "graph.graph_backward")]["calls"] == batches
    assert summary[("setup", "graph.graph_forward")]["calls"] == batches

import pickle
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import PlanAsGraph, node_program, swap_nc, window_stack
from cosnet import graph as graphmod
from cosnet import ops
from cosnet.analysis import count_flops, emit_report
from cosnet.arch import UnitConfig, build_mini_network, build_unit
from cosnet.errors import ConfigError, GraphError, ShapeError
from cosnet.graph import (OPS, GraphBuilder, _activation_signature,
                          describe, grad_check, graph_backward,
                          graph_forward, infer_shapes, last_reads,
                          reinit_weights, run_steps)
from cosnet.ops import ConvParams, softmax_cross_entropy
from cosnet.runtime import INPUT_ID, MODES, execute, plan
from cosnet.tensor import Tensor, tensor_create


def _chain_graph(seed=0):
    b = GraphBuilder()
    x = b.add("input", name="input")
    c = b.add("conv", [x], "c1",
              params=ConvParams(out_channels=3, in_channels=2, kernel=(3, 3),
                                pad=(1, 1)))
    bn = b.add("bn", [c], "c1.bn", channels=3)
    r = b.add("relu", [bn], "c1.relu")
    g = b.add("gap", [r], "gap")
    fc = b.add("linear", [g], "fc", in_features=3, out_features=4)
    out = b.add("output", [fc], "output")
    return b.freeze(out, seed=seed)


def _diamond_graph(seed=0):
    """x -> conv -> (relu branch, identity branch) -> add -> output."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    c = b.add("conv", [x], "c1",
              params=ConvParams(out_channels=2, in_channels=2))
    r = b.add("relu", [c], "r1")
    c2 = b.add("conv", [c], "c2",
               params=ConvParams(out_channels=2, in_channels=2))
    a = b.add("add", [r, c2], "join")
    out = b.add("output", [a], "output")
    return b.freeze(out, seed=seed)


def _branch_graph(widths, seed=0):
    """One conv per width, each reading the input, then a linear head.  The
    first two convs (64 -> w, 3x3) hold >= 2**16 parameters at w >= 114."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    convs = [b.add("conv", [x], f"c{i}",
                   params=ConvParams(out_channels=w, in_channels=64,
                                     kernel=(3, 3) if i < 2 else (1, 1)))
             for i, w in enumerate(widths)]
    cat = b.add("concat", convs, "cat")
    g = b.add("gap", [cat], "gap")
    fc = b.add("linear", [g], "fc", in_features=sum(widths), out_features=10)
    return b.freeze(b.add("output", [fc], "output"), seed=seed)


def _every_kind_graph():
    """One node of every kind, named after its role (the output node keeps
    its default name).  Its batched plan keeps one step per node: the
    grouped conv reads the bn, so no replication is folded."""
    b = GraphBuilder()
    x = b.add("input")
    c = b.add("conv", [x], "c", params=ConvParams(
        out_channels=2, in_channels=2, kernel=(3, 3), pad=(1, 1)))
    r = b.add("relu", [c], "r")
    pa = b.add("pool_avg", [r], "pa", kernel=(2, 2), stride=(2, 2),
               pad=(0, 0))
    pm = b.add("pool_max", [r], "pm", kernel=(2, 2), stride=(2, 2),
               pad=(0, 0))
    a = b.add("add", [pa, pm], "a")
    bn = b.add("bn", [a], "bn", channels=2)
    ir = b.add("ir", [bn], "ir", m=2)
    cg = b.add("conv", [bn], "cg", params=ConvParams(
        out_channels=4, in_channels=2, groups=2))
    bs = b.add("block_sum", [cg], "bs", m=2)
    sl = b.add("slice", [ir], "sl", start=1, stop=3)
    cat = b.add("concat", [bs, sl], "cat")
    gp = b.add("gap", [cat], "gap")
    fc = b.add("linear", [gp], "fc", in_features=4, out_features=3)
    g = b.freeze(b.add("output", [fc]), seed=0)
    assert {s.kind for s in g.batched_plan().steps} == set(OPS) - {"input"}
    return g


class _PoolSpy(ThreadPoolExecutor):
    """A ThreadPoolExecutor that records the worker count of each pool."""
    started: list = []

    def __init__(self, max_workers):
        _PoolSpy.started.append(max_workers)
        super().__init__(max_workers)


@pytest.fixture
def pool_spy(monkeypatch):
    monkeypatch.setattr(_PoolSpy, "started", [])
    monkeypatch.setattr(graphmod, "ThreadPoolExecutor", _PoolSpy)
    return _PoolSpy


class TestBuilder:
    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            GraphBuilder().add("warp")

    def test_forward_reference_rejected(self):
        b = GraphBuilder()
        b.add("input")
        # an unnamed node is named by its default name, not ''
        with pytest.raises(GraphError,
                           match="node 'relu1' references unknown input 5"):
            b.add("relu", [5])

    def test_non_input_needs_predecessor(self):
        with pytest.raises(GraphError):
            GraphBuilder().add("relu", [])

    def test_add_needs_two_inputs(self):
        b = GraphBuilder()
        x = b.add("input")
        with pytest.raises(GraphError, match=r"node 'add1' \(add\) needs"):
            b.add("add", [x])

    def test_exactly_one_input_node(self):
        b = GraphBuilder()
        b.add("input")
        b.add("input")
        with pytest.raises(GraphError):
            b.freeze(1)

    @pytest.mark.parametrize("output_id", [99, -1, "a"])
    def test_output_id_must_name_a_node(self, output_id):
        b = GraphBuilder()
        b.add("relu", [b.add("input")])
        with pytest.raises(GraphError, match="names no node"):
            b.freeze(output_id)

    def test_duplicate_names_disambiguated(self):
        b = GraphBuilder()
        x = b.add("input", name="x")
        r1 = b.add("relu", [x], "r")
        r2 = b.add("relu", [r1], "r")
        g = b.freeze(r2)
        names = {g.node(n).name for n in g.order}
        assert len(names) == 3

    def test_disambiguated_name_never_taken(self):
        # "r" at id 3 would become "r#3", which node 2 already holds
        b = GraphBuilder()
        x = b.add("input", name="x")
        ids = [b.add("relu", [x], name) for name in ("r", "r#3", "r", "r")]
        names = [b.freeze(ids[-1], init=False).node(i).name for i in ids]
        assert names == ["r", "r#3", "r#4", "r#5"]

    def test_ids_are_topological(self):
        g = _chain_graph()
        for nid in g.order:
            assert all(src < nid for src in g.node(nid).inputs)


class TestWeights:
    def test_init_shapes_and_determinism(self):
        g1 = _chain_graph(seed=3)
        g2 = _chain_graph(seed=3)
        g3 = _chain_graph(seed=4)
        for nid in g1.weights:
            for f in g1.weights[nid]:
                assert np.array_equal(g1.weights[nid][f], g2.weights[nid][f])
        assert not np.array_equal(g1.weights[1]["weight"],
                                  g3.weights[1]["weight"])

    def test_param_names_exclude_running_stats(self):
        g = _chain_graph()
        fields = {f for _, f in g.param_names()}
        assert "running_mean" not in fields and "running_var" not in fields
        assert {"weight", "gamma", "beta", "bias"} <= fields

    def test_num_params(self):
        g = _chain_graph()
        # conv 3*2*9 + bn 2*3 + linear 3*4+4
        assert g.num_params() == 54 + 6 + 16

    def test_reinit_matches_original_seed(self):
        g = _chain_graph(seed=5)
        w = reinit_weights(g, 5)
        for nid in g.weights:
            for f in g.weights[nid]:
                assert np.array_equal(g.weights[nid][f], w[nid][f])

    def test_tables_independent_of_worker_count(self, monkeypatch, pool_spy):
        tables = []
        for workers in (1, 4):
            monkeypatch.setattr(graphmod, "_init_workers", lambda: workers)
            tables.append(_branch_graph([128, 160, 8, 8], seed=7).weights)
        # the two 3x3 convs are drawn on the pool, at most one per worker
        assert pool_spy.started == [1, 2]
        a, b = tables
        assert list(a) == list(b)
        for nid in a:
            for f in a[nid]:
                assert a[nid][f].tobytes() == b[nid][f].tobytes()

    def test_table_depends_only_on_its_own_node(self):
        # each node draws from its own stream, so widening c1 leaves the
        # other tables alone (the linear head's shape changes with it)
        g1 = _branch_graph([128, 160, 8, 8], seed=3)
        g2 = _branch_graph([128, 176, 8, 8], seed=3)
        for nid in (1, 3, 4):
            assert (g1.weights[nid]["weight"].tobytes()
                    == g2.weights[nid]["weight"].tobytes())
        assert g2.weights[2]["weight"].shape == (176, 64, 3, 3)
        # and two nodes of one shape draw from different streams
        assert not np.array_equal(g1.weights[3]["weight"],
                                  g1.weights[4]["weight"])

    def test_unallocatable_table_is_a_config_error(self, monkeypatch):
        class Refuses:   # as numpy refuses a table it cannot allocate
            def standard_normal(self, shape, dtype):
                raise MemoryError(f"Unable to allocate 14.9 TiB for an "
                                  f"array with shape {shape}")

        monkeypatch.setattr(graphmod, "seeded_rng", lambda *key: Refuses())
        with pytest.raises(ConfigError, match=r"^node c1: cannot allocate a "
                           r"weight table of shape \(3, 2, 3, 3\): Unable"):
            _chain_graph()

    def test_he_normal_float32(self):
        g = _branch_graph([128, 160, 8, 8], seed=0)
        w = g.weights[1]["weight"]              # 73728 draws, fan_in 576
        assert w.dtype == np.float32
        assert abs(w.std() / np.sqrt(2.0 / 576) - 1.0) < 0.05
        assert abs(w.mean()) < 0.02 * w.std()
        for table in g.weights.values():
            assert all(a.dtype == np.float32 for a in table.values())

    def test_mini_build_starts_no_thread(self, pool_spy):
        build_mini_network(columns=4, seed=1)
        assert pool_spy.started == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            _chain_graph(seed=-1)
        with pytest.raises(ConfigError, match="seeds"):
            reinit_weights(_chain_graph(), -1)
        b = GraphBuilder()    # no node draws: the seed is still checked
        r = b.add("relu", [b.add("input")])
        with pytest.raises(ConfigError, match="seeds"):
            b.freeze(b.add("output", [r]), seed=-1)

    def test_init_false_skips_weights(self):
        b = GraphBuilder()
        x = b.add("input")
        r = b.add("relu", [x])
        out = b.add("output", [r])
        g = b.freeze(out, init=False)
        assert g.weights == {}


class TestShapes:
    def test_chain(self):
        g = _chain_graph()
        shapes = infer_shapes(g, (2, 2, 8, 8))
        assert shapes[g.output_id] == (2, 4, 1, 1)

    def test_error_names_node(self):
        g = _chain_graph()
        with pytest.raises(GraphError, match="c1"):
            infer_shapes(g, (1, 5, 8, 8))

    @pytest.mark.parametrize("fn", [infer_shapes, describe, count_flops,
                                    emit_report])
    @pytest.mark.parametrize("shape", [(2, 8, 8), (0, 2, 8, 8)])
    def test_malformed_input_shape_refused(self, fn, shape):
        with pytest.raises(GraphError, match=r"\(input\): (expected 4-D "
                           r"shape|all dimensions must be >= 1), got"):
            fn(_chain_graph(), shape)

    @pytest.mark.parametrize("shape", [5, (2, "a", 8, 8), (2, 3.7, 32, 32),
                                       (2.0, 3, 32, 32)])
    def test_non_integer_input_shape_refused(self, shape):
        # a float is not truncated: (2, 3.7, 32, 32) is not 3 channels
        with pytest.raises(GraphError, match=r"\(input\): expected a "
                           "sequence of integers"):
            infer_shapes(build_mini_network(), shape)


class TestForwardBackward:
    def test_eval_has_no_tape(self):
        g = _chain_graph()
        out, tape = graph_forward(g, tensor_create((2, 2, 6, 6), "uniform",
                                                   seed=0))
        assert out.shape == (2, 4, 1, 1)
        assert tape is None

    def test_train_tape_and_backward(self):
        g = _chain_graph()
        x = tensor_create((2, 2, 6, 6), "uniform", seed=1, lo=-1, hi=1)
        out, tape = graph_forward(g, x, mode="train")
        grads, gin = graph_backward(tape, Tensor(np.ones(out.shape,
                                                         np.float32)))
        assert gin.shape == x.shape
        assert set(grads) <= set(g.weights)

    def test_backward_requires_train_tape(self):
        # a dict of saved entries is not a tape: it records no forward
        for tape in (None, {}, {0: {}}):
            with pytest.raises(GraphError, match="unused tape"):
                graph_backward(tape, tensor_create((1, 4, 1, 1)))

    def test_fanout_gradient_accumulates(self):
        g = _diamond_graph()
        x = tensor_create((1, 2, 2, 2), "uniform", seed=2, lo=0.1, hi=1.0)
        out, tape = graph_forward(g, x, mode="train")
        go = Tensor(np.ones(out.shape, np.float32))
        grads, gin = graph_backward(tape, go)
        # the conv c1 output feeds both branches: its grad is the sum of the
        # relu-masked path and the conv path
        assert 1 in grads   # c1 received a gradient
        assert np.isfinite(gin.data).all()

    def test_bad_mode(self):
        g = _chain_graph()
        with pytest.raises(GraphError):
            graph_forward(g, tensor_create((1, 2, 4, 4)), mode="predict")

    @pytest.mark.parametrize("shape, dtype", [((2, 7, 1, 1), np.float32),
                                              ((2, 10, 1, 1), np.float64)])
    def test_backward_refuses_a_mismatched_grad_output(self, shape, dtype):
        g = build_mini_network(columns=2, seed=0)
        x = tensor_create((2, 3, 32, 32), "uniform", seed=1)
        out, tape = graph_forward(g.batched_plan(), x, mode="train")
        assert out.shape == (2, 10, 1, 1)
        steps = set(tape)
        with pytest.raises(GraphError, match=r"grad_output is .*; the forward"
                           r" output is float32 \(2, 10, 1, 1\)"):
            graph_backward(tape, tensor_create(shape, "ones", dtype=dtype))
        # refused before any entry left the tape: it still serves a pass
        assert set(tape) == steps
        grads, _ = graph_backward(tape, tensor_create(out.shape, "ones"))
        assert all(a.dtype == np.float32 for table in grads.values()
                   for a in table.values())

    def test_backward_uses_its_forwards_weights(self):
        """The tape records the table its forward read: a backward after a
        forward on an explicit table ``w`` is bitwise the backward of a
        graph whose own table is a copy of ``w``."""
        g = build_mini_network(columns=2, seed=0)
        w = reinit_weights(g, 7)
        x = tensor_create((4, 3, 32, 32), "uniform", seed=1, lo=-1, hi=1)
        go = tensor_create((4, 10, 1, 1), "uniform", seed=2, lo=-1, hi=1)

        def copy(table):
            return {nid: {f: a.copy() for f, a in fields.items()}
                    for nid, fields in table.items()}

        def gradients(graph, weights=None):
            _, tape = graph_forward(graph, x, "train", weights=weights)
            assert tape.weights is (graph.weights if weights is None
                                    else weights)
            pgrads, gin = graph_backward(tape, go)
            return [gin.data] + [pgrads[nid][f] for nid in sorted(pgrads)
                                 for f in sorted(pgrads[nid])]

        twin = build_mini_network(columns=2, seed=0)
        twin.weights = copy(w)
        got = gradients(g, copy(w))
        want = gradients(twin)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # the graph's own table gives other gradients: the pairing above
        # is not met by chance
        own = gradients(g)
        assert [a.tobytes() for a in own] != [a.tobytes() for a in want]

    def test_backward_kernel_error_names_the_step(self):
        g = build_mini_network(columns=2, seed=0)
        p = g.batched_plan()
        x = tensor_create((2, 3, 32, 32), "uniform", seed=1)
        out, tape = graph_forward(p, x, mode="train")
        relu = next(s for s in p.steps if s.kind == "relu")
        tape[relu.id]["mask"] = tape[relu.id]["mask"][:1]
        with pytest.raises(GraphError, match=rf"backward failed at step "
                           rf"{relu.id} \({relu.name}\)") as info:
            graph_backward(tape, tensor_create(out.shape, "ones"))
        assert isinstance(info.value.__cause__, ShapeError)

    def test_boundary_takes_only_tensors(self):
        g = _chain_graph()
        x = tensor_create((2, 2, 6, 6), "uniform", seed=1)
        with pytest.raises(GraphError, match="expected a Tensor"):
            graph_forward(g, x.data, mode="train")
        out, tape = graph_forward(g, x, mode="train")
        with pytest.raises(GraphError, match="expected a Tensor"):
            graph_backward(tape, np.ones(out.shape, np.float32))


def _mini_pff(columns, seed=0):
    """``build_mini_network``'s three units, each with pairwise fusion."""
    b = GraphBuilder()
    cur = b.add("input", name="input")
    cur = b.add("conv", [cur], "stem", params=ConvParams(
        out_channels=16, in_channels=3, kernel=(3, 3), stride=(2, 2),
        pad=(1, 1)))
    cur = b.add("relu", [b.add("bn", [cur], "stem.bn", channels=16)])
    cin = 16
    for stage, (s, p) in enumerate(zip((16, 32, 64), (32, 64, 128))):
        cur = build_unit(b, UnitConfig(
            in_channels=cin, squeeze_channels=s, columns=columns,
            kernels_per_layer=8, column_depth=2, expand_channels=p,
            pff=True), f"u{stage + 1}", cur)
        cin = p
    cur = b.add("linear", [b.add("gap", [cur])], "fc", in_features=cin,
                out_features=10)
    return b.freeze(b.add("output", [cur]), seed=seed)


def _sgd_gradients(program, g, x, labels):
    """One training step's gradients over ``program``, on a copy of g's
    weights in x's dtype (the train-mode forward updates BN running
    statistics)."""
    weights = g.copy_weights(dtype=x.data.dtype)
    out, tape = graph_forward(program, x, mode="train", weights=weights)
    _, grad = softmax_cross_entropy(out, labels)
    return graph_backward(tape, grad)


class TestLastReads:
    """The lifetime rule of plan tensors, which the interpreter frees
    arrays by and the analyzer counts with."""

    def test_diamond(self):
        b = GraphBuilder()
        x = b.add("input")
        r1 = b.add("relu", [x], "a")
        r2 = b.add("relu", [x], "b")
        join = b.add("add", [r1, r2], "join")
        out = b.add("output", [join])
        p = b.freeze(out, init=False).batched_plan()
        # steps a, b, join, output, under their node ids 1..4: the output
        # itself is never freed
        assert [s.id for s in p.steps] == [r1, r2, join, out] == [1, 2, 3, 4]
        assert last_reads(p) == [[], [INPUT_ID], [r1, r2], [join]]

    def test_an_output_read_later_lives_to_the_end(self):
        step = lambda sid, *ins: SimpleNamespace(id=sid, inputs=ins,
                                                 name=f"s{sid}")
        program = SimpleNamespace(steps=[step(0, -1), step(1, 0)],
                                  input_id=-1, output_id=0)
        assert last_reads(program) == [[-1], []]

    @pytest.mark.parametrize("mode", MODES)
    def test_frees_happen_at_the_last_read(self, monkeypatch, mode):
        """At the entry of every step's forward, the step outputs still
        alive are exactly the rule's live set."""
        p = plan(build_mini_network(columns=4, seed=0), mode)
        steps, refs, alive = iter(p.steps), {}, []

        def wrap(forward):
            def run(cfg, ins, table, saved):
                s = next(steps)
                alive.append({sid for sid, r in refs.items()
                              if r() is not None})
                out = forward(cfg, ins, table, saved)
                if s.kind != "output":   # it returns its input object
                    refs[s.id] = weakref.ref(out)
                return out
            return run

        for kind, op in OPS.items():
            monkeypatch.setitem(OPS, kind,
                                replace(op, forward=wrap(op.forward)))
        execute(p, tensor_create((2, 3, 32, 32), "uniform", seed=1))
        live, want = set(), []
        for s, dead in zip(p.steps, last_reads(p)):
            want.append(set(live))
            if s.kind != "output":
                live.add(s.id)
            live -= set(dead)
        assert alive == want

    def test_output_no_step_makes_is_refused(self):
        g = build_mini_network(seed=0)
        program = SimpleNamespace(steps=g.batched_plan().steps,
                                  input_id=INPUT_ID, output_id=10_000,
                                  graph=g)
        with pytest.raises(GraphError, match="never produced"):
            last_reads(program)
        x = tensor_create((2, 3, 32, 32), "uniform", seed=1).data
        with pytest.raises(GraphError, match="never produced"):
            run_steps(program, x, None, "eval")


class TestBackwardOverPlans:
    def _inputs(self, seed, dtype=np.float32):
        x = tensor_create((8, 3, 32, 32), "uniform", seed=seed, dtype=dtype)
        return x, np.arange(8) % 10

    def test_single_column_plan_is_bitwise_the_graph(self):
        g = build_mini_network(columns=1, seed=3)
        x, labels = self._inputs(3)
        want_p, want_x = _sgd_gradients(node_program(g), g, x, labels)
        got_p, got_x = _sgd_gradients(plan(g, "batched"), g, x, labels)
        assert set(got_p) == set(want_p)
        for nid, fields in want_p.items():
            for f, arr in fields.items():
                assert got_p[nid][f].tobytes() == arr.tobytes()
        assert got_x.data.tobytes() == want_x.data.tobytes()

    @pytest.mark.parametrize("columns", [2, 3, 4])
    @pytest.mark.parametrize("pff", [False, True])
    def test_batched_plan_matches_the_graph(self, columns, pff):
        g = (_mini_pff(columns, seed=columns) if pff
             else build_mini_network(columns=columns, seed=columns))
        p = plan(g, "batched")
        # the level-1 convs read the un-replicated input
        assert not any(s.kind == "ir" for s in p.steps)
        # in float64: the two programs sum in different orders, and a
        # float32 rounding difference can flip a ReLU or max-pool decision
        # (mini M=4 at seed 4 flips one), which moves gradients by more
        # than rounding
        x, labels = self._inputs(columns, np.float64)
        want_p, want_x = _sgd_gradients(node_program(g), g, x, labels)
        got_p, got_x = _sgd_gradients(p, g, x, labels)
        pairs = [(got_p[nid][f], arr) for nid, fields in want_p.items()
                 for f, arr in fields.items()] + [(got_x.data, want_x.data)]
        assert set(got_p) == set(want_p)
        for got, want in pairs:
            scale = np.abs(want).max()
            assert np.abs(got - want).max() <= 1e-4 * scale

    def test_unrolled_plan_refused(self):
        g = build_mini_network(columns=2, seed=0)
        p = plan(g, "unrolled")
        x, labels = self._inputs(0)
        out, tape = graph_forward(p, x, mode="train")
        _, grad = softmax_cross_entropy(out, labels)
        with pytest.raises(GraphError, match="per-group"):
            graph_backward(tape, grad)

    def test_tape_entries_keep_what_backward_reads(self):
        """Every kind's tape entry is the dict its forward saved, holding
        what its backward reads: relu its sign mask, max pool its window
        argmax, average pool and gap their input shape, add its input
        count, concat and slice channel counts, conv and linear (a 1x1
        conv) their patch matrix and input shape.  No entry holds a
        Tensor.  Saved arrays and shapes are channel-major (c, n, h, w), as
        the interpreter runs."""
        g = _every_kind_graph()
        p = g.batched_plan()
        ids = {s.name: s.id for s in p.steps}
        c, r, pa, pm, a, bn, ir, cg, bs, sl, cat, gp, fc = (
            ids[name] for name in ("c", "r", "pa", "pm", "a", "bn", "ir",
                                   "cg", "bs", "sl", "cat", "gap", "fc"))
        xt = tensor_create((2, 2, 6, 6), "uniform", seed=1, lo=-1, hi=1)
        out, tape = graph_forward(g, xt, mode="train")
        assert set(tape) == {s.id for s in p.steps}
        for s in p.steps:
            for value in tape[s.id].values():
                assert not isinstance(value, Tensor)
        # the step keeps its node's id, so it is that node and reads its
        # weight table
        conv_out = ops.conv2d_forward(swap_nc(xt.data), g.weights[c]["weight"],
                                      g.node(c).config["params"])
        relu_out = np.maximum(conv_out, 0)
        arg = window_stack(relu_out, (2, 2), (2, 2), (0, 0),
                           -np.inf).argmax(axis=2)
        assert set(tape[c]) == set(tape[cg]) == {"cols", "in_shape"}
        assert set(tape[bn]) == {"inv", "xhat"}
        assert set(tape[r]) == {"mask"}
        assert tape[r]["mask"].dtype == np.bool_
        assert np.array_equal(tape[r]["mask"], conv_out > 0)
        assert tape[pa] == {"in_shape": (2, 2, 6, 6)}
        assert set(tape[pm]) == {"in_shape", "arg"}
        assert tape[pm]["in_shape"] == (2, 2, 6, 6)
        assert tape[pm]["arg"].dtype == np.uint8
        assert np.array_equal(tape[pm]["arg"], arg)
        assert tape[a] == {"count": 2}
        assert tape[ir] == tape[bs] == tape[p.output_id] == {}
        assert tape[sl] == {"channels": 4}
        assert tape[cat] == {"channels": [2, 2]}
        assert tape[gp] == {"in_shape": (4, 2, 3, 3)}
        assert set(tape[fc]) == {"cols", "in_shape"}
        assert tape[fc]["in_shape"] == (4, 2, 1, 1)
        assert tape[fc]["cols"].shape == (4, 2)
        # the kink signature reads the relu mask and the max-pool argmax as
        # it read the relu input
        want = (np.packbits(conv_out > 0).tobytes()
                + arg.astype(np.uint8).tobytes())
        assert _activation_signature(tape) == want
        grads, gin = graph_backward(tape, Tensor(np.ones(out.shape,
                                                         np.float32)))
        assert gin.shape == xt.shape
        assert set(grads) == set(g.weights)
        assert not tape

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("program", ["every_kind", "mini_m3_batched"])
    def test_steps_keep_the_array_invariants(self, program, mode,
                                             monkeypatch):
        """Every step output and every input gradient is a C-contiguous
        float32 array in channel-major (c, n, h, w) order: the shape
        infer_shapes gives, with its first two axes swapped.  No forward
        writes into its inputs, and no backward into its grad_out or its
        saved entry."""
        if program == "every_kind":
            g, shape = _every_kind_graph(), (2, 2, 6, 6)
        else:
            g, shape = build_mini_network(columns=3, seed=0), (2, 3, 32, 32)
        p = g.batched_plan()
        shapes = infer_shapes(PlanAsGraph(p), shape)
        steps = iter(p.steps)   # run_steps runs each step's forward in order
        step_of = {}            # id of a saved dict -> its step
        backwards = []

        def check(arr, logical, name):
            n, c, h, w = logical
            assert isinstance(arr, np.ndarray), name
            assert arr.flags.c_contiguous, name
            assert (arr.dtype, arr.shape) == (np.float32, (c, n, h, w)), name

        def spy(op):
            def forward(cfg, ins, table, saved):
                s = next(steps)
                before = pickle.dumps(ins)
                out = op.forward(cfg, ins, table, saved)
                assert pickle.dumps(ins) == before, s.name
                check(out, shapes[s.id], s.name)
                step_of[id(saved)] = s
                return out

            def backward(cfg, grad_out, saved, table):
                s = step_of[id(saved)]
                before = pickle.dumps((grad_out, saved))
                in_grads, pgrads = op.backward(cfg, grad_out, saved, table)
                assert pickle.dumps((grad_out, saved)) == before, s.name
                assert len(in_grads) == len(s.inputs), s.name
                for src, gin in zip(s.inputs, in_grads):
                    check(gin, shapes[src], s.name)
                backwards.append(s.id)
                return in_grads, pgrads

            return replace(op, forward=forward, backward=backward)

        for kind, op in list(OPS.items()):
            monkeypatch.setitem(OPS, kind, spy(op))
        x = tensor_create(shape, "uniform", seed=1, lo=-1, hi=1)
        weights = g.copy_weights()
        out, tape = graph_forward(p, x, mode=mode, weights=weights)
        assert next(steps, None) is None
        if mode == "train":
            _, gin = graph_backward(tape, tensor_create(out.shape, "ones"))
            assert sorted(backwards) == sorted(s.id for s in p.steps)
            assert gin.shape == shape

    def test_tape_serves_one_backward(self):
        g = _chain_graph()
        x = tensor_create((2, 2, 6, 6), "uniform", seed=1, lo=-1, hi=1)
        out, tape = graph_forward(g, x, mode="train")
        go = Tensor(np.ones(out.shape, np.float32))
        graph_backward(tape, go)
        with pytest.raises(GraphError, match="unused tape"):
            graph_backward(tape, go)


class TestGradCheck:
    def test_linear_graph_machine_precision(self):
        b = GraphBuilder()
        x = b.add("input")
        c = b.add("conv", [x], "c",
                  params=ConvParams(out_channels=2, in_channels=2,
                                    kernel=(3, 3), pad=(1, 1)))
        out = b.add("output", [c], "output")
        g = b.freeze(out, seed=0)
        rep = grad_check(g, (1, 2, 4, 4), seed=0)
        assert rep.passed
        assert rep.max_error() < 1e-8

    def test_diamond_with_nonlinearity(self):
        rep = grad_check(_diamond_graph(seed=1), (2, 2, 3, 3), seed=1)
        assert rep.passed

    @pytest.mark.parametrize("kw", [
        {"eps": 0.0}, {"eps": -1e-3}, {"eps": float("nan")},
        {"eps": float("inf")}, {"tol": -1.0}, {"tol": float("nan")}])
    def test_bad_eps_or_tol_rejected(self, kw):
        with pytest.raises(ConfigError):
            grad_check(_diamond_graph(seed=1), (2, 2, 3, 3), **kw)

    def test_parameter_guard(self):
        b = GraphBuilder()
        x = b.add("input")
        fc = b.add("linear", [x], "fc", in_features=200, out_features=200)
        out = b.add("output", [fc])
        g = b.freeze(out)
        with pytest.raises(ConfigError, match="10,000"):
            grad_check(g, (1, 200, 1, 1))


class TestDescribe:
    def test_contains_names_and_shapes(self):
        g = _chain_graph()
        text = describe(g, (1, 2, 8, 8))
        assert "c1" in text and "conv" in text
        assert "(1, 4, 1, 1)" in text

    def test_without_shapes(self):
        assert "->" not in describe(_chain_graph()).split("\n")[0]

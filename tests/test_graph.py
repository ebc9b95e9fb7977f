from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cosnet import graph as graphmod
from cosnet import ops
from cosnet.arch import UnitConfig, build_mini_network, build_unit
from cosnet.errors import ConfigError, GraphError
from cosnet.graph import (OPS, GraphBuilder, _activation_signature,
                          describe, grad_check, graph_backward,
                          graph_forward, infer_shapes, reinit_weights)
from cosnet.ops import ConvParams, softmax_cross_entropy
from cosnet.runtime import plan
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
        grads, gin = graph_backward(g, tape, Tensor(np.ones(out.shape,
                                                            np.float32)))
        assert gin.shape == x.shape
        assert set(grads) <= set(g.weights)

    def test_backward_requires_train_tape(self):
        g = _chain_graph()
        with pytest.raises(GraphError):
            graph_backward(g, None, tensor_create((1, 4, 1, 1)))

    def test_fanout_gradient_accumulates(self):
        g = _diamond_graph()
        x = tensor_create((1, 2, 2, 2), "uniform", seed=2, lo=0.1, hi=1.0)
        out, tape = graph_forward(g, x, mode="train")
        go = Tensor(np.ones(out.shape, np.float32))
        grads, gin = graph_backward(g, tape, go)
        # the conv c1 output feeds both branches: its grad is the sum of the
        # relu-masked path and the conv path
        assert 1 in grads   # c1 received a gradient
        assert np.isfinite(gin.data).all()

    def test_bad_mode(self):
        g = _chain_graph()
        with pytest.raises(GraphError):
            graph_forward(g, tensor_create((1, 2, 4, 4)), mode="predict")


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
    weights (the train-mode forward updates BN running statistics)."""
    weights = g.copy_weights()
    out, tape = graph_forward(program, x, mode="train", weights=weights)
    _, grad = softmax_cross_entropy(out, labels)
    return graph_backward(program, tape, grad, weights=weights)


class TestBackwardOverPlans:
    def _inputs(self, seed):
        x = tensor_create((8, 3, 32, 32), "uniform", seed=seed)
        return x, np.arange(8) % 10

    def test_single_column_plan_is_bitwise_the_graph(self):
        g = build_mini_network(columns=1, seed=3)
        x, labels = self._inputs(3)
        want_p, want_x = _sgd_gradients(g, g, x, labels)
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
        x, labels = self._inputs(columns)
        want_p, want_x = _sgd_gradients(g, g, x, labels)
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
            graph_backward(p, tape, grad)

    def test_tape_entries_keep_what_backward_reads(self):
        """Every kind's tape entry is the dict its forward saved, holding
        what its backward reads: relu its sign mask, max pool its window
        argmax, average pool and gap their input shape, add its input
        count, concat and slice channel counts.  Only linear keeps an
        input tensor."""
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
        cg = b.add("conv_grouped", [ir], "cg", params=ConvParams(
            out_channels=4, in_channels=4, groups=2))
        bs = b.add("block_sum", [cg], "bs", m=2)
        sl = b.add("slice", [ir], "sl", start=1, stop=3)
        cat = b.add("concat", [bs, sl], "cat")
        gp = b.add("gap", [cat], "gap")
        fc = b.add("linear", [gp], "fc", in_features=4, out_features=3)
        out_id = b.add("output", [fc])
        g = b.freeze(out_id, seed=0)
        assert {s.kind for s in g.steps} == set(OPS) - {"input"}
        xt = tensor_create((2, 2, 6, 6), "uniform", seed=1, lo=-1, hi=1)
        out, tape = graph_forward(g, xt, mode="train")
        assert set(tape) == {s.id for s in g.steps}
        for s in g.steps:
            for key, value in tape[s.id].items():
                assert (not isinstance(value, Tensor)
                        or (s.id, key) == (fc, "x"))
        conv_out = ops.conv2d_forward(xt, g.weights[c]["weight"], None,
                                      g.node(c).config["params"])
        relu_out = np.maximum(conv_out.data, 0)
        arg = ops._pool_windows(relu_out, (2, 2), (2, 2), (0, 0),
                                -np.inf).argmax(axis=2)
        assert set(tape[c]) == set(tape[cg]) == {"cols", "in_shape"}
        assert set(tape[bn]) == {"inv", "xhat"}
        assert set(tape[r]) == {"mask"}
        assert tape[r]["mask"].dtype == np.bool_
        assert np.array_equal(tape[r]["mask"], conv_out.data > 0)
        assert tape[pa] == {"in_shape": (2, 2, 6, 6)}
        assert set(tape[pm]) == {"in_shape", "arg"}
        assert tape[pm]["in_shape"] == (2, 2, 6, 6)
        assert tape[pm]["arg"].dtype == np.uint8
        assert np.array_equal(tape[pm]["arg"], arg)
        assert tape[a] == {"count": 2}
        assert tape[ir] == tape[bs] == tape[out_id] == {}
        assert tape[sl] == {"channels": 4}
        assert tape[cat] == {"channels": [2, 2]}
        assert tape[gp] == {"in_shape": (2, 4, 3, 3)}
        assert set(tape[fc]) == {"x"} and tape[fc]["x"].shape == (2, 4, 1, 1)
        # the kink signature reads the relu mask and the max-pool argmax as
        # it read the relu input
        want = (np.packbits(conv_out.data > 0).tobytes()
                + arg.astype(np.uint8).tobytes())
        assert _activation_signature(g, tape) == want
        grads, gin = graph_backward(g, tape, Tensor(np.ones(out.shape,
                                                            np.float32)))
        assert gin.shape == xt.shape
        assert set(grads) == set(g.weights)
        assert not tape

    def test_tape_serves_one_backward(self):
        g = _chain_graph()
        x = tensor_create((2, 2, 6, 6), "uniform", seed=1, lo=-1, hi=1)
        out, tape = graph_forward(g, x, mode="train")
        go = Tensor(np.ones(out.shape, np.float32))
        graph_backward(g, tape, go)
        with pytest.raises(GraphError, match="unused tape"):
            graph_backward(g, tape, go)


class TestGradCheck:
    def test_linear_graph_machine_precision(self):
        b = GraphBuilder()
        x = b.add("input")
        c = b.add("conv", [x], "c",
                  params=ConvParams(out_channels=2, in_channels=2,
                                    kernel=(3, 3), pad=(1, 1), has_bias=True))
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
        with pytest.raises(GraphError, match="10,000"):
            grad_check(g, (1, 200, 1, 1))


class TestDescribe:
    def test_contains_names_and_shapes(self):
        g = _chain_graph()
        text = describe(g, (1, 2, 8, 8))
        assert "c1" in text and "conv" in text
        assert "(1, 4, 1, 1)" in text

    def test_without_shapes(self):
        assert "->" not in describe(_chain_graph()).split("\n")[0]

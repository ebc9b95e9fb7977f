import numpy as np
import pytest

from cosnet import ops
from cosnet.arch import UnitConfig, build_mini_network, build_unit
from cosnet.errors import ConfigError, GraphError
from cosnet.graph import (GraphBuilder, _activation_signature, describe,
                          grad_check, graph_backward, graph_forward,
                          infer_shapes, reinit_weights)
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


class TestBuilder:
    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            GraphBuilder().add("warp")

    def test_forward_reference_rejected(self):
        b = GraphBuilder()
        b.add("input")
        with pytest.raises(GraphError):
            b.add("relu", [5])

    def test_non_input_needs_predecessor(self):
        with pytest.raises(GraphError):
            GraphBuilder().add("relu", [])

    def test_add_needs_two_inputs(self):
        b = GraphBuilder()
        x = b.add("input")
        with pytest.raises(GraphError):
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
        """relu keeps its sign mask, average pool its input shape and add
        its input count; max pool keeps its input, which backward reads."""
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
        g = b.freeze(b.add("output", [a]), seed=0)
        xt = tensor_create((2, 2, 6, 6), "uniform", seed=1, lo=-1, hi=1)
        out, tape = graph_forward(g, xt, mode="train")
        steps = tape["steps"]
        conv_out = ops.conv2d_forward(xt, g.weights[c]["weight"], None,
                                      g.node(c).config["params"])
        assert set(steps[r]) == {"mask"}
        assert steps[r]["mask"].dtype == np.bool_
        assert np.array_equal(steps[r]["mask"], conv_out.data > 0)
        assert steps[pa] == {"in_shape": (2, 2, 6, 6)}
        assert set(steps[pm]) == {"in_shape", "x"}
        assert steps[a] == {"count": 2}
        # the kink signature reads the relu mask as it read the relu input
        relu_out = np.maximum(conv_out.data, 0)
        want = (np.packbits(conv_out.data > 0).tobytes()
                + ops._pool_windows(relu_out, (2, 2), (2, 2), (0, 0),
                                    -np.inf).argmax(axis=2)
                .astype(np.uint8).tobytes())
        assert _activation_signature(g, tape) == want
        grads, gin = graph_backward(g, tape, Tensor(np.ones(out.shape,
                                                            np.float32)))
        assert gin.shape == xt.shape

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

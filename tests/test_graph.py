import numpy as np
import pytest

from cosnet.errors import ConfigError, GraphError
from cosnet.graph import (GraphBuilder, describe, grad_check, graph_backward,
                          graph_forward, infer_shapes, reinit_weights)
from cosnet.ops import ConvParams
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

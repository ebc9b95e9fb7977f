from dataclasses import replace as dc_replace

import numpy as np
import pytest

from cosnet import analysis, runtime
from cosnet.arch import UnitConfig, build_mini_network, build_unit_graph
from cosnet.errors import ConfigError, GraphError, PlanError
from cosnet.graph import (LayerNode, graph_forward, infer_shapes,
                          reinit_weights)
from cosnet.tensor import tensor_create


def _unit(m=2, n=4, l=2, **kw):
    cfg = UnitConfig(in_channels=8, squeeze_channels=8, columns=m,
                     kernels_per_layer=n, column_depth=l, expand_channels=16,
                     **kw)
    return build_unit_graph(cfg, seed=1)


class _PlanAsGraph:
    """A plan seen as a graph (``order`` and ``node``), the way the
    benchmark's byte tracker walks plan steps with ``infer_shapes``."""

    def __init__(self, p):
        self.order = [runtime.INPUT_ID] + [s.id for s in p.steps]
        self._steps = {s.id: s for s in p.steps}
        self._steps[runtime.INPUT_ID] = LayerNode(runtime.INPUT_ID, "input",
                                                  {}, (), "input")

    def node(self, nid):
        return self._steps[nid]


class TestPlan:
    def test_bad_mode(self):
        with pytest.raises(PlanError):
            runtime.plan(_unit(), "jit")

    def test_batched_mirrors_graph(self):
        # one step per non-input node, except the replication the level-1
        # conv folds in
        g = _unit(m=4)
        p = runtime.plan(g, "batched")
        folded = [n for n in g.order if g.node(n).kind == "ir"]
        assert len(folded) == 1
        assert p.num_steps() == len(g.order) - 1 - len(folded)
        assert [s.src_node for s in p.steps] == [
            n for n in g.order if n != g.input_id and n not in folded]

    def test_batched_folds_replication_into_level1(self):
        g = _unit(m=4)
        p = runtime.plan(g, "batched")
        assert not [s for s in p.steps if s.kind == "ir"]
        ir = next(n for n in g.order if g.node(n).kind == "ir")
        level1 = next(s for s in p.steps if s.name == "u1.col.level1")
        gp = g.node(level1.src_node).config["params"]
        assert level1.kind == "conv"
        assert level1.config["params"] == dc_replace(
            gp, in_channels=gp.in_channels // 4, groups=1)
        # it reads what the ir read, with the graph node's weight table
        src = next(s for s in p.steps if s.src_node == g.node(ir).inputs[0])
        assert level1.inputs == (src.id,)
        assert level1.config["params"].weight_shape == \
            g.weights[level1.src_node]["weight"].shape
        later = [s for s in p.steps if ".col.level" in s.name
                 and s.kind.startswith("conv") and s is not level1]
        assert later and all(s.kind == "conv_grouped" for s in later)

    def test_batched_keeps_replication_with_other_readers(self):
        # S == N and no downsampling: the level-(1,2) shallow skip reads the
        # replicated tensor, so the ir step stays; level 1 still folds
        g = _unit(m=4, n=8, downsample=False)
        p = runtime.plan(g, "batched")
        ir = [s for s in p.steps if s.kind == "ir"]
        assert len(ir) == 1
        skip = next(s for s in p.steps if ".skip1_2" in s.name)
        assert ir[0].id in skip.inputs
        level1 = next(s for s in p.steps if s.name == "u1.col.level1")
        assert level1.kind == "conv" and ir[0].id not in level1.inputs
        assert p.num_steps() == len(g.order) - 1

    def test_unrolled_expands_grouped_convs(self):
        g = _unit(m=4, l=3)
        pu = runtime.plan(g, "unrolled")
        level_convs = [s for s in pu.steps
                       if s.kind == "conv" and ".col.level" in s.name]
        # 4 per-group convs per level, 3 levels
        assert len(level_convs) == 12
        assert all(s.config["params"].groups == 1 for s in level_convs)
        assert sum(1 for s in pu.steps if s.kind == "slice") == 12
        assert sum(1 for s in pu.steps if ".join" in s.name) == 3

    @pytest.mark.parametrize("mode", runtime.MODES)
    @pytest.mark.parametrize("graph, channels", [
        (lambda: build_mini_network(columns=4, seed=0), 3),
        (lambda: _unit(m=3, l=3, pff=True, downsample=False), 8)],
        ids=["mini", "pff_unit"])
    def test_infer_shapes_over_plan_steps(self, mode, graph, channels):
        g = graph()
        shape = (2, channels, 16, 16)
        want = infer_shapes(g, shape)
        p = runtime.plan(g, mode)
        got = infer_shapes(_PlanAsGraph(p), shape)
        by_name = {g.node(n).name: n for n in g.order}
        # a batched plan folds each replication that only level-1 convs
        # read into them; every other node keeps a step
        folded = {n for n in g.order if g.node(n).kind == "ir"
                  and not any(s.src_node == n for s in p.steps)}
        assert bool(folded) == (mode == "batched")
        matched = 0
        for s in p.steps:
            if s.src_node is not None and s.group is None:
                nid = s.src_node
            elif s.kind == "concat":
                # the join of an unrolled grouped conv holds the node tensor
                nid = by_name[s.name.removesuffix(".join")]
            else:
                continue
            assert got[s.id] == want[nid], s.name
            matched += 1
        # every node but the input and the folded replications
        assert matched == len(g.order) - 1 - len(folded)
        assert got[p.output_id] == want[g.output_id]

    def test_single_group_graph_plans_identical(self):
        g = _unit(m=1)
        pb = runtime.plan(g, "batched")
        pu = runtime.plan(g, "unrolled")
        assert runtime.plans_identical(pb, pu)

    def test_multi_group_plans_differ(self):
        g = _unit(m=2)
        assert not runtime.plans_identical(runtime.plan(g, "batched"),
                                           runtime.plan(g, "unrolled"))


class TestExecute:
    def test_unrolled_matches_graph_forward(self):
        g = _unit(m=4)
        x = tensor_create((2, 8, 12, 12), "uniform", seed=0, lo=-1, hi=1)
        want, _ = graph_forward(g, x)
        got = runtime.execute(runtime.plan(g, "unrolled"), x)
        # both run each group through the im2col kernel
        assert np.array_equal(got.data, want.data)

    def test_batched_matches_graph_forward(self):
        g = _unit(m=4)
        x = tensor_create((2, 8, 12, 12), "uniform", seed=0, lo=-1, hi=1)
        want, _ = graph_forward(g, x)
        got = runtime.execute(runtime.plan(g, "batched"), x)
        assert float(np.abs(got.data - want.data).max()) < 1e-5

    def test_explicit_weights_override(self):
        g = _unit(m=2)
        p = runtime.plan(g, "batched")
        x = tensor_create((1, 8, 8, 8), "uniform", seed=3)
        w2 = reinit_weights(g, 99)
        y1 = runtime.execute(p, x)
        y2 = runtime.execute(p, x, weights=w2)
        assert not np.array_equal(y1.data, y2.data)

    def test_kernel_error_names_the_step(self):
        g = build_mini_network(seed=0)
        x = tensor_create((2, 8, 32, 32), "uniform", seed=1)   # 3 expected
        for mode in runtime.MODES:
            with pytest.raises(PlanError, match="stem") as info:
                runtime.execute(runtime.plan(g, mode), x)
            assert isinstance(info.value.__cause__, ConfigError)
        with pytest.raises(GraphError, match="stem") as info:
            graph_forward(g, x)
        assert isinstance(info.value.__cause__, ConfigError)

    def test_mini_network_executes(self):
        g = build_mini_network(seed=0)
        x = tensor_create((2, 3, 32, 32), "uniform", seed=1)
        y = runtime.execute(runtime.plan(g, "batched"), x)
        assert y.shape == (2, 10, 1, 1)
        assert np.isfinite(y.data).all()


class TestEquivalence:
    def test_modes_agree_within_tolerance(self):
        g = _unit(m=4, l=3)
        rep = runtime.equivalence_check(g, (2, 8, 16, 16), trials=3, seed=0)
        assert rep.passed
        assert all(d <= 1e-5 for d in rep.trial_diffs)

    def test_reports_output_scale(self):
        g = _unit(m=4, l=3)
        rep = runtime.equivalence_check(g, (2, 8, 16, 16), trials=2, seed=0)
        # trial 0 runs reinit_weights(g, 0) on the uniform input of seed 1
        x = tensor_create((2, 8, 16, 16), "uniform", seed=1, lo=-1.0, hi=1.0)
        y = runtime.execute(runtime.plan(g, "batched"), x,
                            weights=reinit_weights(g, 0))
        assert rep.trial_scales[0] >= float(np.abs(y.data).max()) > 0.0
        assert rep.max_scale() == max(rep.trial_scales)
        assert rep.max_rel_diff() == max(
            d / s for d, s in zip(rep.trial_diffs, rep.trial_scales))
        assert 0.0 < rep.max_rel_diff() < 1e-6

    def test_modes_actually_differ_in_rounding(self):
        # the two reduction orders must not be bitwise identical, otherwise
        # the tolerance contract is vacuous
        g = _unit(m=4, l=3)
        rep = runtime.equivalence_check(g, (2, 8, 16, 16), trials=3, seed=0)
        assert rep.max_diff() > 0.0

    @pytest.mark.parametrize("graph, channels", [
        (lambda: build_mini_network(columns=4, seed=0), 3),
        (lambda: _unit(m=3, l=3, pff=True, downsample=False), 8),
        (lambda: _unit(m=4, n=8, downsample=False), 8)],
        ids=["mini", "pff_unit", "kept_ir"])
    def test_folded_plans_agree_and_differ(self, graph, channels):
        rep = runtime.equivalence_check(graph(), (2, channels, 16, 16),
                                        trials=2, seed=3)
        assert rep.passed
        assert rep.max_diff() > 0.0

    def test_single_column_exact_zero(self):
        g = _unit(m=1)
        rep = runtime.equivalence_check(g, (2, 8, 16, 16), trials=2, seed=0)
        assert rep.identical_plans
        assert rep.max_diff() == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigError):
            runtime.equivalence_check(_unit(m=2), (1, 8, 8, 8), trials=0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ConfigError):
            runtime.equivalence_check(_unit(m=2), (1, 8, 8, 8), trials=1,
                                      tol=tol)

    def test_failure_is_reported_not_raised(self):
        g = _unit(m=4)
        rep = runtime.equivalence_check(g, (1, 8, 8, 8), trials=1, tol=0.0)
        assert not rep.passed   # tol 0 cannot hold across reduction orders


class TestBenchAndStats:
    def test_bench_fields(self):
        g = _unit(m=2, l=1)
        stats = runtime.bench(runtime.plan(g, "batched"), (1, 8, 8, 8),
                              warmup=1, iters=3)
        assert stats["iters"] == 3
        assert 0 <= stats["p50_ms"] <= stats["p95_ms"]
        assert stats["mean_ms"] > 0

    def test_bench_zero_iters_rejected(self):
        with pytest.raises(ConfigError):
            runtime.bench(runtime.plan(_unit(m=2, l=1), "batched"),
                          (1, 8, 8, 8), iters=0)

    def test_bench_negative_warmup_rejected(self):
        with pytest.raises(ConfigError):
            runtime.bench(runtime.plan(_unit(m=2, l=1), "batched"),
                          (1, 8, 8, 8), warmup=-1)

    def test_batched_holds_fewer_concurrent_tensors(self):
        g = _unit(m=4, l=3)
        sb = analysis.branch_stats(runtime.plan(g, "batched"))
        su = analysis.branch_stats(runtime.plan(g, "unrolled"))
        assert sb["peak_live"] < su["peak_live"]

    def test_single_column_stats_equal(self):
        g = _unit(m=1)
        sb = analysis.branch_stats(runtime.plan(g, "batched"))
        su = analysis.branch_stats(runtime.plan(g, "unrolled"))
        assert sb == su

from types import SimpleNamespace

import pytest

from cosnet import analysis
from cosnet.arch import (build_bottleneck_stage_graph, build_mini_network,
                         build_network, build_unit_graph, registry_lookup)
from cosnet.arch import UnitConfig
from cosnet.errors import ConfigError, GraphError
from cosnet.graph import GraphBuilder
from cosnet.ops import ConvParams


def _single_conv_graph(cout=4, cin=3, k=3, stride=1, pad=1, groups=1,
                       bias=False):
    b = GraphBuilder()
    x = b.add("input", name="input")
    c = b.add("conv", [x], "c",
              params=ConvParams(out_channels=cout, in_channels=cin,
                                kernel=(k, k), stride=(stride, stride),
                                pad=(pad, pad), groups=groups, has_bias=bias))
    out = b.add("output", [c], "output")
    return b.freeze(out)


class TestDepth:
    def test_single_conv(self):
        assert analysis.count_depth(_single_conv_graph()) == 1

    def test_parallel_branches_take_longest(self):
        b = GraphBuilder()
        x = b.add("input")
        c1 = b.add("conv", [x], "a",
                   params=ConvParams(out_channels=2, in_channels=2))
        c2 = b.add("conv", [c1], "b",
                   params=ConvParams(out_channels=2, in_channels=2))
        short = b.add("conv", [x], "s",
                      params=ConvParams(out_channels=2, in_channels=2))
        a = b.add("add", [c2, short], "join")
        out = b.add("output", [a])
        g = b.freeze(out, init=False)
        assert analysis.count_depth(g) == 2

    def test_unit_depth_is_l_plus_2(self):
        for l in (1, 2, 3, 4):
            cfg = UnitConfig(in_channels=8, squeeze_channels=8, columns=2,
                             kernels_per_layer=4, column_depth=l,
                             expand_channels=16)
            g = build_unit_graph(cfg, init=False)
            assert analysis.count_depth(g) == l + 2

    def test_pff_adds_l_minus_1(self):
        cfg = UnitConfig(in_channels=8, squeeze_channels=8, columns=2,
                         kernels_per_layer=4, column_depth=3,
                         expand_channels=16, pff=True)
        g = build_unit_graph(cfg, init=False)
        assert analysis.count_depth(g) == 3 + 2 + 2


class TestParams:
    def test_formula_hand_check(self):
        g = _single_conv_graph(cout=4, cin=3, k=3, bias=True)
        assert analysis.count_params(g) == 4 * 3 * 9 + 4

    def test_grouped_conv(self):
        g = _single_conv_graph(cout=8, cin=8, k=3, groups=4)
        assert analysis.count_params(g) == 8 * 2 * 9

    def test_formula_matches_enumeration_mini(self):
        g = build_mini_network()
        assert analysis.count_params(g) == analysis.count_params_enumerated(g)
        assert analysis.count_params(g) == g.num_params()

    def test_enumeration_needs_weights(self):
        g = build_network(registry_lookup("CoSNet-A0"), init=False)
        with pytest.raises(GraphError):
            analysis.count_params_enumerated(g)


class TestFlops:
    def test_single_conv_macs(self):
        g = _single_conv_graph(cout=4, cin=3, k=3, stride=1, pad=1)
        # 8x8 input -> 8x8 output: 3*3*3*4*64
        assert analysis.count_flops(g, (1, 3, 8, 8)) == 9 * 3 * 4 * 64

    def test_grouped_divides_input_channels(self):
        g = _single_conv_graph(cout=8, cin=8, k=3, groups=4)
        dense = _single_conv_graph(cout=8, cin=8, k=3, groups=1)
        assert analysis.count_flops(g, (1, 8, 4, 4)) * 4 == \
            analysis.count_flops(dense, (1, 8, 4, 4))

    def test_zero_cost_kinds(self):
        g = build_unit_graph(UnitConfig(
            in_channels=4, squeeze_channels=4, columns=2, kernels_per_layer=2,
            column_depth=1, expand_channels=8), init=False)
        rep = analysis.emit_report(g, (1, 4, 8, 8))
        for row in rep.rows:
            if row.kind not in ("conv", "linear"):
                assert row.macs == 0


class TestBranchStats:
    def test_chain_peaks_at_two(self):
        g = _single_conv_graph()
        assert analysis.branch_stats(g)["peak_live"] == 2

    def test_diamond_peaks_at_three(self):
        b = GraphBuilder()
        x = b.add("input")
        r1 = b.add("relu", [x], "a")
        r2 = b.add("relu", [x], "b")
        a = b.add("add", [r1, r2], "join")
        out = b.add("output", [a])
        g = b.freeze(out, init=False)
        assert analysis.branch_stats(g)["peak_live"] == 3

    def test_unknown_source_rejected(self):
        program = SimpleNamespace(
            steps=[SimpleNamespace(id=0, inputs=(99,))], input_id=-1)
        with pytest.raises(GraphError):
            analysis.branch_stats(program)


class TestReport:
    def test_totals_equal_row_sums(self):
        g = build_mini_network()
        rep = analysis.emit_report(g, (2, 3, 32, 32))
        assert rep.total_params == sum(r.params for r in rep.rows)
        assert rep.total_macs == sum(r.macs for r in rep.rows)

    def test_csv_round_trip(self):
        g = build_mini_network()
        rep = analysis.emit_report(g, (1, 3, 32, 32))
        rows = analysis.parse_csv(analysis.render_csv(rep))
        assert rows == rep.rows

    def test_csv_bad_header(self):
        with pytest.raises(ConfigError):
            analysis.parse_csv("a,b,c\n1,2,3\n")

    def test_csv_empty(self):
        with pytest.raises(ConfigError):
            analysis.parse_csv("")

    def test_table_mentions_totals(self):
        g = build_mini_network()
        rep = analysis.emit_report(g, (1, 3, 32, 32),
                                   paper_row=(7, rep.total_params if False
                                              else 40570, 1e6))
        text = analysis.render_table(rep)
        assert "depth" in text and "vs reference" in text


class TestBottleneckComparison:
    def test_three_block_stage_has_nine_weighted_layers(self):
        g = build_bottleneck_stage_graph(cin=64, width=64, blocks=3)
        assert analysis.count_depth(g) == 9


class TestCalibration:
    def test_enumerates_full_knob_grid(self):
        cal = analysis.calibrate_registry()
        assert len(cal["combos"]) == 4
        assert cal["best"] in cal["combos"]
        for deltas in cal["combos"].values():
            assert len(deltas) == 13

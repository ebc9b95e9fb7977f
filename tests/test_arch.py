from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosnet import analysis, runtime
from cosnet.arch import (CANONICAL_FIRST_LEVEL, CANONICAL_FUSION, REGISTRY,
                         UnitConfig, VariantSpec, build_mini_network,
                         build_network, build_unit_graph, parse_variant_text,
                         registry_lookup, render_variant_text)
from cosnet.errors import ConfigError, VariantLookupError
from cosnet.graph import graph_forward, infer_shapes
from cosnet.tensor import tensor_create


def _variant_lines():
    """One line of variant text: mostly known keys with values that are
    valid, nearly valid or junk, plus blanks, comments and free text."""
    ints = st.integers(-3, 600).map(str)
    tuples = st.lists(st.one_of(ints, st.text(max_size=3)), min_size=3,
                      max_size=5).map(",".join)
    canonical = st.sampled_from(["64,128,256,512", "256,512,1024,2048",
                                 "2,2,2,2", "1, 1 ,1,1", "4"])
    keys = st.sampled_from(["name", "S", "P", "N", "l", "M", "zeta",
                            "stem_channels", "num_classes", "pff",
                            "shallow_proj", "deep_proj", "deep_proj_pooling",
                            "fusion", "first_level_input", "reference"])
    values = st.one_of(canonical, tuples, ints,
                       st.sampled_from(["true", "False", "TRUE", "concat",
                                        "block_sum", "squeezed",
                                        "pre_narrowed", ""]),
                       st.text(max_size=12))
    pairs = st.builds(lambda k, sep, v, note: f"{k}{sep}{v}{note}", keys,
                      st.sampled_from(["=", " = ", "= ", " =", ":"]), values,
                      st.sampled_from(["", "  # note", "#"]))
    return st.one_of(pairs, pairs, pairs, st.just(""), st.text(max_size=20))


def _unit(m=2, n=4, l=2, pff=False, **kw):
    return UnitConfig(in_channels=8, squeeze_channels=8, columns=m,
                      kernels_per_layer=n, column_depth=l, expand_channels=16,
                      pff=pff, **kw)


class TestUnitConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            _unit(m=0)

    def test_rejects_bad_fusion(self):
        with pytest.raises(ConfigError):
            _unit(fusion="mean")

    def test_pff_needs_columns(self):
        with pytest.raises(ConfigError):
            _unit(m=1, pff=True)


class TestVariantSpec:
    def test_squeeze_must_double(self):
        with pytest.raises(ConfigError):
            VariantSpec(name="x", squeeze=(64, 100, 200, 400),
                        expand=(256, 400, 800, 1600))

    def test_expand_must_be_zeta_times_squeeze(self):
        with pytest.raises(ConfigError):
            VariantSpec(name="x", expand=(256, 512, 1024, 1024))

    def test_four_stages_required(self):
        with pytest.raises(ConfigError):
            VariantSpec(name="x", columns=(1, 1, 1))

    @pytest.mark.parametrize("reference", [False, True])
    def test_classes_must_be_positive(self, reference):
        with pytest.raises(ConfigError, match="num_classes"):
            VariantSpec(name="x", num_classes=0, reference=reference)

    def test_canonical_defaults(self):
        spec = VariantSpec(name="x")
        assert spec.fusion == CANONICAL_FUSION
        assert spec.first_level_input == CANONICAL_FIRST_LEVEL


class TestUnitStructure:
    def test_batched_column_is_single_grouped_conv(self):
        g = build_unit_graph(_unit(m=4, n=4, l=3))
        convs = [g.node(n) for n in g.order if g.node(n).kind == "conv"]
        level_convs = [c for c in convs if ".col.level" in c.name]
        assert len(level_convs) == 3
        for c in level_convs:
            assert c.config["params"].groups == 4

    def test_ir_only_when_multiple_columns(self):
        kinds = lambda g: [g.node(n).kind for n in g.order]
        assert "ir" in kinds(build_unit_graph(_unit(m=2)))
        assert "ir" not in kinds(build_unit_graph(_unit(m=1)))

    def test_block_sum_fusion_node(self):
        g = build_unit_graph(_unit(m=2))
        assert any(g.node(n).kind == "block_sum" for n in g.order)
        g1 = build_unit_graph(_unit(m=2, fusion="concat"))
        assert not any(g1.node(n).kind == "block_sum" for n in g1.order)

    def test_shallow_skip_present_on_matching_pair(self):
        g = build_unit_graph(_unit(m=2, n=4, l=4))
        names = [g.node(n).name for n in g.order]
        assert any("skip3_4" in nm for nm in names)
        # the (1,2) pair crosses the stride-2 level, so no skip there
        assert not any("skip1_2" in nm for nm in names)

    def test_no_downsample_keeps_resolution(self):
        g = build_unit_graph(_unit(downsample=False))
        shapes = infer_shapes(g, (1, 8, 8, 8))
        assert shapes[g.output_id][2:] == (8, 8)

    def test_output_shape(self):
        g = build_unit_graph(_unit(m=3, n=4, l=2))
        shapes = infer_shapes(g, (2, 8, 16, 16))
        assert shapes[g.output_id] == (2, 16, 8, 8)

    @pytest.mark.parametrize("downsample", [True, False])
    @pytest.mark.parametrize("knob, marker", [
        ("deep_proj", ".Lp"), ("deep_proj_pooling", ".Lp.pool"),
        ("shallow_proj", ".skip")])
    def test_projection_knob_off(self, knob, marker, downsample):
        # n == squeeze: the (1,2) skip exists when level 1 keeps the stride
        assert getattr(parse_variant_text(f"name = v\n{knob} = false\n"),
                       knob) is False
        cfg = _unit(m=2, n=8, l=4, downsample=downsample)
        on = build_unit_graph(cfg)
        off = build_unit_graph(dc_replace(cfg, **{knob: False}))
        assert any(marker in on.node(n).name for n in on.order)
        assert not any(marker in off.node(n).name for n in off.order)
        side = 4 if downsample else 8
        shape = (2, 8, 8, 8)
        assert infer_shapes(off, shape)[off.output_id] == (2, 16, side, side)
        assert analysis.count_depth(off) == 4 + 2
        assert (analysis.count_params(off)
                == analysis.count_params_enumerated(off))
        rep = runtime.equivalence_check(off, shape, trials=2, tol=1e-5)
        assert rep.passed

    def test_pff_layer_count_even_m(self):
        base = build_unit_graph(_unit(m=4, n=2, l=3))
        pff = build_unit_graph(_unit(m=4, n=2, l=3, pff=True))
        base_convs = sum(1 for n in base.order if base.node(n).kind == "conv")
        pff_convs = sum(1 for n in pff.order if pff.node(n).kind == "conv")
        assert pff_convs == base_convs + 2   # one fusion conv per inner level
        fuse = [pff.node(n) for n in pff.order
                if pff.node(n).kind == "conv" and ".pff" in pff.node(n).name]
        assert all(c.config["params"].groups == 2 for c in fuse)

    def test_pff_odd_m_passes_last_column_through(self):
        g = build_unit_graph(_unit(m=5, n=2, l=2, pff=True))
        kinds = [g.node(n).kind for n in g.order]
        assert "slice" in kinds and "concat" in kinds
        fuse = [g.node(n) for n in g.order
                if g.node(n).kind == "conv" and ".pff" in g.node(n).name]
        assert fuse and fuse[0].config["params"].groups == 2
        assert fuse[0].config["params"].in_channels == 8   # (M-1)*N

    def test_pff_with_identity_fusion_matches_plain_unit(self):
        """With the pairwise-fusion convs set to identity (and their BN made
        a no-op in eval mode), the PFF unit computes the same function as
        the plain unit."""
        cfg0 = _unit(m=4, n=4, l=3)
        cfg1 = _unit(m=4, n=4, l=3, pff=True)
        g0 = build_unit_graph(cfg0, seed=7)
        g1 = build_unit_graph(cfg1, seed=7)
        by_name0 = {g0.node(n).name: n for n in g0.order}
        by_name1 = {g1.node(n).name: n for n in g1.order}
        for name, nid1 in by_name1.items():
            if nid1 not in g1.weights:
                continue
            if ".pff" in name:
                table = g1.weights[nid1]
                if "weight" in table:
                    w = np.zeros_like(table["weight"])
                    group_in = w.shape[1]
                    for o in range(w.shape[0]):
                        w[o, o % group_in, 0, 0] = 1.0
                    table["weight"][...] = w
                else:   # the BN after the fusion conv: undo the eps scale
                    table["gamma"][...] = np.sqrt(1.0 + 1e-5)
                    table["beta"][...] = 0.0
                    table["running_mean"][...] = 0.0
                    table["running_var"][...] = 1.0
            else:
                nid0 = by_name0[name]
                for f, arr in g0.weights[nid0].items():
                    g1.weights[nid1][f][...] = arr
        x = tensor_create((2, 8, 12, 12), "uniform", seed=0, lo=-1, hi=1)
        y0, _ = graph_forward(g0, x)
        y1, _ = graph_forward(g1, x)
        assert float(np.abs(y0.data - y1.data).max()) < 1e-4


class TestNetworks:
    def test_full_network_shape(self):
        spec = registry_lookup("CoSNet-A1")
        g = build_network(spec, init=False)
        shapes = infer_shapes(g, (1, 3, 224, 224))
        assert shapes[g.output_id] == (1, 1000, 1, 1)

    def test_total_stride_32(self):
        g = build_network(registry_lookup("CoSNet-A0"), init=False)
        shapes = infer_shapes(g, (1, 3, 64, 64))
        gap = [n for n in g.order if g.node(n).kind == "gap"][0]
        assert shapes[g.node(gap).inputs[0]][2:] == (2, 2)

    def test_mini_network(self):
        g = build_mini_network()
        shapes = infer_shapes(g, (4, 3, 32, 32))
        assert shapes[g.output_id] == (4, 10, 1, 1)

    def test_reference_network_dispatch(self):
        g = build_network(registry_lookup("ResNet-50-ref"), init=False)
        shapes = infer_shapes(g, (1, 3, 224, 224))
        assert shapes[g.output_id] == (1, 1000, 1, 1)

    def test_every_conv_feeds_exactly_one_batch_norm(self):
        # why convs carry no bias: a batch norm cancels it in train mode and
        # its running mean absorbs it in eval mode, so a builder that adds
        # a bare conv, or one read past its batch norm, must fail here
        graphs = [build_network(registry_lookup(name), init=False)
                  for name in REGISTRY]
        graphs += [build_mini_network(columns=m) for m in (1, 2, 3, 4)]
        graphs += [build_unit_graph(_unit(m=m, pff=pff))
                   for m, pff in ((1, False), (2, False), (2, True),
                                  (3, True))]
        for g in graphs:
            readers = {nid: [] for nid in g.order}
            for nid in g.order:
                for src in g.node(nid).inputs:
                    readers[src].append(g.node(nid).kind)
            convs = [nid for nid in g.order if g.node(nid).kind == "conv"]
            assert convs
            for nid in convs:
                assert readers[nid] == ["bn"], g.node(nid).name


class TestRegistry:
    def test_all_variants_build(self):
        for name in REGISTRY:
            build_network(registry_lookup(name), init=False)

    def test_unknown_variant(self):
        with pytest.raises(VariantLookupError) as exc:
            registry_lookup("CoSNet-Z9")
        assert "CoSNet-A0" in str(exc.value)

    def test_pff_variants_flagged(self):
        assert registry_lookup("CoSNet-B1-PFF").pff
        assert not registry_lookup("CoSNet-B1").pff
        assert "CoSNet-A0-PFF" not in REGISTRY


class TestVariantText:
    def test_round_trip(self):
        for name in ("CoSNet-A1", "CoSNet-C2", "CoSNet-B1-PFF"):
            spec = registry_lookup(name)
            assert parse_variant_text(render_variant_text(spec)) == spec

    def test_comments_and_blanks_ignored(self):
        spec = parse_variant_text(
            "# header\nname = t\n\nM = 2,2,2,2  # columns\n")
        assert spec.columns == (2, 2, 2, 2)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_variant_text("warp = 9\n")

    @pytest.mark.parametrize("text, key, first, second", [
        ("name = x\nname = y\n", "name", 1, 2),
        ("M = 2,2,2,2\n# note\n\nM = 1,1,1,1\n", "M", 1, 4),
        ("pff = false\nzeta = 4\npff = false\n", "pff", 1, 3)],
        ids=["name", "M", "pff"])
    def test_repeated_key(self, text, key, first, second):
        with pytest.raises(ConfigError,
                           match=f"line {second}: {key} is already given "
                                 f"on line {first}"):
            parse_variant_text(text)

    def test_bad_tuple_arity(self):
        with pytest.raises(ConfigError, match="4 values"):
            parse_variant_text("M = 1,2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_variant_text("just words\n")

    @pytest.mark.parametrize("text", ["S = a,b,c,d\n", "zeta = x\n"])
    def test_non_integer_value(self, text):
        with pytest.raises(ConfigError, match="needs integers"):
            parse_variant_text(text)

    def test_bad_bool(self):
        with pytest.raises(ConfigError):
            parse_variant_text("pff = maybe\n")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            parse_variant_text("S = 32,64,128,256\n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_variant_lines(), max_size=12).map("\n".join))
    def test_any_text_is_rejected_or_round_trips(self, text):
        try:
            spec = parse_variant_text(text)
        except ConfigError:
            return
        assert parse_variant_text(render_variant_text(spec)) == spec

"""Builders for columnar-stage units, complete network variants, the
ResNet-50 calibration reference, and the named-variant registry.

A unit is built directly in its batched form: the M parallel columns live as
M channel blocks of one tensor, and every column level is a single grouped
convolution with groups=M.  Input replication feeds each column the full
(squeezed) input, which is what distinguishes the columns from a plain
group-convolution channel split.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError, VariantLookupError
from .graph import Graph, GraphBuilder
from .ops import ConvParams

FUSIONS = ("concat", "block_sum")
FIRST_LEVEL_INPUTS = ("squeezed", "pre_narrowed")

# Canonical knob settings.  Fusion defaults to block_sum: the knob-grid
# calibration (analysis.calibrate_registry) shows it is the only combination
# that keeps every registry variant within the +-25% band of the published
# parameter/FLOP totals; concat overshoots on the widest variant.
CANONICAL_FUSION = "block_sum"
CANONICAL_FIRST_LEVEL = "squeezed"


@dataclass(frozen=True)
class UnitConfig:
    in_channels: int
    squeeze_channels: int           # S: width of the squeeze 1x1
    columns: int                    # M
    kernels_per_layer: int          # N: kernels per column level
    column_depth: int               # l: stacked kxk convs per column
    expand_channels: int            # P: width of the expand 1x1
    kernel_size: int = 3
    downsample: bool = True
    pff: bool = False
    shallow_proj: bool = True
    deep_proj: bool = True
    deep_proj_pooling: bool = True
    fusion: str = CANONICAL_FUSION
    first_level_input: str = CANONICAL_FIRST_LEVEL

    def __post_init__(self):
        for name in ("in_channels", "squeeze_channels", "columns",
                     "kernels_per_layer", "column_depth", "expand_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ConfigError("kernel_size must be an odd integer >= 3")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"fusion must be one of {FUSIONS}")
        if self.first_level_input not in FIRST_LEVEL_INPUTS:
            raise ConfigError(
                f"first_level_input must be one of {FIRST_LEVEL_INPUTS}")
        if self.pff and self.columns < 2:
            raise ConfigError("pairwise fusion requires at least two "
                              f"columns, got M={self.columns}")


@dataclass(frozen=True)
class VariantSpec:
    name: str
    squeeze: tuple = (64, 128, 256, 512)      # S per stage
    expand: tuple = (256, 512, 1024, 2048)    # P per stage
    kernels: tuple = (16, 32, 64, 128)        # N per stage
    depth: tuple = (3, 4, 6, 3)               # l per stage
    columns: tuple = (1, 1, 1, 1)             # M per stage
    zeta: int = 4
    stem_channels: int = 64
    num_classes: int = 1000
    pff: bool = False
    shallow_proj: bool = True
    deep_proj: bool = True
    deep_proj_pooling: bool = True
    fusion: str = CANONICAL_FUSION
    first_level_input: str = CANONICAL_FIRST_LEVEL
    reference: bool = False   # marks the ResNet-50 calibration network

    def __post_init__(self):
        if self.reference:
            return
        for name in ("squeeze", "expand", "kernels", "depth", "columns"):
            if len(getattr(self, name)) != 4:
                raise ConfigError(f"{name} must list exactly four stages")
        if self.squeeze[0] != 64 or any(
                self.squeeze[k] != 2 * self.squeeze[k - 1] for k in (1, 2, 3)):
            raise ConfigError("squeeze widths must start at 64 and double "
                              f"per stage, got {self.squeeze}")
        for s, p in zip(self.squeeze, self.expand):
            if p != self.zeta * s:
                raise ConfigError(
                    f"expand width {p} != zeta*squeeze = {self.zeta}*{s}")
        if self.pff and any(m < 2 for m in self.columns):
            raise ConfigError("PFF variants need at least two columns per "
                              f"stage, got {self.columns}")

    def unit_config(self, stage: int, in_channels: int) -> UnitConfig:
        return UnitConfig(
            in_channels=in_channels,
            squeeze_channels=self.squeeze[stage],
            columns=self.columns[stage],
            kernels_per_layer=self.kernels[stage],
            column_depth=self.depth[stage],
            expand_channels=self.expand[stage],
            downsample=True,
            pff=self.pff,
            shallow_proj=self.shallow_proj,
            deep_proj=self.deep_proj,
            deep_proj_pooling=self.deep_proj_pooling,
            fusion=self.fusion,
            first_level_input=self.first_level_input)


def _conv_bn(b: GraphBuilder, src: int, name: str, cin: int, cout: int,
             kernel=(1, 1), stride=(1, 1), pad=(0, 0), groups=1,
             with_relu=True) -> int:
    conv = b.add("conv", [src], name,
                 params=ConvParams(out_channels=cout, in_channels=cin,
                                   kernel=kernel, stride=stride, pad=pad,
                                   groups=groups))
    bn = b.add("bn", [conv], name + ".bn", channels=cout)
    if with_relu:
        return b.add("relu", [bn], name + ".relu")
    return bn


def build_unit(b: GraphBuilder, cfg: UnitConfig, stage_name: str,
               input_id: int) -> int:
    """Wire one columnar unit into the builder; returns the output node id."""
    m = cfg.columns
    n = cfg.kernels_per_layer
    k = cfg.kernel_size
    pad = (k - 1) // 2
    col_in = (cfg.squeeze_channels if cfg.first_level_input == "squeezed"
              else n)

    cur = _conv_bn(b, input_id, f"{stage_name}.Ls", cfg.in_channels, col_in)
    if m > 1:
        cur = b.add("ir", [cur], f"{stage_name}.ir", m=m)

    level_inputs = {}        # level -> node feeding that level's conv
    level_in_c = {}          # level -> per-column channels at that node
    prev_c = col_in
    for level in range(1, cfg.column_depth + 1):
        level_inputs[level] = cur
        level_in_c[level] = prev_c
        stride = 2 if (level == 1 and cfg.downsample) else 1
        conv = b.add("conv", [cur], f"{stage_name}.col.level{level}",
                     params=ConvParams(out_channels=m * n,
                                       in_channels=m * prev_c,
                                       kernel=(k, k), stride=(stride, stride),
                                       pad=(pad, pad), groups=m))
        bn = b.add("bn", [conv], f"{stage_name}.col.level{level}.bn",
                   channels=m * n)
        # shallow projection: identity skip over the (i, i+1) level pair,
        # added before level i+1's activation; skipped on channel or
        # stride mismatch (no projection weights on shallow skips)
        out_of_pair = bn
        if cfg.shallow_proj and level >= 2 and level % 2 == 0:
            src_level = level - 1
            src = level_inputs[src_level]
            src_stride2 = src_level == 1 and cfg.downsample
            if level_in_c[src_level] == n and not src_stride2:
                out_of_pair = b.add("add", [bn, src],
                                    f"{stage_name}.col.skip{src_level}_{level}")
        cur = b.add("relu", [out_of_pair],
                    f"{stage_name}.col.level{level}.relu")
        prev_c = n
        if cfg.pff and level < cfg.column_depth:
            # pairwise fusion of adjacent columns: one grouped 1x1 with
            # groups = M/2, each group mixing a 2N-channel column pair;
            # with odd M the last column passes through unfused
            if m % 2 == 0:
                cur = _conv_bn(b, cur, f"{stage_name}.pff{level}",
                               m * n, m * n, groups=m // 2)
            else:
                paired = b.add("slice", [cur],
                               f"{stage_name}.pff{level}.pairs",
                               start=0, stop=(m - 1) * n)
                tail = b.add("slice", [cur],
                             f"{stage_name}.pff{level}.tail",
                             start=(m - 1) * n, stop=m * n)
                fused = _conv_bn(b, paired, f"{stage_name}.pff{level}",
                                 (m - 1) * n, (m - 1) * n, groups=(m - 1) // 2)
                cur = b.add("concat", [fused, tail],
                            f"{stage_name}.pff{level}.join")

    if cfg.fusion == "block_sum" and m > 1:
        cur = b.add("block_sum", [cur], f"{stage_name}.fuse", m=m)
        lf_in = n
    else:
        # concat fusion: the batched tensor already stacks the column
        # outputs in block order, so the gather is the tensor itself
        lf_in = m * n
    lf = _conv_bn(b, cur, f"{stage_name}.Lf", lf_in, cfg.expand_channels,
                  with_relu=False)

    if cfg.deep_proj:
        proj_src = input_id
        lp_stride = (1, 1)
        if cfg.deep_proj_pooling:
            pool_stride = 2 if cfg.downsample else 1
            proj_src = b.add("pool_avg", [input_id], f"{stage_name}.Lp.pool",
                             kernel=(3, 3), stride=(pool_stride, pool_stride),
                             pad=(1, 1))
        elif cfg.downsample:
            lp_stride = (2, 2)   # no pooling: the 1x1 must carry the stride
        lp = _conv_bn(b, proj_src, f"{stage_name}.Lp", cfg.in_channels,
                      cfg.expand_channels, stride=lp_stride, with_relu=False)
        lf = b.add("add", [lf, lp], f"{stage_name}.add")
    return b.add("relu", [lf], f"{stage_name}.relu")


def build_unit_graph(cfg: UnitConfig, seed: int = 0,
                     init: bool = True) -> Graph:
    """A standalone graph wrapping a single unit (for tests and checks)."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    out = build_unit(b, cfg, "u1", x)
    out = b.add("output", [out], "output")
    return b.freeze(out, seed=seed, init=init)


def build_network(spec: VariantSpec, seed: int = 0,
                  init: bool = True) -> Graph:
    """Stem + four columnar units + classifier head (total stride 32)."""
    if spec.reference:
        return build_resnet50_reference(num_classes=spec.num_classes,
                                        seed=seed, init=init)
    b = GraphBuilder()
    x = b.add("input", name="input")
    cur = _conv_bn(b, x, "stem", 3, spec.stem_channels,
                   kernel=(3, 3), stride=(2, 2), pad=(1, 1))
    cin = spec.stem_channels
    for stage in range(4):
        cur = build_unit(b, spec.unit_config(stage, cin), f"u{stage + 1}", cur)
        cin = spec.expand[stage]
    cur = b.add("gap", [cur], "head.gap")
    cur = b.add("linear", [cur], "head.fc", in_features=cin,
                out_features=spec.num_classes)
    out = b.add("output", [cur], "output")
    return b.freeze(out, seed=seed, init=init)


def _bottleneck(b: GraphBuilder, src: int, name: str, cin: int, width: int,
                stride: int) -> int:
    cout = 4 * width
    cur = _conv_bn(b, src, f"{name}.conv1", cin, width)
    cur = _conv_bn(b, cur, f"{name}.conv2", width, width, kernel=(3, 3),
                   stride=(stride, stride), pad=(1, 1))
    cur = _conv_bn(b, cur, f"{name}.conv3", width, cout, with_relu=False)
    if cin != cout or stride != 1:
        skip = _conv_bn(b, src, f"{name}.proj", cin, cout,
                        stride=(stride, stride), with_relu=False)
    else:
        skip = src
    cur = b.add("add", [cur, skip], f"{name}.add")
    return b.add("relu", [cur], f"{name}.relu")


def build_bottleneck_stage(b: GraphBuilder, src: int, name: str, cin: int,
                           width: int, blocks: int, stride: int) -> int:
    cur = src
    for i in range(blocks):
        cur = _bottleneck(b, cur, f"{name}.block{i + 1}", cin, width,
                          stride if i == 0 else 1)
        cin = 4 * width
    return cur


def build_bottleneck_stage_graph(cin: int = 64, width: int = 64,
                                 blocks: int = 3, seed: int = 0) -> Graph:
    """A standalone residual stage (depth-comparison baseline)."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    out = build_bottleneck_stage(b, x, "stage", cin, width, blocks, stride=1)
    out = b.add("output", [out], "output")
    return b.freeze(out, seed=seed)


def build_resnet50_reference(num_classes: int = 1000, seed: int = 0,
                             init: bool = True) -> Graph:
    """Standard bottleneck ResNet-50 built from this package's ops; used to
    calibrate the parameter and FLOP counters."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    cur = _conv_bn(b, x, "stem", 3, 64, kernel=(7, 7), stride=(2, 2),
                   pad=(3, 3))
    cur = b.add("pool_max", [cur], "stem.pool", kernel=(3, 3), stride=(2, 2),
                pad=(1, 1))
    cin = 64
    for i, (width, blocks) in enumerate(
            zip((64, 128, 256, 512), (3, 4, 6, 3))):
        cur = build_bottleneck_stage(b, cur, f"stage{i + 1}", cin, width,
                                     blocks, stride=1 if i == 0 else 2)
        cin = 4 * width
    cur = b.add("gap", [cur], "head.gap")
    cur = b.add("linear", [cur], "head.fc", in_features=2048,
                out_features=num_classes)
    out = b.add("output", [cur], "output")
    return b.freeze(out, seed=seed, init=init)


def build_mini_network(num_classes: int = 10, columns: int = 2,
                       kernels: int = 8, column_depth: int = 2,
                       seed: int = 0) -> Graph:
    """Three-stage desk-scale network for 32x32 training experiments."""
    b = GraphBuilder()
    x = b.add("input", name="input")
    cur = _conv_bn(b, x, "stem", 3, 16, kernel=(3, 3), stride=(2, 2),
                   pad=(1, 1))
    cin = 16
    for stage, (s, p) in enumerate(zip((16, 32, 64), (32, 64, 128))):
        cfg = UnitConfig(in_channels=cin, squeeze_channels=s, columns=columns,
                         kernels_per_layer=kernels, column_depth=column_depth,
                         expand_channels=p)
        cur = build_unit(b, cfg, f"u{stage + 1}", cur)
        cin = p
    cur = b.add("gap", [cur], "head.gap")
    cur = b.add("linear", [cur], "head.fc", in_features=cin,
                out_features=num_classes)
    out = b.add("output", [cur], "output")
    return b.freeze(out, seed=seed)


def _variant(name, kernels, depth, columns, **kw) -> VariantSpec:
    return VariantSpec(name=name, kernels=kernels, depth=depth,
                       columns=columns, **kw)


_BASE_VARIANTS = {
    "CoSNet-A0": _variant("CoSNet-A0", (16, 32, 64, 128), (3, 4, 6, 3),
                          (1, 1, 1, 1)),
    "CoSNet-A1": _variant("CoSNet-A1", (16, 32, 64, 128), (3, 4, 6, 3),
                          (4, 4, 4, 4)),
    "CoSNet-B0": _variant("CoSNet-B0", (32, 64, 128, 256), (3, 4, 6, 3),
                          (4, 4, 4, 4)),
    "CoSNet-B1": _variant("CoSNet-B1", (32, 64, 128, 256), (3, 4, 6, 3),
                          (5, 5, 5, 5)),
    "CoSNet-B2": _variant("CoSNet-B2", (32, 64, 128, 256), (3, 4, 6, 3),
                          (4, 4, 16, 4)),
    "CoSNet-C1": _variant("CoSNet-C1", (48, 80, 144, 272), (4, 4, 6, 4),
                          (4, 4, 4, 4)),
    "CoSNet-C2": _variant("CoSNet-C2", (48, 80, 144, 272), (3, 4, 6, 3),
                          (6, 6, 16, 6)),
}

REGISTRY = dict(_BASE_VARIANTS)
for _name, _spec in _BASE_VARIANTS.items():
    if _name == "CoSNet-A0":
        continue   # single-column variant: nothing to fuse pairwise
    REGISTRY[f"{_name}-PFF"] = replace(_spec, name=f"{_name}-PFF", pff=True)
REGISTRY["ResNet-50-ref"] = VariantSpec(name="ResNet-50-ref", reference=True)

# Published totals: depth / params / multiply-accumulates at 224x224.
# Non-PFF rows follow the appendix configuration table (its B1 line differs
# slightly from the main-table one); PFF rows come from the main table.
PAPER_REFERENCE = {
    "CoSNet-A0": (26, 8.8e6, 1.25e9),
    "CoSNet-A1": (26, 12.1e6, 1.77e9),
    "CoSNet-B0": (26, 19.8e6, 3.05e9),
    "CoSNet-B1": (26, 22.6e6, 3.51e9),
    "CoSNet-B2": (26, 30.0e6, 5.10e9),
    "CoSNet-C1": (28, 24.4e6, 4.12e9),
    "CoSNet-C2": (26, 38.9e6, 7.09e9),
    "CoSNet-A1-PFF": (38, 12.7e6, 1.93e9),
    "CoSNet-B0-PFF": (38, 21.8e6, 3.44e9),
    "CoSNet-B1-PFF": (38, 25.6e6, 4.08e9),
    "CoSNet-B2-PFF": (38, 34.3e6, 5.91e9),
    "CoSNet-C1-PFF": (42, 27.3e6, 4.75e9),
    "CoSNet-C2-PFF": (38, 44.5e6, 8.27e9),
    "ResNet-50-ref": (50, 25.5e6, 4.12e9),
}


def registry_lookup(name: str) -> VariantSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise VariantLookupError(name, sorted(REGISTRY)) from None


# ---------------------------------------------------------------------------
# line-oriented `key = value` variant text format

_TUPLE_KEYS = {"S": "squeeze", "P": "expand", "N": "kernels", "l": "depth",
               "M": "columns"}
_INT_KEYS = {"zeta": "zeta", "stem_channels": "stem_channels",
             "num_classes": "num_classes"}
_BOOL_KEYS = {"pff": "pff", "shallow_proj": "shallow_proj",
              "deep_proj": "deep_proj",
              "deep_proj_pooling": "deep_proj_pooling"}
_ENUM_KEYS = {"fusion": ("fusion", FUSIONS),
              "first_level_input": ("first_level_input", FIRST_LEVEL_INPUTS)}


def _parse_int(lineno: int, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} needs integers, "
                          f"got {text!r}") from None


def parse_variant_text(text: str) -> VariantSpec:
    """Parse the `key = value` variant format (4-tuples comma separated)."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "name":
            fields["name"] = value
        elif key in _TUPLE_KEYS:
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 4:
                raise ConfigError(f"line {lineno}: {key} needs 4 values")
            fields[_TUPLE_KEYS[key]] = tuple(_parse_int(lineno, key, p)
                                             for p in parts)
        elif key in _INT_KEYS:
            fields[_INT_KEYS[key]] = _parse_int(lineno, key, value)
        elif key in _BOOL_KEYS:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"line {lineno}: {key} must be true/false")
            fields[_BOOL_KEYS[key]] = value.lower() == "true"
        elif key in _ENUM_KEYS:
            attr, allowed = _ENUM_KEYS[key]
            if value not in allowed:
                raise ConfigError(f"line {lineno}: {key} must be one of "
                                  f"{allowed}")
            fields[attr] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if "name" not in fields:
        fields["name"] = "custom"
    try:
        return VariantSpec(**fields)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def render_variant_text(spec: VariantSpec) -> str:
    """The text :func:`parse_variant_text` reads back, one line per key of
    its tables; a reference network is its name alone."""
    lines = [f"name = {spec.name}"]
    if not spec.reference:
        lines += [f"{k} = {','.join(map(str, getattr(spec, a)))}"
                  for k, a in _TUPLE_KEYS.items()]
        lines += [f"{k} = {getattr(spec, a)}" for k, a in _INT_KEYS.items()]
        lines += [f"{k} = {str(getattr(spec, a)).lower()}"
                  for k, a in _BOOL_KEYS.items()]
        lines += [f"{k} = {getattr(spec, a)}"
                  for k, (a, _) in _ENUM_KEYS.items()]
    return "\n".join(lines) + "\n"

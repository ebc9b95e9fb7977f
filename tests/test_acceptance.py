"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and emits a single
``ACCEPTANCE n ... PASS/FAIL`` line on the terminal (bypassing capture), then
asserts it.
"""

import time

import numpy as np
import pytest

from cosnet import analysis, runtime, training
from cosnet.arch import (PAPER_REFERENCE, REGISTRY, UnitConfig,
                         build_bottleneck_stage_graph, build_mini_network,
                         build_network, build_unit_graph, registry_lookup)
from cosnet.graph import GraphBuilder, grad_check
from cosnet.ops import ConvParams, conv2d_forward, channel_concat, \
    input_replicate
from cosnet.tensor import Tensor, set_deterministic, tensor_create


def _emit(capsys, num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_depth_reproduction(capsys):
    t0 = time.time()
    mismatches = []
    for name, (depth, _, _) in PAPER_REFERENCE.items():
        g = build_network(registry_lookup(name), init=False)
        got = analysis.count_depth(g)
        if got != depth:
            mismatches.append((name, got, depth))
    elapsed = time.time() - t0
    _emit(capsys, 1, "depth reproduction, exact, all variants",
          not mismatches and elapsed < 1.0,
          f"{len(PAPER_REFERENCE)} variants in {elapsed:.2f}s")


def test_criterion_02_counter_calibration(capsys):
    t0 = time.time()
    g = build_network(registry_lookup("ResNet-50-ref"), init=False)
    params = analysis.count_params(g)
    macs = analysis.count_flops(g, (1, 3, 224, 224))
    dp = abs(params - 25.5e6) / 25.5e6
    df = abs(macs - 4.12e9) / 4.12e9
    elapsed = time.time() - t0
    _emit(capsys, 2, "reference-network counter calibration",
          dp <= 0.02 and df <= 0.03 and elapsed < 1.0,
          f"params {dp:+.2%} of 25.5M, macs {df:+.2%} of 4.12B")


def test_criterion_03_scale_reproduction(capsys):
    t0 = time.time()
    cal = analysis.calibrate_registry(input_res=224)
    assert len(cal["combos"]) == 4 and "best" in cal
    worst = 0.0
    for name, (depth, params, macs) in PAPER_REFERENCE.items():
        if name.startswith("ResNet"):
            continue
        g = build_network(registry_lookup(name), init=False)
        dp = abs(analysis.count_params(g) - params) / params
        df = abs(analysis.count_flops(g, (1, 3, 224, 224)) - macs) / macs
        worst = max(worst, dp, df)
    elapsed = time.time() - t0
    _emit(capsys, 3, "scale reproduction within ±25% + knob-grid report",
          worst <= 0.25 and elapsed < 5.0,
          f"worst |delta| {worst:.1%}, best combo {cal['best']}, "
          f"{elapsed:.2f}s")


def test_criterion_04_stage_depth_reduction(capsys):
    bottleneck = build_bottleneck_stage_graph(cin=64, width=64, blocks=3)
    unit = build_unit_graph(UnitConfig(
        in_channels=64, squeeze_channels=64, columns=4, kernels_per_layer=16,
        column_depth=3, expand_channels=256), init=False)
    db = analysis.count_depth(bottleneck)
    du = analysis.count_depth(unit)
    _emit(capsys, 4, "stage-level depth reduction, exact",
          db == 9 and du == 5, f"bottleneck {db} vs unit {du}")


def test_criterion_05_batched_unrolled_equivalence(capsys):
    t0 = time.time()
    trials = 0
    worst = 0.0
    ok = True
    for m in (2, 4, 5, 16):
        for n in (2, 8):
            for l in (1, 3):
                cfg = UnitConfig(in_channels=8, squeeze_channels=8,
                                 columns=m, kernels_per_layer=n,
                                 column_depth=l, expand_channels=16)
                g = build_unit_graph(cfg, seed=m + n + l)
                rep = runtime.equivalence_check(g, (2, 8, 32, 32), trials=2,
                                                seed=m * 100 + n * 10 + l,
                                                tol=1e-5)
                trials += len(rep.trial_diffs)
                worst = max(worst, rep.max_diff())
                ok = ok and rep.passed
    g1 = build_unit_graph(UnitConfig(
        in_channels=8, squeeze_channels=8, columns=1, kernels_per_layer=8,
        column_depth=3, expand_channels=16), seed=0)
    rep1 = runtime.equivalence_check(g1, (2, 8, 32, 32), trials=2, seed=0)
    elapsed = time.time() - t0
    _emit(capsys, 5, "batched ≡ unrolled execution",
          ok and trials >= 20 and worst <= 1e-5
          and rep1.max_diff() == 0.0 and elapsed < 30.0,
          f"{trials} trials, worst diff {worst:.2g}, "
          f"single-column diff {rep1.max_diff():g}, {elapsed:.1f}s")


def test_criterion_06_replication_vs_channel_split(capsys):
    m, c, n, hw = 2, 4, 3, 8
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, m * c, hw, hw)).astype(np.float32))
    w_full = rng.normal(size=(m * n, m * c, 3, 3)).astype(np.float32)

    # replicated path: every column convolves the full input
    rep = input_replicate(x, m)
    p_rep = ConvParams(out_channels=m * n, in_channels=m * m * c,
                       kernel=(3, 3), pad=(1, 1), groups=m)
    y_rep = conv2d_forward(rep, w_full, None, p_rep)

    # same per-column kernels applied as independent dense convs
    p_col = ConvParams(out_channels=n, in_channels=m * c, kernel=(3, 3),
                       pad=(1, 1))
    cols = [conv2d_forward(x, w_full[gi * n:(gi + 1) * n], None, p_col)
            for gi in range(m)]
    y_cols = channel_concat(cols)
    agree = float(np.abs(y_rep.data - y_cols.data).max())

    # channel-split semantics: each column only sees its slice of x
    w_split = np.stack([w_full[gi * n + o, gi * c:(gi + 1) * c]
                        for gi in range(m) for o in range(n)])
    p_split = ConvParams(out_channels=m * n, in_channels=m * c,
                         kernel=(3, 3), pad=(1, 1), groups=m)
    y_split = conv2d_forward(x, w_split, None, p_split)
    differ = float(np.abs(y_rep.data - y_split.data).max())

    _emit(capsys, 6, "replication vs channel-split group conv",
          agree <= 1e-5 and differ > 1e-3,
          f"replicated-vs-stacked {agree:.2g}, "
          f"replicated-vs-split {differ:.2g}")


def test_criterion_07_gradient_correctness(capsys):
    t0 = time.time()
    reports = []

    # a graph exercising the head-side ops: pooling, gap, linear
    b = GraphBuilder()
    x = b.add("input")
    cv = b.add("conv", [x], "c",
               params=ConvParams(out_channels=3, in_channels=2,
                                 kernel=(3, 3), pad=(1, 1), has_bias=True))
    bn = b.add("bn", [cv], "bn", channels=3)
    r = b.add("relu", [bn], "r")
    pm = b.add("pool_max", [r], "pm", kernel=(2, 2), stride=(2, 2),
               pad=(0, 0))
    pa = b.add("pool_avg", [pm], "pa", kernel=(2, 2), stride=(1, 1),
               pad=(0, 0))
    gp = b.add("gap", [pa], "gap")
    fc = b.add("linear", [gp], "fc", in_features=3, out_features=2)
    out = b.add("output", [fc])
    reports.append(("head ops", grad_check(b.freeze(out, seed=1),
                                           (2, 2, 6, 6), seed=1)))

    # full mini units with deep projection: PFF off, PFF on (even and odd M)
    for label, m, pff in (("unit", 2, False), ("unit+pff", 2, True),
                          ("unit+pff odd M", 3, True)):
        cfg = UnitConfig(in_channels=4, squeeze_channels=4, columns=m,
                         kernels_per_layer=2, column_depth=2,
                         expand_channels=8, pff=pff)
        g = build_unit_graph(cfg, seed=2)
        reports.append((label, grad_check(g, (2, 4, 6, 6), seed=2,
                                          eps=1e-3, tol=1e-3)))
    elapsed = time.time() - t0
    worst = max(r.max_error() for _, r in reports)
    ok = all(r.passed for _, r in reports) and elapsed < 60.0
    _emit(capsys, 7, "gradient correctness (ops + mini units, PFF on/off)",
          ok, f"worst rel err {worst:.2g}, {elapsed:.1f}s")


def test_criterion_08_analyzer_self_consistency(capsys):
    mismatch = []
    for name in REGISTRY:
        g = build_network(registry_lookup(name), seed=0)
        formula = analysis.count_params(g)
        enumerated = analysis.count_params_enumerated(g)
        rep = analysis.emit_report(g, (1, 3, 64, 64))
        if formula != enumerated or rep.total_params != formula \
                or rep.total_params != sum(r.params for r in rep.rows) \
                or rep.total_macs != sum(r.macs for r in rep.rows):
            mismatch.append(name)
        del g
    _emit(capsys, 8, "parameter formula == weight enumeration, all variants",
          not mismatch, f"{len(REGISTRY)} variants")


def test_criterion_09_toy_learnability(capsys):
    t0 = time.time()
    ds = training.synth_dataset(count=250, seed=0)
    g = build_mini_network(seed=0)
    hist = training.train(g, ds, training.TrainConfig(
        epochs=15, batch_size=32, lr=0.05, seed=0))
    best = max(h.accuracy for h in hist)
    elapsed = time.time() - t0

    def _run_det():
        net = build_mini_network(seed=0)
        training.train(net, ds, training.TrainConfig(
            epochs=2, batch_size=32, lr=0.05, seed=0))
        return net

    set_deterministic(True)
    try:
        w1 = _run_det().weights
        w2 = _run_det().weights
    finally:
        set_deterministic(False)
    bitwise = all(np.array_equal(w1[nid][f], w2[nid][f])
                  for nid in w1 for f in w1[nid])
    _emit(capsys, 9, "toy learnability + deterministic rerun",
          best >= 0.90 and len(hist) <= 30 and elapsed < 600 and bitwise,
          f"best train acc {best:.3f} in {len(hist)} epochs, "
          f"{elapsed:.0f}s, bitwise rerun {bitwise}")


def test_criterion_10_serialization(capsys, tmp_path):
    ds = training.synth_dataset(count=16, seed=2)
    dpath = tmp_path / "d.bin"
    training.save_dataset(dpath, ds)
    ds2 = training.load_dataset(dpath)
    ds_ok = np.array_equal(ds.images, ds2.images) \
        and np.array_equal(ds.labels, ds2.labels)

    g = build_mini_network(seed=3)
    cpath = tmp_path / "c.bin"
    training.save_checkpoint(cpath, g, "name = mini\n")
    g2 = build_mini_network(seed=4)
    training.load_checkpoint(cpath, g2)
    ck_ok = all(np.array_equal(g.weights[nid][f], g2.weights[nid][f])
                for nid in g.weights for f in g.weights[nid])

    blob = bytearray(cpath.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    cpath.write_bytes(bytes(blob))
    try:
        training.load_checkpoint(cpath)
        corrupt_ok = False
    except Exception:
        corrupt_ok = True

    rep = analysis.emit_report(g, (1, 3, 32, 32))
    csv_ok = analysis.parse_csv(analysis.render_csv(rep)) == rep.rows

    _emit(capsys, 10, "serialization round trips + corruption detection",
          ds_ok and ck_ok and corrupt_ok and csv_ok,
          f"dataset {ds_ok}, checkpoint {ck_ok}, corruption {corrupt_ok}, "
          f"csv {csv_ok}")


def test_criterion_11_batched_minimal_branching(capsys):
    # single-column CoSNet-A0 is excluded: its batched and unrolled plans
    # are step-identical by construction, so the peaks tie rather than
    # strictly decrease
    failures = []
    for name in REGISTRY:
        spec = registry_lookup(name)
        if spec.reference or all(m == 1 for m in spec.columns):
            continue
        g = build_network(spec, init=False)
        pb = analysis.branch_stats(runtime.plan(g, "batched"))
        pu = analysis.branch_stats(runtime.plan(g, "unrolled"))
        if not pb["peak_live"] < pu["peak_live"]:
            failures.append((name, pb["peak_live"], pu["peak_live"]))
    _emit(capsys, 11, "batched build minimizes concurrent tensors",
          not failures, "all multi-column variants strictly lower")

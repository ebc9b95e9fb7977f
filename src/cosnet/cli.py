"""Command-line front end.

Data goes to stdout, logs to stderr.  Exit codes: 0 success, 1 a check or
run failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from . import analysis, arch, graph as graphmod, runtime, training
from .errors import ConfigError, CosnetError, VariantLookupError
from .tensor import deterministic_enabled, set_deterministic


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_model(name: str, seed: int = 0, init: bool = True):
    """Resolve a model argument: 'mini', a registry name, or a variant file.

    Returns (graph, spec_text)."""
    if name == "mini":
        return arch.build_mini_network(seed=seed), "name = mini\n"
    if os.path.exists(name):
        with open(name, encoding="utf-8-sig") as f:
            try:
                text = f.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{name}: not UTF-8 text ({exc})") from None
        spec = arch.parse_variant_text(text)
    else:
        spec = arch.registry_lookup(name)
    return (arch.build_network(spec, seed=seed, init=init),
            arch.render_variant_text(spec))


def _check_sizes(*flags):
    """Refuse sizes that cannot hold an image, given (flag, value) pairs."""
    for flag, value in flags:
        if value < 1:
            raise ConfigError(f"{flag} must be positive, got {value}")


def _input_shape(batch: int, input_res: int):
    """(batch, 3, res, res), refusing sizes that cannot hold an image."""
    _check_sizes(("--batch", batch), ("--input-res", input_res))
    return (batch, 3, input_res, input_res)


def _add_model_arg(p, **kwargs):
    p.add_argument("model", help="'mini', a registry variant name, or a "
                                 "path to a variant text file", **kwargs)


def cmd_describe(args) -> int:
    g, _ = _load_model(args.model, init=False)
    shape = None if args.input_res is None else _input_shape(1, args.input_res)
    print(graphmod.describe(g, shape))
    return 0


def cmd_analyze(args) -> int:
    shape = _input_shape(1, args.input_res)
    if args.calibrate:
        cal = analysis.calibrate_registry(args.input_res)
        for combo, deltas in cal["combos"].items():
            print(f"fusion={combo[0]} first_level_input={combo[1]} "
                  f"worst |delta| {cal['worst'][combo]:+.1%}")
            for name, (dp, df) in deltas.items():
                print(f"  {name:<18} params {dp:+.1%}  macs {df:+.1%}")
        print(f"best combo: fusion={cal['best'][0]} "
              f"first_level_input={cal['best'][1]}")
        return 0
    g, _ = _load_model(args.model, init=False)
    paper_row = arch.PAPER_REFERENCE.get(args.model) \
        if args.compare_reference else None
    rep = analysis.emit_report(g, shape, paper_row=paper_row)
    if args.format == "csv":
        sys.stdout.write(analysis.render_csv(rep))
    else:
        print(analysis.render_table(rep))
    return 0


def cmd_verify(args) -> int:
    shape = _input_shape(args.batch, args.input_res)
    g, _ = _load_model(args.model, seed=args.seed)
    rep = runtime.equivalence_check(g, shape, trials=args.trials,
                                    seed=args.seed, tol=args.tol)
    for i, (d, s) in enumerate(zip(rep.trial_diffs, rep.trial_scales)):
        _log(f"trial {i}: max |batched - unrolled| = {d:.3g}, "
             f"largest |output| {s:.3g}")
    print(f"plans identical: {rep.identical_plans}")
    print(f"largest |output| {rep.max_scale():.3g}, max diff relative to "
          f"it {rep.max_rel_diff():.3g}")
    print(f"max diff {rep.max_diff():.3g} (tol {rep.tol:g}): "
          f"{'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def cmd_gradcheck(args) -> int:
    _check_sizes(("--size", args.size))
    cfg = arch.UnitConfig(
        in_channels=args.in_channels, squeeze_channels=args.squeeze,
        columns=args.columns, kernels_per_layer=args.kernels,
        column_depth=args.column_depth, expand_channels=args.expand,
        downsample=args.downsample, pff=args.pff)
    g = arch.build_unit_graph(cfg, seed=args.seed)
    rep = graphmod.grad_check(g, (2, args.in_channels, args.size, args.size),
                              seed=args.seed, eps=args.eps, tol=args.tol)
    for name, err in sorted(rep.per_param.items()):
        _log(f"{name}: {err:.3g}")
    _log(f"input: {rep.input_error:.3g}")
    print(f"max relative error {rep.max_error():.3g} (tol {rep.tol:g}): "
          f"{'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def cmd_train(args) -> int:
    previous = deterministic_enabled()
    if args.deterministic:
        set_deterministic(True)
    try:
        g, spec_text = _load_model(args.model, seed=args.seed)
        if args.dataset:
            ds = training.load_dataset(args.dataset)
        else:
            ds = training.synth_dataset(count=args.synth_count, seed=args.seed)
        config = training.TrainConfig(
            epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
            momentum=args.momentum, weight_decay=args.weight_decay,
            seed=args.seed, lr_schedule=args.lr_schedule)
        history = training.train(g, ds, config, log=_log)
        final = history[-1]
        line = f"train loss {final.loss:.4f}  train acc {final.accuracy:.3f}"
        if len(ds.test_idx):
            test_loss, test_acc = training.evaluate(
                g, ds.images[ds.test_idx], ds.labels[ds.test_idx])
            line += f"  test loss {test_loss:.4f}  test acc {test_acc:.3f}"
        print(line)
        if args.out:
            training.save_checkpoint(args.out, g, spec_text)
            _log(f"checkpoint written to {args.out}")
        return 0
    finally:
        set_deterministic(previous)


def cmd_bench(args) -> int:
    shape = _input_shape(args.batch, args.input_res)
    if args.all:
        return _bench_all(args, shape)
    g, _ = _load_model(args.model, seed=0)
    p = runtime.plan(g, args.mode)
    stats = runtime.bench(p, shape, warmup=args.warmup, iters=args.iters)
    if args.json:
        print(json.dumps(stats))
    else:
        print(f"{args.model} mode={stats['mode']} steps={stats['steps']} "
              f"mean {stats['mean_ms']:.1f}ms p50 {stats['p50_ms']:.1f}ms "
              f"p95 {stats['p95_ms']:.1f}ms over {stats['iters']} iters")
    return 0


# bench --all's control: its two plans are step-identical
BENCH_CONTROL = "ResNet-50-ref"


def _pair_ms(variant, control, shape, warmup: int, control_first: bool):
    """(variant ms, control ms) of one :func:`runtime.bench` execute of
    each plan, run back to back in the order ``control_first`` gives."""
    first, second = (control, variant) if control_first else (variant,
                                                              control)
    a, b = (runtime.bench(p, shape, iters=1, warmup=warmup)["p50_ms"]
            for p in (first, second))
    return (b, a) if control_first else (a, b)


def _bench_all(args, shape) -> int:
    """Every registry variant in both modes, each timed in pairs with the
    control, :data:`BENCH_CONTROL`.  In each of ``--iters`` repeats, per
    mode, one execute of the variant's plan runs next to one of the
    control's plan in that mode, the mode order and the order within the
    pair alternating between repeats.  Reported per mode: the median ms,
    the GMAC/s it reaches on the MACs of ``analysis.count_flops``, and the
    median of the per-pair ratio of variant to control ms, in which drift
    over the minutes between variants cancels.  Only the control and one
    variant are built at a time."""
    _check_sizes(("--iters", args.iters))
    control = arch.build_network(arch.REGISTRY[BENCH_CONTROL], seed=0)
    control_plans = {mode: runtime.plan(control, mode)
                     for mode in runtime.MODES}
    variants = {}
    for name, spec in arch.REGISTRY.items():
        g = (control if name == BENCH_CONTROL
             else arch.build_network(spec, seed=0))
        macs = analysis.count_flops(g, shape)
        plans = {mode: runtime.plan(g, mode) for mode in runtime.MODES}
        times = {mode: [] for mode in plans}
        ratios = {mode: [] for mode in plans}
        for r in range(args.iters):
            flip = r % 2 == 1
            for mode in (runtime.MODES[::-1] if flip else runtime.MODES):
                ms, ms_control = _pair_ms(
                    plans[mode], control_plans[mode], shape,
                    args.warmup if r == 0 else 0, control_first=flip)
                times[mode].append(ms)
                ratios[mode].append(ms / ms_control)
        row = {"macs": macs}
        for mode, ms in times.items():
            med = statistics.median(ms)
            row[mode] = {"steps": plans[mode].num_steps(), "median_ms": med,
                         "gmac_s": macs / med / 1e6,
                         "ratio_to_control": statistics.median(ratios[mode])}
        variants[name] = row
        g = plans = None   # free this variant before building the next
        _log(f"{name}: batched {row['batched']['median_ms']:.1f}ms "
             f"({row['batched']['ratio_to_control']:.2f}x control) unrolled "
             f"{row['unrolled']['median_ms']:.1f}ms "
             f"({row['unrolled']['ratio_to_control']:.2f}x control)")
    if args.json:
        print(json.dumps({"batch": args.batch, "input_res": args.input_res,
                          "iters": args.iters, "control": BENCH_CONTROL,
                          "variants": variants}))
        return 0
    print(f"ratios are per-pair medians against {BENCH_CONTROL}")
    print(f"{'variant':<16} {'MMAC':>8}  {'batched ms':>10} {'ratio':>6} "
          f"{'GMAC/s':>7}  {'unrolled ms':>11} {'ratio':>6} {'GMAC/s':>7}")
    for name, row in variants.items():
        b, u = row["batched"], row["unrolled"]
        print(f"{name:<16} {row['macs'] / 1e6:>8.1f}  {b['median_ms']:>10.2f} "
              f"{b['ratio_to_control']:>6.2f} {b['gmac_s']:>7.2f}  "
              f"{u['median_ms']:>11.2f} {u['ratio_to_control']:>6.2f} "
              f"{u['gmac_s']:>7.2f}")
    return 0


def cmd_export(args) -> int:
    if args.model == "mini":
        raise ConfigError("the mini network has no variant text form")
    _, text = _load_model(args.model, init=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        _log(f"variant text written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cosnet",
        description="Columnar stage network construction kit, reference "
                    "engine and analyzer")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print the layer graph")
    _add_model_arg(p)
    p.add_argument("--input-res", type=int, default=None,
                   help="also print per-layer output shapes at this input "
                        "resolution")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("analyze", help="depth / parameter / MAC report")
    p.add_argument("model", nargs="?", default=None)
    p.add_argument("--input-res", type=int, default=224)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--compare-reference", action="store_true",
                   help="append deltas against the published totals")
    p.add_argument("--calibrate", action="store_true",
                   help="sweep both architecture knobs over the whole "
                        "registry instead of analyzing one model")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify",
                       help="check batched vs unrolled execution agreement")
    _add_model_arg(p)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--input-res", type=int, default=32)
    p.add_argument("--batch", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check on a small unit")
    p.add_argument("--in-channels", type=int, default=4)
    p.add_argument("--squeeze", type=int, default=4)
    p.add_argument("--expand", type=int, default=8)
    p.add_argument("--columns", type=int, default=2)
    p.add_argument("--kernels", type=int, default=2)
    p.add_argument("--column-depth", type=int, default=2)
    p.add_argument("--pff", action="store_true")
    p.add_argument("--no-downsample", dest="downsample", action="store_false")
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train on a raw or synthetic dataset")
    _add_model_arg(p)
    p.add_argument("--dataset", help="raw dataset file (default: synthetic)")
    p.add_argument("--synth-count", type=int, default=250)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--lr-schedule", choices=training.LR_SCHEDULES,
                   default="constant")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="bitwise-reproducible (slower) matmul path")
    p.add_argument("--out", help="write a checkpoint here when done")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="wall-clock one model configuration, "
                                     "or with --all every registry variant")
    _add_model_arg(p, nargs="?")
    p.add_argument("--all", action="store_true",
                   help="time every registry variant in both modes "
                        "(--mode is ignored)")
    p.add_argument("--mode", choices=runtime.MODES, default="batched")
    p.add_argument("--input-res", type=int, default=32)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--warmup", type=int, default=1)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export", help="write a model's variant text")
    _add_model_arg(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "analyze" and not args.calibrate and args.model is None:
        ap.error("analyze needs a model (or --calibrate)")
    if args.command == "bench" and (args.model is None) != args.all:
        ap.error("bench needs a model or --all, not both")
    try:
        return args.func(args)
    except (ConfigError, VariantLookupError) as exc:
        _log(f"error: {exc}")
        return 2
    except CosnetError as exc:
        _log(f"error: {exc}")
        return 1
    except OSError as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

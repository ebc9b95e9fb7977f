"""The benchmark's workloads: one user session each, timed from outside.

Every workload runs the same session on its own models and inputs:

* set-up: synthesise the grating data set, build the ``mini`` training
  network, build the inference network and plan it in both modes;
* whole rounds, repeated until the run's seconds are spent, of
  - one fast-mode training run of the ``mini``: until the criterion-9
    accuracy is reached, or for a fixed number of epochs,
  - ``EVAL_CALLS`` calls of ``training.evaluate`` on the held-out split,
  - ``Workload.exec_calls`` calls of ``runtime.execute`` per mode,
  - one checkpoint round trip,
  - two deterministic training runs.

The workloads differ in their models and data.  ``infer-columns`` infers
with CoSNet-C2-PFF (M up to 16, grouped 1x1 pairwise fusion) and fine-tunes
a 4-column ``mini`` on a small set; ``infer-single`` infers with CoSNet-A0
(M=1, so both modes lower to the same plan) and fine-tunes a 1-column
``mini``; ``train-mini`` trains the default 2-column ``mini`` on the full
set to the criterion and infers with the network it trained.  In the first
two, inference takes about half of each round; in the last, training takes
most of it.

Every output is checked against a computation made apart from the engine
(the float64 reference, a nearest-centroid classifier) or against a property
the method must have (bitwise-equal modes for a single-column plan,
bitwise-equal deterministic reruns, an exact checkpoint round trip).
"""

from __future__ import annotations

import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cosnet
from cosnet import analysis, arch, graph, runtime, tensor, training

import reference

SETUP_REPEATS = 3      # set-ups per run at least, and as many more as fit
SETUP_SECONDS = 1.0    # in this time; setup_s is their median
EVAL_CALLS = 40        # evaluate calls per round
BURSTS = 4             # execute and evaluate calls come in this many bursts
MIN_ROUNDS = 2
DET_EPOCHS = 1         # epochs of each deterministic run
REL_TOL = 1e-5         # engine vs float64 reference, share of max |output|
INFER_SHAPE = (2, 3, 64, 64)
MINI_INFER_BATCH = 8   # held-out images per execute on the trained mini
TRAIN_CONFIG = dict(batch_size=32, lr=0.05)
OUT_DIR = Path(__file__).resolve().parent / "out"

_ACC = re.compile(r"\bacc\s+([0-9.]+)")


@dataclass(frozen=True)
class Workload:
    variant: str | None      # registry network to infer with; None: the mini
    columns: int             # M of the mini network that is trained
    images: int              # size of the synthetic grating set
    epochs: int              # fast-mode epochs, or the cap with a criterion
    criterion: float | None  # stop at this training accuracy and check it
    exec_calls: int          # execute calls per mode per round
    identical_modes: bool = False  # single column: modes bitwise equal


WORKLOADS = {
    "infer-columns": Workload("CoSNet-C2-PFF", columns=4, images=64,
                              epochs=4, criterion=None, exec_calls=8),
    "infer-single": Workload("CoSNet-A0", columns=1, images=64, epochs=4,
                             criterion=None, exec_calls=40,
                             identical_modes=True),
    # acceptance criterion 9: best training accuracy >= 0.90 within 15
    # epochs on 250 images
    "train-mini": Workload(None, columns=2, images=250, epochs=15,
                           criterion=0.90, exec_calls=80),
}


class _Reached(Exception):
    """Raised from the epoch log to stop training at the criterion."""


@dataclass
class State:
    ds: object
    net: object              # the mini network that is trained
    infer: object            # the network that is executed
    plans: dict
    x: object
    init_weights: dict
    trained: dict | None = None   # weights of the last fast training run
    ref: np.ndarray | None = None


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    exec_s: dict = field(default_factory=lambda: {m: [] for m in
                                                   runtime.MODES})
    epoch_s: list = field(default_factory=list)
    det_epoch_s: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)     # failed operations
    problems: list = field(default_factory=list)   # failed output checks

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


class Session:
    def __init__(self, name, seed, tracer=None):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.tracer = tracer
        self.s = Samples()
        self.state = None

    def phase(self, name):
        if self.tracer is not None:
            self.tracer.phase = name

    # -- set-up ---------------------------------------------------------

    def setup(self):
        """Everything a user pays before the first timed call."""
        wl, seed = self.wl, self.seed
        ds = training.synth_dataset(count=wl.images, seed=seed)
        net = arch.build_mini_network(columns=wl.columns, seed=seed)
        if wl.variant is None:
            infer = net
        else:
            infer = arch.build_network(arch.registry_lookup(wl.variant),
                                       seed=seed)
        plans = {m: runtime.plan(infer, m) for m in runtime.MODES}
        return ds, net, infer, plans

    def make_state(self):
        self.phase("setup")
        built = None
        times = self.s.setup_s
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            built = None   # release the last build before timing the next
            t0 = time.perf_counter()
            built = self.setup()
            times.append(time.perf_counter() - t0)
        ds, net, infer, plans = built
        if self.wl.variant is None:
            x = ds.images[ds.test_idx[:MINI_INFER_BATCH]]
        else:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            x = rng.uniform(-1.0, 1.0, size=INFER_SHAPE).astype(np.float32)
        return State(ds=ds, net=net, infer=infer, plans=plans,
                     x=tensor.Tensor(x), init_weights=net.copy_weights())

    # -- operations -----------------------------------------------------

    def op(self, fn, *args, **kwargs):
        """One counted operation; a program error counts as failed."""
        self.s.attempted += 1
        try:
            return fn(*args, **kwargs)
        except cosnet.CosnetError as exc:
            self.s.failed += 1
            self.s.errors.append(f"{fn.__name__}: {exc}")
            return None

    def train_run(self, st, deterministic, epochs, stop_at=None):
        """Train the mini from its initial weights; returns per-epoch
        (accuracy, seconds) taken at the epoch log."""
        st.net.weights = {nid: {f: a.copy() for f, a in t.items()}
                          for nid, t in st.init_weights.items()}
        config = training.TrainConfig(epochs=epochs, seed=self.seed,
                                      **TRAIN_CONFIG)
        marks = [time.perf_counter()]
        accs = []

        def log(line):
            marks.append(time.perf_counter())
            accs.append(float(_ACC.search(line).group(1)))
            if stop_at is not None and accs[-1] >= stop_at:
                raise _Reached

        tensor.set_deterministic(deterministic)
        try:
            training.train(st.net, st.ds, config, log=log)
        except _Reached:
            pass
        finally:
            tensor.set_deterministic(False)
        return accs, np.diff(marks).tolist()

    def checkpoint_round_trip(self, st, path):
        """Save the trained mini, load it into a fresh one; returns the
        logits of both on the held-out split."""
        try:
            training.save_checkpoint(str(path), st.net, "name = mini\n")
            fresh = arch.build_mini_network(columns=self.wl.columns,
                                            seed=self.seed + 1)
            training.load_checkpoint(str(path), fresh)
        finally:
            path.unlink(missing_ok=True)
        xt = tensor.Tensor(st.ds.images[st.ds.test_idx])
        return (graph.graph_forward(st.net, xt, mode="eval")[0].data,
                graph.graph_forward(fresh, xt, mode="eval")[0].data)

    # -- one round ------------------------------------------------------
    #
    # Execute and evaluate calls come in bursts spread over the round, so
    # that their medians see the same stretch of time as the training
    # epochs: on a shared machine the speed drifts over tens of seconds.

    def round(self, st):
        s, wl = self.s, self.wl
        self.phase("train")
        res = self.op(self.train_run, st, False, wl.epochs, wl.criterion)
        if res is None:
            return
        accs, secs = res
        s.epoch_s += secs
        if wl.criterion is not None:
            s.check(max(accs) >= wl.criterion,
                    f"best training accuracy {max(accs):.3f} < "
                    f"{wl.criterion} after {len(accs)} epochs")
        # det runs replace st.net.weights, so this dict stays as trained
        st.trained = st.net.weights
        if st.infer is st.net:
            st.ref = None   # the trained mini is new every round

        self.bursts(st)
        self.phase("ckpt")
        OUT_DIR.mkdir(exist_ok=True)
        res = self.op(self.checkpoint_round_trip, st,
                      OUT_DIR / f"ckpt-{self.name}-{self.seed}.bin")
        if res is not None:
            s.check(np.array_equal(*res), "checkpoint round trip changed "
                    "the held-out logits")
        self.bursts(st)

        finals = []
        for _ in range(2):
            self.phase("train_det")
            res = self.op(self.train_run, st, True, DET_EPOCHS)
            if res is not None:
                s.det_epoch_s += res[1]
                finals.append(st.net.weights)
            self.bursts(st)
        if len(finals) == 2:
            a, b = finals
            s.check(all(np.array_equal(a[n][f], b[n][f])
                        for n in a for f in a[n]),
                    "deterministic reruns ended with different weights")

    def bursts(self, st):
        """A quarter of the round's execute and evaluate calls."""
        self.infer_burst(st, self.wl.exec_calls // BURSTS)
        self.eval_burst(st, EVAL_CALLS // BURSTS)

    def infer_burst(self, st, pairs):
        """``pairs`` execute calls per mode, alternating modes."""
        s = self.s
        weights = st.trained if st.infer is st.net else None
        outs = {}
        for _ in range(pairs):
            for mode in runtime.MODES:
                self.phase(mode)
                t0 = time.perf_counter()
                y = self.op(runtime.execute, st.plans[mode], st.x,
                            weights=weights)
                s.exec_s[mode].append(time.perf_counter() - t0)
                if y is not None:
                    outs[mode] = y.data
        self.phase("check")
        self.check_inference(st, outs, weights)

    def eval_burst(self, st, calls):
        """``calls`` evaluate calls of the trained mini on held-out data."""
        s, ds = self.s, st.ds
        st.net.weights = st.trained
        self.phase("eval")
        for _ in range(calls):
            t0 = time.perf_counter()
            res = self.op(training.evaluate, st.net, ds.images[ds.test_idx],
                          ds.labels[ds.test_idx])
            s.eval_s.append(time.perf_counter() - t0)
        if res is not None and self.wl.criterion is not None:
            centroid = nearest_centroid(ds)
            s.check(res[1] > centroid,
                    f"held-out accuracy {res[1]:.3f} does not beat the "
                    f"nearest-centroid classifier's {centroid:.3f}")

    def check_inference(self, st, outs, weights):
        s = self.s
        if st.ref is None:
            ref, macs = reference.forward(st.infer, st.x.data, weights)
            flops = analysis.count_flops(st.infer, st.x.shape)
            s.check(macs == st.x.n * flops,
                    f"reference performed {macs} MACs, the analyzer counts "
                    f"{flops} per image x {st.x.n}")
            st.ref = ref
        scale = float(np.abs(st.ref).max())
        for mode, y in outs.items():
            err = float(np.abs(y.astype(np.float64) - st.ref).max())
            s.check(err <= REL_TOL * scale,
                    f"{mode} output differs from the float64 reference by "
                    f"{err:.3g} (max |output| {scale:.3g})")
        if self.wl.identical_modes:
            s.check(runtime.plans_identical(st.plans["batched"],
                                            st.plans["unrolled"]),
                    "single-column plans differ between modes")
            if len(outs) == 2:
                s.check(np.array_equal(outs["batched"], outs["unrolled"]),
                        "single-column outputs differ between modes")

    # -- the whole run --------------------------------------------------

    def run(self, seconds):
        st = self.make_state()
        for mode in runtime.MODES:   # warm-up, untimed
            runtime.execute(st.plans[mode], st.x)
        t_start = time.perf_counter()
        rounds = 0
        elapsed = last = 0.0
        # a further round while it would end closer to ``seconds``, and at
        # least two, so that no median rests on one round alone
        while rounds < MIN_ROUNDS or elapsed + last / 2 < seconds:
            self.round(st)
            rounds += 1
            last = time.perf_counter() - t_start - elapsed
            elapsed += last
        self.phase("done")
        self.state = st
        return rounds

    def end_to_end(self):
        s = self.s
        n_train = len(self.state.ds.train_idx)
        n_test = len(self.state.ds.test_idx)
        med = statistics.median
        return {
            "setup_s": (med(s.setup_s), "s"),
            "batched_ms": (med(s.exec_s["batched"]) * 1e3, "ms"),
            "unrolled_ms": (med(s.exec_s["unrolled"]) * 1e3, "ms"),
            "train_img_s": (n_train / med(s.epoch_s), "images/s"),
            "train_det_img_s": (n_train / med(s.det_epoch_s), "images/s"),
            "eval_img_s": (n_test / med(s.eval_s), "images/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }


def nearest_centroid(ds) -> float:
    """Held-out accuracy of a nearest-centroid classifier on raw pixels."""
    flat = ds.images.reshape(len(ds.labels), -1).astype(np.float64)
    tr, te = ds.train_idx, ds.test_idx
    classes = np.unique(ds.labels[tr])
    centroids = np.stack([flat[tr][ds.labels[tr] == k].mean(axis=0)
                          for k in classes])
    d2 = ((flat[te][:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float((classes[d2.argmin(axis=1)] == ds.labels[te]).mean())


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- per-layer metrics from a traced run -----------------------------------

EXEC_LAYERS = ("tensor.im2col_nd", "ops.conv2d_forward", "ops.batchnorm2d",
               "ops.input_replicate", "ops.pool2d", "ops.channel_block_sum")
TRAIN_LAYERS = ("tensor.im2col_nd", "tensor.col2im_nd", "ops.conv2d_forward",
                "ops.conv2d_backward", "ops.batchnorm2d",
                "ops.batchnorm2d_backward", "ops.input_replicate",
                "ops.pool2d", "ops.channel_block_sum", "graph.graph_forward",
                "graph.graph_backward", "training.evaluate")
EVAL_LAYERS = ("tensor.im2col_nd", "ops.conv2d_forward", "ops.batchnorm2d",
               "graph.graph_forward.eval", "training.evaluate")


def per_layer(session, tracer):
    """Per-layer metrics of a traced session, per timed unit: per execute
    call in the ``batched`` and ``unrolled`` phases, per SGD step in
    ``train`` and ``train_det``, per evaluate call in ``eval``.  Every
    ``.ms`` is self time: the span minus its child spans."""
    summ = tracer.summary()
    st = session.state
    empty = {"self_s": 0.0, "calls": 0, "work": 0}

    def agg(phase, name):
        return summ.get((phase, name), empty)

    out = {}

    def layer_block(phase, units, layers):
        mm = agg(phase, "tensor.mm")
        out[f"{phase}.tensor.mm.ms"] = (mm["self_s"] * 1e3 / units, "ms")
        out[f"{phase}.tensor.mm.calls"] = (mm["calls"] / units, "count")
        out[f"{phase}.tensor.mm.gmac_s"] = (
            mm["work"] / mm["self_s"] / 1e9 if mm["self_s"] else 0.0,
            "GMAC/s")
        for name in layers:
            key = name.removesuffix(".eval")
            out[f"{phase}.{key}.ms"] = (agg(phase, name)["self_s"] * 1e3
                                       / units, "ms")

    macs = st.x.n * analysis.count_flops(st.infer, st.x.shape)
    for mode in runtime.MODES:
        units = max(agg(mode, "runtime.execute")["calls"], 1)
        layer_block(mode, units, EXEC_LAYERS)
        out[f"{mode}.tensor.im2col_nd.mb"] = (
            agg(mode, "tensor.im2col_nd")["work"] / units / 1e6, "MB")
        out[f"{mode}.ops.input_replicate.mb"] = (
            agg(mode, "ops.input_replicate")["work"] / units / 1e6, "MB")
        out[f"{mode}.runtime.execute.self_ms"] = (
            agg(mode, "runtime.execute")["self_s"] * 1e3 / units, "ms")
        times = sorted(session.s.exec_s[mode])
        out[f"{mode}.runtime.execute.gmac_s"] = (
            macs / statistics.median(times) / 1e9, "GMAC/s")
        tail, n = tail_value(times)
        out[f"{mode}.runtime.execute.ms_tail"] = (tail * 1e3, "ms")
        out[f"{mode}.runtime.execute.tail_samples"] = (n, "count")
        out[f"{mode}.runtime.peak_live_mb"] = (
            peak_live_bytes(st.plans[mode], st.x.shape) / 1e6, "MB")
        out[f"{mode}.runtime.plan.ms"] = (statistics.median(
            tracer.durations("setup", f"runtime.plan.{mode}")) * 1e3, "ms")
        out[f"{mode}.runtime.plan.steps"] = (st.plans[mode].num_steps(),
                                             "count")
    for phase in ("train", "train_det"):
        steps = max(agg(phase, "graph.graph_backward")["calls"], 1)
        layer_block(phase, steps, TRAIN_LAYERS)
        out[f"{phase}.tensor.im2col_nd.mb"] = (
            agg(phase, "tensor.im2col_nd")["work"] / steps / 1e6, "MB")
        out[f"{phase}.training.train.self_ms"] = (
            agg(phase, "training.train")["self_s"] * 1e3 / steps, "ms")
    calls = max(agg("eval", "training.evaluate")["calls"], 1)
    layer_block("eval", calls, EVAL_LAYERS)
    out["setup.arch.build.ms"] = (agg("setup", "arch.build")["self_s"] * 1e3
                                  / len(session.s.setup_s), "ms")
    out["setup.analysis.macs"] = (macs, "count")
    for name, (value, unit) in session.end_to_end().items():
        out[f"traced.{name}"] = (value, unit)
    return out


def tail_value(sorted_samples):
    """The highest sample with at least ten samples beyond it, and the
    sample count.  Below forty samples that would be no tail, so the
    median stands in for it."""
    n = len(sorted_samples)
    if n < 40:
        return statistics.median(sorted_samples), n
    return sorted_samples[n - 11], n


class _PlanView:
    """An execution plan seen as a graph, so that ``graph.infer_shapes``
    can walk its steps."""

    def __init__(self, p):
        self.order = [runtime.INPUT_ID] + [s.id for s in p.steps]
        self._steps = {s.id: s for s in p.steps}
        self._steps[runtime.INPUT_ID] = graph.LayerNode(
            runtime.INPUT_ID, "input", {}, (), "input")

    def node(self, nid):
        return self._steps[nid]


def peak_live_bytes(p, input_shape, itemsize=4):
    """Computed bytes of simultaneously live plan tensors under execute's
    rule: a tensor lives from its step until its last consumer ran."""
    shapes = graph.infer_shapes(_PlanView(p), input_shape)
    size = {k: int(np.prod(v)) * itemsize for k, v in shapes.items()}
    remaining = {k: 0 for k in size}
    for s in p.steps:
        for src in s.inputs:
            remaining[src] += 1
    live = size[runtime.INPUT_ID]
    peak = live
    for s in p.steps:
        live += size[s.id]
        peak = max(peak, live)
        for src in set(s.inputs):
            remaining[src] -= s.inputs.count(src)
            if remaining[src] == 0:
                live -= size[src]
    return peak

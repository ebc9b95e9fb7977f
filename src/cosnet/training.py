"""Desk-scale training loop, synthetic dataset, and binary serialization for
datasets and checkpoints.

The synthetic task is orientation classification: each class is an oriented
sinusoidal grating plus seeded noise, so a nearest-centroid baseline already
beats chance and a small network can fit the training split to high accuracy
in a few epochs.  All randomness is seed-driven; with the deterministic
matmul path enabled, a rerun reproduces training bitwise.

Training and evaluation run the graph, which runs as its batched execution
plan (``Graph.batched_plan``), lowered once per graph: each column level is
one grouped conv, and the level-1 conv reads the squeezed input once
instead of M replicated copies.  The train-mode tape keeps each conv's
patch matrix, each batch norm's 1/sigma and x-hat, each ReLU's sign mask
and each max pool's window argmax for the backward pass.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (CheckpointError, ConfigError, DatasetFormatError,
                     DivergenceError, GraphError, LabelError)
from .graph import Graph, graph_backward, graph_forward, infer_shapes
from .ops import softmax_cross_entropy
from .tensor import Tensor, seeded_rng

DATASET_MAGIC = b"CSDS"
DATASET_VERSION = 1
CHECKPOINT_MAGIC = b"COSN"
CHECKPOINT_VERSION = 1
LR_SCHEDULES = ("constant", "cosine")
TEST_FRACTION = 0.2     # share of a data set held out for testing
DATASET_SPLIT_SEED = 1  # split seed of a data set read from a file
SYNTH_CLASSES = 10      # classes of the synthetic set
SYNTH_SIZE = 32         # side of its square images, in pixels
SYNTH_CHANNELS = 3      # channels of its images
SYNTH_NOISE = 0.08      # std of its pixel noise
EVAL_BATCH = 64         # images per forward pass of :func:`evaluate`


@dataclass
class Dataset:
    images: np.ndarray        # (count, c, h, w) float32 in [0, 1]
    labels: np.ndarray        # (count,) int64
    num_classes: int
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 4:
            raise DatasetFormatError(
                f"images must be 4-D, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DatasetFormatError("one label per image required")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise LabelError(
                f"labels must lie in [0, {self.num_classes})")


def split_indices(count: int, seed: int = 0):
    """Seeded train/test index split holding out :data:`TEST_FRACTION` of
    the ``count`` indices."""
    rng = seeded_rng(seed)
    perm = rng.permutation(count)
    n_test = int(round(count * TEST_FRACTION))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def synth_dataset(count: int, seed: int = 0) -> Dataset:
    """Oriented-grating classification set of ``count`` images of
    :data:`SYNTH_CHANNELS` x :data:`SYNTH_SIZE` x :data:`SYNTH_SIZE`; class
    k of K = :data:`SYNTH_CLASSES` has angle pi*k/K, and each pixel gets
    Gaussian noise of std :data:`SYNTH_NOISE`.

    Pixels are quantized to the 8-bit grid so the raw-file round trip is
    exact.
    """
    if count < 1:
        raise ConfigError(
            f"synthetic dataset count must be >= 1, got {count}")
    rng = seeded_rng(seed)
    yy, xx = np.indices((SYNTH_SIZE, SYNTH_SIZE), np.float32) / SYNTH_SIZE
    images = np.empty((count, SYNTH_CHANNELS, SYNTH_SIZE, SYNTH_SIZE),
                      dtype=np.float32)
    labels = rng.integers(0, SYNTH_CLASSES, size=count).astype(np.int64)
    gains = np.linspace(0.9, 1.1, SYNTH_CHANNELS, dtype=np.float32)
    for i in range(count):
        theta = math.pi * labels[i] / SYNTH_CLASSES
        freq = 3.0 + rng.uniform(-0.3, 0.3)
        phase = rng.uniform(0.0, 2 * math.pi)
        wave = np.sin(2 * math.pi * freq
                      * (xx * math.cos(theta) + yy * math.sin(theta)) + phase)
        img = 0.5 + 0.35 * wave[None, :, :] * gains[:, None, None]
        img = img + rng.normal(0.0, SYNTH_NOISE, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    images = np.round(images * 255.0) / np.float32(255.0)
    train_idx, test_idx = split_indices(count, seed=seed + 1)
    return Dataset(images=images.astype(np.float32), labels=labels,
                   num_classes=SYNTH_CLASSES, train_idx=train_idx,
                   test_idx=test_idx)


def nearest_centroid_accuracy(ds: Dataset) -> float:
    """Train-centroid classifier accuracy on the test split (sanity oracle).

    Needs a held-out image and a training image of every class.
    """
    if not len(ds.test_idx):
        raise ConfigError("nearest-centroid accuracy needs a held-out image")
    missing = np.setdiff1d(np.arange(ds.num_classes),
                           ds.labels[ds.train_idx])
    if missing.size:
        raise ConfigError("nearest-centroid accuracy needs a training image "
                          f"of every class; none of {missing.tolist()}")
    flat = ds.images.reshape(len(ds.labels), -1)
    centroids = np.stack([
        flat[ds.train_idx][ds.labels[ds.train_idx] == k].mean(axis=0)
        for k in range(ds.num_classes)])
    test = flat[ds.test_idx]
    d2 = ((test[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    pred = d2.argmin(axis=1)
    return float((pred == ds.labels[ds.test_idx]).mean())


# ---------------------------------------------------------------------------
# raw dataset file format


def _record_dtype(pixels: int) -> np.dtype:
    """One record of the raw dataset format: a little-endian 16-bit label,
    then the image's ``pixels`` 8-bit values in (c, h, w) order."""
    return np.dtype([("label", "<u2"), ("pixels", "u1", (pixels,))])


def save_dataset(path: str, ds: Dataset) -> None:
    """Write the 8-bit raw format: header, then one record
    (:func:`_record_dtype`) of label and quantized pixels per image.  A set
    whose count, class count or an image dimension is 0 or more than the
    header holds is refused before the file is opened."""
    count, c, h, w = ds.images.shape
    for name, value, bits in (("count", count, 32),
                              ("classes", ds.num_classes, 16),
                              ("channels", c, 16), ("height", h, 16),
                              ("width", w, 16)):
        if not 1 <= value < 1 << bits:
            raise DatasetFormatError(
                f"dataset {name} {value} does not fit the file header "
                f"(1 to {(1 << bits) - 1})")
    recs = np.empty(count, dtype=_record_dtype(c * h * w))
    recs["label"] = ds.labels
    recs["pixels"] = np.round(ds.images * 255.0).astype(np.uint8).reshape(
        count, -1)
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<HIHHHH", DATASET_VERSION, count,
                            ds.num_classes, c, h, w))
        f.write(recs.tobytes())


class _Reader:
    """Bounded reads through the bytes of a dataset or checkpoint file:
    :meth:`take` returns the next ``n`` bytes (a view, not a copy) or raises
    ``error`` naming the field it was reading."""

    def __init__(self, buf, error, label: str):
        self.buf, self.off = memoryview(buf), 0
        self.error, self.label = error, label

    def take(self, n: int, what: str):
        if self.off + n > len(self.buf):
            raise self.error(f"truncated {self.label} while reading {what}")
        self.off += n
        return self.buf[self.off - n:self.off]

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def left(self) -> int:
        return len(self.buf) - self.off


def load_dataset(path: str) -> Dataset:
    """Read the 8-bit raw format that :func:`save_dataset` writes, split by
    :data:`DATASET_SPLIT_SEED`."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != DATASET_MAGIC:
        raise DatasetFormatError(f"bad dataset magic {buf[:4]!r}")
    r = _Reader(buf, DatasetFormatError, "dataset file")
    r.take(4, "magic")
    version, count, classes, c, h, w = r.unpack("<HIHHHH", "header")
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    if count == 0:
        raise DatasetFormatError("dataset file contains no records")
    if 0 in (classes, c, h, w):
        raise DatasetFormatError(
            f"header has a zero dimension: classes={classes}, "
            f"c={c}, h={h}, w={w}")
    # check the declared size against the file before allocating it
    rec_bytes = c * h * w
    need = count * (2 + rec_bytes)
    if r.left() < need:
        raise DatasetFormatError(
            f"truncated dataset file: header declares {count} records "
            f"({need} bytes), file holds {r.left()}")
    if r.left() > need:
        raise DatasetFormatError("trailing bytes after last record")
    recs = np.frombuffer(r.take(need, "records"),
                         dtype=_record_dtype(rec_bytes))
    bad = np.flatnonzero(recs["label"] >= classes)
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(f"record {i}: label {recs['label'][i]} "
                                 f"out of range [0, {classes})")
    images = recs["pixels"].reshape(count, c, h, w).astype(np.float32) \
        / np.float32(255.0)
    labels = recs["label"].astype(np.int64)
    train_idx, test_idx = split_indices(count, DATASET_SPLIT_SEED)
    return Dataset(images=images, labels=labels, num_classes=classes,
                   train_idx=train_idx, test_idx=test_idx)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    lr_schedule: str = "constant"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (batch statistics)")
        # written so that NaN fails each test
        if not 0 < self.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError("weight_decay must be >= 0 and finite")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {LR_SCHEDULES}")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "cosine":
            return self.lr * 0.5 * (1 + math.cos(math.pi * epoch / self.epochs))
        return self.lr


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    loss: float
    accuracy: float


def evaluate(graph: Graph, images: np.ndarray, labels: np.ndarray):
    """Mean loss and accuracy in eval mode over the batched plan, in
    batches of :data:`EVAL_BATCH`; argmax ties pick the lower index."""
    count = len(labels)
    if count == 0:
        raise ConfigError("cannot evaluate over zero images")
    total_loss = 0.0
    correct = 0
    for lo in range(0, count, EVAL_BATCH):
        xb = Tensor(images[lo:lo + EVAL_BATCH])
        yb = labels[lo:lo + EVAL_BATCH]
        out, _ = graph_forward(graph, xb, mode="eval")
        loss, _ = softmax_cross_entropy(out, yb)
        total_loss += loss * len(yb)
        pred = out.data.reshape(len(yb), -1).argmax(axis=1)
        correct += int((pred == yb).sum())
    return total_loss / count, correct / count


def train(graph: Graph, ds: Dataset, config: TrainConfig, log=None):
    """SGD with momentum and decoupled-from-nothing L2 (decay folded into the
    gradient): v <- mu*v - lr*(g + wd*theta); theta += v.

    Runs the graph's batched plan.  Mutates the graph's weight table in
    place and returns the per-epoch metrics (training-split loss and
    accuracy).  Raises :class:`ConfigError` before any step if the network
    cannot take the dataset's images or has fewer outputs than it has
    classes, and :class:`DivergenceError` if the loss goes NaN or infinite.
    """
    if len(ds.train_idx) < 2:
        raise ConfigError("batch statistics need >= 2 training images, got "
                          f"{len(ds.train_idx)}")
    try:
        shapes = infer_shapes(graph, (1, *ds.images.shape[1:]))
    except GraphError as exc:
        raise ConfigError(f"the network cannot take the dataset's images of "
                          f"shape {ds.images.shape[1:]}: {exc}") from None
    outputs = shapes[graph.output_id][1]
    if ds.num_classes > outputs:
        raise ConfigError(f"the dataset has {ds.num_classes} classes but the "
                          f"network outputs {outputs}")
    velocity = {nid: {f: np.zeros_like(graph.weights[nid][f])
                      for f in fields}
                for nid, fields in _param_fields(graph).items()}
    history = []
    train_idx = ds.train_idx
    for epoch in range(config.epochs):
        lr = config.lr_at(epoch)
        rng = seeded_rng(config.seed + epoch)
        order = train_idx[rng.permutation(len(train_idx))]
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo:lo + config.batch_size]
            if len(idx) < 2:
                continue   # batch statistics need at least two samples
            xb = Tensor(ds.images[idx])
            yb = ds.labels[idx]
            out, tape = graph_forward(graph, xb, mode="train")
            loss, grad = softmax_cross_entropy(out, yb)
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            pgrads, _ = graph_backward(tape, grad)
            for nid, fields in velocity.items():
                for f, v in fields.items():
                    theta = graph.weights[nid][f]
                    g = pgrads.get(nid, {}).get(f)
                    if g is None:
                        continue
                    g = np.asarray(g, dtype=theta.dtype)
                    v *= config.momentum
                    v -= lr * (g + config.weight_decay * theta)
                    theta += v
        loss, acc = evaluate(graph, ds.images[train_idx],
                             ds.labels[train_idx])
        if not math.isfinite(loss):
            raise DivergenceError(epoch)
        metrics = EpochMetrics(epoch=epoch, lr=lr, loss=loss, accuracy=acc)
        history.append(metrics)
        if log is not None:
            log(f"epoch {epoch:3d}  lr {lr:.4f}  loss {loss:.4f}  "
                f"acc {acc:.3f}")
    return history


def _param_fields(graph: Graph):
    out = {}
    for nid, f in graph.param_names():
        out.setdefault(nid, []).append(f)
    return out


# ---------------------------------------------------------------------------
# checkpoint file format


def _tensor_entries(graph: Graph):
    """All persistent arrays (including BN running stats), name-keyed."""
    entries = []
    for nid in graph.order:
        for fname in sorted(graph.weights.get(nid, ())):
            entries.append((f"{graph.node(nid).name}:{fname}", nid, fname))
    return entries


def save_checkpoint(path: str, graph: Graph, spec_text: str) -> None:
    """Binary checkpoint: header, variant text, named f32 tensors, CRC32."""
    body = bytearray()
    body += CHECKPOINT_MAGIC
    body += struct.pack("<H", CHECKPOINT_VERSION)
    spec_bytes = spec_text.encode("utf-8")
    body += struct.pack("<I", len(spec_bytes))
    body += spec_bytes
    entries = _tensor_entries(graph)
    body += struct.pack("<I", len(entries))
    for name, nid, fname in entries:
        arr = np.ascontiguousarray(graph.weights[nid][fname],
                                   dtype=np.float32)
        nb = name.encode("utf-8")
        body += struct.pack("<H", len(nb))
        body += nb
        dims = (1,) * (4 - arr.ndim) + arr.shape
        body += struct.pack("<4I", *dims)
        body += arr.tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with open(path, "wb") as f:
        f.write(bytes(body))


def _ck_text(raw, what):
    try:
        return str(raw, "utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {exc}") from None


def load_checkpoint(path: str, graph: Graph) -> str:
    """Read a checkpoint, install its tensors into ``graph``'s weight table
    and return its variant text.

    A repeated name, a value that is not finite, a negative running
    variance, and a missing, unknown or wrongly shaped tensor raise
    :class:`CheckpointError` naming the offending tensor, before any tensor
    is installed.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 4 + 2 + 4 + 4:
        raise CheckpointError("checkpoint file too short")
    # every field lies before the checksum
    r = _Reader(memoryview(buf)[:-4], CheckpointError, "checkpoint")
    if zlib.crc32(r.buf) & 0xFFFFFFFF != struct.unpack("<I", buf[-4:])[0]:
        raise CheckpointError("checkpoint checksum mismatch")
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {bytes(magic)!r}")
    (version,) = r.unpack("<H", "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (spec_len,) = r.unpack("<I", "variant text length")
    spec_text = _ck_text(r.take(spec_len, "variant text"), "variant text")
    (count,) = r.unpack("<I", "tensor count")
    tensors = {}
    for i in range(count):
        (nlen,) = r.unpack("<H", f"tensor {i} name length")
        name = _ck_text(r.take(nlen, f"tensor {i} name"), f"tensor {i} name")
        if name in tensors:
            raise CheckpointError(f"tensor {name} appears twice")
        dims = r.unpack("<4I", f"tensor {name} dims")
        # Python ints: a product of four uint32 dims can overflow int64
        size = math.prod(dims)
        arr = np.frombuffer(r.take(4 * size, f"tensor {name} payload"),
                            dtype="<f4").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name} holds a value that is not "
                                  "finite")
        if name.endswith(":running_var") and (arr < 0).any():
            raise CheckpointError(f"tensor {name} holds a negative variance")
        tensors[name] = arr
    if r.left():
        raise CheckpointError("trailing bytes after last tensor")
    _install(graph, tensors)
    return spec_text


def _install(graph: Graph, tensors) -> None:
    expected = {name: (nid, fname)
                for name, nid, fname in _tensor_entries(graph)}
    missing = sorted(set(expected) - set(tensors))
    unknown = sorted(set(tensors) - set(expected))
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {missing[:5]}")
    if unknown:
        raise CheckpointError(f"checkpoint has unknown tensors: {unknown[:5]}")
    for name, arr in tensors.items():
        nid, fname = expected[name]
        target = graph.weights[nid][fname]
        want = (1,) * (4 - target.ndim) + target.shape
        if tuple(arr.shape) != want:
            raise CheckpointError(
                f"tensor {name}: shape {tuple(arr.shape)} != expected {want}")
    for name, arr in tensors.items():
        nid, fname = expected[name]
        target = graph.weights[nid][fname]
        target[...] = arr.reshape(target.shape)

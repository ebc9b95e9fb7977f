"""Desk-scale training loop, synthetic dataset, and binary serialization for
datasets and checkpoints.

The synthetic task is orientation classification: each class is an oriented
sinusoidal grating plus seeded noise, so a nearest-centroid baseline already
beats chance and a small network can fit the training split to high accuracy
in a few epochs.  All randomness is seed-driven; with the deterministic
matmul path enabled, a rerun reproduces training bitwise.

Training and evaluation run the network's batched execution plan
(``Graph.batched_plan``), lowered once per graph: each column level is one
grouped conv, and the level-1 conv reads the squeezed input once instead of
M replicated copies.  The train-mode tape keeps each conv's patch matrix,
each batch norm's 1/sigma and x-hat, each ReLU's sign mask and each max
pool's window argmax for the backward pass.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (CheckpointError, ConfigError, DatasetFormatError,
                     DivergenceError, LabelError)
from .graph import Graph, graph_backward, graph_forward
from .ops import softmax_cross_entropy
from .tensor import Tensor, seeded_rng

DATASET_MAGIC = b"CSDS"
DATASET_VERSION = 1
CHECKPOINT_MAGIC = b"COSN"
CHECKPOINT_VERSION = 1
LR_SCHEDULES = ("constant", "cosine")


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


def split_indices(count: int, test_fraction: float = 0.2, seed: int = 0):
    """Seeded train/test index split; ``test_fraction`` lies in [0, 1)."""
    # written so that NaN fails the test
    if not 0.0 <= test_fraction < 1.0:
        raise ConfigError(
            f"test_fraction must lie in [0, 1), got {test_fraction}")
    rng = seeded_rng(seed)
    perm = rng.permutation(count)
    n_test = int(round(count * test_fraction))
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def synth_dataset(count: int = 250, num_classes: int = 10, size: int = 32,
                  channels: int = 3, noise: float = 0.08,
                  seed: int = 0) -> Dataset:
    """Oriented-grating classification set; class k has angle pi*k/K.

    Pixels are quantized to the 8-bit grid so the raw-file round trip is
    exact.
    """
    for name, value in (("count", count), ("num_classes", num_classes),
                        ("size", size), ("channels", channels)):
        if value < 1:
            raise ConfigError(
                f"synthetic dataset {name} must be >= 1, got {value}")
    rng = seeded_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32) / size
    images = np.empty((count, channels, size, size), dtype=np.float32)
    labels = rng.integers(0, num_classes, size=count).astype(np.int64)
    gains = np.linspace(0.9, 1.1, channels, dtype=np.float32)
    for i in range(count):
        theta = math.pi * labels[i] / num_classes
        freq = 3.0 + rng.uniform(-0.3, 0.3)
        phase = rng.uniform(0.0, 2 * math.pi)
        wave = np.sin(2 * math.pi * freq
                      * (xx * math.cos(theta) + yy * math.sin(theta)) + phase)
        img = 0.5 + 0.35 * wave[None, :, :] * gains[:, None, None]
        img = img + rng.normal(0.0, noise, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0)
    images = np.round(images * 255.0) / np.float32(255.0)
    train_idx, test_idx = split_indices(count, seed=seed + 1)
    return Dataset(images=images.astype(np.float32), labels=labels,
                   num_classes=num_classes, train_idx=train_idx,
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


def save_dataset(path: str, ds: Dataset) -> None:
    """Write the 8-bit raw format (labels and quantized pixels)."""
    count, c, h, w = ds.images.shape
    if count == 0:
        raise DatasetFormatError("refusing to write an empty dataset")
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<HIHHHH", DATASET_VERSION, count,
                            ds.num_classes, c, h, w))
        q = np.round(ds.images * 255.0).astype(np.uint8)
        for i in range(count):
            f.write(struct.pack("<H", int(ds.labels[i])))
            f.write(q[i].tobytes())


def _read_exact(f, n, what):
    buf = f.read(n)
    if len(buf) != n:
        raise DatasetFormatError(f"truncated dataset file while reading {what}")
    return buf


def load_dataset(path: str, test_fraction: float = 0.2,
                 split_seed: int = 1) -> Dataset:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != DATASET_MAGIC:
            raise DatasetFormatError(f"bad dataset magic {magic!r}")
        hdr = _read_exact(f, struct.calcsize("<HIHHHH"), "header")
        version, count, classes, c, h, w = struct.unpack("<HIHHHH", hdr)
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
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < need:
            raise DatasetFormatError(
                f"truncated dataset file: header declares {count} records "
                f"({need} bytes), file holds {have}")
        if have > need:
            raise DatasetFormatError("trailing bytes after last record")
        recs = np.frombuffer(_read_exact(f, need, "records"),
                             dtype=[("label", "<u2"),
                                    ("pixels", "u1", (rec_bytes,))])
    bad = np.flatnonzero(recs["label"] >= classes)
    if bad.size:
        i = int(bad[0])
        raise DatasetFormatError(f"record {i}: label {recs['label'][i]} "
                                 f"out of range [0, {classes})")
    images = recs["pixels"].reshape(count, c, h, w).astype(np.float32) \
        / np.float32(255.0)
    labels = recs["label"].astype(np.int64)
    train_idx, test_idx = split_indices(count, test_fraction, split_seed)
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


def evaluate(graph: Graph, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 64):
    """Mean loss and accuracy in eval mode over the batched plan; argmax
    ties pick the lower index."""
    count = len(labels)
    if count == 0:
        raise ConfigError("cannot evaluate over zero images")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    program = graph.batched_plan()
    total_loss = 0.0
    correct = 0
    for lo in range(0, count, batch_size):
        xb = Tensor(images[lo:lo + batch_size])
        yb = labels[lo:lo + batch_size]
        out, _ = graph_forward(program, xb, mode="eval")
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
    accuracy).  Raises
    :class:`DivergenceError` if the loss goes NaN or infinite.
    """
    if len(ds.train_idx) < 2:
        raise ConfigError("batch statistics need >= 2 training images, got "
                          f"{len(ds.train_idx)}")
    velocity = {nid: {f: np.zeros_like(graph.weights[nid][f])
                      for f in fields}
                for nid, fields in _param_fields(graph).items()}
    program = graph.batched_plan()
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
            out, tape = graph_forward(program, xb, mode="train")
            loss, grad = softmax_cross_entropy(out, yb)
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            pgrads, _ = graph_backward(program, tape, grad)
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


def _ck_read(buf, off, n, what):
    if off + n > len(buf):
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return buf[off:off + n], off + n


def _ck_text(raw, what):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {exc}") from None


def load_checkpoint(path: str, graph: Graph | None = None):
    """Read a checkpoint; returns ``(spec_text, tensors_by_name)``.

    When ``graph`` is given, the tensors are also installed into its weight
    table; unknown names and shape mismatches raise :class:`CheckpointError`
    naming the offending tensor.  So do a repeated name, a value that is not
    finite and a negative running variance, whether or not ``graph`` is
    given.
    """
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 4 + 2 + 4 + 4:
        raise CheckpointError("checkpoint file too short")
    stored_crc = struct.unpack("<I", buf[-4:])[0]
    buf = buf[:-4]   # every field lies before the checksum
    if zlib.crc32(buf) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError("checkpoint checksum mismatch")
    off = 0
    magic, off = _ck_read(buf, off, 4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    raw, off = _ck_read(buf, off, 2, "version")
    (version,) = struct.unpack("<H", raw)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    raw, off = _ck_read(buf, off, 4, "variant text length")
    (spec_len,) = struct.unpack("<I", raw)
    raw, off = _ck_read(buf, off, spec_len, "variant text")
    spec_text = _ck_text(raw, "variant text")
    raw, off = _ck_read(buf, off, 4, "tensor count")
    (count,) = struct.unpack("<I", raw)
    tensors = {}
    for i in range(count):
        raw, off = _ck_read(buf, off, 2, f"tensor {i} name length")
        (nlen,) = struct.unpack("<H", raw)
        raw, off = _ck_read(buf, off, nlen, f"tensor {i} name")
        name = _ck_text(raw, f"tensor {i} name")
        if name in tensors:
            raise CheckpointError(f"tensor {name} appears twice")
        raw, off = _ck_read(buf, off, 16, f"tensor {name} dims")
        dims = struct.unpack("<4I", raw)
        # Python ints: a product of four uint32 dims can overflow int64
        size = math.prod(dims)
        raw, off = _ck_read(buf, off, 4 * size, f"tensor {name} payload")
        arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name} holds a value that is not "
                                  "finite")
        if name.endswith(":running_var") and (arr < 0).any():
            raise CheckpointError(f"tensor {name} holds a negative variance")
        tensors[name] = arr
    if off != len(buf):
        raise CheckpointError("trailing bytes after last tensor")
    if graph is not None:
        _install(graph, tensors)
    return spec_text, tensors


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

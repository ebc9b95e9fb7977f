from types import SimpleNamespace

import numpy as np
import pytest

from cosnet.graph import LayerNode
from cosnet.runtime import INPUT_ID
from cosnet.tensor import col2im_nd, deterministic_enabled, set_deterministic
from cosnet.training import DATASET_SPLIT_SEED, Dataset, split_indices


@pytest.fixture(autouse=True)
def _deterministic_mode_restored():
    """Fail a test that leaves the process-wide deterministic flag changed,
    then restore the flag so the rest of the suite runs as configured."""
    before = deterministic_enabled()
    yield
    after = deterministic_enabled()
    set_deterministic(before)
    if after != before:
        pytest.fail(f"test left deterministic mode {'on' if after else 'off'}")


def swap_nc(a):
    """``a`` with its first two axes swapped, C-contiguous: an (n, c, h, w)
    array in the kernels' channel-major (c, n, h, w) layout, and back."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


def window_stack(x, kernel, stride, pad, fill):
    """The pooling windows of a channel-major (c, n, h, w) x padded with
    ``fill`` by ``np.pad``: the (c, n, kh*kw, Ho, Wo) stack, one window per
    kernel offset in (row, col) order."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    ho = (xp.shape[2] - kh) // sh + 1
    wo = (xp.shape[3] - kw) // sw + 1
    return np.stack([xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
                     for ki in range(kh) for kj in range(kw)], axis=2)


def pool_oracle(x, kind, kernel, stride, pad, grad_out=None):
    """Pooling from the window stack: (output, argmax, input gradient).

    The output is numpy's sum (then division by kh*kw) or max of the stack
    over its window axis; the argmax (max pool only) is the first offset
    holding the maximum, or the first NaN, in the smallest unsigned dtype
    that holds kh*kw - 1.  With ``grad_out`` given, the window gradients
    (go/(kh*kw), or go at the argmax and +0.0 elsewhere) are built as the
    (c, kh*kw, n, Ho, Wo) patch matrix and scattered back by
    :func:`col2im_nd`; otherwise the gradient is None."""
    kk = kernel[0] * kernel[1]
    wins = window_stack(x, kernel, stride, pad,
                        -np.inf if kind == "max" else 0.0)
    arg = gx = None
    if kind == "max":
        out = wins.max(axis=2)
        arg = ((wins == out[:, :, None]) | np.isnan(wins)).argmax(
            axis=2).astype(np.min_scalar_type(kk - 1))
    else:
        out = wins.sum(axis=2) / np.asarray(kk, dtype=x.dtype)
    if grad_out is not None:
        c, n, ho, wo = grad_out.shape
        go = grad_out[:, None]
        if kind == "max":
            gcols = np.zeros((c, kk, n, ho, wo), dtype=go.dtype)
            np.put_along_axis(gcols, arg[:, None], go, axis=1)
        else:
            gcols = np.broadcast_to(go / np.asarray(kk, dtype=go.dtype),
                                    (c, kk, n, ho, wo))
        gx = col2im_nd(gcols, x.shape, kernel, stride, pad)
    return out, arg, gx


def random_dataset(count, num_classes=10, side=32, channels=3, seed=0):
    """A :class:`Dataset` of ``count`` seeded uniform images on the 8-bit
    grid, with uniform labels below ``num_classes``, split as a data set
    file is: for a test that needs a class count or an image shape that
    ``synth_dataset`` does not make."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (count, channels, side, side))
    return Dataset(images.astype(np.float32) / np.float32(255.0),
                   rng.integers(0, num_classes, count), num_classes,
                   *split_indices(count, DATASET_SPLIT_SEED))


def nan_canonical_bytes(a):
    """``a``'s bytes with every NaN replaced by one NaN: which of two NaN
    operands a float add returns depends on the machine loop numpy picks
    for the operands' strides, not on the order of the sum."""
    a = np.array(a, copy=True)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def numeric_grad(f, arr, eps=1e-5):
    """Central finite differences of a scalar function w.r.t. an array."""
    arr = np.asarray(arr, dtype=np.float64)
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = f(arr)
        flat[i] = orig - eps
        lm = f(arr)
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * eps)
    return g


def max_rel_err(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float((np.abs(a - n) / denom).max())


class PlanAsGraph:
    """A plan seen as a graph (``order`` and ``node``), the way the
    benchmark's byte tracker walks plan steps with ``infer_shapes``."""

    def __init__(self, p):
        self.order = [INPUT_ID] + [s.id for s in p.steps]
        self._steps = {s.id: s for s in p.steps}
        self._steps[INPUT_ID] = LayerNode(INPUT_ID, "input", {}, (), "input")

    def node(self, nid):
        return self._steps[nid]


def node_program(g):
    """The graph's nodes as a step program, one step per non-input node
    reading its own weight table: no replication fold, each grouped conv
    over its replicated input.  The reference the batched plan is checked
    against; it has no weight table of its own, so pass ``weights``."""
    return SimpleNamespace(
        steps=[g.node(nid) for nid in g.order if nid != g.input_id],
        input_id=g.input_id, output_id=g.output_id)

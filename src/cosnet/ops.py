"""Differentiable layer operations: convolution (incl. grouped), pooling,
batch norm, activation, input replication, channel fusion, linear, loss.

Kernels take channel-major (c, n, h, w) arrays, the layout the interpreter
keeps every activation and gradient in (see ``graph.run_steps``), and
return C-contiguous arrays in that layout that they allocated, copying
explicitly where a result would be a view of an input; only
:func:`softmax_cross_entropy` takes and returns a ``Tensor``, in the
boundary's (n, c, h, w) order.  Channel-major keeps each channel's n*h*w
values in one row: a conv's gemm writes its output in that order and
:func:`im2col_nd` reads its input in it, so a conv copies no layout, batch
norm broadcasts per channel over whole rows, and replication, channel
fusion, concat and slice are block copies or sums along axis 0.

Forward functions are pure, except that train-mode batch norm updates the
running statistics in its weight table.  Convolution, pooling, batch norm
and ReLU take an optional ``saved`` dict that their forward fills with
everything their backward reads: the conv patch matrix (from
:func:`im2col_nd`) and input shape; the pool input shape (and, for max pool,
the argmax of each window); batch norm's 1/sigma and x-hat (from
:func:`_bn_normalize`); ReLU's sign mask.  Their backward functions take
that dict instead of the forward input, so no backward recomputes forward
state; the caller keeps the dict between the two passes.  No kernel takes
a mode: a ``saved`` dict is train mode (batch norm's batch statistics).
Every other backward takes only what it reads: the input shape (global
average pool), the input (linear) or the channel counts (concat).
Replication and the channel block sum are adjoint, so each one's backward
is the other's forward.

Batch norm has one formula per mode, each a few passes over the
activation.  With m = n*h*w values per channel, and each per-channel sum
taken by :func:`_channel_sums` as one pairwise numpy sum along the
channel's contiguous row of m values:

* train forward: ``x - mu`` is formed once, sigma^2 is the mean of its
  squares (as ``np.var`` forms it), and the same buffer is scaled by
  1/sigma into x-hat; ``y = x-hat * gamma + beta``;
* train backward: ``grad_beta = sum(g)``, ``grad_gamma = sum(g * x-hat)``
  and ``grad_x = (gamma/sigma) * (g - (grad_beta + x-hat * grad_gamma)/m)``
  (Ioffe & Szegedy 2015);
* eval: one per-channel affine ``y = x * s + t`` with
  ``s = gamma / sqrt(running_var + eps)`` and ``t = beta - running_mean * s``.

Convolutions lower to gemms over one patch layout, the (c*kh*kw, n*Ho*Wo)
matrix that :func:`im2col_nd` builds and :func:`col2im_nd` scatters back,
and write their output as (out_channels, n*Ho*Wo): channel-major already.
:func:`conv2d_forward` is the one convolution kernel: one gemm per group,
over that group's contiguous block of patch rows.

Pooling windows are only 2-8 pixels wide on the late stages, so
:func:`pool2d` works pixel-major instead: it copies its input once into a
padded (h, w, c*n) buffer and runs its kh*kw passes over strided
(Ho, Wo, c*n) views of it, each inner loop c*n values long, and
:func:`pool2d_backward` adds the window gradients into a zeroed buffer of
that layout through the same views.  Each transposes back to channel-major
once.  Everything follows the dtype of its inputs (float32 in normal use,
float64 during gradient checking).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError, ShapeError
from .tensor import Tensor, _out_hw, col2im_nd, im2col_nd, mm

# batch norm: weight of the newest batch in the running statistics, and the
# variance floor under the square root
BN_MOMENTUM = 0.1
BN_EPSILON = 1e-5


@dataclass(frozen=True)
class ConvParams:
    out_channels: int
    in_channels: int
    kernel: tuple[int, int] = (1, 1)
    stride: tuple[int, int] = (1, 1)
    pad: tuple[int, int] = (0, 0)
    groups: int = 1

    def __post_init__(self):
        if self.out_channels < 1 or self.in_channels < 1 or self.groups < 1:
            raise ConfigError("channel and group counts must be positive")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConfigError(
                f"channels ({self.in_channels}->{self.out_channels}) not "
                f"divisible by groups={self.groups}")

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels // self.groups,
                *self.kernel)


def _group_slices(p: ConvParams):
    """Per group: its slice of output (and weight-matrix) rows and its
    slice of rows of the :func:`im2col_nd` patch matrix, whose rows are
    channel-major, so each group's rows are contiguous."""
    cout_g = p.out_channels // p.groups
    rows_g = p.in_channels // p.groups * p.kernel[0] * p.kernel[1]
    return [(slice(gi * cout_g, (gi + 1) * cout_g),
             slice(gi * rows_g, (gi + 1) * rows_g))
            for gi in range(p.groups)]


def conv2d_forward(x: np.ndarray, weight: np.ndarray, params: ConvParams,
                   saved: dict | None = None) -> np.ndarray:
    """im2col + gemm convolution into one (out_channels, n*Ho*Wo) buffer,
    which is the channel-major output.  There is no bias: every conv feeds
    a batch norm, which subtracts the batch mean in train mode and the
    running mean in eval mode, so a bias would cancel or be absorbed.

    One gemm per group.  Groups split channels into independent slices of
    one patch matrix, and each group's gemm reads only its own rows, as in
    :func:`conv2d_backward` and in a single-group conv of that group's
    channels.  A ``saved`` dict receives the patch matrix and input shape
    that :func:`conv2d_backward` reads.
    """
    p = params
    if x.shape[0] != p.in_channels:
        raise ConfigError(f"input has {x.shape[0]} channels, conv expects "
                          f"{p.in_channels}")
    if tuple(weight.shape) != p.weight_shape:
        raise ShapeError(
            f"weight shape {weight.shape} != expected {p.weight_shape}")
    cols = im2col_nd(x, p.kernel, p.stride, p.pad)
    ho, wo = _out_hw(*x.shape[2:], p.kernel, p.stride, p.pad)
    if saved is not None:
        saved["cols"], saved["in_shape"] = cols, x.shape
    wmat = weight.reshape(p.out_channels, -1).astype(x.dtype, copy=False)
    if p.groups == 1:
        out = mm(wmat, cols)
    else:
        out = np.empty((p.out_channels, cols.shape[1]), dtype=x.dtype)
        for o, r in _group_slices(p):
            out[o] = mm(wmat[o], cols[r])
    return out.reshape(p.out_channels, x.shape[1], ho, wo)


def conv2d_backward(grad_out: np.ndarray, saved: dict, weight: np.ndarray,
                    params: ConvParams):
    """Exact reverse-mode gradients of :func:`conv2d_forward`, from the
    ``saved`` dict its forward filled (patch matrix and input shape).

    Returns (grad_input, grad_weight); a conv has no bias to differentiate.
    """
    cols, in_shape = saved["cols"], saved["in_shape"]
    cout = params.out_channels
    want = (cout, in_shape[1], *_out_hw(*in_shape[2:], params.kernel,
                                        params.stride, params.pad))
    if grad_out.shape != want:
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output "
                         f"{want}")
    go = grad_out.reshape(cout, -1)
    wmat = weight.reshape(cout, -1).astype(cols.dtype, copy=False)
    if params.groups == 1:
        # the patch gradient is the gemm's own result
        grad_w = mm(go, cols.T)
        grad_cols = mm(wmat.T, go)
    else:
        grad_w = np.empty(wmat.shape, dtype=cols.dtype)
        grad_cols = np.empty_like(cols)
        for o, r in _group_slices(params):
            grad_w[o] = mm(go[o], cols[r].T)
            grad_cols[r] = mm(wmat[o].T, go[o])
    grad_x = col2im_nd(grad_cols, in_shape, params.kernel, params.stride,
                       params.pad)
    return grad_x, grad_w.reshape(weight.shape)


def input_replicate(x: np.ndarray, m: int) -> np.ndarray:
    """Tile the channel block m times: (c,n,h,w) -> (m*c, n, h, w).  Its
    adjoint is :func:`channel_block_sum`, and each is the other's backward."""
    if m < 1:
        raise ShapeError("replication factor must be >= 1")
    return np.concatenate([x] * m, axis=0)


def _pixel_major(x: np.ndarray, pad, fill) -> np.ndarray:
    """The channel-major (c, n, h, w) x as one pixel-major (h + 2*ph,
    w + 2*pw, c*n) buffer padded with ``fill``: each pixel's c*n values in
    one contiguous row."""
    c, n, h, w = x.shape
    ph, pw = pad
    shape = (h + 2 * ph, w + 2 * pw, c * n)
    # a zeroed allocation is cheaper than writing the fill
    xp = (np.zeros(shape, dtype=x.dtype) if fill == 0
          else np.full(shape, fill, dtype=x.dtype))
    xp[ph:ph + h, pw:pw + w] = x.reshape(c * n, h, w).transpose(1, 2, 0)
    return xp


def _windows(xp: np.ndarray, kernel, stride, ho: int, wo: int):
    """The kh*kw strided (Ho, Wo, c*n) views of a padded pixel-major
    buffer, one per kernel offset in (row, col) order."""
    sh, sw = stride
    return [xp[ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
            for ki in range(kernel[0]) for kj in range(kernel[1])]


def _channel_major(a: np.ndarray, c: int, n: int) -> np.ndarray:
    """A pixel-major (h, w, c*n) array as a new C-contiguous channel-major
    (c, n, h, w) one."""
    h, w = a.shape[:2]
    return np.ascontiguousarray(a.transpose(2, 0, 1)).reshape(c, n, h, w)


def pool2d(x: np.ndarray, kind: str, kernel, stride, pad,
           saved: dict | None = None) -> np.ndarray:
    """Per-window max or mean; mean divides by the full window size
    (padded zeros count toward the divisor).  A ``saved`` dict receives the
    input shape and, for max pool, the argmax of each window as ``arg``: the
    first offset, in (row, col) order, holding the maximum, or the first
    NaN, as a (c, n, Ho, Wo) array of the smallest unsigned dtype that holds
    kh*kw - 1.  That is what :func:`pool2d_backward` reads.

    The input is copied once into a padded pixel-major buffer
    (:func:`_pixel_major`), and the kh*kw passes run over its strided
    (Ho, Wo, c*n) window views, so every inner loop is c*n elements long.
    The mean is a running sum from +0.0 over the windows in (row, col)
    order, so a one-element window of -0.0 sums to +0.0; the max is a
    running ``np.maximum``.  Both give the bytes of numpy's reduction of the
    (c, n, kh*kw, Ho, Wo) window stack over its window axis.  A 1x1 output
    keeps that stack, with its window axis innermost: there numpy sums it
    pairwise and takes its maximum in its own order of +0.0 and -0.0.
    """
    if kind not in ("max", "avg"):
        raise ShapeError(f"unknown pool kind {kind!r}")
    if saved is not None:
        saved["in_shape"] = x.shape
    c, n, h, w = x.shape
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    wins = _windows(_pixel_major(x, pad, -np.inf if kind == "max" else 0.0),
                    kernel, stride, ho, wo)
    if ho * wo == 1:
        stack = np.stack(wins, axis=-1)
        acc = stack.max(axis=-1) if kind == "max" else stack.sum(axis=-1)
    elif kind == "max":
        acc = wins[0].copy()
        for win in wins[1:]:
            np.maximum(acc, win, out=acc)
    else:
        acc = wins[0] + 0.0
        for win in wins[1:]:
            acc += win
    if kind == "avg":
        acc /= np.asarray(len(wins), dtype=x.dtype)
    elif saved is not None:
        arg = np.zeros(acc.shape, dtype=np.min_scalar_type(len(wins) - 1))
        # from the last offset to the first, so the first hit is kept
        for k in reversed(range(len(wins))):
            np.copyto(arg, arg.dtype.type(k),
                      where=(wins[k] == acc) | np.isnan(wins[k]))
        saved["arg"] = _channel_major(arg, c, n)
    return _channel_major(acc, c, n)


def pool2d_backward(grad_out: np.ndarray, saved: dict, kind: str, kernel,
                    stride, pad) -> np.ndarray:
    """Gradient of :func:`pool2d` from the ``saved`` dict it filled: each
    window's gradient, go/(kh*kw) for avg and go at the saved argmax offset
    (+0.0 elsewhere) for max, is added into a zeroed padded pixel-major
    buffer through the forward's window views, in (row, col) order.  Each
    input pixel is then ``((0 + t0) + t1) + ...`` over its window terms, the
    sum :func:`col2im_nd` forms over the same (c*kh*kw, n*Ho*Wo) patch
    matrix."""
    c, n, h, w = saved["in_shape"]
    ph, pw = pad
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    if grad_out.shape != (c, n, ho, wo):
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output "
                         f"{(c, n, ho, wo)}")
    kk = kernel[0] * kernel[1]
    go = grad_out.reshape(c * n, ho, wo).transpose(1, 2, 0)
    if kind == "max":
        terms = np.zeros((kk, ho, wo, c * n), dtype=go.dtype)
        arg = saved["arg"].reshape(c * n, ho, wo).transpose(1, 2, 0)
        np.put_along_axis(terms, arg[None], go[None], axis=0)
    elif kind == "avg":
        term = np.empty((ho, wo, c * n), dtype=go.dtype)
        np.divide(go, np.asarray(kk, dtype=go.dtype), out=term)
        terms = [term] * kk
    else:
        raise ShapeError(f"unknown pool kind {kind!r}")
    gp = np.zeros((h + 2 * ph, w + 2 * pw, c * n), dtype=go.dtype)
    for view, term in zip(_windows(gp, kernel, stride, ho, wo), terms):
        view += term
    return _channel_major(gp[ph:ph + h, pw:pw + w], c, n)


def _channel_sums(x: np.ndarray) -> np.ndarray:
    """Per-channel sums of a channel-major (c, n, h, w) array: one pairwise
    sum along each channel's contiguous n*h*w row."""
    return x.reshape(x.shape[0], -1).sum(axis=1)


def _bn_normalize(x: np.ndarray):
    """Batch statistics per channel over (n, h, w), in x's dtype: (mean,
    var, 1/sigma, x-hat).

    ``x - mean`` is formed once; the variance is the mean of its squares.
    Both sums are :func:`_channel_sums`, one pairwise sum per channel row.
    Then the same buffer is scaled in place by 1/sigma into x-hat.
    """
    m = x.size // x.shape[0]
    mean = _channel_sums(x) / m
    xhat = x - mean[:, None, None, None]
    var = _channel_sums(np.square(xhat)) / m
    inv = 1.0 / np.sqrt(var + np.asarray(BN_EPSILON, dtype=x.dtype))
    xhat *= inv[:, None, None, None]
    return mean, var, inv, xhat


def batchnorm2d(x: np.ndarray, table, saved: dict | None = None) -> np.ndarray:
    """Normalize per channel with the affine ``gamma``/``beta`` of a bn weight
    table, in train mode exactly when ``saved`` is a dict.

    Train mode normalizes with batch statistics, ``x-hat * gamma + beta``,
    and blends them into the table's running statistics in place with
    :data:`BN_MOMENTUM`; ``saved`` receives 1/sigma and x-hat, which
    :func:`batchnorm2d_backward` reads.  Eval mode (``saved`` None) is one
    per-channel affine on the running statistics, ``x * s + t`` with
    ``s = gamma / sqrt(running_var + eps)`` and ``t = beta - running_mean * s``.
    """
    gamma = table["gamma"]
    if x.shape[0] != gamma.shape[0]:
        raise ShapeError(f"input has {x.shape[0]} channels, batch norm has "
                         f"{gamma.shape[0]}")
    dt = x.dtype
    if saved is not None:
        mean, var, inv, xhat = _bn_normalize(x)
        saved["inv"], saved["xhat"] = inv, xhat
        for name, stat in (("running_mean", mean), ("running_var", var)):
            table[name][...] = ((1 - BN_MOMENTUM) * table[name]
                                + BN_MOMENTUM * stat.astype(np.float32))
        out = xhat * gamma.astype(dt)[:, None, None, None]
        out += table["beta"].astype(dt)[:, None, None, None]
        return out
    scale = gamma.astype(dt) / np.sqrt(table["running_var"].astype(dt)
                                       + np.asarray(BN_EPSILON, dtype=dt))
    shift = table["beta"].astype(dt) - table["running_mean"].astype(dt) * scale
    out = x * scale[:, None, None, None]
    out += shift[:, None, None, None]
    return out


def batchnorm2d_backward(grad_out: np.ndarray, saved: dict, table):
    """Gradients w.r.t. input, gamma, beta of a train-mode
    :func:`batchnorm2d`, from the 1/sigma and x-hat it put in ``saved``:
    ``grad_beta = sum(g)``, ``grad_gamma = sum(g * x-hat)`` and
    ``grad_x = (gamma/sigma) * (g - (grad_beta + x-hat * grad_gamma)/m)``
    over the m = n*h*w values of each channel."""
    inv, xhat = saved["inv"], saved["xhat"]
    if grad_out.shape != xhat.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {xhat.shape}")
    m = grad_out.size // grad_out.shape[0]
    grad_beta = _channel_sums(grad_out)
    grad_x = grad_out * xhat
    grad_gamma = _channel_sums(grad_x)
    # grad_x is rebuilt in the buffer that held g * x-hat
    np.multiply(xhat, (grad_gamma / m)[:, None, None, None], out=grad_x)
    grad_x += (grad_beta / m)[:, None, None, None]
    np.subtract(grad_out, grad_x, out=grad_x)
    grad_x *= (table["gamma"].astype(xhat.dtype) * inv)[:, None, None, None]
    return grad_x, grad_gamma, grad_beta


def relu(x: np.ndarray, saved: dict | None = None) -> np.ndarray:
    """max(x, 0); a ``saved`` dict receives the sign mask ``x > 0`` that
    :func:`relu_backward` reads."""
    if saved is not None:
        saved["mask"] = x > 0
    return np.maximum(x, 0)


def relu_backward(grad_out: np.ndarray, saved: dict) -> np.ndarray:
    mask = saved["mask"]
    if grad_out.shape != mask.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {mask.shape}")
    return grad_out * mask


def channel_concat(inputs) -> np.ndarray:
    inputs = list(inputs)
    if not inputs:
        raise ShapeError("concat needs at least one input")
    ref = inputs[0].shape
    for t in inputs[1:]:
        if t.shape[1:] != ref[1:]:
            raise ShapeError(
                f"concat mismatch: {t.shape} vs {ref} (batch/spatial)")
    return np.concatenate(inputs, axis=0)


def channel_concat_backward(grad_out: np.ndarray, channel_counts):
    grads = []
    off = 0
    for c in channel_counts:
        grads.append(grad_out[off:off + c].copy())
        off += c
    if off != grad_out.shape[0]:
        raise ShapeError("concat backward channel counts do not sum up")
    return grads


def channel_block_sum(x: np.ndarray, m: int) -> np.ndarray:
    """Sum the m channel blocks: (m*c, n, h, w) -> (c, n, h, w)."""
    c, n, h, w = x.shape
    if c % m:
        raise ShapeError(f"{c} channels not divisible by m={m}")
    return x.reshape(m, c // m, n, h, w).sum(axis=0)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_backward(grad_out: np.ndarray, in_shape) -> np.ndarray:
    scale = np.asarray(in_shape[2] * in_shape[3], dtype=grad_out.dtype)
    return np.broadcast_to(grad_out / scale, in_shape).copy()


def _rows(x: np.ndarray) -> np.ndarray:
    """Channel-major (c, n, 1, 1) features as a C-contiguous (n, c)
    matrix."""
    return np.ascontiguousarray(x.reshape(x.shape[:2]).T)


def _features(rows: np.ndarray) -> np.ndarray:
    """An (n, c) matrix as channel-major (c, n, 1, 1) features."""
    return np.ascontiguousarray(rows.T)[:, :, None, None]


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fully connected head on channel-major (c, n, 1, 1) features.  It
    keeps the gemm ``x(n, c) @ W.T`` and its order of sums: the tiny input
    and output are transposed around it."""
    c, n, h, w = x.shape
    if h != 1 or w != 1:
        raise ShapeError(f"linear expects 1x1 spatial input, got {x.shape}")
    if weight.shape[1] != c:
        raise ShapeError(
            f"linear weight expects {weight.shape[1]} features, got {c}")
    out = mm(_rows(x), weight.T.astype(x.dtype, copy=False))
    out = out + bias.astype(x.dtype, copy=False)[None, :]
    return _features(out)


def linear_backward(grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray):
    go = _rows(grad_out)
    grad_w = mm(go.T, _rows(x))
    grad_b = go.sum(axis=0)
    grad_x = mm(go, weight.astype(x.dtype, copy=False))
    return _features(grad_x), grad_w, grad_b


def softmax_cross_entropy(logits: Tensor, labels):
    """Mean NLL over the batch with max-subtracted softmax; the loss is
    ``log(sum(exp(z))) - z[label]`` on the max-subtracted logits ``z``.

    Returns (loss, grad_logits) where grad = (softmax - onehot) / n.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape[:2]
    if labels.shape != (n,):
        raise LabelError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise LabelError(f"labels must lie in [0, {k})")
    z = logits.data.reshape(n, k)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    p = ez / sez
    # log-sum-exp form: finite even where the label's probability
    # underflows to 0
    rows = np.arange(n)
    loss = float((np.log(sez[:, 0]) - z[rows, labels]).sum() / n)
    grad = p.copy()
    grad[rows, labels] -= 1
    grad /= n
    return loss, Tensor(grad[:, :, None, None])

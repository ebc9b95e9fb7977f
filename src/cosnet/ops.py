"""Differentiable layer operations: convolution (incl. grouped), pooling,
batch norm, activation, input replication, channel fusion, linear, loss.

Forward functions are pure, except that train-mode batch norm updates the
running statistics in its weight table.  Convolution, pooling, batch norm
and ReLU take an optional ``saved`` dict that their forward fills with
everything their backward reads: the conv patch matrix (from
:func:`_patches`) and input shape; the pool input shape (and, for max pool,
the argmax of each window); batch norm's 1/sigma and x-hat (from
:func:`_bn_normalize`); ReLU's sign mask.  Their backward functions take
that dict instead of the forward input, so no backward recomputes forward
state; the caller keeps the dict between the two passes.  Every other
backward takes only what it reads: the input shape (global average pool),
the input (linear), the channel counts (concat) or the replication factor.

Batch norm has one formula per mode, each a few passes over the
activation.  With m = n*h*w values per channel:

* train forward: ``x - mu`` is formed once, sigma^2 is the mean of its
  squares (as ``np.var`` forms it), and the same buffer is scaled by
  1/sigma into x-hat; ``y = x-hat * gamma + beta``;
* train backward: ``grad_beta = sum(g)``, ``grad_gamma = sum(g * x-hat)``
  and ``grad_x = (gamma/sigma) * (g - (grad_beta + x-hat * grad_gamma)/m)``
  (Ioffe & Szegedy 2015);
* eval: one per-channel affine ``y = x * s + t`` with
  ``s = gamma / sqrt(running_var + eps)`` and ``t = beta - running_mean * s``.

Convolutions lower to gemms over one patch layout, the (c*kh*kw, n*Ho*Wo)
matrix that :func:`im2col_nd` builds and :func:`col2im_nd` scatters back;
max and average pool backward build their window gradients in that layout
too.  Everything follows the dtype of its inputs (float32 in normal use,
float64 during gradient checking).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError, ShapeError
from .tensor import Tensor, _out_hw, _pad_hw, col2im_nd, im2col_nd, mm

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
    has_bias: bool = False

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


def _patches(x: Tensor, p: ConvParams):
    """The im2col patch matrix (in_channels*kh*kw, n*Ho*Wo), as
    :func:`im2col_nd` builds it, and (Ho, Wo).

    Patch rows are channel-major, so each group's rows are contiguous; its
    adjoint is :func:`col2im_nd` on the same geometry.
    """
    return (im2col_nd(x.data, p.kernel, p.stride, p.pad),
            _out_hw(x.h, x.w, p.kernel, p.stride, p.pad))


def _group_slices(p: ConvParams):
    """Per group: its slice of output (and weight-matrix) rows and its
    slice of patch-matrix rows."""
    cout_g = p.out_channels // p.groups
    rows_g = p.in_channels // p.groups * p.kernel[0] * p.kernel[1]
    return [(slice(gi * cout_g, (gi + 1) * cout_g),
             slice(gi * rows_g, (gi + 1) * rows_g))
            for gi in range(p.groups)]


def _conv_forward(x: Tensor, weight: np.ndarray, bias: np.ndarray | None,
                  p: ConvParams, gemm, saved) -> Tensor:
    """Both forward kernels: ``gemm(weight rows, patch rows)`` per group
    into one (out_channels, n*Ho*Wo) buffer, then back to NCHW with any
    bias added.  With one group the gemm result is that buffer.  A
    ``saved`` dict receives the patch matrix and the input shape."""
    cols, (ho, wo) = _patches(x, p)
    if saved is not None:
        saved["cols"], saved["in_shape"] = cols, x.shape
    wmat = weight.reshape(p.out_channels, -1).astype(x.dtype, copy=False)
    if p.groups == 1:
        out = gemm(wmat, cols)
    else:
        out = np.empty((p.out_channels, cols.shape[1]), dtype=x.dtype)
        for o, r in _group_slices(p):
            out[o] = gemm(wmat[o], cols[r])
    out = out.reshape(p.out_channels, x.n, ho, wo).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + bias.astype(x.dtype, copy=False)[None, :, None, None]
    return Tensor(out)


def conv2d_forward(x: Tensor, weight: np.ndarray, bias: np.ndarray | None,
                   params: ConvParams, saved: dict | None = None) -> Tensor:
    """im2col + gemm convolution; groups split channels into independent
    slices.  A ``saved`` dict receives the state :func:`conv2d_backward`
    reads."""
    if x.c != params.in_channels:
        raise ConfigError(
            f"input has {x.c} channels, conv expects {params.in_channels}")
    if tuple(weight.shape) != params.weight_shape:
        raise ShapeError(
            f"weight shape {weight.shape} != expected {params.weight_shape}")
    return _conv_forward(x, weight, bias, params, mm, saved)


def conv2d_grouped_forward(x: Tensor, weight: np.ndarray,
                           bias: np.ndarray | None, p: ConvParams,
                           saved: dict | None = None) -> Tensor:
    """Grouped convolution as two gemms per group over one im2col.

    Each group's inner dimension is split in two at half its input
    channels, and the two partial products are summed: a deliberately
    different reduction order from the single gemm per group of
    :func:`conv2d_forward`, whose gradients it shares.
    """
    split = max(p.in_channels // p.groups // 2, 1) * p.kernel[0] * p.kernel[1]

    def two_gemms(w, c):
        return mm(w[:, :split], c[:split]) + mm(w[:, split:], c[split:])

    return _conv_forward(x, weight, bias, p, two_gemms, saved)


def conv2d_backward(grad_out: Tensor, saved: dict, weight: np.ndarray,
                    params: ConvParams):
    """Exact reverse-mode gradients of :func:`conv2d_forward`, from the
    ``saved`` dict its forward filled (patch matrix and input shape).

    Returns (grad_input, grad_weight, grad_bias); grad_bias is None when the
    layer has no bias.
    """
    cols, in_shape = saved["cols"], saved["in_shape"]
    cout = params.out_channels
    want = (in_shape[0], cout, *_out_hw(*in_shape[2:], params.kernel,
                                        params.stride, params.pad))
    if grad_out.shape != want:
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output "
                         f"{want}")
    go = grad_out.data.transpose(1, 0, 2, 3).reshape(cout, -1)
    wmat = weight.reshape(cout, -1).astype(cols.dtype, copy=False)
    grad_w = np.empty(wmat.shape, dtype=cols.dtype)
    grad_cols = np.empty_like(cols)
    for o, r in _group_slices(params):
        grad_w[o] = mm(go[o], cols[r].T)
        grad_cols[r] = mm(wmat[o].T, go[o])
    grad_x = col2im_nd(grad_cols, in_shape, params.kernel, params.stride,
                       params.pad)
    grad_b = grad_out.data.sum(axis=(0, 2, 3)) if params.has_bias else None
    return Tensor(grad_x), grad_w.reshape(weight.shape), grad_b


def input_replicate(x: Tensor, m: int) -> Tensor:
    """Tile the channel block m times: (n,c,h,w) -> (n, m*c, h, w)."""
    if m < 1:
        raise ShapeError("replication factor must be >= 1")
    return Tensor(np.concatenate([x.data] * m, axis=1))


def input_replicate_backward(grad_out: Tensor, m: int) -> Tensor:
    if grad_out.c % m:
        raise ShapeError(f"{grad_out.c} channels not divisible by m={m}")
    n, c, h, w = grad_out.shape
    return Tensor(grad_out.data.reshape(n, m, c // m, h, w).sum(axis=1))


def _window_slices(x: np.ndarray, kernel, stride, pad, fill):
    """The kh*kw strided (n, c, Ho, Wo) views of x padded with ``fill``,
    one per kernel offset in (row, col) order."""
    sh, sw = stride
    ho, wo = _out_hw(*x.shape[2:], kernel, stride, pad)
    xp = _pad_hw(x, pad, fill)
    return [xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
            for ki in range(kernel[0]) for kj in range(kernel[1])]


def _pool_windows(x: np.ndarray, kernel, stride, pad, fill):
    """The window stack (n, c, kh*kw, Ho, Wo) of :func:`_window_slices`."""
    return np.stack(_window_slices(x, kernel, stride, pad, fill), axis=2)


def pool2d(x: Tensor, kind: str, kernel, stride, pad,
           saved: dict | None = None) -> Tensor:
    """Per-window max or mean; mean divides by the full window size
    (padded zeros count toward the divisor).  A ``saved`` dict receives the
    input shape and, for max pool, the argmax of each window as ``arg`` in
    the smallest unsigned dtype that holds kh*kw - 1: what
    :func:`pool2d_backward` reads.

    The mean is a running sum from +0.0 over the windows in (row, col)
    order, the order in which numpy sums a window stack over its window
    axis (so a one-element window of -0.0 sums to +0.0 here too).  A 1x1
    output keeps the stack: there the window axis is innermost, and numpy
    sums it pairwise.
    """
    if saved is not None:
        saved["in_shape"] = x.shape
    if kind == "max":
        wins = _pool_windows(x.data, kernel, stride, pad, -np.inf)
        out = wins.max(axis=2)
        if saved is not None:
            # wins.argmax(axis=2): the first offset holding the maximum, or
            # the first NaN; a boolean argmax over the window axis is faster
            # than a float one
            hit = (wins == out[:, :, None]) | np.isnan(wins)
            saved["arg"] = hit.argmax(axis=2).astype(
                np.min_scalar_type(kernel[0] * kernel[1] - 1))
        return Tensor(out)
    if kind == "avg":
        wins = _window_slices(x.data, kernel, stride, pad, 0.0)
        if wins[0].shape[2:] == (1, 1):
            out = np.stack(wins, axis=2).sum(axis=2)
        else:
            out = wins[0] + 0.0
            for win in wins[1:]:
                out += win
        out /= np.asarray(kernel[0] * kernel[1], dtype=x.dtype)
        return Tensor(out)
    raise ShapeError(f"unknown pool kind {kind!r}")


def pool2d_backward(grad_out: Tensor, saved: dict, kind: str, kernel,
                    stride, pad) -> Tensor:
    """Scatter the window gradients back through :func:`col2im_nd`, from the
    ``saved`` dict :func:`pool2d` filled; they are built as its (c, kh*kw,
    n, Ho, Wo) patch matrix."""
    in_shape = saved["in_shape"]
    n, c, h, w = in_shape
    kk = kernel[0] * kernel[1]
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    if grad_out.shape != (n, c, ho, wo):
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output "
                         f"{(n, c, ho, wo)}")
    go = grad_out.data.transpose(1, 0, 2, 3)[:, None]
    if kind == "max":
        gcols = np.zeros((c, kk, n, ho, wo), dtype=go.dtype)
        np.put_along_axis(gcols, saved["arg"].transpose(1, 0, 2, 3)[:, None],
                          go, axis=1)
    elif kind == "avg":
        gcols = np.broadcast_to(go / np.asarray(kk, dtype=go.dtype),
                                (c, kk, n, ho, wo))
    else:
        raise ShapeError(f"unknown pool kind {kind!r}")
    return Tensor(col2im_nd(gcols, in_shape, kernel, stride, pad))


def _bn_normalize(x: Tensor):
    """Batch statistics per channel over (n, h, w), in x's dtype: (mean,
    var, 1/sigma, x-hat).

    ``x - mean`` is formed once; the variance is the mean of its squares,
    summed and divided as ``np.var`` does, so both statistics are bitwise
    ``np.mean`` and ``np.var``; then the same buffer is scaled in place by
    1/sigma into x-hat.
    """
    data = x.data
    mean = data.mean(axis=(0, 2, 3))
    xhat = data - mean[None, :, None, None]
    var = np.square(xhat).sum(axis=(0, 2, 3)) / (data.size // x.c)
    inv = 1.0 / np.sqrt(var + np.asarray(BN_EPSILON, dtype=x.dtype))
    xhat *= inv[None, :, None, None]
    return mean, var, inv, xhat


def batchnorm2d(x: Tensor, table, mode: str,
                saved: dict | None = None) -> Tensor:
    """Normalize per channel with the affine ``gamma``/``beta`` of a bn weight
    table.

    Train mode normalizes with batch statistics, ``x-hat * gamma + beta``,
    and blends them into the table's running statistics in place with
    :data:`BN_MOMENTUM`; a ``saved`` dict receives 1/sigma and x-hat, which
    :func:`batchnorm2d_backward` reads.  Eval mode is one per-channel affine
    on the running statistics, ``x * s + t`` with
    ``s = gamma / sqrt(running_var + eps)`` and ``t = beta - running_mean * s``.
    """
    gamma = table["gamma"]
    if x.c != gamma.shape[0]:
        raise ShapeError(
            f"input has {x.c} channels, batch norm has {gamma.shape[0]}")
    dt = x.dtype
    if mode == "train":
        mean, var, inv, xhat = _bn_normalize(x)
        if saved is not None:
            saved["inv"], saved["xhat"] = inv, xhat
        for name, stat in (("running_mean", mean), ("running_var", var)):
            table[name][...] = ((1 - BN_MOMENTUM) * table[name]
                                + BN_MOMENTUM * stat.astype(np.float32))
        out = xhat * gamma.astype(dt)[None, :, None, None]
        out += table["beta"].astype(dt)[None, :, None, None]
        return Tensor(out)
    scale = gamma.astype(dt) / np.sqrt(table["running_var"].astype(dt)
                                       + np.asarray(BN_EPSILON, dtype=dt))
    shift = table["beta"].astype(dt) - table["running_mean"].astype(dt) * scale
    out = x.data * scale[None, :, None, None]
    out += shift[None, :, None, None]
    return Tensor(out)


def batchnorm2d_backward(grad_out: Tensor, saved: dict, table):
    """Gradients w.r.t. input, gamma, beta of a train-mode
    :func:`batchnorm2d`, from the 1/sigma and x-hat it put in ``saved``:
    ``grad_beta = sum(g)``, ``grad_gamma = sum(g * x-hat)`` and
    ``grad_x = (gamma/sigma) * (g - (grad_beta + x-hat * grad_gamma)/m)``
    over the m = n*h*w values of each channel."""
    inv, xhat = saved["inv"], saved["xhat"]
    if grad_out.shape != xhat.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {xhat.shape}")
    go = grad_out.data
    m = go.size // grad_out.c
    grad_beta = go.sum(axis=(0, 2, 3))
    grad_x = go * xhat
    grad_gamma = grad_x.sum(axis=(0, 2, 3))
    # grad_x is rebuilt in the buffer that held g * x-hat
    np.multiply(xhat, (grad_gamma / m)[None, :, None, None], out=grad_x)
    grad_x += (grad_beta / m)[None, :, None, None]
    np.subtract(go, grad_x, out=grad_x)
    grad_x *= (table["gamma"].astype(xhat.dtype) * inv)[None, :, None, None]
    return Tensor(grad_x), grad_gamma, grad_beta


def relu(x: Tensor, saved: dict | None = None) -> Tensor:
    """max(x, 0); a ``saved`` dict receives the sign mask ``x > 0`` that
    :func:`relu_backward` reads."""
    if saved is not None:
        saved["mask"] = x.data > 0
    return Tensor(np.maximum(x.data, 0))


def relu_backward(grad_out: Tensor, saved: dict) -> Tensor:
    mask = saved["mask"]
    if grad_out.shape != mask.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {mask.shape}")
    return Tensor(grad_out.data * mask)


def channel_concat(inputs) -> Tensor:
    inputs = list(inputs)
    if not inputs:
        raise ShapeError("concat needs at least one input")
    ref = inputs[0]
    for t in inputs[1:]:
        if (t.n, t.h, t.w) != (ref.n, ref.h, ref.w):
            raise ShapeError(
                f"concat mismatch: {t.shape} vs {ref.shape} (batch/spatial)")
    return Tensor(np.concatenate([t.data for t in inputs], axis=1))


def channel_concat_backward(grad_out: Tensor, channel_counts):
    grads = []
    off = 0
    for c in channel_counts:
        grads.append(Tensor(grad_out.data[:, off:off + c].copy()))
        off += c
    if off != grad_out.c:
        raise ShapeError("concat backward channel counts do not sum up")
    return grads


def channel_block_sum(x: Tensor, m: int) -> Tensor:
    """Sum the m channel blocks: (n, m*c, h, w) -> (n, c, h, w)."""
    if x.c % m:
        raise ShapeError(f"{x.c} channels not divisible by m={m}")
    n, c, h, w = x.shape
    return Tensor(x.data.reshape(n, m, c // m, h, w).sum(axis=1))


def channel_block_sum_backward(grad_out: Tensor, m: int) -> Tensor:
    return Tensor(np.concatenate([grad_out.data] * m, axis=1))


def global_avg_pool(x: Tensor) -> Tensor:
    return Tensor(x.data.mean(axis=(2, 3), keepdims=True))


def global_avg_pool_backward(grad_out: Tensor, in_shape) -> Tensor:
    scale = np.asarray(in_shape[2] * in_shape[3], dtype=grad_out.dtype)
    return Tensor(np.broadcast_to(grad_out.data / scale, in_shape).copy())


def linear(x: Tensor, weight: np.ndarray, bias: np.ndarray) -> Tensor:
    """Fully connected head on (n, c, 1, 1) features."""
    if x.h != 1 or x.w != 1:
        raise ShapeError(f"linear expects 1x1 spatial input, got {x.shape}")
    if weight.shape[1] != x.c:
        raise ShapeError(
            f"linear weight expects {weight.shape[1]} features, got {x.c}")
    out = mm(x.data.reshape(x.n, x.c), weight.T.astype(x.dtype, copy=False))
    out = out + bias.astype(x.dtype, copy=False)[None, :]
    return Tensor(out[:, :, None, None])


def linear_backward(grad_out: Tensor, x: Tensor, weight: np.ndarray):
    go = grad_out.data.reshape(grad_out.n, grad_out.c)
    xin = x.data.reshape(x.n, x.c)
    grad_w = mm(go.T, xin)
    grad_b = go.sum(axis=0)
    grad_x = mm(go, weight.astype(x.dtype, copy=False))
    return Tensor(grad_x[:, :, None, None]), grad_w, grad_b


def softmax_cross_entropy(logits: Tensor, labels):
    """Mean NLL over the batch with max-subtracted softmax; the loss is
    ``log(sum(exp(z))) - z[label]`` on the max-subtracted logits ``z``.

    Returns (loss, grad_logits) where grad = (softmax - onehot) / n.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.n, logits.c
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
    return loss, Tensor(grad.astype(logits.dtype)[:, :, None, None])

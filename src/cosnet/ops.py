"""Differentiable layer operations: convolution (incl. grouped), pooling,
batch norm, activation, input replication, channel fusion, linear, loss.

Forward functions are pure, except that train-mode batch norm updates the
running statistics in its weight table.  Convolution and batch norm take
an optional ``saved`` dict that their forward fills with everything their
backward reads: the conv patch matrix (from :func:`_patches`) and input
shape, or batch norm's 1/sigma and x-hat (from :func:`_bn_normalize`).
Their backward functions take that dict instead of the forward input, so
no backward recomputes forward state; the caller keeps the dict between
the two passes.  Every other backward reads the forward inputs.
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
    h, w = x.shape[2:]
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                constant_values=fill)
    return [xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
            for ki in range(kernel[0]) for kj in range(kernel[1])]


def _pool_windows(x: np.ndarray, kernel, stride, pad, fill):
    """The window stack (n, c, kh*kw, Ho, Wo) of :func:`_window_slices`."""
    return np.stack(_window_slices(x, kernel, stride, pad, fill), axis=2)


def pool2d(x: Tensor, kind: str, kernel, stride, pad) -> Tensor:
    """Per-window max or mean; mean divides by the full window size
    (padded zeros count toward the divisor).

    The mean is a running sum from +0.0 over the windows in (row, col)
    order, the order in which numpy sums a window stack over its window
    axis (so a one-element window of -0.0 sums to +0.0 here too).  A 1x1
    output keeps the stack: there the window axis is innermost, and numpy
    sums it pairwise.
    """
    if kind == "max":
        return Tensor(_pool_windows(x.data, kernel, stride, pad,
                                    -np.inf).max(axis=2))
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


def pool2d_backward(grad_out: Tensor, x: Tensor, kind: str, kernel, stride,
                    pad) -> Tensor:
    """Scatter the window gradients back through :func:`col2im_nd`; they
    are built as its (c, kh*kw, n, Ho, Wo) patch matrix."""
    n, c = x.shape[:2]
    kk = kernel[0] * kernel[1]
    ho, wo = _out_hw(x.h, x.w, kernel, stride, pad)
    if grad_out.shape != (n, c, ho, wo):
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output "
                         f"{(n, c, ho, wo)}")
    go = grad_out.data.transpose(1, 0, 2, 3)[:, None]
    if kind == "max":
        arg = _pool_windows(x.data, kernel, stride, pad,
                            -np.inf).argmax(axis=2)
        gcols = np.zeros((c, kk, n, ho, wo), dtype=x.dtype)
        np.put_along_axis(gcols, arg.transpose(1, 0, 2, 3)[:, None], go,
                          axis=1)
    elif kind == "avg":
        gcols = np.broadcast_to(go / np.asarray(kk, dtype=x.dtype),
                                (c, kk, n, ho, wo))
    else:
        raise ShapeError(f"unknown pool kind {kind!r}")
    return Tensor(col2im_nd(gcols, x.shape, kernel, stride, pad))


def _bn_normalize(x: Tensor, table, mode: str):
    """Per-channel (mean, var, 1/sigma, x-hat) in x's dtype: batch
    statistics over (n, h, w) in train mode, the table's running statistics
    otherwise."""
    if mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
    else:
        mean = table["running_mean"].astype(x.dtype)
        var = table["running_var"].astype(x.dtype)
    inv = 1.0 / np.sqrt(var + np.asarray(BN_EPSILON, dtype=x.dtype))
    xhat = (x.data - mean[None, :, None, None]) * inv[None, :, None, None]
    return mean, var, inv, xhat


def batchnorm2d(x: Tensor, table, mode: str,
                saved: dict | None = None) -> Tensor:
    """Normalize per channel with the affine ``gamma``/``beta`` of a bn weight
    table; train mode uses batch statistics and blends them into the table's
    running statistics in place with :data:`BN_MOMENTUM`.  A ``saved`` dict
    receives 1/sigma and x-hat, which :func:`batchnorm2d_backward` reads."""
    gamma = table["gamma"]
    if x.c != gamma.shape[0]:
        raise ShapeError(
            f"input has {x.c} channels, batch norm has {gamma.shape[0]}")
    mean, var, inv, xhat = _bn_normalize(x, table, mode)
    if saved is not None:
        saved["inv"], saved["xhat"] = inv, xhat
    if mode == "train":
        for name, stat in (("running_mean", mean), ("running_var", var)):
            table[name][...] = ((1 - BN_MOMENTUM) * table[name]
                                + BN_MOMENTUM * stat.astype(np.float32))
    out = xhat * gamma.astype(x.dtype)[None, :, None, None] \
        + table["beta"].astype(x.dtype)[None, :, None, None]
    return Tensor(out)


def batchnorm2d_backward(grad_out: Tensor, saved: dict, table, mode: str):
    """Gradients w.r.t. input, gamma, beta from the 1/sigma and x-hat that
    :func:`batchnorm2d` put in ``saved`` (batch statistics in train
    mode)."""
    inv, xhat = saved["inv"], saved["xhat"]
    if grad_out.shape != xhat.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {xhat.shape}")
    go = grad_out.data
    grad_gamma = (go * xhat).sum(axis=(0, 2, 3))
    grad_beta = go.sum(axis=(0, 2, 3))
    gxh = go * table["gamma"].astype(xhat.dtype)[None, :, None, None]
    if mode == "train":
        n, _, h, w = xhat.shape
        m = n * h * w
        grad_x = (inv[None, :, None, None] / m) * (
            m * gxh
            - gxh.sum(axis=(0, 2, 3))[None, :, None, None]
            - xhat * (gxh * xhat).sum(axis=(0, 2, 3))[None, :, None, None])
    else:
        grad_x = gxh * inv[None, :, None, None]
    return Tensor(grad_x), grad_gamma, grad_beta


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0))


def relu_backward(grad_out: Tensor, x: Tensor) -> Tensor:
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {x.shape}")
    return Tensor(grad_out.data * (x.data > 0))


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


def global_avg_pool_backward(grad_out: Tensor, x: Tensor) -> Tensor:
    scale = np.asarray(x.h * x.w, dtype=x.dtype)
    return Tensor(np.broadcast_to(grad_out.data / scale, x.shape).copy())


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

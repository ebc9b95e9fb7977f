"""Differentiable layer operations: convolution (incl. grouped), pooling,
batch norm, activation, input replication, channel fusion, linear, loss.

Forward functions are pure; backward functions recompute whatever cheap
intermediate state they need from the original inputs, so the caller only has
to retain the forward inputs.  Everything follows the dtype of its inputs
(float32 in normal use, float64 during gradient checking).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError, ShapeError
from .tensor import Tensor, _out_hw, col2im_nd, im2col_nd, mm


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


def conv2d_forward(x: Tensor, weight: np.ndarray, bias: np.ndarray | None,
                   params: ConvParams) -> Tensor:
    """im2col + gemm convolution; groups split channels into independent slices."""
    if x.c != params.in_channels:
        raise ConfigError(
            f"input has {x.c} channels, conv expects {params.in_channels}")
    if tuple(weight.shape) != params.weight_shape:
        raise ShapeError(
            f"weight shape {weight.shape} != expected {params.weight_shape}")
    n = x.n
    g = params.groups
    cin_g = params.in_channels // g
    cout_g = params.out_channels // g
    kh, kw = params.kernel
    ho, wo = _out_hw(x.h, x.w, params.kernel, params.stride, params.pad)
    cols = im2col_nd(x.data, params.kernel, params.stride, params.pad)
    # (n, rows, L) -> (rows, n*L); group rows are contiguous (channel-major)
    cols = cols.transpose(1, 0, 2).reshape(params.in_channels * kh * kw, n * ho * wo)
    out = np.empty((params.out_channels, n * ho * wo), dtype=x.dtype)
    rows_g = cin_g * kh * kw
    for gi in range(g):
        wmat = weight[gi * cout_g:(gi + 1) * cout_g].reshape(cout_g, rows_g)
        out[gi * cout_g:(gi + 1) * cout_g] = mm(
            wmat.astype(x.dtype, copy=False), cols[gi * rows_g:(gi + 1) * rows_g])
    out = out.reshape(params.out_channels, n, ho, wo).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + bias.astype(x.dtype, copy=False)[None, :, None, None]
    return Tensor(out)


def conv2d_grouped_forward(x: Tensor, weight: np.ndarray,
                           bias: np.ndarray | None, p: ConvParams) -> Tensor:
    """Grouped convolution as two gemms per group over one im2col.

    Each group's inner dimension is split in two at half its input
    channels, and the two partial products are summed: a deliberately
    different reduction order from the single gemm per group of
    :func:`conv2d_forward`, whose gradients it shares.
    """
    n = x.n
    g = p.groups
    cin_g = p.in_channels // g
    cout_g = p.out_channels // g
    kh, kw = p.kernel
    ho, wo = _out_hw(x.h, x.w, p.kernel, p.stride, p.pad)
    cols = im2col_nd(x.data, p.kernel, p.stride, p.pad)
    cols = cols.transpose(1, 0, 2).reshape(p.in_channels * kh * kw,
                                           n * ho * wo)
    out = np.empty((p.out_channels, n * ho * wo), dtype=x.dtype)
    rows_g = cin_g * kh * kw
    split = max(cin_g // 2, 1) * kh * kw
    for gi in range(g):
        wmat = weight[gi * cout_g:(gi + 1) * cout_g].reshape(
            cout_g, rows_g).astype(x.dtype, copy=False)
        cg = cols[gi * rows_g:(gi + 1) * rows_g]
        out[gi * cout_g:(gi + 1) * cout_g] = (
            mm(wmat[:, :split], cg[:split]) + mm(wmat[:, split:], cg[split:]))
    out = out.reshape(p.out_channels, n, ho, wo).transpose(1, 0, 2, 3)
    if bias is not None:
        out = out + bias.astype(x.dtype, copy=False)[None, :, None, None]
    return Tensor(out)


def conv2d_backward(grad_out: Tensor, x: Tensor, weight: np.ndarray,
                    params: ConvParams):
    """Exact reverse-mode gradients of :func:`conv2d_forward`.

    Returns (grad_input, grad_weight, grad_bias); grad_bias is None when the
    layer has no bias.
    """
    n = x.n
    g = params.groups
    cin_g = params.in_channels // g
    cout_g = params.out_channels // g
    kh, kw = params.kernel
    ho, wo = _out_hw(x.h, x.w, params.kernel, params.stride, params.pad)
    if grad_out.shape != (n, params.out_channels, ho, wo):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != forward output "
            f"{(n, params.out_channels, ho, wo)}")
    go = grad_out.data.transpose(1, 0, 2, 3).reshape(params.out_channels, n * ho * wo)
    cols = im2col_nd(x.data, params.kernel, params.stride, params.pad)
    cols = cols.transpose(1, 0, 2).reshape(params.in_channels * kh * kw, n * ho * wo)
    rows_g = cin_g * kh * kw
    grad_w = np.empty_like(weight, dtype=x.dtype)
    grad_cols = np.empty_like(cols)
    for gi in range(g):
        go_g = go[gi * cout_g:(gi + 1) * cout_g]
        wmat = weight[gi * cout_g:(gi + 1) * cout_g].reshape(cout_g, rows_g)
        grad_w[gi * cout_g:(gi + 1) * cout_g] = mm(
            go_g, cols[gi * rows_g:(gi + 1) * rows_g].T).reshape(
                cout_g, cin_g, kh, kw)
        grad_cols[gi * rows_g:(gi + 1) * rows_g] = mm(
            wmat.T.astype(x.dtype, copy=False), go_g)
    grad_cols = grad_cols.reshape(params.in_channels * kh * kw, n, ho * wo)
    grad_cols = grad_cols.transpose(1, 0, 2)
    grad_x = col2im_nd(grad_cols, x.shape, params.kernel, params.stride,
                       params.pad)
    grad_b = grad_out.data.sum(axis=(0, 2, 3)) if params.has_bias else None
    return Tensor(grad_x), grad_w, grad_b


def input_replicate(x: Tensor, m: int) -> Tensor:
    """Tile the channel block m times: (n,c,h,w) -> (n, m*c, h, w)."""
    if m < 1:
        raise ShapeError("replication factor must be >= 1")
    if m == 1:
        return Tensor(x.data.copy())
    return Tensor(np.concatenate([x.data] * m, axis=1))


def input_replicate_backward(grad_out: Tensor, m: int) -> Tensor:
    if grad_out.c % m:
        raise ShapeError(f"{grad_out.c} channels not divisible by m={m}")
    n, c, h, w = grad_out.shape
    return Tensor(grad_out.data.reshape(n, m, c // m, h, w).sum(axis=1))


def _pool_windows(x: np.ndarray, kernel, stride, pad, fill):
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                constant_values=fill)
    win = np.empty((n, c, kh * kw, ho, wo), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            win[:, :, ki * kw + kj] = xp[:, :, ki:ki + sh * ho:sh,
                                         kj:kj + sw * wo:sw]
    return win, (ho, wo)


def pool2d(x: Tensor, kind: str, kernel, stride, pad) -> Tensor:
    """Per-window max or mean; mean divides by the full window size
    (padded zeros count toward the divisor)."""
    if kind == "max":
        win, _ = _pool_windows(x.data, kernel, stride, pad, -np.inf)
        return Tensor(win.max(axis=2))
    if kind == "avg":
        win, _ = _pool_windows(x.data, kernel, stride, pad, 0.0)
        return Tensor(win.sum(axis=2) / np.asarray(kernel[0] * kernel[1],
                                                   dtype=x.dtype))
    raise ShapeError(f"unknown pool kind {kind!r}")


def pool2d_backward(grad_out: Tensor, x: Tensor, kind: str, kernel, stride,
                    pad) -> Tensor:
    n, c, h, w = x.shape
    kh, kw = kernel
    ho, wo = grad_out.shape[2:]
    if kind == "max":
        win, _ = _pool_windows(x.data, kernel, stride, pad, -np.inf)
        arg = win.argmax(axis=2)
        gcols = np.zeros((n, c, kh * kw, ho, wo), dtype=x.dtype)
        np.put_along_axis(gcols, arg[:, :, None], grad_out.data[:, :, None], axis=2)
    elif kind == "avg":
        gcols = np.broadcast_to(
            grad_out.data[:, :, None] / np.asarray(kh * kw, dtype=x.dtype),
            (n, c, kh * kw, ho, wo)).copy()
    else:
        raise ShapeError(f"unknown pool kind {kind!r}")
    cols = gcols.reshape(n, c * kh * kw, ho * wo)
    return Tensor(col2im_nd(cols, x.shape, kernel, stride, pad))


@dataclass
class BatchNormState:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    epsilon: float = 1e-5
    mode: str = "eval"

    @classmethod
    def create(cls, channels: int, momentum: float = 0.1,
               epsilon: float = 1e-5, mode: str = "eval"):
        return cls(gamma=np.ones(channels, dtype=np.float32),
                   beta=np.zeros(channels, dtype=np.float32),
                   running_mean=np.zeros(channels, dtype=np.float32),
                   running_var=np.ones(channels, dtype=np.float32),
                   momentum=momentum, epsilon=epsilon, mode=mode)


def batchnorm2d(x: Tensor, state: BatchNormState) -> Tensor:
    """Normalize per channel; train mode uses batch stats over (n,h,w) and
    updates the running stats in place with the configured momentum."""
    if x.c != state.gamma.shape[0]:
        raise ShapeError(
            f"input has {x.c} channels, batch norm has {state.gamma.shape[0]}")
    eps = np.asarray(state.epsilon, dtype=x.dtype)
    if state.mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        m = state.momentum
        state.running_mean[...] = ((1 - m) * state.running_mean
                                   + m * mean.astype(np.float32))
        state.running_var[...] = ((1 - m) * state.running_var
                                  + m * var.astype(np.float32))
    else:
        mean = state.running_mean.astype(x.dtype)
        var = state.running_var.astype(x.dtype)
    inv = 1.0 / np.sqrt(var.astype(x.dtype) + eps)
    xhat = (x.data - mean.astype(x.dtype)[None, :, None, None]) \
        * inv[None, :, None, None]
    out = xhat * state.gamma.astype(x.dtype)[None, :, None, None] \
        + state.beta.astype(x.dtype)[None, :, None, None]
    return Tensor(out)


def batchnorm2d_backward(grad_out: Tensor, x: Tensor, state: BatchNormState):
    """Gradients w.r.t. input, gamma, beta (train-mode batch statistics)."""
    if grad_out.shape != x.shape:
        raise ShapeError(f"grad shape {grad_out.shape} != input {x.shape}")
    dtype = x.dtype
    eps = np.asarray(state.epsilon, dtype=dtype)
    if state.mode == "train":
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
    else:
        mean = state.running_mean.astype(dtype)
        var = state.running_var.astype(dtype)
    inv = 1.0 / np.sqrt(var.astype(dtype) + eps)
    xhat = (x.data - mean.astype(dtype)[None, :, None, None]) \
        * inv[None, :, None, None]
    go = grad_out.data
    grad_gamma = (go * xhat).sum(axis=(0, 2, 3))
    grad_beta = go.sum(axis=(0, 2, 3))
    gxh = go * state.gamma.astype(dtype)[None, :, None, None]
    if state.mode == "train":
        m = x.n * x.h * x.w
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

"""Dense 4-D tensors and the two primitive kernels everything else is built on.

Storage is 32-bit float in n-major (then channel, row, col) order.  A tensor
is immutable from the caller's perspective: every operation allocates its
output.  :func:`mm` has a documented accumulation order: the fast path is a
single BLAS call; deterministic mode (``COSNET_DETERMINISTIC=1`` or
:func:`set_deterministic`) forces a strictly sequential reduction over the
inner dimension: every output element is ``((0 + p0) + p1) + ...`` with its
products in k order.  Deterministic mode evaluates that order a block of k
at a time (see :func:`mm`), so a result depends only on the operands, never
on the block size.  The two paths agree within 1e-6 relative on the sizes
used here.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ConfigError, GeometryError, ShapeError

_DETERMINISTIC = os.environ.get("COSNET_DETERMINISTIC", "0") == "1"

# Deterministic mm: byte size of the block buffer, and the output size (m*n)
# from which one k per step is as fast as a block of them.
_BLOCK_BYTES = 1 << 19
_BLOCK_MAX_OUTPUT = 1 << 15


def set_deterministic(flag: bool) -> None:
    """Force sequential reductions (slower, bitwise reproducible by order)."""
    global _DETERMINISTIC
    _DETERMINISTIC = bool(flag)


def deterministic_enabled() -> bool:
    return _DETERMINISTIC


def check_seed(seed: int) -> None:
    """Every seed of the package must be a non-negative integer."""
    if seed < 0:
        raise ConfigError(f"seeds must be >= 0, got {seed}")


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The package's random generator.  ``key`` picks one of the seed's
    independent streams (``SeedSequence(seed, spawn_key=key)``); with no key
    this is ``PCG64(seed)``."""
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=key)))


def _check_shape(shape):
    if len(shape) != 4:
        raise ShapeError(f"expected 4-D shape, got {shape}")
    if any(int(d) < 1 for d in shape):
        raise ShapeError(f"all dimensions must be >= 1, got {shape}")
    return tuple(int(d) for d in shape)


class Tensor:
    """A dense n×c×h×w array of 32-bit floats (64-bit allowed for checking)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        _check_shape(data.shape)
        if data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float32)
        self.data = np.ascontiguousarray(data)

    @property
    def shape(self):
        return self.data.shape

    @property
    def n(self):
        return self.data.shape[0]

    @property
    def c(self):
        return self.data.shape[1]

    @property
    def h(self):
        return self.data.shape[2]

    @property
    def w(self):
        return self.data.shape[3]

    @property
    def dtype(self):
        return self.data.dtype

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype))

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def tensor_create(shape, fill: str = "zeros", *, value: float = 0.0,
                  seed: int = 0, lo: float = 0.0, hi: float = 1.0,
                  mean: float = 0.0, std: float = 1.0,
                  dtype=np.float32) -> Tensor:
    """Create a tensor; random fills are fully determined by ``seed``."""
    shape = _check_shape(shape)
    if fill == "zeros":
        data = np.zeros(shape, dtype=dtype)
    elif fill == "ones":
        data = np.ones(shape, dtype=dtype)
    elif fill == "constant":
        data = np.full(shape, value, dtype=dtype)
    elif fill == "uniform":
        rng = seeded_rng(seed)
        data = rng.uniform(lo, hi, size=shape).astype(dtype)
    elif fill == "normal":
        rng = seeded_rng(seed)
        data = rng.normal(mean, std, size=shape).astype(dtype)
    else:
        raise ShapeError(f"unknown fill kind {fill!r}")
    return Tensor(data)


def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _out_hw(h, w, kernel, stride, pad):
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    ho = conv_output_size(h, kh, sh, ph)
    wo = conv_output_size(w, kw, sw, pw)
    if ho < 1 or wo < 1:
        raise GeometryError(
            f"non-positive output size for input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, pad {ph}x{pw}")
    return ho, wo


def _pad_hw(x: np.ndarray, pad, fill=0.0) -> np.ndarray:
    """x with ``pad`` = (ph, pw) rows and columns of ``fill`` around its last
    two axes, as ``np.pad`` with ``constant_values=fill`` gives it, from one
    allocation and one copy of x; x itself when both pads are zero."""
    ph, pw = pad
    if not (ph or pw):
        return x
    *lead, h, w = x.shape
    shape = (*lead, h + 2 * ph, w + 2 * pw)
    # a zeroed allocation is cheaper than writing the fill
    xp = (np.zeros(shape, dtype=x.dtype) if fill == 0
          else np.full(shape, fill, dtype=x.dtype))
    xp[..., ph:ph + h, pw:pw + w] = x
    return xp


def im2col_nd(x: np.ndarray, kernel, stride, pad) -> np.ndarray:
    """Lower a batch (n,c,h,w) to the gemm patch matrix (c*kh*kw, n*Ho*Wo).

    Patch rows are ordered channel-major, then kernel row, then kernel col;
    columns are ordered by sample, then output row, then output col.  The
    matrix is written as (c, kh, kw, n, Ho, Wo) from a channel-major view
    of the input.  Out-of-bounds elements are zero.  A 1x1 kernel with
    stride 1 and no padding is one transpose-reshape of the input.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    xc = x.transpose(1, 0, 2, 3)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        return xc.reshape(c, n * h * w)
    xc = _pad_hw(xc, pad)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xc[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
    return cols.reshape(c * kh * kw, n * ho * wo)


def col2im_nd(cols: np.ndarray, in_shape, kernel, stride, pad) -> np.ndarray:
    """Adjoint of :func:`im2col_nd`: scatter-add a (c*kh*kw, n*Ho*Wo) patch
    matrix back onto an (n,c,h,w) batch.

    Each input element is ``((0 + p0) + p1) + ...`` over its patches in
    (kernel row, kernel col) order, so a lone -0.0 patch value lands as
    +0.0; the 1x1 shortcut adds its single patch to +0.0 the same way.  The
    scatter runs on a channel-major buffer, so the general result is an
    (n,c,h,w) view of it.
    """
    n, c, h, w = in_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        return np.add(cols.reshape(c, n, h, w).transpose(1, 0, 2, 3), 0.0,
                      order="C")
    cols = cols.reshape(c, kh, kw, n, ho, wo)
    xp = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for ki in range(kh):
        for kj in range(kw):
            xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw] += cols[:, ki, kj]
    return xp[:, :, ph:ph + h, pw:pw + w].transpose(1, 0, 2, 3)


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with the package's fixed accumulation contract.

    Fast mode is ``a @ b``.  Deterministic mode sums each output element's
    products strictly in k order from +0.0, bitwise equal to the loop
    ``out += a[:, k, None] * b[k]`` over k, but takes a block of ``kc``
    inner indices per step: the block's products fill rows 1..kc of a
    buffer, the running sum row 0, and ``np.add.reduce`` over that outer
    axis adds the rows to each element one after another.  (numpy starts
    that reduce from +0.0, which leaves a running sum unchanged: a sum
    begun at +0.0 is never -0.0.)  Two output sizes keep the per-k loop:
    m*n == 1, where the reduced axis would become numpy's inner loop and be
    summed pairwise, and m*n >= ``_BLOCK_MAX_OUTPUT``, where a block
    measured no faster.
    """
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.shape} x {b.shape}")
    if not _DETERMINISTIC:
        return a @ b
    (m, kdim), n = a.shape, b.shape[1]
    out = np.zeros((m, n), dtype=np.result_type(a, b))
    if m * n == 1 or m * n >= _BLOCK_MAX_OUTPUT:
        for k in range(kdim):
            out += a[:, k][:, None] * b[k][None, :]
        return out
    kc = max(_BLOCK_BYTES // out.nbytes - 1, 1)
    buf = np.empty((min(kc, kdim) + 1, m, n), dtype=out.dtype)
    for k0 in range(0, kdim, kc):
        k1 = min(k0 + kc, kdim)
        blk = buf[:k1 - k0 + 1]
        # a broadcast copy and an in-place multiply beat one broadcasting
        # multiply here; both read contiguous copies of the operand blocks
        np.copyto(blk[1:], np.ascontiguousarray(a[:, k0:k1].T)[:, :, None])
        blk[1:] *= np.ascontiguousarray(b[k0:k1])[:, None, :]
        blk[0] = out
        np.add.reduce(blk, axis=0, out=out)
    return out


def elementwise(op: str, a: Tensor, b: Tensor) -> Tensor:
    """Pointwise sum of two same-shape tensors (``op`` must be "add")."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if op == "add":
        return Tensor(a.data + b.data)
    raise ShapeError(f"unknown elementwise op {op!r}")

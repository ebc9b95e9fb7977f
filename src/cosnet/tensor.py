"""Dense 4-D tensors and the two primitive kernels everything else is built on.

:class:`Tensor` is the validated type of the package's boundary: a 32-bit
float array in (n, c, h, w) order, what a caller passes to
``graph_forward``, ``graph_backward`` and ``runtime.execute`` and gets back
from them.  Shapes are logical (n, c, h, w) wherever they are named: in a
``Tensor``, in every shape rule and in ``graph.infer_shapes``.  Inside, the
kernels, the layer table and the interpreter pass plain C-contiguous arrays
in channel-major (c, n, h, w) order, the order a conv gemm writes and
:func:`im2col_nd` reads; only ``graph.run_steps`` and ``graph.graph_backward``
transpose, at the boundary.  No op writes into an array it did not allocate
(train-mode batch norm's running statistics, in the weight table, are the
one documented exception).
:func:`mm` writes into a buffer its caller allocated (a conv's output or
gradient, or one group's rows of it) and has a documented accumulation
order: the fast path is a single BLAS call; deterministic mode
(``COSNET_DETERMINISTIC=1`` or :func:`set_deterministic`) forces a strictly
sequential reduction over the inner dimension: every output element is
``((0 + p0) + p1) + ...`` with its products in k order.  Deterministic
mode evaluates that order a block of k at a time (see :func:`mm`), so a
result depends only on the operands, never on the block size.  The two
paths agree within 1e-6 relative on the sizes used here.

:func:`im2col_nd`, the patch matrix every convolution multiplies, has two
ways to build it and one set of bytes: a map of at most 64 pixels is one
gather through a cached index of where each patch entry reads, every larger
map is copied strided.  Both only move values, so any input, -0.0, inf and
NaN included, lands bit for bit.  Its adjoint :func:`col2im_nd` likewise
gathers each pixel's patch entries through the transposed index on the
same maps and scatters strided on larger ones; both add the same terms in
the same order, so the bytes agree for any input.  Convolution backward is
its one caller: pool backward adds its window gradients in its own
pixel-major layout (see ``ops.pool2d_backward``).
"""

from __future__ import annotations

import functools
import math
import operator
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
    """``shape`` as a tuple of ints: a sequence of four integers (Python or
    numpy), each >= 1; anything else raises :class:`ShapeError`."""
    try:
        dims = tuple(operator.index(d) for d in shape)
    except TypeError:
        raise ShapeError(f"expected a sequence of integers, got "
                         f"{shape!r}") from None
    if len(dims) != 4:
        raise ShapeError(f"expected 4-D shape, got {shape}")
    if any(d < 1 for d in dims):
        raise ShapeError(f"all dimensions must be >= 1, got {shape}")
    return dims


class Tensor:
    """A dense n×c×h×w array of 32-bit floats (64-bit allowed for checking):
    4-D, every dimension >= 1, C-contiguous."""

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

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def tensor_create(shape, fill: str = "zeros", *, seed: int = 0,
                  lo: float = 0.0, hi: float = 1.0,
                  dtype=np.float32) -> Tensor:
    """Create a tensor filled with ``"zeros"``, ``"ones"`` or ``"uniform"``
    draws in [lo, hi), which are fully determined by ``seed``."""
    shape = _check_shape(shape)
    # random fills draw float64 first
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"a tensor of shape {shape} has more elements "
                          "than an array can hold")
    try:
        if fill == "zeros":
            data = np.zeros(shape, dtype=dtype)
        elif fill == "ones":
            data = np.ones(shape, dtype=dtype)
        elif fill == "uniform":
            rng = seeded_rng(seed)
            data = rng.uniform(lo, hi, size=shape).astype(dtype)
        else:
            raise ShapeError(f"unknown fill kind {fill!r}")
    except MemoryError as exc:
        # numpy refuses a request this large before allocating any of it
        raise ConfigError(f"cannot allocate a tensor of shape {shape}: "
                          f"{exc}") from None
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


# im2col_nd and col2im_nd gather on a map of at most this many pixels and
# copy or scatter larger maps strided.  On 8x8 and smaller maps the strided
# loops run inner loops of Wo = 2-8 elements, and the gathers were faster
# on every channel-major shape measured there; on 16x16 maps neither way
# was faster on every shape.
_GATHER_MAX_PIXELS = 64


def im2col_nd(x: np.ndarray, kernel, stride, pad) -> np.ndarray:
    """Lower a channel-major batch (c,n,h,w) to the gemm patch matrix
    (c*kh*kw, n*Ho*Wo).

    Patch rows are ordered channel-major, then kernel row, then kernel col;
    columns are ordered by sample, then output row, then output col.
    Out-of-bounds elements are +0.0.  A 1x1 kernel with stride 1 and no
    padding is a reshape of the input, not a copy.  Any other geometry is
    built one of two ways, with the same bytes:

    - a map of at most ``_GATHER_MAX_PIXELS`` pixels is copied once into a
      (c, n*h*w + 1) source whose last column is +0.0, and the matrix is
      one ``take`` of that source's columns through the geometry's cached
      index (:func:`_gather_index`);
    - otherwise kh*kw strided copies from a zero-padded view of the input
      (:func:`_im2col_copy`).

    Both only move values: no arithmetic, no threads, and no dependence on
    the data or on deterministic mode.
    """
    c, n, h, w = x.shape
    kh, kw = kernel
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    if (kh, kw, *stride, *pad) == (1, 1, 1, 1, 0, 0):
        return x.reshape(c, n * h * w)
    if h * w <= _GATHER_MAX_PIXELS:
        src = np.empty((c, n * h * w + 1), dtype=x.dtype)
        src[:, :-1] = x.reshape(c, n * h * w)
        src[:, -1] = 0
        idx = _gather_index(n, h, w, tuple(kernel), tuple(stride), tuple(pad))
        # "wrap" leaves an index in range as it is, and is numpy's fastest
        cols = src.take(idx, axis=1, mode="wrap")
    else:
        cols = _im2col_copy(x, kernel, stride, pad, ho, wo)
    return cols.reshape(c * kh * kw, n * ho * wo)


@functools.lru_cache(maxsize=32)
def _gather_index(n: int, h: int, w: int, kernel, stride,
                  pad) -> np.ndarray:
    """Where each patch entry of im2col on n maps of h x w reads, in the
    patch matrix's (kernel row, kernel col, sample, output pixel) order:
    the pixel's column of the (c, n*h*w + 1) source, or n*h*w, the source's
    zero column, for padding.  It is the strided copy of the pixels' own
    indices, padded with n*h*w, built at first use and kept read-only."""
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    cells = np.arange(n * h * w, dtype=np.intp).reshape(1, n, h, w)
    idx = _im2col_copy(cells, kernel, stride, pad, ho, wo,
                       fill=n * h * w).reshape(-1)
    idx.flags.writeable = False
    return idx


@functools.lru_cache(maxsize=32)
def _scatter_index(n: int, h: int, w: int, kernel, stride,
                   pad) -> np.ndarray:
    """The transpose of :func:`_gather_index`: (kh*kw, n*h*w), for each
    kernel offset and each pixel the patch-matrix column that holds the
    pixel's entry for that offset, in the (c, kh*kw*n*Ho*Wo + 1) view of
    the matrix, or kh*kw*n*Ho*Wo, that view's zero column, where no output
    window puts the pixel at that offset.  A pixel sits at one offset of at
    most one window, so the index is well defined; built at first use and
    kept read-only."""
    reads = _gather_index(n, h, w, kernel, stride, pad)
    kk = kernel[0] * kernel[1]
    idx = np.full((kk, n * h * w), reads.size, dtype=np.intp)
    # patch entry e reads pixel reads[e] at kernel offset e // (n*Ho*Wo)
    hit = np.flatnonzero(reads < n * h * w)
    idx[hit // (reads.size // kk), reads[hit]] = hit
    idx.flags.writeable = False
    return idx


def _im2col_copy(x: np.ndarray, kernel, stride, pad, ho, wo,
                 fill=0) -> np.ndarray:
    """The patch matrix as (c, kh, kw, n, Ho, Wo), written by kh*kw strided
    copies from the channel-major x padded with ``fill``."""
    c, n = x.shape[:2]
    kh, kw = kernel
    sh, sw = stride
    xp = _pad_hw(x, pad, fill)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
    return cols


def col2im_nd(cols: np.ndarray, in_shape, kernel, stride, pad) -> np.ndarray:
    """Adjoint of :func:`im2col_nd`: scatter-add a (c*kh*kw, n*Ho*Wo) patch
    matrix back onto a C-contiguous channel-major (c,n,h,w) batch.

    Each input element is ``((0 + p0) + p1) + ...`` over its patches in
    (kernel row, kernel col) order, so a lone -0.0 patch value lands as
    +0.0; the 1x1 shortcut adds its single patch to +0.0 the same way.  Any
    other geometry is summed one of two ways, with the same bytes:

    - on a map of at most ``_GATHER_MAX_PIXELS`` pixels, the matrix
      is copied into a (c, kh*kw*n*Ho*Wo + 1) source whose last column is
      +0.0; per kernel offset, in (kernel row, kernel col) order, one
      ``take`` through that offset's row of the cached
      :func:`_scatter_index` fetches every pixel's entry, and one add puts
      it on the running sum, begun at +0.0.  An offset no window puts the
      pixel at reads the zero column, and adding +0.0 leaves a sum begun at
      +0.0 as it is;
    - otherwise kh*kw strided ``+=`` into a zero-padded buffer.
    """
    c, n, h, w = in_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    ho, wo = _out_hw(h, w, kernel, stride, pad)
    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        return np.add(cols.reshape(c, n, h, w), 0.0)
    cols = cols.reshape(c, kh, kw, n, ho, wo)
    if h * w <= _GATHER_MAX_PIXELS:
        src = np.empty((c, cols[0].size + 1), dtype=cols.dtype)
        # splitting the rows' contiguous axis: a view, never a copy
        np.copyto(src[:, :-1].reshape(cols.shape), cols)
        src[:, -1] = 0
        idx = _scatter_index(n, h, w, tuple(kernel), tuple(stride),
                             tuple(pad))
        # "wrap" leaves an index in range as it is, and is numpy's fastest
        out = src.take(idx[0], axis=1, mode="wrap")
        out += 0.0
        part = np.empty_like(out)
        for row in idx[1:]:
            src.take(row, axis=1, mode="wrap", out=part)
            out += part
        return out.reshape(c, n, h, w)
    xp = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for ki in range(kh):
        for kj in range(kw):
            xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw] += cols[:, ki, kj]
    return np.ascontiguousarray(xp[:, :, ph:ph + h, pw:pw + w])


def mm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Matrix product with the package's fixed accumulation contract,
    written into the caller's buffer ``out`` and returned.  ``out`` is
    (m, n) of the product's dtype, shares no memory with ``a`` or ``b``
    and may be a row block of a larger buffer; its old contents are never
    read, so the bytes are those of a product into a fresh buffer.

    Fast mode is ``np.matmul(a, b, out=out)``.  Deterministic mode sums
    each output element's products strictly in k order from +0.0, bitwise
    equal to the loop ``out += a[:, k, None] * b[k]`` over k, but takes a
    block of ``kc`` inner indices per step: the block's products fill rows
    1..kc of a buffer, the running sum row 0, and ``np.add.reduce`` over
    that outer axis adds the rows to each element one after another.
    (numpy starts that reduce from +0.0, which leaves a running sum
    unchanged: a sum begun at +0.0 is never -0.0.)  Two output sizes keep
    the per-k loop: m*n == 1, where the reduced axis would become numpy's
    inner loop and be summed pairwise, and m*n >= ``_BLOCK_MAX_OUTPUT``,
    where a block measured no faster.
    """
    (m, kdim), n = a.shape, b.shape[1]
    if kdim != b.shape[0] or out.shape != (m, n):
        raise ShapeError(f"matmul mismatch: {a.shape} x {b.shape} into "
                         f"{out.shape}")
    if not _DETERMINISTIC:
        return np.matmul(a, b, out=out)
    out[...] = 0
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


def elementwise(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise sum of two same-shape arrays."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a + b

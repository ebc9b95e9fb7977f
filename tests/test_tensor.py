import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import swap_nc
from cosnet.errors import ConfigError, GeometryError, ShapeError
from cosnet.tensor import (_BLOCK_MAX_OUTPUT, _GATHER_MAX_PIXELS, Tensor,
                           _gather_index, _pad_hw, _scatter_index, col2im_nd,
                           conv_output_size, deterministic_enabled,
                           elementwise, im2col_nd, mm, set_deterministic,
                           tensor_create)


class TestTensor:
    def test_shape_properties(self):
        t = tensor_create((2, 3, 4, 5))
        assert t.shape == (2, 3, 4, 5) and t.n == 2
        assert t.data.dtype == np.float32
        assert t.data.flags.c_contiguous

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ShapeError):
            tensor_create((2, 0, 4, 4))

    def test_int_input_upcast_to_float32(self):
        t = Tensor(np.ones((1, 1, 2, 2), dtype=np.int32))
        assert t.data.dtype == np.float32

    @pytest.mark.parametrize("shape", [5, None, (2.5, 3, 4, 4),
                                       (2, 3.0, 4, 4), (2, "a", 4, 4),
                                       (2, np.float32(3), 4, 4)])
    def test_create_refuses_a_shape_of_non_integers(self, shape):
        with pytest.raises(ShapeError, match="sequence of integers"):
            tensor_create(shape)

    def test_create_takes_numpy_integers(self):
        shape = (np.int64(2), np.int32(3), np.uint8(4), 4)
        t = tensor_create(shape)
        assert t.shape == (2, 3, 4, 4)
        assert tensor_create(np.array([2, 3, 4, 4])).shape == (2, 3, 4, 4)


class TestCreate:
    def test_fills(self):
        assert tensor_create((1, 1, 2, 2), "zeros").data.sum() == 0
        assert tensor_create((1, 1, 2, 2), "ones").data.sum() == 4

    def test_seeded_fills_reproduce(self):
        a = tensor_create((2, 3, 4, 4), "uniform", seed=7)
        b = tensor_create((2, 3, 4, 4), "uniform", seed=7)
        c = tensor_create((2, 3, 4, 4), "uniform", seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("fill", ["uniform"])
    def test_negative_seed_rejected(self, fill):
        # every seeded generator of the package goes through seeded_rng
        with pytest.raises(ConfigError, match="seeds"):
            tensor_create((1, 1, 2, 2), fill, seed=-1)

    @pytest.mark.parametrize("fill", ["zeros", "uniform"])
    def test_unallocatable_shape_is_a_config_error(self, fill):
        # numpy refuses both requests before allocating anything
        for shape in ((100000, 3, 100000, 100000), (10**6,) * 4):
            with pytest.raises(ConfigError, match=str(shape).replace(
                    "(", r"\(").replace(")", r"\)")):
                tensor_create(shape, fill)

    def test_unknown_fill(self):
        with pytest.raises(ShapeError):
            tensor_create((1, 1, 1, 1), "sparkles")

    def test_finite(self):
        for fill in ("zeros", "ones", "uniform"):
            assert np.isfinite(tensor_create((2, 2, 3, 3), fill).data).all()


class TestGeometry:
    def test_known_sizes(self):
        assert conv_output_size(224, 3, 2, 1) == 112
        assert conv_output_size(7, 3, 1, 1) == 7
        assert conv_output_size(7, 7, 1, 0) == 1

    def test_nonpositive_output_raises(self):
        x = np.zeros((1, 1, 2, 2))
        with pytest.raises(GeometryError):
            im2col_nd(x, (5, 5), (1, 1), (0, 0))


# im2col_nd and col2im_nd take and return channel-major (c, n, h, w)
# arrays; the oracles below index (n, c, h, w) arrays, and the tests cross
# with swap_nc.


def _im2col_by_index(x, kernel, stride, pad):
    """The patch matrix element by element: row (ci, ki, kj), column
    (ni, oi, oj) holds x[ni, ci, oi*sh + ki - ph, oj*sw + kj - pw], or +0.0
    outside the input."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    cols = np.zeros((c * kh * kw, n * ho * wo), dtype=x.dtype)
    for ci, ki, kj, ni, oi, oj in np.ndindex(c, kh, kw, n, ho, wo):
        i, j = oi * sh + ki - ph, oj * sw + kj - pw
        if 0 <= i < h and 0 <= j < w:
            cols[(ci * kh + ki) * kw + kj,
                 (ni * ho + oi) * wo + oj] = x[ni, ci, i, j]
    return cols


def _col2im_by_index(cols, in_shape, kernel, stride, pad):
    """The scatter-add element by element: each input element is
    ``((0 + p0) + p1) + ...`` over its patches in (ki, kj) order."""
    n, c, h, w = in_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for ki, kj, ci, ni, oi, oj in np.ndindex(kh, kw, c, n, ho, wo):
        xp[ni, ci, oi * sh + ki, oj * sw + kj] += \
            cols[(ci * kh + ki) * kw + kj, (ni * ho + oi) * wo + oj]
    return xp[:, :, ph:ph + h, pw:pw + w]


# geometries (kh, kw, sh, sw, ph, pw); the 1x1 shortcut is drawn often
_GEOMETRY = st.one_of(
    st.just((1, 1, 1, 1, 0, 0)),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
              st.integers(1, 3), st.integers(0, 2), st.integers(0, 2)))


def _signed_zero_data(rng, shape, dtype):
    """Normal values with about a quarter of them -0.0."""
    a = rng.normal(size=shape).astype(dtype)
    a[rng.random(shape) < 0.25] = -0.0
    return a


class TestIm2col:
    def test_identity_1x1(self):
        x = np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2)
        cols = im2col_nd(swap_nc(x), (1, 1), (1, 1), (0, 0))
        # one row per channel, one column per (sample, row, col)
        assert cols.shape == (2, 8)
        assert np.array_equal(cols, [[0, 1, 2, 3, 8, 9, 10, 11],
                                     [4, 5, 6, 7, 12, 13, 14, 15]])

    def test_known_3x3_patch(self):
        x = np.arange(18, dtype=np.float32).reshape(2, 1, 3, 3)
        cols = im2col_nd(swap_nc(x), (3, 3), (1, 1), (0, 0))
        # one row per kernel offset, one column per sample
        assert cols.shape == (9, 2)
        assert np.array_equal(cols[:, 0], np.arange(9))
        assert np.array_equal(cols[:, 1], np.arange(9, 18))

    def test_padding_zeros(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        cols = im2col_nd(swap_nc(x), (3, 3), (1, 1), (1, 1))
        # center column sees the full 2x2 block plus 5 zeros
        assert cols.shape == (9, 4)
        assert cols.sum() == 4 * 4   # each input pixel appears 4 times
        # output (0, 0) sees the input's top-left 2x2 in the kernel's
        # bottom-right 2x2, zeros elsewhere
        assert np.array_equal(cols[:, 0], [0, 0, 0, 0, 1, 1, 0, 1, 1])

    # maps up to 12x12, on both sides of _GATHER_MAX_PIXELS
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12),
           st.integers(1, 12), _GEOMETRY,
           st.sampled_from([np.float32, np.float64]), st.data())
    def test_matches_index_formula_bytewise(self, n, c, h, w, geom, dtype,
                                            data):
        kh, kw, sh, sw, ph, pw = geom
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        x = _signed_zero_data(rng, (n, c, h, w), dtype)
        args = ((kh, kw), (sh, sw), (ph, pw))
        cols = im2col_nd(swap_nc(x), *args)
        assert cols.dtype == dtype
        assert cols.tobytes() == _im2col_by_index(x, *args).tobytes()
        # the scatter: the 1x1 shortcut adds to +0.0 like the general path,
        # so its -0.0 patch values land as +0.0
        g = _signed_zero_data(rng, cols.shape, dtype)
        back = col2im_nd(g, (c, n, h, w), *args)
        assert back.shape == (c, n, h, w) and back.flags.c_contiguous
        assert swap_nc(back).tobytes() == \
            _col2im_by_index(g, x.shape, *args).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 12),
           st.integers(1, 12), _GEOMETRY,
           st.sampled_from([0.0, -np.inf]),
           st.sampled_from([np.float32, np.float64]), st.data())
    def test_padding_matches_np_pad_bytewise(self, n, c, h, w, geom, fill,
                                             dtype, data):
        kh, kw, sh, sw, ph, pw = geom
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        x = _signed_zero_data(rng, (n, c, h, w), dtype)
        # on the channel-major view im2col_nd pads, too
        for a in (x, x.transpose(1, 0, 2, 3)):
            want = np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                          constant_values=fill)
            got = _pad_hw(a, (ph, pw), fill)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        # the patch matrix gathered from an np.pad copy of the input
        xp = np.pad(x.transpose(1, 0, 2, 3),
                    ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
        want = np.stack([xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw]
                         for ki in range(kh) for kj in range(kw)], axis=1)
        cols = im2col_nd(swap_nc(x), (kh, kw), (sh, sw), (ph, pw))
        assert cols.tobytes() == want.reshape(cols.shape).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(3, 11),
           st.integers(1, 3), st.integers(1, 2), st.integers(0, 2),
           st.data())
    def test_col2im_is_adjoint(self, n, c, hw, k, s, p, data):
        """<u, im2col(v)> == <col2im(u), v> for all u, v."""
        if (hw + 2 * p - k) < 0:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        v = rng.normal(size=(n, c, hw, hw))
        cols = im2col_nd(v, (k, k), (s, s), (p, p))
        u = rng.normal(size=cols.shape)
        lhs = float((u * cols).sum())
        rhs = float((col2im_nd(u, v.shape, (k, k), (s, s), (p, p)) * v).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def _gather_calls():
    """How often :func:`im2col_nd` has taken the small-map gather."""
    info = _gather_index.cache_info()
    return info.hits + info.misses


class TestIm2colGather:
    """Maps of at most ``_GATHER_MAX_PIXELS`` pixels gather the patch matrix
    through a cached index; the bytes are those of the strided copy, for
    any values."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 4), _GEOMETRY,
           st.sampled_from([np.float32, np.float64]), st.data())
    def test_matches_index_formula_bytewise(self, n, c, h, w, geom, dtype,
                                            data):
        kh, kw, sh, sw, ph, pw = geom
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        x = _signed_zero_data(rng, (n, c, h, w), dtype)
        args = ((kh, kw), (sh, sw), (ph, pw))
        before = _gather_calls()
        cols = im2col_nd(swap_nc(x), *args)
        if geom != (1, 1, 1, 1, 0, 0):   # the 1x1 shortcut is a view
            assert _gather_calls() == before + 1
            assert cols.flags.c_contiguous
        assert cols.dtype == dtype
        assert cols.tobytes() == _im2col_by_index(x, *args).tobytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, -0.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_value_lands_in_its_own_entries(self, value, dtype):
        x = np.random.default_rng(3).normal(size=(2, 3, 4, 4)).astype(dtype)
        x[1, 2, 1, 2] = value
        args = ((3, 3), (1, 1), (1, 1))
        before = _gather_calls()
        cols = im2col_nd(swap_nc(x), *args)
        assert _gather_calls() == before + 1
        want = _im2col_by_index(x, *args)
        assert cols.tobytes() == want.tobytes()
        # an interior pixel of a 3x3 kernel with pad 1 lands in 9 entries,
        # and the value in no others
        if np.isnan(value):
            hit = np.isnan(cols)
        else:
            hit = (cols == value) & (np.signbit(cols) == np.signbit(value))
        assert hit.sum() == 9

    def test_deterministic_mode_gives_the_same_bytes(self):
        x = np.random.default_rng(4).normal(size=(2, 8, 4, 4)).astype(
            np.float32)
        args = ((3, 3), (2, 2), (1, 1))
        fast = im2col_nd(swap_nc(x), *args)
        set_deterministic(True)
        try:
            det = im2col_nd(swap_nc(x), *args)
        finally:
            set_deterministic(False)
        assert det.tobytes() == fast.tobytes()
        assert fast.tobytes() == _im2col_by_index(x, *args).tobytes()

    @pytest.mark.parametrize("h, w", [(4, 4), (5, 5), (2, 8), (1, 17),
                                      (8, 8), (1, 64), (9, 8), (5, 13)])
    def test_pixel_bound(self, h, w):
        x = np.random.default_rng(5).normal(size=(2, 3, h, w)).astype(
            np.float32)
        args = ((3, 3), (1, 1), (1, 1))
        before = _gather_calls()
        cols = im2col_nd(swap_nc(x), *args)
        assert _gather_calls() - before == (h * w <= _GATHER_MAX_PIXELS)
        assert cols.tobytes() == _im2col_by_index(x, *args).tobytes()

    def test_index_is_cached_and_read_only(self):
        key = (2, 4, 4, (3, 3), (2, 2), (1, 1))
        idx = _gather_index(*key)
        assert _gather_index(*key) is idx
        assert idx.shape == (9 * 2 * 2 * 2,)
        # each entry reads one of the 2*16 pixels or the zero cell, 32
        assert idx.min() >= 0 and idx.max() == 2 * 16
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0] = 0


def _scatter_calls():
    """How often :func:`col2im_nd` has taken the small-map gather."""
    info = _scatter_index.cache_info()
    return info.hits + info.misses


def _col2im_strided(cols, in_shape, kernel, stride, pad):
    """The strided scatter on any map: kh*kw ``+=`` of the patch matrix's
    (c, n, Ho, Wo) planes into a zeroed, padded (c, n, h, w) buffer, in
    (ki, kj) order."""
    c, n, h, w = in_shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    planes = cols.reshape(c, kh, kw, n, ho, wo)
    xp = np.zeros((c, n, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for ki in range(kh):
        for kj in range(kw):
            xp[:, :, ki:ki + sh * ho:sh, kj:kj + sw * wo:sw] += planes[:, ki,
                                                                      kj]
    return xp[:, :, ph:ph + h, pw:pw + w]


class TestCol2imGather:
    """Maps of at most ``_GATHER_MAX_PIXELS`` pixels sum each
    pixel's patch entries through a cached index; the bytes are those of the
    strided scatter, for any values."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 8),
           st.integers(1, 8), _GEOMETRY,
           st.sampled_from([np.float32, np.float64]), st.data())
    def test_matches_the_strided_scatter_bytewise(self, n, c, h, w, geom,
                                                  dtype, data):
        kh, kw, sh, sw, ph, pw = geom
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        args = ((kh, kw), (sh, sw), (ph, pw))
        ho, wo = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
        cols = _signed_zero_data(rng, (c * kh * kw, n * ho * wo), dtype)
        before = _scatter_calls()
        got = col2im_nd(cols, (c, n, h, w), *args)
        if geom != (1, 1, 1, 1, 0, 0):   # the 1x1 shortcut adds +0.0
            assert _scatter_calls() == before + 1
        assert got.shape == (c, n, h, w) and got.flags.c_contiguous
        assert got.dtype == dtype
        want = _col2im_strided(cols, (c, n, h, w), *args)
        assert got.tobytes() == want.tobytes()
        assert swap_nc(got).tobytes() == \
            _col2im_by_index(cols, (n, c, h, w), *args).tobytes()

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_value_lands_as_the_scatter_puts_it(self, value, dtype):
        rng = np.random.default_rng(6)
        args = ((3, 3), (1, 1), (1, 1))
        cols = _signed_zero_data(rng, (3 * 9, 2 * 16), dtype)
        # one entry: row (channel 1, offset (1, 1)), the column of sample 1,
        # output pixel (2, 1), which that offset puts on input pixel (2, 1)
        cols[9 + 4, 16 + 2 * 4 + 1] = value
        before = _scatter_calls()
        got = col2im_nd(cols, (3, 2, 4, 4), *args)
        assert _scatter_calls() == before + 1
        want = _col2im_strided(cols, (3, 2, 4, 4), *args)
        assert got.tobytes() == want.tobytes()
        # the value reaches its own pixel and no other
        hit = np.isnan(got) if np.isnan(value) else got == value
        assert np.argwhere(hit).tolist() == [[1, 1, 2, 1]]

    @pytest.mark.parametrize("h, w", [(8, 8), (1, 64), (9, 8), (5, 13),
                                      (16, 16)])
    def test_pixel_bound(self, h, w):
        rng = np.random.default_rng(7)
        args = ((3, 3), (2, 2), (1, 1))
        ho, wo = (h - 1) // 2 + 1, (w - 1) // 2 + 1
        cols = _signed_zero_data(rng, (2 * 9, 3 * ho * wo), np.float32)
        before = _scatter_calls()
        got = col2im_nd(cols, (2, 3, h, w), *args)
        assert _scatter_calls() - before == \
            (h * w <= _GATHER_MAX_PIXELS)
        assert got.flags.c_contiguous
        assert got.tobytes() == \
            _col2im_strided(cols, (2, 3, h, w), *args).tobytes()

    def test_index_is_cached_in_range_and_read_only(self):
        key = (2, 4, 4, (3, 3), (2, 2), (1, 1))
        idx = _scatter_index(*key)
        assert _scatter_index(*key) is idx
        # one row per kernel offset, one column per pixel of the 2 maps;
        # the patch matrix has 9 * 2 * 2 * 2 columns, and 72 is its zero
        assert idx.shape == (9, 2 * 16)
        assert idx.min() >= 0 and idx.max() == 72
        # the transpose of the im2col index: each entry that is no padding
        # reads the pixel that reads it back
        reads = _gather_index(*key)
        k, p = np.nonzero(idx < 72)
        assert np.array_equal(reads[idx[k, p]], p)
        assert (np.bincount(idx[idx < 72], minlength=72)
                == (reads < 32)).all()
        assert not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 0


def _sequential_mm(a, b):
    """The deterministic contract spelled out: one k at a time from +0.0."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for k in range(a.shape[1]):
        out += a[:, k][:, None] * b[k][None, :]
    return out


def _operands(m, k, n, a_dtype=np.float32, b_dtype=np.float32):
    def make(rng):
        # magnitudes over six decades, so the summation order shows
        a = rng.normal(size=(m, k)) * 10.0 ** rng.integers(-3, 4, (m, k))
        return a.astype(a_dtype), rng.normal(size=(k, n)).astype(b_dtype)
    return make


def _views(rng):
    a = rng.normal(size=(90, 40)).astype(np.float32)
    b = rng.normal(size=(60, 21)).astype(np.float32)
    return a.T[::2, 1::3], b[::2, ::3]


def _signed_zeros(rng):
    a = rng.normal(size=(6, 50)).astype(np.float32)
    b = rng.normal(size=(50, 5)).astype(np.float32)
    a[:, ::3] = 0.0
    a[:, 1::3] = -0.0
    b[::4] = -0.0
    a[0] = -0.0
    b[:, 0] = np.abs(b[:, 0]) + 1.0   # out[0, 0] sums only -0.0: gives +0.0
    return a, b


MM_CASES = {
    "scalar-output": _operands(1, 300, 1),
    "empty-inner": _operands(4, 0, 3),
    "row-output": _operands(1, 300, 5),
    "column-output": _operands(7, 300, 1),
    "below-large-output": _operands(8, 20, _BLOCK_MAX_OUTPUT // 8 - 1),
    "at-large-output": _operands(8, 20, _BLOCK_MAX_OUTPUT // 8),
    "weight-gradient": _operands(16, 8192, 27),
    "float64": _operands(5, 700, 7, np.float64, np.float64),
    "mixed-f32-f64": _operands(9, 500, 11, np.float32, np.float64),
    "mixed-f64-f32": _operands(9, 500, 11, np.float64, np.float32),
    "strided-views": _views,
    "signed-zeros": _signed_zeros,
}


def _fresh_mm(a, b):
    """``mm`` into a new buffer of the product's shape and dtype, filled
    with NaN: the product must never read what ``out`` held."""
    out = np.full((a.shape[0], b.shape[1]), np.nan, np.result_type(a, b))
    got = mm(a, b, out)
    assert got is out
    return got


class TestMatmul:
    @pytest.mark.parametrize("case", MM_CASES)
    def test_deterministic_is_the_sequential_loop(self, case):
        """Byte-equal to the per-k loop, signed zeros and dtype included."""
        a, b = MM_CASES[case](np.random.default_rng(7))
        want = _sequential_mm(a, b)
        set_deterministic(True)
        try:
            got = _fresh_mm(a, b)
        finally:
            set_deterministic(False)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mm(np.zeros((2, 3)), np.zeros((4, 2)), np.empty((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,)])
    def test_output_must_have_the_product_shape(self, shape):
        a = np.ones((2, 4), dtype=np.float32)
        b = np.ones((4, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match="into"):
            mm(a, b, np.empty(shape, dtype=np.float32))

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_row_block_of_a_larger_buffer(self, deterministic):
        """A conv writes each group's product into its rows of one output
        buffer: those bytes are the product into a fresh buffer, and no
        row outside the block is touched."""
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 40)).astype(np.float32)
        b = rng.normal(size=(40, 33)).astype(np.float32)
        big = rng.normal(size=(16, 33)).astype(np.float32)
        before = big.copy()
        set_deterministic(deterministic)
        try:
            want = _fresh_mm(a, b)
            got = mm(a, b, big[5:11])
        finally:
            set_deterministic(False)
        assert got.base is big
        assert big[5:11].tobytes() == want.tobytes()
        assert big[:5].tobytes() == before[:5].tobytes()
        assert big[11:].tobytes() == before[11:].tobytes()

    def test_fast_vs_deterministic_agree(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(17, 64)).astype(np.float32)
        b = rng.normal(size=(64, 23)).astype(np.float32)
        fast = _fresh_mm(a, b)
        set_deterministic(True)
        try:
            det = _fresh_mm(a, b)
        finally:
            set_deterministic(False)
        denom = max(1.0, float(np.abs(fast).max()))
        assert float(np.abs(fast - det).max()) / denom < 1e-6

    def test_deterministic_is_bitwise_repeatable(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 40)).astype(np.float32)
        b = rng.normal(size=(40, 7)).astype(np.float32)
        set_deterministic(True)
        try:
            assert np.array_equal(_fresh_mm(a, b), _fresh_mm(a, b))
        finally:
            set_deterministic(False)

    def test_toggle(self):
        assert not deterministic_enabled()
        set_deterministic(True)
        assert deterministic_enabled()
        set_deterministic(False)


class TestElementwise:
    def test_add(self):
        a = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
        b = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        assert elementwise(a, b).flat[0] == 5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise(tensor_create((1, 1, 2, 2)).data,
                        tensor_create((1, 1, 3, 3)).data)

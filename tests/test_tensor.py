import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosnet.errors import ConfigError, GeometryError, ShapeError
from cosnet.tensor import (_BLOCK_MAX_OUTPUT, Tensor, col2im_nd,
                           conv_output_size, deterministic_enabled,
                           elementwise, im2col_nd, mm, set_deterministic,
                           tensor_create)


class TestTensor:
    def test_shape_properties(self):
        t = tensor_create((2, 3, 4, 5))
        assert (t.n, t.c, t.h, t.w) == (2, 3, 4, 5)
        assert t.dtype == np.float32

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ShapeError):
            tensor_create((2, 0, 4, 4))

    def test_int_input_upcast_to_float32(self):
        t = Tensor(np.ones((1, 1, 2, 2), dtype=np.int32))
        assert t.dtype == np.float32

    def test_copy_is_independent(self):
        t = tensor_create((1, 1, 2, 2), "ones")
        c = t.copy()
        c.data[...] = 5
        assert t.data.sum() == 4


class TestCreate:
    def test_fills(self):
        assert tensor_create((1, 1, 2, 2), "zeros").data.sum() == 0
        assert tensor_create((1, 1, 2, 2), "ones").data.sum() == 4
        assert tensor_create((1, 1, 2, 2), "constant",
                             value=2.5).data.sum() == 10

    def test_seeded_fills_reproduce(self):
        a = tensor_create((2, 3, 4, 4), "uniform", seed=7)
        b = tensor_create((2, 3, 4, 4), "uniform", seed=7)
        c = tensor_create((2, 3, 4, 4), "uniform", seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("fill", ["uniform", "normal"])
    def test_negative_seed_rejected(self, fill):
        # every seeded generator of the package goes through seeded_rng
        with pytest.raises(ConfigError, match="seeds"):
            tensor_create((1, 1, 2, 2), fill, seed=-1)

    def test_normal_stats(self):
        t = tensor_create((4, 16, 16, 16), "normal", std=2.0, seed=0)
        assert abs(t.data.std() - 2.0) < 0.05

    def test_unknown_fill(self):
        with pytest.raises(ShapeError):
            tensor_create((1, 1, 1, 1), "sparkles")

    def test_finite(self):
        for fill in ("zeros", "ones", "uniform", "normal"):
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


class TestIm2col:
    def test_identity_1x1(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        cols = im2col_nd(x, (1, 1), (1, 1), (0, 0))
        assert np.array_equal(cols, x.reshape(1, 2, 4))

    def test_known_3x3_patch(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        cols = im2col_nd(x, (3, 3), (1, 1), (0, 0))
        assert cols.shape == (1, 9, 1)
        assert np.array_equal(cols[0, :, 0], np.arange(9))

    def test_padding_zeros(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        cols = im2col_nd(x, (3, 3), (1, 1), (1, 1))
        # center column sees the full 2x2 block plus 5 zeros
        assert cols.shape == (1, 9, 4)
        assert cols.sum() == 4 * 4   # each input pixel appears 4 times

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(3, 7),
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


class TestMatmul:
    @pytest.mark.parametrize("case", MM_CASES)
    def test_deterministic_is_the_sequential_loop(self, case):
        """Byte-equal to the per-k loop, signed zeros and dtype included."""
        a, b = MM_CASES[case](np.random.default_rng(7))
        want = _sequential_mm(a, b)
        set_deterministic(True)
        try:
            got = mm(a, b)
        finally:
            set_deterministic(False)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mm(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_fast_vs_deterministic_agree(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(17, 64)).astype(np.float32)
        b = rng.normal(size=(64, 23)).astype(np.float32)
        fast = mm(a, b)
        set_deterministic(True)
        try:
            det = mm(a, b)
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
            assert np.array_equal(mm(a, b), mm(a, b))
        finally:
            set_deterministic(False)

    def test_toggle(self):
        assert not deterministic_enabled()
        set_deterministic(True)
        assert deterministic_enabled()
        set_deterministic(False)


class TestElementwise:
    def test_add(self):
        a = tensor_create((1, 1, 2, 2), "constant", value=3.0)
        b = tensor_create((1, 1, 2, 2), "constant", value=2.0)
        assert elementwise("add", a, b).data.flat[0] == 5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise("add", tensor_create((1, 1, 2, 2)),
                        tensor_create((1, 1, 3, 3)))

    def test_unknown_op(self):
        with pytest.raises(ShapeError):
            elementwise("pow", tensor_create((1, 1, 1, 1)),
                        tensor_create((1, 1, 1, 1)))

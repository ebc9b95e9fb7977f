import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import max_rel_err, numeric_grad
from cosnet import ops
from cosnet.errors import ConfigError, LabelError, ShapeError
from cosnet.graph import OPS
from cosnet.ops import ConvParams
from cosnet.tensor import (Tensor, deterministic_enabled, im2col_nd,
                           set_deterministic, tensor_create)


def _naive_conv(x, w, p: ConvParams):
    """Direct 6-loop convolution oracle."""
    n, cin, h, hw = x.shape
    cout = p.out_channels
    kh, kw = p.kernel
    sh, sw = p.stride
    ph, pw = p.pad
    cin_g = cin // p.groups
    cout_g = cout // p.groups
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (hw + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, cout, ho, wo))
    for b in range(n):
        for co in range(cout):
            g = co // cout_g
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin_g):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (w[co, ci, ki, kj]
                                        * xp[b, g * cin_g + ci,
                                             i * sh + ki, j * sw + kj])
                    out[b, co, i, j] = acc
    return out


class TestConvForward:
    def test_matches_naive_dense(self):
        p = ConvParams(out_channels=3, in_channels=2, kernel=(3, 3),
                       stride=(2, 2), pad=(1, 1))
        x = tensor_create((2, 2, 5, 5), "uniform", seed=0, lo=-1, hi=1)
        w = np.random.default_rng(1).normal(size=p.weight_shape)
        got = ops.conv2d_forward(x.astype(np.float64), w, None, p)
        want = _naive_conv(x.data.astype(np.float64), w, p)
        assert np.allclose(got.data, want, atol=1e-10)

    def test_matches_naive_grouped(self):
        p = ConvParams(out_channels=4, in_channels=6, kernel=(3, 3),
                       stride=(1, 1), pad=(1, 1), groups=2)
        x = tensor_create((1, 6, 4, 4), "uniform", seed=2, lo=-1, hi=1)
        w = np.random.default_rng(3).normal(size=p.weight_shape)
        got = ops.conv2d_forward(x.astype(np.float64), w, None, p)
        want = _naive_conv(x.data.astype(np.float64), w, p)
        assert np.allclose(got.data, want, atol=1e-10)

    def test_grouped_equals_stacked_independent_convs(self):
        g = 3
        p = ConvParams(out_channels=6, in_channels=9, kernel=(3, 3),
                       pad=(1, 1), groups=g)
        x = tensor_create((2, 9, 5, 5), "uniform", seed=4)
        w = np.random.default_rng(5).normal(size=p.weight_shape) \
            .astype(np.float32)
        whole = ops.conv2d_forward(x, w, None, p)
        sub = ConvParams(out_channels=2, in_channels=3, kernel=(3, 3),
                         pad=(1, 1))
        parts = []
        for gi in range(g):
            xs = Tensor(x.data[:, 3 * gi:3 * gi + 3].copy())
            parts.append(ops.conv2d_forward(xs, w[2 * gi:2 * gi + 2],
                                            None, sub))
        assert np.array_equal(whole.data, ops.channel_concat(parts).data)

    def test_bias(self):
        p = ConvParams(out_channels=2, in_channels=1, has_bias=True)
        x = tensor_create((1, 1, 2, 2), "ones")
        w = np.ones(p.weight_shape, dtype=np.float32)
        b = np.array([1.0, -1.0], dtype=np.float32)
        out = ops.conv2d_forward(x, w, b, p)
        assert np.array_equal(out.data[0, 0], np.full((2, 2), 2.0))
        assert np.array_equal(out.data[0, 1], np.zeros((2, 2)))

    def test_channel_mismatch(self):
        p = ConvParams(out_channels=2, in_channels=3)
        with pytest.raises(ConfigError):
            ops.conv2d_forward(tensor_create((1, 2, 2, 2)),
                               np.zeros(p.weight_shape, np.float32), None, p)

    def test_bad_group_divisibility(self):
        with pytest.raises(ConfigError):
            ConvParams(out_channels=4, in_channels=5, groups=2)


class TestConvGroupedForward:
    @pytest.mark.parametrize("cout, cin, k, stride, g", [
        (8, 12, 3, 2, 4),    # stride 2
        (12, 12, 1, 1, 3),   # 1x1 pairwise fusion, odd g
        (10, 15, 3, 1, 5),   # odd g, odd channels per group
        (6, 3, 3, 1, 3),     # one input channel per group
        (4, 4, 1, 2, 4),     # 1x1, one input channel per group, stride 2
    ], ids=["stride2", "pff_1x1", "odd_g", "cin_g1", "cin_g1_1x1"])
    def test_matches_im2col_kernel(self, cout, cin, k, stride, g):
        p = ConvParams(out_channels=cout, in_channels=cin, kernel=(k, k),
                       stride=(stride, stride), pad=(k // 2, k // 2),
                       groups=g)
        x = tensor_create((2, cin, 7, 7), "uniform", seed=6, lo=-1, hi=1)
        w = np.random.default_rng(7).normal(
            0.0, 0.5, size=p.weight_shape).astype(np.float32)
        got = ops.conv2d_grouped_forward(x, w, None, p)
        want = ops.conv2d_forward(x, w, None, p)
        assert got.shape == want.shape
        assert float(np.abs(got.data - want.data).max()) < 1e-5
        exact = _naive_conv(x.data.astype(np.float64), w.astype(np.float64),
                            p)
        assert float(np.abs(got.data - exact).max()) < 1e-5

    def test_bias(self):
        p = ConvParams(out_channels=4, in_channels=4, groups=2, has_bias=True)
        x = tensor_create((1, 4, 2, 2), "ones")
        w = np.ones(p.weight_shape, dtype=np.float32)
        b = np.array([1.0, -1.0, 0.0, 2.0], dtype=np.float32)
        out = ops.conv2d_grouped_forward(x, w, b, p)
        assert np.array_equal(out.data[0, :, 0, 0], [3.0, 1.0, 2.0, 4.0])

    def test_two_gemms_per_group_through_mm(self, monkeypatch):
        # every gemm goes through tensor.mm, so deterministic mode gives the
        # sequential reduction inside the grouped kernel too
        p = ConvParams(out_channels=6, in_channels=12, kernel=(3, 3),
                       pad=(1, 1), groups=3)
        x = tensor_create((2, 12, 5, 5), "uniform", seed=8, lo=-1, hi=1)
        w = np.random.default_rng(9).normal(size=p.weight_shape) \
            .astype(np.float32)
        seen = []
        real_mm = ops.mm

        def spy(a, b):
            seen.append((a.shape, deterministic_enabled()))
            return real_mm(a, b)

        monkeypatch.setattr(ops, "mm", spy)
        set_deterministic(True)
        try:
            det = ops.conv2d_grouped_forward(x, w, None, p)
        finally:
            set_deterministic(False)
        # inner dimension split at half the group's channels: 2*9 and 2*9
        assert seen == [((2, 18), True)] * 6
        # the sequential reduction, one half after the other
        cols = im2col_nd(x.data, p.kernel, p.stride, p.pad)
        assert cols.shape == (12 * 9, 2 * 5 * 5)
        want = np.empty((6, cols.shape[1]), dtype=np.float32)
        for gi in range(3):
            wg = w[2 * gi:2 * gi + 2].reshape(2, 36)
            cg = cols[36 * gi:36 * (gi + 1)]
            halves = []
            for lo, hi in ((0, 18), (18, 36)):
                acc = np.zeros((2, cols.shape[1]), dtype=np.float32)
                for k in range(lo, hi):
                    acc += wg[:, k][:, None] * cg[k][None, :]
                halves.append(acc)
            want[2 * gi:2 * gi + 2] = halves[0] + halves[1]
        want = want.reshape(6, 2, 5, 5).transpose(1, 0, 2, 3)
        assert np.array_equal(det.data, want)


class TestConvBackward:
    def test_finite_difference_1x2x4x4(self):
        p = ConvParams(out_channels=2, in_channels=2, kernel=(3, 3),
                       pad=(1, 1), has_bias=True)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w = rng.normal(size=p.weight_shape)
        b = rng.normal(size=2)
        go = Tensor(rng.normal(size=(1, 2, 4, 4)))

        saved = {}
        ops.conv2d_forward(x, w, b, p, saved)
        gx, gw, gb = ops.conv2d_backward(go, saved, w, p)
        fx = numeric_grad(
            lambda xx: float((ops.conv2d_forward(Tensor(xx), w, b, p).data
                              * go.data).sum()), x.data)
        fw = numeric_grad(
            lambda ww: float((ops.conv2d_forward(x, ww, b, p).data
                              * go.data).sum()), w)
        fb = numeric_grad(
            lambda bb: float((ops.conv2d_forward(x, w, bb, p).data
                              * go.data).sum()), b)
        assert max_rel_err(gx.data, fx) < 1e-3
        assert max_rel_err(gw, fw) < 1e-3
        assert max_rel_err(gb, fb) < 1e-3

    def test_finite_difference_grouped_strided(self):
        p = ConvParams(out_channels=4, in_channels=4, kernel=(3, 3),
                       stride=(2, 2), pad=(1, 1), groups=2)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)))
        w = rng.normal(size=p.weight_shape)
        go = Tensor(rng.normal(size=(2, 4, 3, 3)))
        saved = {}
        ops.conv2d_forward(x, w, None, p, saved)
        gx, gw, gb = ops.conv2d_backward(go, saved, w, p)
        assert gb is None
        fx = numeric_grad(
            lambda xx: float((ops.conv2d_forward(Tensor(xx), w, None, p).data
                              * go.data).sum()), x.data)
        fw = numeric_grad(
            lambda ww: float((ops.conv2d_forward(x, ww, None, p).data
                              * go.data).sum()), w)
        assert max_rel_err(gx.data, fx) < 1e-3
        assert max_rel_err(gw, fw) < 1e-3

    def test_grad_shape_mismatch(self):
        p = ConvParams(out_channels=1, in_channels=1)
        w = np.zeros(p.weight_shape, np.float32)
        saved = {}
        ops.conv2d_forward(tensor_create((1, 1, 2, 2)), w, None, p, saved)
        with pytest.raises(ShapeError):
            ops.conv2d_backward(tensor_create((1, 1, 3, 3)), saved, w, p)

    @pytest.mark.parametrize("forward", [ops.conv2d_forward,
                                         ops.conv2d_grouped_forward])
    def test_saved_state_is_the_forward_patch_matrix(self, forward):
        p = ConvParams(out_channels=4, in_channels=4, kernel=(3, 3),
                       stride=(2, 2), pad=(1, 1), groups=2)
        x = tensor_create((2, 4, 5, 5), "uniform", seed=3, lo=-1, hi=1)
        saved = {}
        forward(x, np.ones(p.weight_shape, np.float32), None, p, saved)
        assert saved["in_shape"] == x.shape
        assert np.array_equal(saved["cols"],
                              im2col_nd(x.data, p.kernel, p.stride, p.pad))


class TestInputReplicate:
    def test_tiles_channel_block(self):
        x = tensor_create((1, 2, 2, 2), "uniform", seed=0)
        y = ops.input_replicate(x, 3)
        assert y.shape == (1, 6, 2, 2)
        for m in range(3):
            assert np.array_equal(y.data[:, 2 * m:2 * m + 2], x.data)

    def test_m1_is_copy(self):
        x = tensor_create((1, 2, 2, 2), "uniform", seed=0)
        y = ops.input_replicate(x, 1)
        assert np.array_equal(y.data, x.data)
        y.data[...] = 0
        assert x.data.sum() != 0

    def test_backward_sums_blocks(self):
        go = Tensor(np.arange(12, dtype=np.float32).reshape(1, 6, 1, 2))
        gx = ops.input_replicate_backward(go, 3)
        assert gx.shape == (1, 2, 1, 2)
        want = go.data[:, 0:2] + go.data[:, 2:4] + go.data[:, 4:6]
        assert np.array_equal(gx.data, want)

    def test_backward_divisibility(self):
        with pytest.raises(ShapeError):
            ops.input_replicate_backward(tensor_create((1, 5, 2, 2)), 2)


class TestPooling:
    def test_max_known(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        y = ops.pool2d(x, "max", (2, 2), (2, 2), (0, 0))
        assert np.array_equal(y.data[0, 0], [[5, 7], [13, 15]])

    def test_avg_fixed_divisor_with_padding(self):
        x = tensor_create((1, 1, 2, 2), "ones")
        y = ops.pool2d(x, "avg", (3, 3), (1, 1), (1, 1))
        # corner window covers 4 real pixels out of 9
        assert abs(y.data[0, 0, 0, 0] - 4.0 / 9.0) < 1e-6

    def test_max_padding_uses_neg_inf(self):
        x = Tensor(np.full((1, 1, 2, 2), -5.0, dtype=np.float32))
        y = ops.pool2d(x, "max", (3, 3), (1, 1), (1, 1))
        assert (y.data == -5.0).all()

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_backward_finite_difference(self, kind):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))   # continuous: no ties
        go = Tensor(rng.normal(size=(2, 2, 2, 2)))
        saved = {}
        ops.pool2d(x, kind, (3, 3), (2, 2), (1, 1), saved)
        gx = ops.pool2d_backward(go, saved, kind, (3, 3), (2, 2), (1, 1))
        fx = numeric_grad(
            lambda xx: float((ops.pool2d(Tensor(xx), kind, (3, 3), (2, 2),
                                         (1, 1)).data * go.data).sum()),
            x.data)
        assert max_rel_err(gx.data, fx) < 1e-3

    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("go_shape", [(2, 2, 3, 3), (2, 3, 2, 2),
                                          (1, 2, 2, 2)])
    def test_backward_grad_shape_mismatch(self, kind, go_shape):
        x = tensor_create((2, 2, 4, 4), "uniform", seed=0)
        saved = {}
        ops.pool2d(x, kind, (3, 3), (2, 2), (1, 1), saved)
        with pytest.raises(ShapeError, match="forward output"):
            ops.pool2d_backward(tensor_create(go_shape), saved, kind, (3, 3),
                                (2, 2), (1, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6),
           st.integers(1, 3), st.integers(1, 2), st.integers(0, 1),
           st.sampled_from([np.float32, np.float64]),
           st.integers(0, 10**6))
    # a 1x1 output, where numpy sums the stack's window axis pairwise
    @example(1, 2, 3, 3, 1, 0, np.float32, 0)
    def test_avg_running_sum_matches_window_stack(self, n, c, hw, k, s, p,
                                                  dtype, seed):
        # the running sum adds in the window stack's order from +0.0, so
        # the bytes agree, -0.0 and one-element windows included
        if hw + 2 * p < k:
            return
        rng = np.random.default_rng(seed)
        # magnitudes over six decades, so the summation order shows
        x = (rng.normal(size=(n, c, hw, hw))
             * 10.0 ** rng.integers(-3, 4, (n, c, hw, hw))).astype(dtype)
        x[rng.random(x.shape) < 0.3] = -0.0
        args = ((k, k), (s, s), (p, p))
        want = ops._pool_windows(x, *args, 0.0).sum(axis=2) \
            / np.asarray(k * k, dtype=dtype)
        assert ops.pool2d(Tensor(x), "avg", *args).data.tobytes() == \
            want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.integers(1, 6),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.sampled_from([0.0, -np.inf]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 10**6))
    def test_windows_match_np_pad_bytewise(self, n, c, hw, k, s, p, fill,
                                           dtype, seed):
        if hw + 2 * p < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, hw, hw)).astype(dtype)
        x[rng.random(x.shape) < 0.25] = -0.0
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=fill)
        ho = (hw + 2 * p - k) // s + 1
        want = np.stack([xp[:, :, ki:ki + s * ho:s, kj:kj + s * ho:s]
                         for ki in range(k) for kj in range(k)], axis=2)
        got = ops._pool_windows(x, (k, k), (s, s), (p, p), fill)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_saved_state(self):
        x = tensor_create((2, 3, 4, 4), "uniform", seed=0)
        for kind, keys in (("avg", {"in_shape"}),
                           ("max", {"in_shape", "arg"})):
            saved = {}
            ops.pool2d(x, kind, (2, 2), (2, 2), (0, 0), saved)
            assert set(saved) == keys
            assert saved["in_shape"] == x.shape
        assert saved["arg"].dtype == np.uint8

    @pytest.mark.parametrize("case", ["finite", "ties", "nan"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_saved_arg_is_the_window_argmax(self, case, stride):
        x = tensor_create((2, 3, 7, 7), "uniform", seed=5, lo=-1, hi=1).data
        if case == "ties":
            # values in {-1, -0.0, +0.0, 1}: ties, and zeros of both signs
            x = np.round(x)
            x[0, 0, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        elif case == "nan":
            x[0, 0, 2, 2:4] = np.nan   # windows holding one or two NaNs
            x[1, 2, 5, 1] = np.nan
        args = ((3, 3), (stride, stride), (1, 1))
        saved = {}
        y = ops.pool2d(Tensor(x), "max", *args, saved)
        wins = ops._pool_windows(x, *args, -np.inf)
        assert saved["arg"].tobytes() == wins.argmax(axis=2).astype(
            np.uint8).tobytes()
        assert np.array_equal(y.data, wins.max(axis=2), equal_nan=True)
        assert np.isnan(y.data).any() == (case == "nan")

    def test_max_backward_finite_difference_17x17(self):
        # 289 offsets per window: the saved argmax needs a uint16, and the
        # maxima sit at offsets above 255, where a uint8 would wrap
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 18, 18))
        x[:, :, 16:, 16:] += 10.0
        args = ((17, 17), (1, 1), (0, 0))
        saved = {}
        y = ops.pool2d(Tensor(x), "max", *args, saved)
        assert saved["arg"].dtype == np.uint16
        assert (saved["arg"] > 255).all()
        go = rng.normal(size=y.shape)
        gx = ops.pool2d_backward(Tensor(go), saved, "max", *args)
        fx = numeric_grad(
            lambda xx: float((ops.pool2d(Tensor(xx), "max", *args).data
                              * go).sum()), x)
        assert max_rel_err(gx.data, fx) < 1e-3

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            ops.pool2d(tensor_create((1, 1, 3, 3)), "median", (2, 2),
                       (1, 1), (0, 0))


def _bn_table(channels):
    """A fresh bn weight table, as the graph builds it."""
    return OPS["bn"].init({"channels": channels}, None)


class TestBatchNorm:
    def test_train_normalizes_and_updates_running(self):
        table = _bn_table(3)
        x = tensor_create((4, 3, 5, 5), "uniform", seed=0, lo=2.0, hi=4.0)
        y = ops.batchnorm2d(x, table, "train")
        assert np.abs(y.data.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(y.data.var(axis=(0, 2, 3)) - 1).max() < 1e-3
        # momentum 0.1 blend from (0, 1) toward batch stats
        batch_mean = x.data.mean(axis=(0, 2, 3))
        assert np.allclose(table["running_mean"], 0.1 * batch_mean,
                           atol=1e-6)

    def test_eval_uses_running_stats(self):
        table = _bn_table(2)
        table["running_mean"][:] = [1.0, -1.0]
        table["running_var"][:] = [4.0, 4.0]
        x = tensor_create((1, 2, 2, 2), "ones")
        y = ops.batchnorm2d(x, table, "eval")
        assert np.allclose(y.data[0, 0], 0.0, atol=1e-3)
        assert np.allclose(y.data[0, 1], 1.0, atol=1e-3)

    def test_affine(self):
        table = _bn_table(1)
        table["gamma"][:] = 3.0
        table["beta"][:] = 1.0
        x = tensor_create((1, 1, 2, 2), "constant", value=2.0)
        y = ops.batchnorm2d(x, table, "eval")
        assert np.allclose(y.data, 7.0, atol=1e-3)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.batchnorm2d(tensor_create((1, 3, 2, 2)), _bn_table(2), "eval")

    @staticmethod
    def _random_table(rng, c):
        table = _bn_table(c)
        for name, lo, hi in (("gamma", 0.5, 1.5), ("beta", -0.5, 0.5),
                             ("running_mean", -0.5, 0.5),
                             ("running_var", 0.2, 2.0)):
            table[name][:] = rng.uniform(lo, hi, c)
        return table

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 7),
           st.integers(1, 7), st.sampled_from([np.float32, np.float64]),
           st.integers(0, 10**6))
    # channels long enough for numpy's blocked pairwise sums
    @example(32, 16, 32, 32, np.float32, 0)
    @example(16, 48, 16, 16, np.float64, 1)
    def test_train_forward_is_the_two_pass_form_bytewise(self, n, c, h, w,
                                                         dtype, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(n, c, h, w)) * 10.0 ** rng.integers(-2, 3)
             + rng.normal(size=(1, c, 1, 1))).astype(dtype)
        table = self._random_table(rng, c)
        want_table = {k: v.copy() for k, v in table.items()}
        saved = {}
        y = ops.batchnorm2d(Tensor(x), table, "train", saved)
        # np.mean and np.var, then normalize, scale and shift
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        inv = 1.0 / np.sqrt(var + np.asarray(ops.BN_EPSILON, dtype=dtype))
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
        want = xhat * want_table["gamma"].astype(dtype)[None, :, None, None] \
            + want_table["beta"].astype(dtype)[None, :, None, None]
        assert y.data.tobytes() == want.tobytes()
        assert saved["xhat"].tobytes() == xhat.tobytes()
        assert saved["inv"].tobytes() == inv.tobytes()
        for name, stat in (("running_mean", mean), ("running_var", var)):
            blended = ((1 - ops.BN_MOMENTUM) * want_table[name]
                       + ops.BN_MOMENTUM * stat.astype(np.float32))
            assert table[name].tobytes() == blended.tobytes()

    @pytest.mark.parametrize("shape", [(4, 3, 5, 5), (2, 8, 7, 3),
                                       (16, 2, 1, 1)])
    def test_backward_matches_previous_closed_form(self, shape):
        rng = np.random.default_rng(sum(shape))
        table = self._random_table(rng, shape[1])
        x = Tensor(rng.normal(size=shape) * 3.0 + 1.0)
        go = rng.normal(size=shape)
        saved = {}
        ops.batchnorm2d(x, table, "train", saved)
        gx, gg, gb = ops.batchnorm2d_backward(Tensor(go), saved, table)
        inv, xhat = saved["inv"][None, :, None, None], saved["xhat"]
        # the form with three reductions over gamma * g
        gxh = go * table["gamma"].astype(np.float64)[None, :, None, None]
        m = shape[0] * shape[2] * shape[3]
        want = (inv / m) * (
            m * gxh - gxh.sum(axis=(0, 2, 3))[None, :, None, None]
            - xhat * (gxh * xhat).sum(axis=(0, 2, 3))[None, :, None, None])
        assert np.abs(gx.data - want).max() <= 1e-12 * np.abs(want).max()
        assert gg.tobytes() == (go * xhat).sum(axis=(0, 2, 3)).tobytes()
        assert gb.tobytes() == go.sum(axis=(0, 2, 3)).tobytes()

    def test_eval_affine_matches_normalize_then_scale(self):
        rng = np.random.default_rng(8)
        table = self._random_table(rng, 6)
        before = {k: v.copy() for k, v in table.items()}
        x = rng.uniform(-1.0, 1.0, size=(3, 6, 5, 4))
        y = ops.batchnorm2d(Tensor(x), table, "eval")
        stat = {k: v.astype(np.float64)[None, :, None, None]
                for k, v in table.items()}
        inv = 1.0 / np.sqrt(stat["running_var"] + ops.BN_EPSILON)
        want = ((x - stat["running_mean"]) * inv) * stat["gamma"] \
            + stat["beta"]
        assert np.abs(y.data - want).max() <= 1e-12
        # eval reads the running statistics and leaves them alone
        assert all(np.array_equal(table[k], before[k]) for k in table)

    @pytest.mark.parametrize("mode", ["train"])
    def test_backward_finite_difference(self, mode):
        rng = np.random.default_rng(5)
        table = _bn_table(2)
        table["gamma"][:] = rng.uniform(0.5, 1.5, 2)
        table["beta"][:] = rng.uniform(-0.5, 0.5, 2)
        table["running_mean"][:] = rng.uniform(-0.2, 0.2, 2)
        table["running_var"][:] = rng.uniform(0.5, 1.5, 2)
        x = Tensor(rng.normal(size=(3, 2, 3, 3)))
        go = Tensor(rng.normal(size=(3, 2, 3, 3)))

        def _frozen(**fields):
            # a copy, so train-mode forwards leave the running stats alone
            return {**{k: v.copy() for k, v in table.items()}, **fields}

        saved = {}
        ops.batchnorm2d(x, _frozen(), mode, saved)
        gx, gg, gb = ops.batchnorm2d_backward(go, saved, table)

        def loss_x(xx):
            return float((ops.batchnorm2d(Tensor(xx), _frozen(), mode).data
                          * go.data).sum())

        assert max_rel_err(gx.data, numeric_grad(loss_x, x.data)) < 1e-3

        def loss_gamma(gam):
            return float((ops.batchnorm2d(x, _frozen(gamma=gam), mode).data
                          * go.data).sum())

        def loss_beta(bet):
            return float((ops.batchnorm2d(x, _frozen(beta=bet), mode).data
                          * go.data).sum())

        assert max_rel_err(gg, numeric_grad(loss_gamma,
                                            table["gamma"].astype(np.float64))) < 1e-3
        assert max_rel_err(gb, numeric_grad(loss_beta,
                                            table["beta"].astype(np.float64))) < 1e-3


class TestRelu:
    def test_forward(self):
        x = Tensor(np.array([[-1.0, 0.0, 2.0, -3.0]],
                            dtype=np.float32).reshape(1, 1, 1, 4))
        assert np.array_equal(ops.relu(x).data.reshape(-1), [0, 0, 2, 0])

    def test_gradient_at_zero_is_zero(self):
        x = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
        go = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        saved = {}
        ops.relu(x, saved)
        assert ops.relu_backward(go, saved).data.item() == 0.0

    def test_backward_mask(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)))
        go = Tensor(rng.normal(size=(2, 2, 3, 3)))
        saved = {}
        ops.relu(x, saved)
        assert saved["mask"].dtype == np.bool_
        gx = ops.relu_backward(go, saved)
        assert np.array_equal(gx.data, go.data * (x.data > 0))


class TestFusion:
    def test_concat_and_backward(self):
        a = tensor_create((1, 2, 2, 2), "uniform", seed=0)
        b = tensor_create((1, 3, 2, 2), "uniform", seed=1)
        y = ops.channel_concat([a, b])
        assert y.shape == (1, 5, 2, 2)
        grads = ops.channel_concat_backward(y, [2, 3])
        assert np.array_equal(grads[0].data, a.data)
        assert np.array_equal(grads[1].data, b.data)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            ops.channel_concat([tensor_create((1, 1, 2, 2)),
                                tensor_create((1, 1, 3, 3))])

    def test_block_sum(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 4, 1, 2))
        y = ops.channel_block_sum(x, 2)
        assert np.array_equal(y.data, x.data[:, :2] + x.data[:, 2:])

    def test_block_sum_backward_replicates(self):
        go = tensor_create((1, 2, 2, 2), "uniform", seed=2)
        gx = ops.channel_block_sum_backward(go, 3)
        assert gx.shape == (1, 6, 2, 2)
        for m in range(3):
            assert np.array_equal(gx.data[:, 2 * m:2 * m + 2], go.data)

    def test_block_sum_divisibility(self):
        with pytest.raises(ShapeError):
            ops.channel_block_sum(tensor_create((1, 5, 2, 2)), 2)


class TestHead:
    def test_gap(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        y = ops.global_avg_pool(x)
        assert np.array_equal(y.data.reshape(-1), [1.5, 5.5])

    def test_gap_backward_finite_difference(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 3, 3)))
        go = Tensor(rng.normal(size=(2, 3, 1, 1)))
        gx = ops.global_avg_pool_backward(go, x.shape)
        fx = numeric_grad(
            lambda xx: float((ops.global_avg_pool(Tensor(xx)).data
                              * go.data).sum()), x.data)
        assert max_rel_err(gx.data, fx) < 1e-3

    def test_linear_and_backward(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4, 1, 1)))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        y = ops.linear(x, w, b)
        assert y.shape == (3, 5, 1, 1)
        go = Tensor(rng.normal(size=(3, 5, 1, 1)))
        gx, gw, gb = ops.linear_backward(go, x, w)
        fx = numeric_grad(
            lambda xx: float((ops.linear(Tensor(xx), w, b).data
                              * go.data).sum()), x.data)
        fw = numeric_grad(
            lambda ww: float((ops.linear(x, ww, b).data * go.data).sum()), w)
        fb = numeric_grad(
            lambda bb: float((ops.linear(x, w, bb).data * go.data).sum()), b)
        assert max_rel_err(gx.data, fx) < 1e-3
        assert max_rel_err(gw, fw) < 1e-3
        assert max_rel_err(gb, fb) < 1e-3

    def test_linear_requires_1x1(self):
        with pytest.raises(ShapeError):
            ops.linear(tensor_create((1, 4, 2, 2)), np.zeros((5, 4)),
                       np.zeros(5))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_loss(self):
        logits = tensor_create((4, 10, 1, 1), "zeros")
        loss, _ = ops.softmax_cross_entropy(logits, np.zeros(4, np.int64))
        assert abs(loss - np.log(10)) < 1e-6

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(3, 5, 1, 1)))
        labels = np.array([0, 2, 4])
        _, grad = ops.softmax_cross_entropy(z, labels)
        fz = numeric_grad(
            lambda zz: ops.softmax_cross_entropy(Tensor(zz), labels)[0],
            z.data)
        assert max_rel_err(grad.data, fz) < 1e-3

    def test_large_logits_stable(self):
        z = tensor_create((1, 3, 1, 1), "constant", value=1e4)
        loss, grad = ops.softmax_cross_entropy(z, [1])
        assert np.isfinite(loss)
        assert np.isfinite(grad.data).all()

    def test_underflowing_label_probability_stays_finite(self):
        # exp(-200) underflows to 0 in float32; the loss must not
        z = Tensor(np.array([[0.0, -200.0, -1.0]], np.float32)[:, :, None,
                                                                 None])
        with np.errstate(divide="raise", invalid="raise"):
            loss, grad = ops.softmax_cross_entropy(z, [1])
        want = np.log(1.0 + np.exp(-200.0) + np.exp(-1.0)) + 200.0
        assert abs(loss - want) < 1e-4
        assert np.isfinite(grad.data).all()

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            ops.softmax_cross_entropy(tensor_create((2, 3, 1, 1)), [0, 3])
        with pytest.raises(LabelError):
            ops.softmax_cross_entropy(tensor_create((2, 3, 1, 1)), [-1, 0])

    def test_label_count_mismatch(self):
        with pytest.raises(LabelError):
            ops.softmax_cross_entropy(tensor_create((2, 3, 1, 1)), [0])

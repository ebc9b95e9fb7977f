import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (max_rel_err, nan_canonical_bytes, numeric_grad,
                      pool_oracle, swap_nc, window_stack)
from cosnet import ops
from cosnet.errors import ConfigError, LabelError, ShapeError
from cosnet.graph import OPS, GraphBuilder
from cosnet.ops import ConvParams
from cosnet.runtime import execute, plan
from cosnet.tensor import (Tensor, deterministic_enabled, im2col_nd,
                           set_deterministic, tensor_create)


# The kernels take and return channel-major (c, n, h, w) arrays; the tests
# below keep their data and oracles in (n, c, h, w) and cross with swap_nc,
# or draw channel-major data where the layout does not matter to the check.


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
        x = tensor_create((2, 2, 5, 5), "uniform", seed=0, lo=-1, hi=1).data
        w = np.random.default_rng(1).normal(size=p.weight_shape)
        got = swap_nc(ops.conv2d_forward(swap_nc(x.astype(np.float64)), w,
                                         p))
        want = _naive_conv(x.astype(np.float64), w, p)
        assert np.allclose(got, want, atol=1e-10)

    def test_matches_naive_grouped(self):
        p = ConvParams(out_channels=4, in_channels=6, kernel=(3, 3),
                       stride=(1, 1), pad=(1, 1), groups=2)
        x = tensor_create((1, 6, 4, 4), "uniform", seed=2, lo=-1, hi=1).data
        w = np.random.default_rng(3).normal(size=p.weight_shape)
        got = swap_nc(ops.conv2d_forward(swap_nc(x.astype(np.float64)), w,
                                         p))
        want = _naive_conv(x.astype(np.float64), w, p)
        assert np.allclose(got, want, atol=1e-10)

    def test_grouped_equals_stacked_independent_convs(self):
        g = 3
        p = ConvParams(out_channels=6, in_channels=9, kernel=(3, 3),
                       pad=(1, 1), groups=g)
        xt = tensor_create((2, 9, 5, 5), "uniform", seed=4)
        x = xt.data
        w = np.random.default_rng(5).normal(size=p.weight_shape) \
            .astype(np.float32)
        sub = ConvParams(out_channels=2, in_channels=3, kernel=(3, 3),
                         pad=(1, 1))
        parts = []
        for gi in range(g):
            xs = swap_nc(x[:, 3 * gi:3 * gi + 3])
            parts.append(ops.conv2d_forward(xs, w[2 * gi:2 * gi + 2], sub))
        stacked = swap_nc(ops.channel_concat(parts))
        # the unrolled plan runs exactly those per-group convs
        b = GraphBuilder()
        conv = b.add("conv", [b.add("input")], "c", params=p)
        net = b.freeze(conv)
        net.weights[conv]["weight"] = w
        unrolled = execute(plan(net, "unrolled"), xt).data
        assert np.array_equal(unrolled, stacked)
        # the grouped kernel runs one gemm per group over the same rows
        whole = swap_nc(ops.conv2d_forward(swap_nc(x), w, p))
        assert float(np.abs(whole - stacked).max()) < 1e-5

    def test_channel_mismatch(self):
        p = ConvParams(out_channels=2, in_channels=3)
        with pytest.raises(ConfigError):
            ops.conv2d_forward(swap_nc(tensor_create((1, 2, 2, 2)).data),
                               np.zeros(p.weight_shape, np.float32), p)

    def test_bad_group_divisibility(self):
        with pytest.raises(ConfigError):
            ConvParams(out_channels=4, in_channels=5, groups=2)


class TestConvGroupedForward:
    """conv2d_forward with groups > 1: one gemm per group over one
    im2col."""

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
        x = tensor_create((2, cin, 7, 7), "uniform", seed=6, lo=-1, hi=1).data
        w = np.random.default_rng(7).normal(
            0.0, 0.5, size=p.weight_shape).astype(np.float32)
        got = swap_nc(ops.conv2d_forward(swap_nc(x), w, p))
        # the one-gemm im2col kernel, once per group
        sub = ConvParams(out_channels=cout // g, in_channels=cin // g,
                         kernel=(k, k), stride=(stride, stride),
                         pad=(k // 2, k // 2))
        step = cin // g
        want = swap_nc(ops.channel_concat([ops.conv2d_forward(
            swap_nc(x[:, gi * step:(gi + 1) * step]),
            w[gi * (cout // g):(gi + 1) * (cout // g)], sub)
            for gi in range(g)]))
        assert got.shape == want.shape
        assert float(np.abs(got - want).max()) < 1e-5
        exact = _naive_conv(x.astype(np.float64), w.astype(np.float64), p)
        assert float(np.abs(got - exact).max()) < 1e-5

    def test_one_gemm_per_group_through_mm(self, monkeypatch):
        # every gemm goes through tensor.mm, so deterministic mode gives the
        # sequential reduction inside the grouped kernel too
        p = ConvParams(out_channels=6, in_channels=12, kernel=(3, 3),
                       pad=(1, 1), groups=3)
        x = swap_nc(tensor_create((2, 12, 5, 5), "uniform", seed=8, lo=-1,
                                  hi=1).data)
        w = np.random.default_rng(9).normal(size=p.weight_shape) \
            .astype(np.float32)
        seen, bufs = [], []
        real_mm = ops.mm

        def spy(a, b, out):
            seen.append((a.shape, deterministic_enabled()))
            bufs.append(out.base)
            return real_mm(a, b, out)

        monkeypatch.setattr(ops, "mm", spy)
        fast = ops.conv2d_forward(x, w, p)
        set_deterministic(True)
        try:
            det = ops.conv2d_forward(x, w, p)
        finally:
            set_deterministic(False)
        # one gemm per group over its whole reduction: 4*9 patch rows
        assert seen == [((2, 36), False)] * 3 + [((2, 36), True)] * 3
        # each group's gemm writes its rows of the output itself: no copy
        assert all(buf is fast.base for buf in bufs[:3])
        assert all(buf is det.base for buf in bufs[3:])
        # the sequential reduction of each group, in one pass
        cols = im2col_nd(x, p.kernel, p.stride, p.pad)
        assert cols.shape == (12 * 9, 2 * 5 * 5)
        want = np.empty((6, cols.shape[1]), dtype=np.float32)
        for gi in range(3):
            wg = w[2 * gi:2 * gi + 2].reshape(2, 36)
            cg = cols[36 * gi:36 * (gi + 1)]
            acc = np.zeros((2, cols.shape[1]), dtype=np.float32)
            for k in range(36):
                acc += wg[:, k][:, None] * cg[k][None, :]
            want[2 * gi:2 * gi + 2] = acc
        # the gemm output is the channel-major result
        assert np.array_equal(det, want.reshape(6, 2, 5, 5))
        assert float(np.abs(fast - det).max()) < 1e-5


class TestConvBackward:
    def test_finite_difference_1x2x4x4(self):
        p = ConvParams(out_channels=2, in_channels=2, kernel=(3, 3),
                       pad=(1, 1))
        rng = np.random.default_rng(0)
        x = swap_nc(rng.normal(size=(1, 2, 4, 4)))
        w = rng.normal(size=p.weight_shape)
        go = swap_nc(rng.normal(size=(1, 2, 4, 4)))

        saved = {}
        ops.conv2d_forward(x, w, p, saved)
        gx, gw = ops.conv2d_backward(go, saved, w, p)
        fx = numeric_grad(
            lambda xx: float((ops.conv2d_forward(xx, w, p) * go).sum()), x)
        fw = numeric_grad(
            lambda ww: float((ops.conv2d_forward(x, ww, p) * go).sum()), w)
        assert max_rel_err(gx, fx) < 1e-3
        assert max_rel_err(gw, fw) < 1e-3

    def test_finite_difference_grouped_strided(self):
        p = ConvParams(out_channels=4, in_channels=4, kernel=(3, 3),
                       stride=(2, 2), pad=(1, 1), groups=2)
        rng = np.random.default_rng(1)
        x = swap_nc(rng.normal(size=(2, 4, 5, 5)))
        w = rng.normal(size=p.weight_shape)
        go = swap_nc(rng.normal(size=(2, 4, 3, 3)))
        saved = {}
        ops.conv2d_forward(x, w, p, saved)
        gx, gw = ops.conv2d_backward(go, saved, w, p)
        fx = numeric_grad(
            lambda xx: float((ops.conv2d_forward(xx, w, p) * go).sum()), x)
        fw = numeric_grad(
            lambda ww: float((ops.conv2d_forward(x, ww, p) * go).sum()), w)
        assert max_rel_err(gx, fx) < 1e-3
        assert max_rel_err(gw, fw) < 1e-3

    def test_grad_shape_mismatch(self):
        p = ConvParams(out_channels=1, in_channels=1)
        w = np.zeros(p.weight_shape, np.float32)
        saved = {}
        ops.conv2d_forward(tensor_create((1, 1, 2, 2)).data, w, p, saved)
        with pytest.raises(ShapeError):
            ops.conv2d_backward(tensor_create((1, 1, 3, 3)).data, saved, w, p)

    def test_saved_state_is_the_forward_patch_matrix(self):
        p = ConvParams(out_channels=4, in_channels=4, kernel=(3, 3),
                       stride=(2, 2), pad=(1, 1), groups=2)
        x = swap_nc(tensor_create((2, 4, 5, 5), "uniform", seed=3, lo=-1,
                                  hi=1).data)
        saved = {}
        ops.conv2d_forward(x, np.ones(p.weight_shape, np.float32), p, saved)
        assert saved["in_shape"] == x.shape
        assert np.array_equal(saved["cols"],
                              im2col_nd(x, p.kernel, p.stride, p.pad))


class TestInputReplicate:
    def test_tiles_channel_block(self):
        x = tensor_create((1, 2, 2, 2), "uniform", seed=0).data
        y = swap_nc(ops.input_replicate(swap_nc(x), 3))
        assert y.shape == (1, 6, 2, 2)
        for m in range(3):
            assert np.array_equal(y[:, 2 * m:2 * m + 2], x)

    def test_m1_is_copy(self):
        x = tensor_create((1, 2, 2, 2), "uniform", seed=0).data
        y = ops.input_replicate(x, 1)
        assert np.array_equal(y, x)
        y[...] = 0
        assert x.sum() != 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_adjoint_of_block_sum(self, m):
        # <F(x), y> = <x, B(y)> for each of the two ops, in float64; with
        # the forwards pinned above and in TestFusion, this pins both
        # backwards
        rng = np.random.default_rng(m)
        x = rng.normal(size=(2, 3, 2, 2))
        y = rng.normal(size=(2 * m, 3, 2, 2))
        for kind, a, b in (("ir", x, y), ("block_sum", y, x)):
            op, cfg = OPS[kind], {"m": m}
            fa = op.forward(cfg, [a], {}, None)
            (bb,), grads = op.backward(cfg, b, None, {})
            assert fa.shape == b.shape and bb.shape == a.shape
            assert grads == {}
            assert np.isclose(np.vdot(fa, b), np.vdot(a, bb), rtol=1e-12)

    def test_backward_divisibility(self):
        with pytest.raises(ShapeError, match="not divisible"):
            OPS["ir"].backward({"m": 2}, tensor_create((5, 1, 2, 2)).data,
                               None, {})


class TestPooling:
    def test_max_known(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y = ops.pool2d(x, "max", (2, 2), (2, 2), (0, 0))
        assert np.array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_avg_fixed_divisor_with_padding(self):
        x = tensor_create((1, 1, 2, 2), "ones").data
        y = ops.pool2d(x, "avg", (3, 3), (1, 1), (1, 1))
        # corner window covers 4 real pixels out of 9
        assert abs(y[0, 0, 0, 0] - 4.0 / 9.0) < 1e-6

    def test_max_padding_uses_neg_inf(self):
        x = np.full((1, 1, 2, 2), -5.0, dtype=np.float32)
        y = ops.pool2d(x, "max", (3, 3), (1, 1), (1, 1))
        assert (y == -5.0).all()

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_backward_finite_difference(self, kind):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 4, 4))   # continuous: no ties
        go = rng.normal(size=(2, 2, 2, 2))
        saved = {}
        ops.pool2d(x, kind, (3, 3), (2, 2), (1, 1), saved)
        gx = ops.pool2d_backward(go, saved, kind, (3, 3), (2, 2), (1, 1))
        fx = numeric_grad(
            lambda xx: float((ops.pool2d(xx, kind, (3, 3), (2, 2),
                                         (1, 1)) * go).sum()),
            x)
        assert max_rel_err(gx, fx) < 1e-3

    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("go_shape", [(2, 2, 3, 3), (2, 3, 2, 2),
                                          (1, 2, 2, 2)])
    def test_backward_grad_shape_mismatch(self, kind, go_shape):
        x = tensor_create((2, 2, 4, 4), "uniform", seed=0).data
        saved = {}
        ops.pool2d(x, kind, (3, 3), (2, 2), (1, 1), saved)
        with pytest.raises(ShapeError, match="forward output"):
            ops.pool2d_backward(tensor_create(go_shape).data, saved, kind,
                                (3, 3), (2, 2), (1, 1))

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
        want = window_stack(x, *args, 0.0).sum(axis=2) \
            / np.asarray(k * k, dtype=dtype)
        assert ops.pool2d(x, "avg", *args).tobytes() == \
            want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["avg", "max"]), st.integers(1, 2),
           st.integers(1, 3), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
           st.integers(1, 2), st.integers(0, 1), st.integers(0, 1),
           st.sampled_from([np.float32, np.float64]), st.booleans(),
           st.integers(0, 10**6))
    # 1x1 outputs (a 3x3 map under a 3x3 kernel), where the window stack is
    # reduced along its innermost axis: a sum these seeds round apart from
    # a running one, and a max of +0.0 and -0.0 taken apart from a running
    # np.maximum; and windows that are all padding
    @example("avg", 2, 3, 3, 3, 3, 3, 1, 1, 0, 0, np.float32, False, 0)
    @example("max", 2, 3, 3, 3, 3, 3, 1, 1, 0, 0, np.float64, True, 3)
    @example("max", 1, 2, 1, 1, 1, 1, 2, 2, 1, 1, np.float32, False, 2)
    def test_pixel_major_pooling_matches_window_stack(
            self, kind, n, c, h, w, kh, kw, sh, sw, ph, pw, dtype, rounded,
            seed):
        """Forward in both modes and backward give the window-stack
        oracle's bytes (backward: its patch matrix through col2im_nd), on
        data a quarter -0.0, with +-inf and NaN, and rounded to integers
        for ties, up to which NaN an add of two NaNs returns."""
        if h + 2 * ph < kh or w + 2 * pw < kw:
            return
        rng = np.random.default_rng(seed)

        def draw(shape):
            a = (rng.normal(size=shape)
                 * 10.0 ** rng.integers(-3, 4, shape)).astype(dtype)
            if rounded:
                a = np.round(a)
            u = rng.random(shape)
            a[u < 0.25] = -0.0
            a[(u > 0.94) & (u < 0.96)] = np.inf
            a[(u > 0.96) & (u < 0.98)] = -np.inf
            a[u > 0.98] = np.nan
            return a

        x = draw((c, n, h, w))
        args = ((kh, kw), (sh, sw), (ph, pw))
        saved = {}
        # inf - inf is NaN
        with np.errstate(invalid="ignore"):
            want, want_arg, _ = pool_oracle(x, kind, *args)
            go = draw(want.shape)
            _, _, want_gx = pool_oracle(x, kind, *args, grad_out=go)
            y_eval = ops.pool2d(x, kind, *args)
            y = ops.pool2d(x, kind, *args, saved)
            gx = ops.pool2d_backward(go, saved, kind, *args)
        for got, ref in ((y_eval, want), (y, want), (gx, want_gx)):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.flags.c_contiguous
            assert nan_canonical_bytes(got) == nan_canonical_bytes(ref)
        if kind == "max":
            assert saved["arg"].dtype == want_arg.dtype
            assert saved["arg"].tobytes() == want_arg.tobytes()

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
        # the kernel's pixel-major windows: (kh*kw, Ho, Wo, n*c) here
        got = np.stack(ops._windows(ops._pixel_major(x, (p, p), fill),
                                    (k, k), (s, s), ho, ho))
        want = want.reshape(n * c, k * k, ho, ho).transpose(1, 2, 3, 0)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_saved_state(self):
        x = tensor_create((2, 3, 4, 4), "uniform", seed=0).data
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
        y = ops.pool2d(x, "max", *args, saved)
        wins = window_stack(x, *args, -np.inf)
        assert saved["arg"].tobytes() == wins.argmax(axis=2).astype(
            np.uint8).tobytes()
        assert np.array_equal(y, wins.max(axis=2), equal_nan=True)
        assert np.isnan(y).any() == (case == "nan")

    def test_max_backward_finite_difference_17x17(self):
        # 289 offsets per window: the saved argmax needs a uint16, and the
        # maxima sit at offsets above 255, where a uint8 would wrap
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 18, 18))
        x[:, :, 16:, 16:] += 10.0
        args = ((17, 17), (1, 1), (0, 0))
        saved = {}
        y = ops.pool2d(x, "max", *args, saved)
        assert saved["arg"].dtype == np.uint16
        assert (saved["arg"] > 255).all()
        go = rng.normal(size=y.shape)
        gx = ops.pool2d_backward(go, saved, "max", *args)
        fx = numeric_grad(
            lambda xx: float((ops.pool2d(xx, "max", *args) * go).sum()), x)
        assert max_rel_err(gx, fx) < 1e-3

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            ops.pool2d(tensor_create((1, 1, 3, 3)).data, "median", (2, 2),
                       (1, 1), (0, 0))


def _bn_table(channels):
    """A fresh bn weight table, as the graph builds it."""
    return OPS["bn"].init({"channels": channels}, None)


class TestBatchNorm:
    def test_train_normalizes_and_updates_running(self):
        table = _bn_table(3)
        x = tensor_create((4, 3, 5, 5), "uniform", seed=0, lo=2.0, hi=4.0).data
        y = swap_nc(ops.batchnorm2d(swap_nc(x), table, {}))
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-5
        assert np.abs(y.var(axis=(0, 2, 3)) - 1).max() < 1e-3
        # momentum 0.1 blend from (0, 1) toward batch stats
        batch_mean = x.mean(axis=(0, 2, 3))
        assert np.allclose(table["running_mean"], 0.1 * batch_mean,
                           atol=1e-6)

    def test_eval_uses_running_stats(self):
        table = _bn_table(2)
        table["running_mean"][:] = [1.0, -1.0]
        table["running_var"][:] = [4.0, 4.0]
        x = tensor_create((1, 2, 2, 2), "ones").data
        y = swap_nc(ops.batchnorm2d(swap_nc(x), table))
        assert np.allclose(y[0, 0], 0.0, atol=1e-3)
        assert np.allclose(y[0, 1], 1.0, atol=1e-3)

    def test_affine(self):
        table = _bn_table(1)
        table["gamma"][:] = 3.0
        table["beta"][:] = 1.0
        x = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        y = ops.batchnorm2d(x, table)
        assert np.allclose(y, 7.0, atol=1e-3)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            ops.batchnorm2d(swap_nc(tensor_create((1, 3, 2, 2)).data),
                            _bn_table(2))

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
        y = swap_nc(ops.batchnorm2d(swap_nc(x), table, saved))
        # the mean and the mean square of x - mean, each one sum along a
        # channel's contiguous n*h*w row; then normalize, scale and shift
        m = n * h * w
        rows = swap_nc(x).reshape(c, m)
        mean = rows.sum(axis=1) / m
        var = np.square(rows - mean[:, None]).sum(axis=1) / m
        inv = 1.0 / np.sqrt(var + np.asarray(ops.BN_EPSILON, dtype=dtype))
        xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
        want = xhat * want_table["gamma"].astype(dtype)[None, :, None, None] \
            + want_table["beta"].astype(dtype)[None, :, None, None]
        assert y.tobytes() == want.tobytes()
        assert swap_nc(saved["xhat"]).tobytes() == xhat.tobytes()
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
        x = rng.normal(size=shape) * 3.0 + 1.0
        go = rng.normal(size=shape)
        saved = {}
        ops.batchnorm2d(swap_nc(x), table, saved)
        gx, gg, gb = ops.batchnorm2d_backward(swap_nc(go), saved, table)
        gx = swap_nc(gx)
        inv, xhat = saved["inv"][None, :, None, None], swap_nc(saved["xhat"])
        # the form with three reductions over gamma * g
        gxh = go * table["gamma"].astype(np.float64)[None, :, None, None]
        m = shape[0] * shape[2] * shape[3]
        want = (inv / m) * (
            m * gxh - gxh.sum(axis=(0, 2, 3))[None, :, None, None]
            - xhat * (gxh * xhat).sum(axis=(0, 2, 3))[None, :, None, None])
        assert np.abs(gx - want).max() <= 1e-12 * np.abs(want).max()

        def row_sums(a):
            return swap_nc(a).reshape(shape[1], m).sum(axis=1)

        assert gg.tobytes() == row_sums(go * xhat).tobytes()
        assert gb.tobytes() == row_sums(go).tobytes()

    @pytest.mark.parametrize("shape", [(128, 32, 2, 2), (16, 32, 16, 16),
                                       (3, 64, 16, 16), (5, 2, 1, 1)])
    @pytest.mark.parametrize("data", ["normal", "positive"])
    def test_channel_sums_within_pairwise_bound(self, shape, data):
        """Each channel's sum is within the rounding bound of numpy's
        pairwise sum of its m = n*h*w values, gamma_d * sum|x| with
        gamma_d = d*u / (1 - d*u), of the float64 sum.  The depth d counts
        the additions on any value's path: the first value, then blocks of
        at most 128 values summed by 8 running partial sums of 16 values,
        combined in 3 levels with at most 7 leftovers added after, then
        ceil(log2(m / 128)) pairwise levels above the blocks.  A sequential
        sum along each row misses it on the positive data with m = 8192 and
        16384."""
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3, shape)
        if data == "positive":
            x = np.abs(x) + 0.1
        x = x.astype(np.float32)
        m = shape[1] * shape[2] * shape[3]
        depth = 1 + 25 + max(int(np.ceil(np.log2(m / 128))), 0)
        u = 2.0 ** -24
        gamma = depth * u / (1 - depth * u)
        rows = x.reshape(shape[0], -1).astype(np.float64)
        got = ops._channel_sums(x)
        assert got.dtype == np.float32
        err = np.abs(got.astype(np.float64) - rows.sum(axis=1))
        assert (err <= gamma * np.abs(rows).sum(axis=1)).all()

    def test_eval_affine_matches_normalize_then_scale(self):
        rng = np.random.default_rng(8)
        table = self._random_table(rng, 6)
        before = {k: v.copy() for k, v in table.items()}
        x = rng.uniform(-1.0, 1.0, size=(3, 6, 5, 4))
        y = swap_nc(ops.batchnorm2d(swap_nc(x), table))
        stat = {k: v.astype(np.float64)[None, :, None, None]
                for k, v in table.items()}
        inv = 1.0 / np.sqrt(stat["running_var"] + ops.BN_EPSILON)
        want = ((x - stat["running_mean"]) * inv) * stat["gamma"] \
            + stat["beta"]
        assert np.abs(y - want).max() <= 1e-12
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
        x = swap_nc(rng.normal(size=(3, 2, 3, 3)))
        go = swap_nc(rng.normal(size=(3, 2, 3, 3)))

        def _frozen(**fields):
            # a copy, so train-mode forwards leave the running stats alone
            return {**{k: v.copy() for k, v in table.items()}, **fields}

        def forward(xx, tbl):
            # a saved dict is what puts batch norm in train mode
            return ops.batchnorm2d(xx, tbl, {} if mode == "train" else None)

        saved = {}
        ops.batchnorm2d(x, _frozen(), saved)
        gx, gg, gb = ops.batchnorm2d_backward(go, saved, table)

        def loss_x(xx):
            return float((forward(xx, _frozen()) * go).sum())

        assert max_rel_err(gx, numeric_grad(loss_x, x)) < 1e-3

        def loss_gamma(gam):
            return float((forward(x, _frozen(gamma=gam)) * go).sum())

        def loss_beta(bet):
            return float((forward(x, _frozen(beta=bet)) * go).sum())

        assert max_rel_err(gg, numeric_grad(loss_gamma,
                                            table["gamma"].astype(np.float64))) < 1e-3
        assert max_rel_err(gb, numeric_grad(loss_beta,
                                            table["beta"].astype(np.float64))) < 1e-3


class TestRelu:
    def test_forward(self):
        x = np.array([[-1.0, 0.0, 2.0, -3.0]],
                     dtype=np.float32).reshape(1, 1, 1, 4)
        assert np.array_equal(ops.relu(x).reshape(-1), [0, 0, 2, 0])

    def test_gradient_at_zero_is_zero(self):
        x = np.zeros((1, 1, 1, 1), dtype=np.float32)
        go = np.ones((1, 1, 1, 1), dtype=np.float32)
        saved = {}
        ops.relu(x, saved)
        assert ops.relu_backward(go, saved).item() == 0.0

    def test_backward_mask(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 3, 3))
        go = rng.normal(size=(2, 2, 3, 3))
        saved = {}
        ops.relu(x, saved)
        assert saved["mask"].dtype == np.bool_
        gx = ops.relu_backward(go, saved)
        assert np.array_equal(gx, go * (x > 0))


class TestFusion:
    def test_concat_and_backward(self):
        a = tensor_create((1, 2, 2, 2), "uniform", seed=0).data
        b = tensor_create((1, 3, 2, 2), "uniform", seed=1).data
        y = swap_nc(ops.channel_concat([swap_nc(a), swap_nc(b)]))
        assert y.shape == (1, 5, 2, 2)
        grads = [swap_nc(g) for g in
                 ops.channel_concat_backward(swap_nc(y), [2, 3])]
        assert np.array_equal(grads[0], a)
        assert np.array_equal(grads[1], b)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            ops.channel_concat([swap_nc(tensor_create((1, 1, 2, 2)).data),
                                swap_nc(tensor_create((1, 1, 3, 3)).data)])

    def test_block_sum(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 4, 1, 2)
        y = swap_nc(ops.channel_block_sum(swap_nc(x), 2))
        assert np.array_equal(y, x[:, :2] + x[:, 2:])

    def test_block_sum_divisibility(self):
        with pytest.raises(ShapeError):
            ops.channel_block_sum(swap_nc(tensor_create((1, 5, 2, 2)).data),
                                  2)


class TestHead:
    def test_gap(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        y = swap_nc(ops.global_avg_pool(swap_nc(x)))
        assert np.array_equal(y.reshape(-1), [1.5, 5.5])

    def test_gap_backward_finite_difference(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 3, 3))
        go = rng.normal(size=(2, 3, 1, 1))
        gx = ops.global_avg_pool_backward(go, x.shape)
        fx = numeric_grad(
            lambda xx: float((ops.global_avg_pool(xx) * go).sum()), x)
        assert max_rel_err(gx, fx) < 1e-3

    def test_linear_and_backward(self):
        rng = np.random.default_rng(8)
        x = swap_nc(rng.normal(size=(3, 4, 1, 1)))
        w = rng.normal(size=(5, 4))
        b = rng.normal(size=5)
        saved = {}
        y = swap_nc(ops.linear(x, w, b, saved))
        assert y.shape == (3, 5, 1, 1)
        # the features' n @ W.T, one row per sample
        assert np.allclose(y.reshape(3, 5), swap_nc(x).reshape(3, 4) @ w.T + b)
        # the head saves what its 1x1 conv saves
        assert set(saved) == {"cols", "in_shape"}
        assert saved["in_shape"] == (4, 3, 1, 1)
        go = swap_nc(rng.normal(size=(3, 5, 1, 1)))
        gx, gw, gb = ops.linear_backward(go, saved, w)
        assert gx.shape == x.shape and gw.shape == w.shape
        # the bias gradient is the per-channel row sum of grad_out
        assert gb.tobytes() == go.reshape(5, 3).sum(axis=1).tobytes()
        fx = numeric_grad(
            lambda xx: float((ops.linear(xx, w, b) * go).sum()), x)
        fw = numeric_grad(
            lambda ww: float((ops.linear(x, ww, b) * go).sum()), w)
        fb = numeric_grad(
            lambda bb: float((ops.linear(x, w, bb) * go).sum()), b)
        assert max_rel_err(gx, fx) < 1e-3
        assert max_rel_err(gw, fw) < 1e-3
        assert max_rel_err(gb, fb) < 1e-3

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_linear_is_the_1x1_conv_plus_bias(self, deterministic):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(16, 3, 1, 1)).astype(np.float32)
        w = rng.normal(size=(7, 16)).astype(np.float32)
        b = rng.normal(size=7).astype(np.float32)
        set_deterministic(deterministic)
        try:
            got = ops.linear(x, w, b)
            conv = ops.conv2d_forward(x, w.reshape(7, 16, 1, 1),
                                      ConvParams(7, 16))
        finally:
            set_deterministic(False)
        assert got.tobytes() == (conv + b[:, None, None, None]).tobytes()
        if deterministic:
            # each logit sums its products in feature order from +0.0
            acc = np.zeros((7, 3), dtype=np.float32)
            for k in range(16):
                acc += w[:, k][:, None] * x[k, :, 0, 0][None, :]
            assert got.tobytes() == (acc + b[:, None])[..., None, None] \
                .tobytes()

    def test_head_op_finite_difference_float64(self):
        """OPS["linear"] forward and backward, as the interpreter calls
        them, against central differences for x, W and b."""
        op = OPS["linear"]
        cfg = {"in_features": 6, "out_features": 4}
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3, 1, 1))
        table = {"weight": rng.normal(size=(4, 6)), "bias": rng.normal(size=4)}
        go = rng.normal(size=(4, 3, 1, 1))
        saved = {}
        y = op.forward(cfg, [x], table, saved)
        assert y.dtype == np.float64 and y.shape == (4, 3, 1, 1)
        (gx,), pg = op.backward(cfg, go, saved, table)

        def loss(xx=x, ww=table["weight"], bb=table["bias"]):
            return float((op.forward(cfg, [xx], {"weight": ww, "bias": bb},
                                     None) * go).sum())

        assert max_rel_err(gx, numeric_grad(lambda v: loss(xx=v), x)) < 1e-6
        assert max_rel_err(pg["weight"], numeric_grad(
            lambda v: loss(ww=v), table["weight"])) < 1e-6
        assert max_rel_err(pg["bias"], numeric_grad(
            lambda v: loss(bb=v), table["bias"])) < 1e-6

    def test_linear_requires_1x1(self):
        with pytest.raises(ShapeError):
            ops.linear(swap_nc(tensor_create((1, 4, 2, 2)).data),
                       np.zeros((5, 4)), np.zeros(5))


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
        z = Tensor(np.full((1, 3, 1, 1), 1e4, dtype=np.float32))
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

"""Tensor engine tests: exact op semantics plus finite-difference
gradient oracles (central differences, h=1e-3, rtol 1e-3, atol 1e-5)."""

import tracemalloc

import numpy as np
import pytest

import lungsound.tensor as tensor_mod
from helpers import check_gradient
from lungsound.errors import ShapeError
from lungsound.tensor import (
    BatchNormState,
    Tensor,
    batchnorm2d,
    conv2d,
    matmul,
    no_grad,
    pool2d,
    precision,
    reduce,
    softmax,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- conv2d ----------------------------------------------------------------------


class TestConv2d:
    def test_all_ones_3x3_sum(self):
        out = conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
        assert out.shape == (1, 1, 1, 1)
        assert out.data.item() == 9.0

    def test_scalar_kernel_scales_input(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        out = conv2d(Tensor(x[None, None]), Tensor(np.full((1, 1, 1, 1), 2.0)))
        np.testing.assert_array_equal(out.data[0, 0], 2.0 * x)

    def test_output_shape_formula(self):
        x = Tensor(rng().normal(size=(2, 3, 9, 7)).astype(np.float32))
        w = Tensor(rng(1).normal(size=(4, 3, 3, 3)).astype(np.float32))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_matches_scipy_correlate(self):
        from scipy.signal import correlate2d

        x = rng(2).normal(size=(5, 6)).astype(np.float32)
        w = rng(3).normal(size=(3, 3)).astype(np.float32)
        out = conv2d(Tensor(x[None, None]), Tensor(w[None, None]))
        expected = correlate2d(x, w, mode="valid")
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_message_has_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(1, 2, 4, 4\).*\(3, 3, 2, 2\)"):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 3, 2, 2))))

    def test_kernel_larger_than_input_errors(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize("seed,shape,kshape,stride,pad", [
        (0, (2, 3, 8, 8), (4, 3, 3, 3), 1, 0),
        (1, (1, 2, 6, 5), (3, 2, 3, 3), 1, 1),
        (2, (2, 1, 7, 7), (2, 1, 5, 5), 2, 2),
    ])
    def test_gradient_vs_finite_differences(self, seed, shape, kshape, stride, pad):
        g = rng(seed)
        x = g.normal(size=shape).astype(np.float32) * 0.5
        w = g.normal(size=kshape).astype(np.float32) * 0.5
        out_shape = conv2d(Tensor(x), Tensor(w), stride=stride, padding=pad).shape
        mix = rng(seed + 100).normal(size=out_shape).astype(np.float32)

        def loss(t):
            return (conv2d(t["x"], t["w"], stride=stride, padding=pad) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x, "w": w})


def reference_conv2d(x, w, g, stride, pad):
    """The earlier row-major conv2d kernel, kept as the oracle for the
    channels-first one: (B, Ho*Wo, C*kh*kw) im2col and a transposed
    25-shift scatter. Returns (out, d out/d x . g, d out/d w . g)."""
    co, ci, kh, kw = w.shape
    b, _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (b, ci, kh, kw, ho, wo), (s0, s1, s2, s3, s2 * stride, s3 * stride)
    )
    cols = np.ascontiguousarray(windows.transpose(0, 4, 5, 1, 2, 3)).reshape(b, ho * wo, -1)
    wmat = w.reshape(co, -1)
    out = np.matmul(cols, wmat.T).transpose(0, 2, 1).reshape(b, co, ho, wo)
    g2 = g.reshape(b, co, ho * wo).transpose(0, 2, 1)
    gw = np.tensordot(g2, cols, axes=([0, 1], [0, 1])).reshape(w.shape)
    gcols = np.matmul(g2, wmat).reshape(b, ho, wo, ci, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gx = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
    return out, gx[:, :, pad : pad + h, pad : pad + wd], gw


def random_conv_case(seed):
    """Random shape/stride/padding: B and C include 1, kernels may be
    non-square, H and W may be odd."""
    g = rng(seed)
    stride, pad = int(g.integers(1, 4)), int(g.integers(0, 3))
    kh, kw = int(g.integers(1, 6)), int(g.integers(1, 6))
    b, c, co = int(g.integers(1, 4)), int(g.integers(1, 4)), int(g.integers(1, 5))
    h = int(g.integers(max(kh - 2 * pad, 1), 12))
    w = int(g.integers(max(kw - 2 * pad, 1), 12))
    return g, (b, c, h, w), (co, c, kh, kw), stride, pad


class TestConv2dReferenceOracle:
    CASES = [
        ((1, 1, 7, 9), (1, 1, 3, 3), 1, 0),
        ((1, 1, 11, 5), (2, 1, 5, 3), 2, 2),
        ((3, 2, 9, 7), (4, 2, 2, 5), 3, 1),
        ((4, 3, 13, 11), (5, 3, 5, 5), 1, 2),
        ((2, 4, 6, 10), (3, 4, 4, 1), 2, 0),
    ]

    def _compare(self, g, shape, kshape, stride, pad, dtype, rtol):
        x = g.normal(size=shape).astype(dtype)
        w = g.normal(size=kshape).astype(dtype)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = conv2d(xt, wt, stride=stride, padding=pad)
        mix = g.normal(size=out.shape).astype(dtype)
        (out * Tensor(mix)).sum().backward()
        ref_out, ref_gx, ref_gw = reference_conv2d(x, w, mix, stride, pad)
        assert out.data.dtype == xt.grad.dtype == wt.grad.dtype == dtype
        atol = rtol * 10
        np.testing.assert_allclose(out.data, ref_out, rtol=rtol, atol=atol)
        np.testing.assert_allclose(xt.grad, ref_gx, rtol=rtol, atol=atol)
        np.testing.assert_allclose(wt.grad, ref_gw, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", CASES)
    def test_fixed_cases(self, case, dtype, rtol):
        with precision(dtype):
            self._compare(rng(7), *case, dtype, rtol)

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_cases(self, seed, dtype, rtol):
        g, shape, kshape, stride, pad = random_conv_case(seed)
        with precision(dtype):
            self._compare(g, shape, kshape, stride, pad, dtype, rtol)


    # (B, C, H, W), kernel, stride, pad, items per chunk: several chunks,
    # the last one ragged, or one item per chunk
    CHUNKED = [
        ((5, 3, 9, 8), (4, 3, 3, 3), 1, 1, 2),
        ((7, 2, 11, 6), (3, 2, 5, 3), 2, 2, 3),
        ((3, 4, 6, 7), (2, 4, 2, 2), 1, 0, 1),
    ]

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("case", CHUNKED)
    def test_chunked_cases(self, case, dtype, rtol, monkeypatch):
        shape, kshape, stride, pad, per_chunk = case
        co, ci, kh, kw = kshape
        ho = (shape[2] + 2 * pad - kh) // stride + 1
        wo = (shape[3] + 2 * pad - kw) // stride + 1
        item_bytes = ci * kh * kw * ho * wo * np.dtype(dtype).itemsize
        monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", per_chunk * item_bytes + item_bytes // 2)
        built = []
        im2col = tensor_mod._im2col
        monkeypatch.setattr(
            tensor_mod, "_im2col", lambda xp, *a: built.append(len(xp)) or im2col(xp, *a)
        )
        with precision(dtype):
            self._compare(rng(11), shape, kshape, stride, pad, dtype, rtol)
        n_chunks = -(-shape[0] // per_chunk)
        # forward builds each chunk's columns, backward rebuilds them once
        assert built[:n_chunks] == built[n_chunks:]
        assert len(built) == 2 * n_chunks and sum(built[:n_chunks]) == shape[0]
        assert max(built) == per_chunk

    def test_frozen_weight_rebuilds_no_columns(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", 1)  # one item per chunk
        built = []
        im2col = tensor_mod._im2col
        monkeypatch.setattr(
            tensor_mod, "_im2col", lambda xp, *a: built.append(len(xp)) or im2col(xp, *a)
        )
        g = rng(12)
        xt = Tensor(g.normal(size=(3, 2, 6, 6)), requires_grad=True)
        wt = Tensor(g.normal(size=(4, 2, 3, 3)))
        out = conv2d(xt, wt, padding=1)
        assert built == [1, 1, 1]
        out.sum().backward()
        assert built == [1, 1, 1] and wt.grad is None
        # the input gradient of a stride-1 conv is the output gradient
        # convolved with the flipped, channel-transposed kernel
        flipped = Tensor(wt.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        expected = conv2d(Tensor(np.ones((3, 4, 6, 6))), flipped, padding=1)
        np.testing.assert_allclose(xt.grad, expected.data, rtol=1e-5)

    def test_peak_memory_bounded_by_chunk(self, monkeypatch):
        # the whole batch's columns are 8x IM2COL_BYTES; conv forward plus
        # backward may hold one chunk's columns (or their gradient) plus a
        # few input- and output-sized buffers, never all the columns
        b, c, hw, k = 8, 8, 32, 5
        item_cols = c * k * k * hw * hw * 4
        monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", item_cols)
        g = rng(13)
        xt = Tensor(g.normal(size=(b, c, hw, hw)), requires_grad=True)
        wt = Tensor(g.normal(size=(c, c, k, k)) * 0.1, requires_grad=True)
        io_bytes = xt.data.nbytes * 2  # input plus output, same sizes here
        assert b * item_cols >= 4 * tensor_mod.IM2COL_BYTES
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = conv2d(xt, wt, padding=2)
            out.backward(np.ones(out.shape, np.float32))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert xt.grad is not None and wt.grad is not None
        assert peak < tensor_mod.IM2COL_BYTES + 4 * io_bytes, (peak, b * item_cols)


# -- batchnorm ----------------------------------------------------------------------


class TestBatchNorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((3, 2, 4, 4), 7.0))
        state = BatchNormState(2)
        out = batchnorm2d(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_affine_on_normalized_input(self):
        g = rng(5)
        x = g.normal(size=(4, 1, 8, 8)).astype(np.float32)
        x = (x - x.mean()) / x.std()
        state = BatchNormState(1)
        out = batchnorm2d(
            Tensor(x), Tensor(np.full(1, 2.0)), Tensor(np.full(1, 3.0)), state, training=True
        )
        xhat = (x - x.mean()) / np.sqrt(x.var() + 1e-5)
        np.testing.assert_allclose(out.data, 2.0 * xhat + 3.0, rtol=1e-4, atol=1e-5)

    def test_eval_mode_uses_running_stats(self):
        state = BatchNormState(1)
        state.running_mean[:] = 1.0
        state.running_var[:] = 4.0
        x = Tensor(np.full((1, 1, 2, 2), 3.0))
        out = batchnorm2d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, training=False)
        np.testing.assert_allclose(out.data, (3.0 - 1.0) / np.sqrt(4.0 + 1e-5), rtol=1e-6)

    def test_running_stats_update(self):
        state = BatchNormState(1)
        x = np.full((2, 1, 2, 2), 10.0, dtype=np.float32)
        batchnorm2d(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), state, training=True)
        np.testing.assert_allclose(state.running_mean, 0.9 * 0.0 + 0.1 * 10.0)

    def test_zero_batch_errors(self):
        with pytest.raises(ShapeError):
            batchnorm2d(
                Tensor(np.zeros((0, 1, 2, 2))),
                Tensor(np.ones(1)),
                Tensor(np.zeros(1)),
                BatchNormState(1),
                training=True,
            )

    def test_gradient_vs_finite_differences(self):
        g = rng(7)
        x = g.normal(size=(2, 2, 4, 4)).astype(np.float32)
        gamma = g.uniform(0.5, 1.5, size=2).astype(np.float32)
        beta = g.normal(size=2).astype(np.float32)
        mix = rng(77).normal(size=(2, 2, 4, 4)).astype(np.float32)

        def loss(t):
            state = BatchNormState(2)  # fresh state per evaluation
            out = batchnorm2d(t["x"], t["gamma"], t["beta"], state, training=True)
            return (out * Tensor(mix)).sum()

        check_gradient(loss, {"x": x, "gamma": gamma, "beta": beta})


# -- pooling -------------------------------------------------------------------------


def reference_batchnorm2d(x, gamma, beta, g, training, running_mean, running_var,
                           momentum=0.1, eps=1e-5):
    """The earlier batchnorm kernel, kept as the oracle for the one-pass
    one: statistics over axes (0, 2, 3) and a stored normalized copy.
    Returns (out, d out/d x . g, d gamma, d beta, running mean, running var)."""
    b, c, h, w = x.shape
    n = b * h * w
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean = (1 - momentum) * running_mean + momentum * mean
        running_var = (1 - momentum) * running_var + momentum * var * (n / max(n - 1, 1))
    else:
        mean, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    scale = (gamma * inv_std)[None, :, None, None]
    if training:
        gm = g.mean(axis=(0, 2, 3), keepdims=True)
        gxm = (g * xhat).mean(axis=(0, 2, 3), keepdims=True)
        gx = scale * (g - gm - xhat * gxm)
    else:
        gx = scale * g
    return out, gx, (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3)), running_mean, running_var


class TestBatchNormReferenceOracle:
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(4, 3, 5, 7), (1, 2, 1, 9), (3, 5, 8, 2)])
    def test_matches_three_pass_kernel(self, shape, training, dtype, rtol):
        g = rng(sum(shape))
        c = shape[1]
        x = (g.normal(size=shape) * g.uniform(0.5, 3.0, size=(1, c, 1, 1))
             + g.normal(size=(1, c, 1, 1)) * 2).astype(dtype)
        gamma = g.uniform(0.5, 1.5, size=c).astype(dtype)
        beta = g.normal(size=c).astype(dtype)
        mix = g.normal(size=shape).astype(dtype)
        state = BatchNormState(c)
        state.running_mean[:] = g.normal(size=c)
        state.running_var[:] = g.uniform(0.5, 2.0, size=c)
        rm, rv = state.running_mean.copy(), state.running_var.copy()
        with precision(dtype):
            xt = Tensor(x, requires_grad=True)
            gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
            out = batchnorm2d(xt, gt, bt, state, training=training)
            (out * Tensor(mix)).sum().backward()
        ref = reference_batchnorm2d(x, gamma, beta, mix, training, rm, rv)
        assert out.data.dtype == xt.grad.dtype == dtype
        for got, want in zip((out.data, xt.grad, gt.grad, bt.grad), ref):
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())
        np.testing.assert_allclose(state.running_mean, ref[4].astype(np.float32), rtol=1e-6)
        np.testing.assert_allclose(state.running_var, ref[5].astype(np.float32), rtol=1e-6)


class TestPool2d:
    def test_avg_2x2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[None, None])
        assert pool2d(x, 2).data.item() == 2.5

    @pytest.mark.parametrize("window,stride", [(2, 2), (2, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_avg_matches_window_mean(self, window, stride, channels_last):
        x = rng(15).normal(size=(2, 7, 9, 3)).astype(np.float32)
        x = x.transpose(0, 3, 1, 2) if channels_last else np.ascontiguousarray(x.transpose(0, 3, 1, 2))
        ho, wo = (7 - window) // stride + 1, (9 - window) // stride + 1
        expected = np.stack([
            np.stack([x[:, :, i * stride : i * stride + window, j * stride : j * stride + window]
                      .mean(axis=(2, 3)) for j in range(wo)], axis=-1)
            for i in range(ho)
        ], axis=-2)
        out = pool2d(Tensor(x), window, stride=stride)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6, atol=1e-7)

    def test_window_larger_than_input_errors(self):
        with pytest.raises(ShapeError):
            pool2d(Tensor(np.zeros((1, 1, 2, 2))), 3)

    def test_gradient_vs_finite_differences(self):
        g = rng(11)
        x = g.permutation(64).reshape(1, 1, 8, 8).astype(np.float32) * 0.1
        mix = rng(12).normal(size=(1, 1, 4, 4)).astype(np.float32)

        def loss(t):
            return (pool2d(t["x"], 2) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})

    def test_overlapping_stride_avg_gradient(self):
        g = rng(13)
        x = g.normal(size=(1, 1, 5, 5)).astype(np.float32)
        mix = rng(14).normal(size=(1, 1, 4, 4)).astype(np.float32)

        def loss(t):
            return (pool2d(t["x"], 2, stride=1) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})


# -- matmul --------------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        a = rng(0).normal(size=(3, 3)).astype(np.float32)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_allclose(out.data, a, rtol=1e-6)

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.item() == 11.0

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="inner dims"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_gradient_vs_finite_differences(self):
        g = rng(21)
        a = g.normal(size=(4, 5)).astype(np.float32)
        b = g.normal(size=(5, 6)).astype(np.float32)
        mix = rng(22).normal(size=(4, 6)).astype(np.float32)

        def loss(t):
            return (matmul(t["a"], t["b"]) * Tensor(mix)).sum()

        check_gradient(loss, {"a": a, "b": b})

    def test_batched_gradient(self):
        g = rng(23)
        a = g.normal(size=(2, 3, 4)).astype(np.float32)
        b = g.normal(size=(4, 5)).astype(np.float32)
        mix = rng(24).normal(size=(2, 3, 5)).astype(np.float32)

        def loss(t):
            return (matmul(t["a"], t["b"]) * Tensor(mix)).sum()

        check_gradient(loss, {"a": a, "b": b})


# -- softmax -------------------------------------------------------------------------


class TestSoftmax:
    def test_uniform_on_zeros(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, 1 / 3, rtol=1e-6)

    def test_large_logits_stable(self):
        out = softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_rows_sum_to_one(self):
        x = rng(31).normal(size=(7, 9)).astype(np.float32) * 10
        out = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_jacobian_vs_finite_differences(self):
        x = rng(32).normal(size=(5,)).astype(np.float32)
        mix = rng(33).normal(size=(5,)).astype(np.float32)

        def loss(t):
            return (softmax(t["x"], axis=0) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})


# -- reductions ----------------------------------------------------------------------


class TestReduce:
    def test_mean(self):
        assert reduce(Tensor([2.0, 4.0, 6.0]), "mean", 0).data.item() == 4.0

    def test_max_of_negatives(self):
        assert reduce(Tensor([-1.0, -5.0]), "max", 0).data.item() == -1.0

    def test_sum_gradient_is_ones(self):
        x = Tensor(rng(41).normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4), np.float32))

    def test_mean_gradient_spreads(self):
        x = Tensor(np.zeros((4,)), requires_grad=True)
        x.mean(axis=0).backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_max_axis_gradient_first_occurrence(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 2.0]]), requires_grad=True)
        reduce(x, "max", axis=1).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 0], [1, 0, 0]])

    @pytest.mark.parametrize("kind,axis", [("mean", 1), ("sum", 0), ("max", 1)])
    def test_gradient_vs_finite_differences(self, kind, axis):
        g = rng(43)
        x = (g.permutation(24).reshape(4, 6) * 0.37).astype(np.float32)
        out_shape = (6,) if axis == 0 else (4,)
        mix = rng(44).normal(size=out_shape).astype(np.float32)

        def loss(t):
            return (reduce(t["x"], kind, axis) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})


# -- engine-wide properties ------------------------------------------------------------


class TestEngineProperties:
    def test_forward_determinism(self):
        def run():
            g = rng(99)
            x = Tensor(g.normal(size=(2, 3, 8, 8)).astype(np.float32))
            w = Tensor(g.normal(size=(4, 3, 3, 3)).astype(np.float32))
            out = conv2d(x, w, padding=1)
            out = pool2d(out, 2)
            return softmax(out.reshape(2, -1), axis=1).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_chained_backward_conv_bn_pool_matmul(self):
        g = rng(51)
        x = g.normal(size=(2, 1, 6, 6)).astype(np.float32)
        w = g.normal(size=(2, 1, 3, 3)).astype(np.float32) * 0.7
        gamma = np.ones(2, np.float32)
        beta = np.zeros(2, np.float32)
        proj = g.normal(size=(2 * 3 * 3, 3)).astype(np.float32) * 0.5
        mix = rng(52).normal(size=(2, 3)).astype(np.float32)

        def loss(t):
            state = BatchNormState(2)
            h = conv2d(t["x"], t["w"], padding=1)
            h = batchnorm2d(h, t["gamma"], t["beta"], state, training=True)
            h = pool2d(h, 2)
            h = h.reshape(2, -1)
            out = matmul(h, t["proj"])
            return (softmax(out, axis=1) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x, "w": w, "gamma": gamma, "beta": beta, "proj": proj})

    def test_no_general_broadcasting(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((4, 1))) + Tensor(np.zeros((1, 4)))

    @pytest.mark.parametrize("swap", [False, True])
    def test_leading_broadcast_symmetric(self, swap):
        a, b = Tensor(np.ones((7, 2)), requires_grad=True), Tensor(np.ones((1, 2)), requires_grad=True)
        out = (b * a) if swap else (a * b)
        assert out.shape == (7, 2)
        out.sum().backward()
        np.testing.assert_array_equal(b.grad, [[7.0, 7.0]])
        np.testing.assert_array_equal(a.grad, np.ones((7, 2)))

    def test_size1_leading_dims_of_either_operand(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((1, 1, 3)))
        assert (a + b).shape == (1, 2, 3) == (b + a).shape

    def test_non_leading_broadcast_refused_both_orders(self):
        a, b = Tensor(np.ones((5, 1, 3))), Tensor(np.ones((1, 4, 3)))
        with pytest.raises(ShapeError):
            a + b
        with pytest.raises(ShapeError):
            b + a

    def test_bias_style_leading_broadcast_allowed(self):
        out = Tensor(np.zeros((3, 4))) + Tensor(np.arange(4.0))
        np.testing.assert_array_equal(out.data[0], np.arange(4.0, dtype=np.float32))

    def test_relu_and_clamp_gradients(self):
        x = rng(61).normal(size=(10,)).astype(np.float32)
        x = x[np.abs(x) > 0.05]  # keep away from the kink
        mix = rng(62).normal(size=x.shape).astype(np.float32)

        def loss(t):
            return (t["x"].relu() * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})

    def test_log_gradient(self):
        x = rng(63).uniform(0.5, 2.0, size=(6,)).astype(np.float32)
        mix = rng(64).normal(size=(6,)).astype(np.float32)

        def loss(t):
            return (t["x"].log() * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})

    def test_relu_values(self):
        x = np.array([-2.0, -0.0, 0.0, 0.5, 3.0], np.float32)
        out = Tensor(x).relu().data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.5, 3.0])

    def test_first_gradient_is_a_copy(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        g = np.full((2, 3), 2.0, np.float32)
        x._accum(g)
        g[...] = 0.0  # the caller reuses its buffer
        np.testing.assert_array_equal(x.grad, 2.0)
        x._accum(np.ones((2, 3), np.float32))
        np.testing.assert_array_equal(x.grad, 3.0)
        np.testing.assert_array_equal(g, 0.0)


class TestGradientRelease:
    def _graph(self):
        """Every op of the classifier once, with their leaves."""
        g = rng(80)
        leaves = {
            "x": Tensor(g.normal(size=(2, 1, 6, 6)), requires_grad=True),
            "w": Tensor(g.normal(size=(3, 1, 3, 3)), requires_grad=True),
            "gamma": Tensor(np.ones(3), requires_grad=True),
            "beta": Tensor(np.zeros(3), requires_grad=True),
            "proj": Tensor(g.normal(size=(27, 2)), requires_grad=True),
        }
        h = conv2d(leaves["x"], leaves["w"], padding=1)
        h = batchnorm2d(h, leaves["gamma"], leaves["beta"], BatchNormState(3), training=True)
        h = pool2d(h.relu(), 2).reshape(2, -1)
        s = softmax(matmul(h, leaves["proj"]) * 2.0, axis=1)
        return leaves, (reduce(s, "max", axis=1) + s.log().sum(axis=1)).sum()

    @staticmethod
    def _nodes(root):
        seen, stack = {}, [root]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen[id(node)] = node
                stack.extend(node._parents)
        return list(seen.values())

    def test_only_leaves_keep_gradients(self):
        leaves, loss = self._graph()
        nodes = self._nodes(loss)
        inner = [n for n in nodes if n._backward is not None]
        assert len(inner) > 10
        loss.backward()
        assert all(n.grad is None for n in inner)
        assert {id(n) for n in nodes if n.grad is not None} == {id(t) for t in leaves.values()}

    def test_fan_out_gradient_summed_before_release(self):
        # y feeds two ops; its gradient must hold both contributions when
        # its closure runs: d/dx sum(y*y + y) = (2y + 1) * 2x
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        y = x * x
        (y * y + y).sum().backward()
        np.testing.assert_allclose(x.grad, (2 * x.data**2 + 1) * 2 * x.data, rtol=1e-6)
        assert y.grad is None


class TestNoGrad:
    def _ops(self):
        g = rng(70)
        x = Tensor(g.normal(size=(2, 1, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(g.normal(size=(3, 1, 3, 3)).astype(np.float32), requires_grad=True)
        gamma = Tensor(np.ones(3, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(3, np.float32), requires_grad=True)
        proj = Tensor(g.normal(size=(27, 2)).astype(np.float32), requires_grad=True)
        h = conv2d(x, w, padding=1)
        h2 = batchnorm2d(h, gamma, beta, BatchNormState(3), training=True)
        h3 = pool2d(h2.relu(), 2)
        h4 = matmul(h3.reshape(2, -1), proj)
        h5 = softmax(h4 * 2.0 + Tensor(np.ones(2)), axis=1)
        return [h, h2, h3, h4, h5, reduce(h5, "max", axis=1), h5.log().sum()]

    def test_ops_under_no_grad_are_leaves(self):
        with no_grad():
            outs = self._ops()
        for out in outs:
            assert out._parents == () and out._backward is None
            assert not out.requires_grad

    def test_same_values_and_graph_restored(self):
        with_graph = self._ops()
        with no_grad():
            without = self._ops()
        for a, b in zip(with_graph, without):
            np.testing.assert_array_equal(a.data, b.data)
        assert all(out._parents for out in self._ops())

    def test_flag_restored_after_error(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError
        assert self._ops()[-1].requires_grad

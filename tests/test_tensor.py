"""Tensor engine tests: exact op semantics plus finite-difference
gradient oracles (central differences, h=1e-3, rtol 1e-3, atol 1e-5)."""

import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lungsound.tensor as tensor_mod
from helpers import check_gradient, relu
from lungsound.errors import ShapeError
from lungsound.optim import AdamState, adam_step
from lungsound.tensor import (
    BatchNormState,
    Tensor,
    batchnorm2d,
    bn_relu_pool,
    conv2d,
    frozen,
    matmul,
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


class TestConv2dWinograd:
    """The Winograd F(4x4, 5x5) path of 5x5, stride-1, pad-2 convs against
    the im2col-era oracle. Its error is relative to the largest output
    value, not per element: the transforms mix values of both signs."""

    # (B, C, H, W), C_out: every H mod 4 and W mod 4 from 0 to 3
    SHAPES = [
        ((2, 8, 16, 17), 3),
        ((1, 9, 18, 19), 4),
        ((2, 8, 17, 20), 2),
        ((3, 12, 19, 18), 5),
    ]
    TOL = {np.float32: 5e-5, np.float64: 1e-12}

    @staticmethod
    def assert_close(actual, expected, tol):
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= tol * scale, (np.abs(actual - expected).max(), scale)

    def run(self, x, w, need_x=True, need_w=True):
        xt, wt = Tensor(x, requires_grad=need_x), Tensor(w, requires_grad=need_w)
        out = conv2d(xt, wt, padding=2)
        mix = rng(99).normal(size=out.shape).astype(x.dtype)
        (out * Tensor(mix)).sum().backward()
        return out, xt, wt, mix

    def spy(self, monkeypatch, name):
        calls = []
        real = getattr(tensor_mod, name)
        monkeypatch.setattr(tensor_mod, name, lambda a, *rest: calls.append(len(a)) or real(a, *rest))
        return calls

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,co", SHAPES)
    def test_matches_reference(self, shape, co, dtype, monkeypatch):
        g = rng(21)
        x = g.normal(size=shape).astype(dtype)
        w = g.normal(size=(co, shape[1], 5, 5)).astype(dtype)
        built = self.spy(monkeypatch, "_wino_input")
        with precision(dtype):
            out, xt, wt, mix = self.run(x, w)
        assert built, "the shape should take the Winograd path"
        ref_out, ref_gx, ref_gw = reference_conv2d(x, w, mix, 1, 2)
        assert out.data.dtype == xt.grad.dtype == wt.grad.dtype == dtype
        assert out.data.flags.c_contiguous and xt.grad.shape == x.shape
        for actual, expected in ((out.data, ref_out), (xt.grad, ref_gx), (wt.grad, ref_gw)):
            self.assert_close(actual, expected, self.TOL[dtype])

    def test_ragged_chunks(self, monkeypatch):
        # items of 16 tiles share chunks of as many as fit, the last one
        # ragged; items of 25 tiles, not a multiple of WINO_ALIGN, run alone
        b, c, co = 5, 8, 3
        built = self.spy(monkeypatch, "_wino_input")
        g = rng(22)
        for h, w, chunks in [(16, 16, [2, 2, 1]), (17, 18, [1, 1, 1, 1, 1])]:
            item = 64 * -(-h // 4) * -(-w // 4) * (co + 2 * c) * 4
            monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", 2 * item + item // 2)
            x = g.normal(size=(b, c, h, w)).astype(np.float32)
            wk = g.normal(size=(co, c, 5, 5)).astype(np.float32)
            built.clear()
            out, xt, wt, mix = self.run(x, wk)
            # forward builds V per chunk, the weight gradient rebuilds it once
            assert built == chunks + chunks, (h, w)
            ref_out, ref_gx, ref_gw = reference_conv2d(x, wk, mix, 1, 2)
            for actual, expected in ((out.data, ref_out), (xt.grad, ref_gx), (wt.grad, ref_gw)):
                self.assert_close(actual, expected, self.TOL[np.float32])

    def test_frozen_weight_rebuilds_no_tiles(self, monkeypatch):
        g = rng(23)
        x = g.normal(size=(2, 8, 16, 16)).astype(np.float32)
        w = g.normal(size=(4, 8, 5, 5)).astype(np.float32)
        built = self.spy(monkeypatch, "_wino_input")
        kernels = self.spy(monkeypatch, "_wino_kernel")
        out, xt, wt, mix = self.run(x, w, need_w=False)
        assert built == [2] and wt.grad is None
        assert kernels == [4, 4]  # the graph keeps no U: dV builds its own
        self.assert_close(xt.grad, reference_conv2d(x, w, mix, 1, 2)[1], self.TOL[np.float32])
        held = Tensor(w)
        for block, counts in (([held], [4]), ([], [4, 4])):
            # a weight the block holds keeps its U for dV; one it does not
            # hold keeps none, although it needs no gradient either
            built.clear(), kernels.clear()
            xs = Tensor(x, requires_grad=True)
            with frozen(block):
                (conv2d(xs, held, padding=2) * Tensor(mix)).sum().backward()
            assert built == [2] and kernels == counts, block
            assert xs.grad.tobytes() == xt.grad.tobytes() and held.grad is None

    def test_input_without_grad_gets_none(self, monkeypatch):
        g = rng(24)
        x = g.normal(size=(2, 8, 16, 16)).astype(np.float32)
        w = g.normal(size=(4, 8, 5, 5)).astype(np.float32)
        kernels = self.spy(monkeypatch, "_wino_kernel")
        out, xt, wt, mix = self.run(x, w, need_x=False)
        assert xt.grad is None and len(kernels) == 1  # U for the forward only
        self.assert_close(wt.grad, reference_conv2d(x, w, mix, 1, 2)[2], self.TOL[np.float32])

    def test_shared_kernels_build_u_once(self, monkeypatch):
        g = rng(27)
        x = g.normal(size=(3, 8, 16, 16)).astype(np.float32)
        w = Tensor(g.normal(size=(4, 8, 5, 5)).astype(np.float32))
        kernels = self.spy(monkeypatch, "_wino_kernel")
        whole = conv2d(Tensor(x), w, padding=2).data
        with frozen([w]):
            parts = [conv2d(Tensor(x[i : i + 1]), w, padding=2).data for i in range(3)]
        assert kernels == [4, 4]  # the whole batch's, then one for the three calls
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        w.data += 1  # the block has ended: a later call transforms the new weights
        conv2d(Tensor(x[:1]), w, padding=2)
        assert kernels == [4, 4, 4]

    @pytest.mark.parametrize("shape,co", [*SHAPES, ((1, 64, 16, 16), 16)])
    def test_batch_rows_match_single_items(self, shape, co):
        # a clip's output is the bytes it gets alone: items of 16 tiles
        # share one GEMM, every other shape here runs one item at a time
        g = rng(25)
        x = g.normal(size=(16, *shape[1:])).astype(np.float32)
        w = g.normal(size=(co, shape[1], 5, 5)).astype(np.float32)
        batched = conv2d(Tensor(x), Tensor(w), padding=2).data
        single = np.concatenate([conv2d(Tensor(x[i : i + 1]), Tensor(w), padding=2).data for i in range(16)])
        assert batched.tobytes() == single.tobytes()

    def test_selection_rule_boundaries(self, monkeypatch):
        applies = tensor_mod._winograd_applies
        assert applies(8, 16, 16, 5, 5, 1, 2) and not applies(7, 16, 16, 5, 5, 1, 2)
        # 16 tiles of 4x4 outputs against 15
        assert applies(8, 13, 16, 5, 5, 1, 2) and not applies(8, 12, 20, 5, 5, 1, 2)
        assert not applies(8, 16, 16, 3, 3, 1, 2)
        assert not applies(8, 16, 16, 5, 3, 1, 2)
        assert not applies(8, 16, 16, 5, 5, 2, 2)
        assert not applies(8, 16, 16, 5, 5, 1, 1)
        # the rule decides the kernel that conv2d runs
        cols = self.spy(monkeypatch, "_im2col")
        tiles = self.spy(monkeypatch, "_wino_input")
        for c, h, w, k, stride, pad, winograd in [
            (8, 16, 16, 5, 1, 2, True), (7, 16, 16, 5, 1, 2, False),
            (8, 12, 20, 5, 1, 2, False), (8, 16, 16, 3, 1, 2, False),
            (8, 16, 16, 5, 2, 2, False), (8, 16, 16, 5, 1, 1, False),
        ]:
            cols.clear(), tiles.clear()
            conv2d(Tensor(np.ones((1, c, h, w))), Tensor(np.ones((2, c, k, k))), stride=stride, padding=pad)
            assert (bool(tiles), bool(cols)) == (winograd, not winograd), (c, h, w, k, stride, pad)


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

    def test_input_gradient_above_mmap_ceiling_trims_heap_first(self, monkeypatch):
        """Only an input gradient glibc must serve from mmap (above 32 MiB)
        trims the heap first, once."""
        calls = []
        monkeypatch.setattr(tensor_mod, "_malloc_trim", lambda: calls.append)
        tensor_mod._trim_heap_before(32 << 20)
        assert calls == []
        g = rng(8)
        for shape, trims in (((2, 2, 4, 4), 0), ((1, 2, 2048, 2049), 1)):  # 33,570,816 bytes
            calls.clear()
            x = Tensor(g.normal(size=shape).astype(np.float32), requires_grad=True)
            gamma = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
            out = batchnorm2d(x, gamma, Tensor(np.zeros(2, dtype=np.float32)), BatchNormState(2), True)
            out.backward(np.ones_like(out.data))
            assert calls == [0] * trims
            assert np.abs(x.grad).max() < 1e-3  # d sum(xhat) / dx = 0


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


class TestBnReluPool:
    """The fused epilogue against batchnorm2d -> relu -> pool2d (or, without
    the pool, batchnorm2d -> relu), bit for bit."""

    @staticmethod
    def run(fused, x, gamma, beta, state, training, need, pool):
        xt = Tensor(x, requires_grad=need[0])
        gt, bt = Tensor(gamma, requires_grad=need[1]), Tensor(beta, requires_grad=need[2])
        if fused:
            out = bn_relu_pool(xt, gt, bt, state, training=training, pool=pool)
        else:
            out = relu(batchnorm2d(xt, gt, bt, state, training=training))
            out = pool2d(out) if pool else out
        mix = rng(5).normal(size=out.shape).astype(x.dtype)
        mix[..., ::3] = -0.0  # pool2d's adjoint hands these on as +0.0
        (out * Tensor(mix)).sum().backward()
        return out.data, xt.grad, gt.grad, bt.grad, state.running_mean, state.running_var

    def compare(self, shape, training, need=(True, True, True), dtype=np.float32, pool=True):
        g = rng(sum(shape))
        c = shape[1]
        x = (g.normal(size=shape) * g.uniform(0.5, 3.0, size=(1, c, 1, 1))
             + g.normal(size=(1, c, 1, 1))).astype(dtype)
        gamma = g.uniform(0.5, 1.5, size=c).astype(dtype)
        beta = g.normal(size=c).astype(dtype)
        rm = g.normal(size=c).astype(np.float32)
        rv = g.uniform(0.5, 2.0, size=c).astype(np.float32)
        results = []
        for fused in (False, True):
            state = BatchNormState(c)
            state.running_mean[:], state.running_var[:] = rm, rv
            with precision(dtype):
                results.append(self.run(fused, x, gamma, beta, state, training, need, pool))
        for name, want, got in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), *results):
            assert (want is None) == (got is None), name
            if want is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    # odd H or W, where the pool drops the last row or column; B=1
    SHAPES = [(4, 3, 8, 6), (2, 5, 9, 7), (1, 2, 6, 11), (3, 4, 2, 3)]

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_equal_to_separate_ops(self, shape, training):
        self.compare(shape, training)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("need", [(True, False, False), (False, True, True), (False, True, False), (True, False, True)])
    def test_frozen_parameters(self, need, training):
        self.compare((3, 4, 7, 8), training, need)

    # the last block's form, on batches larger than EPILOGUE_BYTES, so that
    # several blocks run: two whole items each (5 x 8 x 91 x 93), or half
    # of one item's channels (2 x 12 x 181 x 131); odd H and W
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", [(5, 8, 91, 93), (2, 12, 181, 131)])
    def test_no_pool_bitwise_equal_to_separate_ops(self, shape, training):
        assert len(tensor_mod._bn_blocks(np.empty(shape, np.float32))[0]) > 1
        self.compare(shape, training, pool=False)

    @pytest.mark.parametrize("training", [True, False])
    def test_no_pool_frozen_parameters_and_small_maps(self, training):
        self.compare((3, 4, 7, 8), training, (True, False, False), pool=False)
        self.compare((3, 4, 7, 8), training, (False, True, True), pool=False)
        self.compare((3, 4, 1, 1), training, pool=False)  # no pool, so no least size

    @pytest.mark.parametrize("pool", [True, False])
    def test_input_gradient_alone_in_eval_mode(self, pool, monkeypatch):
        # IG's path: frozen gamma and beta and the running statistics, so
        # the adjoint's first pass has nothing to sum; several blocks
        shape = (5, 3, 9, 8)
        monkeypatch.setattr(tensor_mod, "EPILOGUE_BYTES", 2 * 3 * 9 * 8 * 4)
        assert len(tensor_mod._bn_blocks(np.empty(shape, np.float32))[0]) > 1
        self.compare(shape, False, (True, False, False), pool=pool)
        g = rng(6)
        x = g.normal(size=shape).astype(np.float32)
        gamma, beta = g.uniform(0.5, 1.5, size=3).astype(np.float32), g.normal(size=3).astype(np.float32)
        state = BatchNormState(3)
        state.running_mean[:], state.running_var[:] = g.normal(size=3), g.uniform(0.5, 2.0, size=3)
        xt = Tensor(x, requires_grad=True)
        out = bn_relu_pool(xt, Tensor(gamma), Tensor(beta), state, training=False, pool=pool)
        mix = g.normal(size=out.shape).astype(np.float32)
        (out * Tensor(mix)).sum().backward()
        # dx = scale * [x*scale + shift > 0] * (the pool adjoint of) mix
        scale = gamma / np.sqrt(state.running_var + np.float32(1e-5))
        shift = beta - state.running_mean * scale
        y = x * scale[:, None, None] + shift[:, None, None]
        gy = np.zeros(shape, np.float32)
        if pool:  # g/4 in each 2x2 window; the odd last row stays zero
            gy[:, :, :8, :8] = np.repeat(np.repeat(mix, 2, axis=2), 2, axis=3) / 4
        else:
            gy = mix
        np.testing.assert_allclose(xt.grad, gy * (y > 0) * scale[:, None, None], rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("per_chunk", [1, 2])
    def test_batch_spanning_several_chunks(self, per_chunk, monkeypatch):
        # blocks of one and of two whole items
        shape = (5, 3, 9, 8)
        item = np.prod(shape[1:]) * 4
        monkeypatch.setattr(tensor_mod, "EPILOGUE_BYTES", per_chunk * item + item // 2)
        for training in (True, False):
            self.compare(shape, training)

    # 7 channels of 91 x 93 (odd H and W; rows of more than 8192 values,
    # which numpy sums in another order when a block holds only one):
    # 1, 2 and 3 rows per block split each item's channels into 3 ranges
    # (at least 2 rows each), 5 into 2; 7 and 14 rows hold one and two items
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 7, 14])
    def test_blocks_bitwise_equal_to_one_block(self, rows, monkeypatch):
        shape = (3, 7, 91, 93)
        g = rng(40)
        x = (g.normal(size=shape) * g.uniform(0.5, 3.0, size=(1, 7, 1, 1))).astype(np.float32)
        gamma, beta = g.uniform(0.5, 1.5, size=7).astype(np.float32), g.normal(size=7).astype(np.float32)

        def outputs(block_bytes):
            monkeypatch.setattr(tensor_mod, "EPILOGUE_BYTES", block_bytes)
            arrays = []
            for fused in (True, False):
                for training in (True, False):
                    xt = Tensor(x, requires_grad=True)
                    gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
                    state = BatchNormState(7)
                    op = bn_relu_pool if fused else batchnorm2d
                    out = op(xt, gt, bt, state, training=training)
                    mix = rng(41).normal(size=out.shape).astype(np.float32)
                    mix[..., ::5] = -0.0  # a -0.0 gradient must come out as the whole-batch op gives it
                    (out * Tensor(mix)).sum().backward()
                    arrays += [out.data, xt.grad, gt.grad, bt.grad, state.running_mean, state.running_var]
            return arrays

        blocked = outputs(rows * 91 * 93 * 4)
        whole = outputs(1 << 40)
        for got, want in zip(blocked, whole):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_forward_holds_one_chunk(self, monkeypatch):
        # eval forward: the pooled output (a quarter of x) plus one item's
        # block of the affine map, never a map of the whole batch
        x = Tensor(rng(3).normal(size=(8, 4, 64, 64)).astype(np.float32))
        monkeypatch.setattr(tensor_mod, "EPILOGUE_BYTES", x.data[0].nbytes)
        one, zero = Tensor(np.ones(4, np.float32)), Tensor(np.zeros(4, np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = bn_relu_pool(x, one, zero, BatchNormState(4), training=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == x.data.nbytes // 4
        assert peak < x.data.nbytes // 2, peak

    def test_backward_holds_gradient_plus_blocks(self, monkeypatch):
        # training backward: x's gradient, which x adopts without a copy,
        # plus a few one-item blocks (numpy's ufunc buffers, 8192 values,
        # are smaller); a whole-batch temporary (even the quarter-size
        # g/4) or a copy of the gradient breaks the bound
        x = Tensor(rng(4).normal(size=(16, 8, 64, 64)).astype(np.float32), requires_grad=True)
        block = x.data[0].nbytes
        monkeypatch.setattr(tensor_mod, "EPILOGUE_BYTES", block)
        gamma = Tensor(np.ones(8, np.float32), requires_grad=True)
        beta = Tensor(np.zeros(8, np.float32), requires_grad=True)
        out = bn_relu_pool(x, gamma, beta, BatchNormState(8), training=True)
        g = rng(5).normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape and gamma.grad is not None and beta.grad is not None
        assert peak < x.data.nbytes + 4 * block, peak

    def test_float64(self):
        self.compare((2, 3, 7, 9), True, dtype=np.float64)

    def test_no_grad_and_errors(self):
        x, one, zero = Tensor(np.ones((2, 2, 4, 4))), Tensor(np.ones(2)), Tensor(np.zeros(2))
        xt = Tensor(x.data, requires_grad=True)
        with frozen([xt]):
            out = bn_relu_pool(xt, one, zero, BatchNormState(2), True)
        assert out._parents == () and out.shape == (2, 2, 2, 2)
        state = BatchNormState(2)
        with pytest.raises(ShapeError):
            bn_relu_pool(Tensor(np.ones((2, 2, 1, 4))), one, zero, state, training=True)
        assert state.n_batches == 0  # checked before the statistics
        with pytest.raises(ShapeError):
            bn_relu_pool(Tensor(np.ones((0, 2, 4, 4))), one, zero, state, training=True)
        # without the pool, any spatial size
        out = bn_relu_pool(Tensor(np.ones((2, 2, 1, 1))), one, zero, state, training=False, pool=False)
        assert out.shape == (2, 2, 1, 1)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("need", [(True, True, True), (True, False, False), (False, True, True)])
    def test_gradient_vs_finite_differences(self, training, need):
        g = rng(31)
        x = g.normal(size=(2, 3, 5, 6))
        gamma = g.uniform(0.5, 1.5, size=3)
        beta = g.normal(size=3) * 0.3
        mix = rng(32).normal(size=(2, 3, 2, 3))
        named = {"x": x, "gamma": gamma, "beta": beta}
        arrays = {k: v for (k, v), n in zip(named.items(), need) if n}

        def loss(t):
            t = {k: t[k] if k in t else Tensor(v) for k, v in named.items()}  # the rest frozen
            state = BatchNormState(3)  # fresh state per evaluation
            state.running_mean[:] = [0.2, -0.1, 0.0]
            state.running_var[:] = [1.5, 0.7, 1.0]
            out = bn_relu_pool(t["x"], t["gamma"], t["beta"], state, training=training)
            return (out * Tensor(mix)).sum()

        # h=1e-5: ReLU's kink sits inside a 1e-3 secant for some entries
        check_gradient(loss, arrays, h=1e-5)


class TestPool2d:
    def test_avg_2x2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[None, None])
        assert pool2d(x).data.item() == 2.5

    # H x W: one window, then odd sizes whose last row or column is dropped
    @pytest.mark.parametrize("h,w", [(2, 2), (7, 9), (8, 5)])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_avg_matches_window_mean(self, h, w, channels_last):
        x = rng(15).normal(size=(2, h, w, 3)).astype(np.float32)
        x = x.transpose(0, 3, 1, 2) if channels_last else np.ascontiguousarray(x.transpose(0, 3, 1, 2))
        expected = np.stack([
            np.stack([x[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean(axis=(2, 3)) for j in range(w // 2)], axis=-1)
            for i in range(h // 2)
        ], axis=-2)
        out = pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, expected, rtol=1e-6, atol=1e-7)

    def test_window_larger_than_input_errors(self):
        with pytest.raises(ShapeError):
            pool2d(Tensor(np.zeros((1, 1, 1, 2))))

    def test_gradient_vs_finite_differences(self):
        g = rng(11)
        x = g.permutation(64).reshape(1, 1, 8, 8).astype(np.float32) * 0.1
        mix = rng(12).normal(size=(1, 1, 4, 4)).astype(np.float32)

        def loss(t):
            return (pool2d(t["x"]) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})

    def test_odd_shape_gradient(self):
        # the dropped last row and column get a zero gradient
        g = rng(13)
        x = g.normal(size=(1, 2, 5, 7)).astype(np.float32)
        mix = rng(14).normal(size=(1, 2, 2, 3)).astype(np.float32)

        def loss(t):
            return (pool2d(t["x"]) * Tensor(mix)).sum()

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

    @pytest.mark.parametrize("shared", ["a", "b"])
    def test_shared_weight_gradient_item_by_item(self, monkeypatch, shared):
        # a 2-D operand the batch shares: above IM2COL_BYTES its per-item
        # products are added one at a time, the bytes of the batched sum,
        # and no (B, d, d) product is ever built
        g = rng(25)
        batch = g.normal(size=(64, 2, 64)).astype(np.float32)
        weight = g.normal(size=(64, 64)).astype(np.float32)
        mix = g.normal(size=(64, 2, 64)).astype(np.float32)
        weight_t = weight if shared == "b" else weight.T.copy()

        def grads():
            w = Tensor(weight_t, requires_grad=True)
            x = Tensor(batch if shared == "b" else batch.transpose(0, 2, 1).copy(), requires_grad=True)
            m = mix if shared == "b" else mix.transpose(0, 2, 1).copy()
            out = matmul(x, w) if shared == "b" else matmul(w, x)
            (out * Tensor(m)).sum().backward()
            return w.grad, x.grad

        whole = grads()
        product = 64 * 64 * 64 * 4  # 1 MiB; the batch is 32 KiB
        monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", product // 4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            items = grads()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [t.tobytes() for t in items] == [t.tobytes() for t in whole]
        assert peak < product // 4, peak


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
        reduce(x, "mean", 0).backward()
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
            out = pool2d(out)
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
            h = pool2d(h)
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
        # the tests' ReLU reference, and clamp_min
        x = rng(61).normal(size=(10,)).astype(np.float32)
        x = x[np.abs(x) > 0.05]  # keep away from the kink
        mix = rng(62).normal(size=x.shape).astype(np.float32)

        def loss(t):
            return ((relu(t["x"]) + t["x"].clamp_min(0.1)) * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})

    def test_log_gradient(self):
        x = rng(63).uniform(0.5, 2.0, size=(6,)).astype(np.float32)
        mix = rng(64).normal(size=(6,)).astype(np.float32)

        def loss(t):
            return (t["x"].log() * Tensor(mix)).sum()

        check_gradient(loss, {"x": x})

    def test_relu_values(self):
        x = np.array([-2.0, -0.0, 0.0, 0.5, 3.0], np.float32)
        out = relu(Tensor(x)).data
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

    def test_fresh_first_gradient_is_adopted(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        g = np.full((2, 3), 2.0, np.float32)
        x._adopt(g)
        assert x.grad is g  # no copy
        x._adopt(np.ones((2, 3), np.float32))
        np.testing.assert_array_equal(g, 3.0)  # later gradients add into it
        y = Tensor(np.ones(3), requires_grad=True)
        g64 = np.ones(3)
        y._adopt(g64)  # another dtype is cast, so copied
        assert y.grad.dtype == np.float32 and not np.shares_memory(y.grad, g64)
        w = Tensor(np.ones(3), requires_grad=True)
        h = np.ones(3, np.float32)
        w._accum(h)  # only _adopt hands a buffer over
        assert not np.shares_memory(w.grad, h)


def _assert_no_shared_gradients(tensors):
    grads = [t.grad for t in tensors if t.grad is not None]
    for i, a in enumerate(grads):
        for b in grads[i + 1 :]:
            assert not np.shares_memory(a, b)


class TestGradientRelease:
    def _graph(self):
        """Every op of the classifier once, with their leaves."""
        g = rng(80)
        leaves = {
            "x": Tensor(g.normal(size=(2, 1, 8, 8)), requires_grad=True),
            "w": Tensor(g.normal(size=(3, 1, 3, 3)), requires_grad=True),
            "gamma1": Tensor(np.ones(3), requires_grad=True),
            "beta1": Tensor(np.zeros(3), requires_grad=True),
            "w2": Tensor(g.normal(size=(3, 3, 3, 3)), requires_grad=True),
            "gamma": Tensor(np.ones(3), requires_grad=True),
            "beta": Tensor(np.zeros(3), requires_grad=True),
            "proj": Tensor(g.normal(size=(12, 2)), requires_grad=True),
        }
        h = conv2d(leaves["x"], leaves["w"], padding=1)
        h = bn_relu_pool(h, leaves["gamma1"], leaves["beta1"], BatchNormState(3), training=True)
        h = conv2d(h, leaves["w2"], padding=1)
        h = bn_relu_pool(h, leaves["gamma"], leaves["beta"], BatchNormState(3), training=True, pool=False)
        h = pool2d(h).reshape(2, -1)
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
        _assert_no_shared_gradients(leaves.values())

    @pytest.mark.parametrize("fused_first", [True, False])
    def test_adopted_gradient_takes_fan_out(self, fused_first):
        # the fused op's input also feeds a product; whichever closure
        # runs first hands x a buffer it adopts, and the other adds into it
        g = rng(81)
        x = Tensor(g.normal(size=(2, 3, 6, 6)), requires_grad=True)
        gamma = Tensor(g.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(g.normal(size=3), requires_grad=True)
        mix, other = Tensor(g.normal(size=(2, 3, 3, 3))), Tensor(g.normal(size=(2, 3, 6, 6)))

        def fused():
            return (bn_relu_pool(x, gamma, beta, BatchNormState(3), training=True) * mix).sum()

        def product():
            return (x * other).sum()

        fused().backward()
        want = [x.grad, gamma.grad, beta.grad]
        x.zero_grad(), gamma.zero_grad(), beta.zero_grad()
        product().backward()
        want[0] = want[0] + x.grad
        x.zero_grad()
        (fused() + product() if fused_first else product() + fused()).backward()
        for got, expected in zip((x.grad, gamma.grad, beta.grad), want):
            np.testing.assert_array_equal(got, expected)
        _assert_no_shared_gradients([x, gamma, beta, mix, other])

    def test_backward_frees_the_graph(self):
        # with the loss still held, the live heap holds the leaves'
        # gradients and no activation: each one dies as soon as the last
        # closure that reads it has run
        g = rng(82)
        x = Tensor(g.normal(size=(4, 1, 64, 64)), requires_grad=True)
        w1 = Tensor(g.normal(size=(8, 1, 3, 3)), requires_grad=True)
        w2 = Tensor(g.normal(size=(8, 8, 5, 5)) * 0.1, requires_grad=True)  # a Winograd conv
        gammas = [Tensor(np.ones(8), requires_grad=True) for _ in range(2)]
        betas = [Tensor(np.zeros(8), requires_grad=True) for _ in range(2)]
        proj = Tensor(g.normal(size=(8, 3)), requires_grad=True)
        leaves = [x, w1, w2, *gammas, *betas, proj]
        states = [BatchNormState(8), BatchNormState(8)]
        smallest = 4 * 8 * 32 * 32 * 4  # the second block's activations, in bytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = conv2d(x, w1, padding=1)
            h = bn_relu_pool(h, gammas[0], betas[0], states[0], training=True)
            h = conv2d(h, w2, padding=2)
            h = bn_relu_pool(h, gammas[1], betas[1], states[1], training=True, pool=False)
            h = reduce(h.reshape(4, 8, 32 * 32), "mean", axis=2)
            loss = softmax(matmul(h, proj), axis=1).log().sum()
            del h
            loss.backward()
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        grads = sum(t.grad.nbytes for t in leaves)
        assert grads <= live < grads + smallest // 4, (live, grads)
        assert loss._parents == ()

    def test_second_backward_through_a_freed_graph_raises(self):
        leaves, loss = self._graph()
        loss.backward()
        assert self._nodes(loss) == [loss]
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()
        # a graph that reaches a node an earlier backward() consumed
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        y = x * x
        first, second = y.sum(), (y * 2.0).sum()
        first.backward()
        with pytest.raises(RuntimeError, match="freed"):
            second.backward()

    def test_fan_out_gradient_summed_before_release(self):
        # y feeds two ops; its gradient must hold both contributions when
        # its closure runs: d/dx sum(y*y + y) = (2y + 1) * 2x
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        y = x * x
        (y * y + y).sum().backward()
        np.testing.assert_allclose(x.grad, (2 * x.data**2 + 1) * 2 * x.data, rtol=1e-6)
        assert y.grad is None


class TestNoGrad:
    """``frozen(tensors)``, the engine's no-grad mode: the one way to run a
    model without training it."""

    @staticmethod
    def _leaves():
        g = rng(70)
        return {
            "x": Tensor(g.normal(size=(2, 1, 6, 6)).astype(np.float32), requires_grad=True),
            "w": Tensor(g.normal(size=(3, 1, 3, 3)).astype(np.float32), requires_grad=True),
            "gamma": Tensor(np.ones(3, np.float32), requires_grad=True),
            "beta": Tensor(np.zeros(3, np.float32), requires_grad=True),
            "proj": Tensor(g.normal(size=(27, 2)).astype(np.float32), requires_grad=True),
        }

    @staticmethod
    def _ops(t):
        h = conv2d(t["x"], t["w"], padding=1)
        h2 = bn_relu_pool(h, t["gamma"], t["beta"], BatchNormState(3), training=True, pool=False)
        h3 = pool2d(h2)
        h4 = matmul(h3.reshape(2, -1), t["proj"])
        h5 = softmax(h4 * 2.0 + Tensor(np.ones(2)), axis=1)
        return [h, h2, h3, h4, h5, reduce(h5, "max", axis=1), h5.log().sum()]

    def test_ops_under_no_grad_are_leaves(self):
        leaves = self._leaves()
        with frozen(leaves.values()):
            outs = self._ops(leaves)
        for out in outs:
            assert out._parents == () and out._backward is None
            assert not out.requires_grad

    def test_same_values_and_graph_restored(self):
        with_graph = self._ops(self._leaves())
        assert all(out._parents and out.requires_grad for out in with_graph)
        leaves = self._leaves()
        leaves["beta"].requires_grad = False
        flags = {k: t.requires_grad for k, t in leaves.items()}
        with frozen(leaves.values()):
            assert not any(t.requires_grad for t in leaves.values())
            without = self._ops(leaves)
        for a, b in zip(with_graph, without):
            assert a.data.tobytes() == b.data.tobytes()
        assert {k: t.requires_grad for k, t in leaves.items()} == flags
        assert all(out._parents for out in self._ops(leaves))

    def test_flag_restored_after_error(self):
        leaves = self._leaves()
        leaves["beta"].requires_grad = False
        flags = {k: t.requires_grad for k, t in leaves.items()}
        with pytest.raises(RuntimeError):
            with frozen(leaves.values()):
                raise RuntimeError
        assert {k: t.requires_grad for k, t in leaves.items()} == flags
        assert all(t._kernels is None for t in leaves.values())
        assert self._ops(leaves)[-1].requires_grad

    def test_nested_blocks_build_u_once(self, monkeypatch):
        g = rng(71)
        x = Tensor(g.normal(size=(2, 8, 16, 16)).astype(np.float32))
        w = Tensor(g.normal(size=(4, 8, 5, 5)).astype(np.float32), requires_grad=True)
        kernels, real = [], tensor_mod._wino_kernel
        monkeypatch.setattr(tensor_mod, "_wino_kernel", lambda k, *rest: kernels.append(len(k)) or real(k, *rest))
        with frozen([w]):
            outs = [conv2d(x, w, padding=2)]
            with frozen([w]):
                outs.append(conv2d(x, w, padding=2))
            assert not w.requires_grad  # the inner exit restores the outer block's flag
            outs.append(conv2d(x, w, padding=2))  # the inner exit dropped no U
            assert kernels == [4]
        assert w.requires_grad and w._kernels is None
        outs.append(conv2d(x, w, padding=2))  # the outer exit dropped it
        assert kernels == [4, 4]
        assert all(out.data.tobytes() == outs[-1].data.tobytes() for out in outs)

    def test_training_inside_an_unrelated_block_reuses_no_u(self):
        # a Winograd conv trained inside a block that holds another tensor:
        # each step transforms the weights it has then, as outside any block
        g = rng(72)
        x = Tensor(g.normal(size=(2, 8, 16, 16)).astype(np.float32))
        w0 = g.normal(size=(8, 8, 5, 5)).astype(np.float32)

        def fit():
            w, state, losses = Tensor(w0.copy(), requires_grad=True), AdamState(), []
            for _ in range(3):
                out = conv2d(x, w, padding=2)
                loss = (out * out).sum()
                loss.backward()
                losses.append(loss.item())
                adam_step({"w": w}, {"w": w.grad}, state, lr=0.1)
                w.grad = None
            return losses, w.data.tobytes()

        outside = fit()
        unrelated = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with frozen([unrelated]):
            inside = fit()
        assert len(set(outside[0])) == 3  # every step changed the loss
        assert inside == outside

    def test_frozen_weights_keep_the_input_graph(self):
        # as Integrated Gradients runs: a gradient to the input, none to the weights
        def run(freeze):
            t = self._leaves()
            with frozen([t[k] for k in freeze]):
                out = self._ops(t)[-1]
                assert out._parents
                out.backward()
            return t

        ref = run(())
        got = run(("w", "gamma", "beta", "proj"))
        assert got["x"].grad.tobytes() == ref["x"].grad.tobytes()
        assert all(got[k].grad is None and got[k].requires_grad for k in ("w", "gamma", "beta", "proj"))


def _freezes(source: str) -> list[int]:
    """Line numbers of the nodes in ``source`` that set ``requires_grad`` on
    a tensor (an assignment to the attribute, or ``setattr``) or touch the
    transformed kernels a frozen tensor keeps (its ``_kernels``, as an
    attribute or by name)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For)):
            targets = [node.target]
        else:
            targets = []
        if (
            any(getattr(n, "attr", None) == "requires_grad" for t in targets for n in ast.walk(t))
            or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr"
            and any(isinstance(a, ast.Constant) and a.value == "requires_grad" for a in node.args)
            or getattr(node, "attr", None) == "_kernels"
            or isinstance(node, ast.Constant) and node.value == "_kernels"
        ):
            lines.append(node.lineno)
    return lines


class TestOneFreezer:
    """Only ``tensor.frozen`` freezes parameters and holds transformed
    kernels: no other module sets ``requires_grad`` or touches a tensor's
    ``_kernels``."""

    def test_only_tensor_freezes(self):
        package = Path(__file__).resolve().parents[1] / "src" / "lungsound"
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 10
        found = {m.name: _freezes(m.read_text()) for m in modules if m.name != "tensor.py"}
        assert {name: lines for name, lines in found.items() if lines} == {}
        assert _freezes((package / "tensor.py").read_text())  # the check sees frozen itself

    @pytest.mark.parametrize("code, freezes", [
        ("p.requires_grad = False", True),
        ("a.requires_grad, b = False, 1", True),
        ("m.params['w'].requires_grad &= False", True),
        ("t.requires_grad: bool = False", True),
        ("for p.requires_grad in flags: pass", True),
        ("setattr(p, 'requires_grad', False)", True),
        ("w._kernels = {}", True),
        ("u = w._kernels[dt, big]", True),
        ("if p._kernels is None: pass", True),
        ("setattr(w, '_kernels', None)", True),
        ("getattr(w, '_kernels')", True),
        ("kernels = {}", False),
        ("Tensor(x, requires_grad=True)", False),
        ("if p.requires_grad: pass", False),
        ("flags = [p.requires_grad for p in params]", False),
        ("with frozen(model.params.values()): pass", False),
    ])
    def test_the_check_sees_each_way_to_freeze(self, code, freezes):
        assert bool(_freezes(code)) == freezes


# -- engine threads ------------------------------------------------------------------


class TestEngineThreads:
    """Every op that splits its work gives the bytes of the serial engine,
    where no op splits, at the default budget and at 1 and 2 engine
    threads: the split reads shapes only, and no unit adds into another's
    output. A budget above ``UNITS`` runs no pool (see
    ``test_budget_restores_pool_and_blas``): it would only test OpenBLAS
    at more threads than a 2-CPU host has, where one block-2 conv took
    40 s instead of 0.6 s."""

    THREADS = (1, 2)

    @staticmethod
    def same_bytes(runs):
        first, *rest = runs
        for other in rest:
            assert len(other) == len(first)
            for a, b in zip(first, other):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def at_each_budget(self, run):
        import sys

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_mod, "THREAD_BYTES", 1 << 62)  # one unit per op
            runs = [run()]
        runs.append(run())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads take turns far more often
        try:
            for n in self.THREADS:
                with tensor_mod.thread_budget(n):
                    runs.append(run())
        finally:
            sys.setswitchinterval(interval)
        self.same_bytes(runs)

    # ICBHI blocks 2-4: (C, C', H, W), each above THREAD_BYTES at B=1
    BLOCKS = [(64, 128, 124, 32), (128, 256, 62, 16), (256, 512, 31, 8)]

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("block", BLOCKS, ids=lambda s: f"{s[2]}x{s[3]}")
    def test_conv2d(self, block, batch):
        c, co, h, w = block
        g = rng(40)
        x = g.normal(size=(batch, c, h, w)).astype(np.float32)
        k = (g.normal(size=(co, c, 5, 5)) * 0.05).astype(np.float32)
        mix = g.normal(size=(batch, co, h, w)).astype(np.float32)
        assert tensor_mod._winograd_applies(c, h, w, 5, 5, 1, 2)

        def run(need_x, need_w):
            xt, wt = Tensor(x, requires_grad=need_x), Tensor(k, requires_grad=need_w)
            out = conv2d(xt, wt, padding=2)
            (out * Tensor(mix)).sum().backward()
            return [out.data] + [t.grad for t in (xt, wt) if t.requires_grad]

        for need_x, need_w in ((True, True), (True, False), (False, True)):
            self.at_each_budget(lambda: run(need_x, need_w))

    def test_im2col_conv2d(self):
        # block 1: one input channel, so im2col, split by item and by rows
        # of the weight gradient; the input gradient by item
        g = rng(41)
        x = g.normal(size=(16, 1, 249, 64)).astype(np.float32)
        k = g.normal(size=(64, 1, 5, 5)).astype(np.float32)

        def run():
            xt, wt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
            out = conv2d(xt, wt, padding=2)
            (out * out).sum().backward()
            return [out.data, xt.grad, wt.grad]

        self.at_each_budget(run)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("pool", [True, False])
    def test_bn_relu_pool(self, pool, training):
        g = rng(42)
        x = g.normal(size=(16, 128, 62, 16)).astype(np.float32)
        assert len(tensor_mod._bn_blocks(x)[0]) > 1
        gamma, beta = g.normal(size=128).astype(np.float32), g.normal(size=128).astype(np.float32)
        mix = g.normal(size=(16, 128, 31, 8) if pool else x.shape).astype(np.float32)

        def run():
            xt = Tensor(x, requires_grad=True)
            gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
            state = BatchNormState(128)
            state.running_var[:] = 2.0
            out = bn_relu_pool(xt, gt, bt, state, training, pool=pool)
            (out * Tensor(mix)).sum().backward()
            return [out.data, xt.grad, gt.grad, bt.grad, state.running_mean, state.running_var]

        self.at_each_budget(run)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "case",
        [(shape, (co, shape[1], 5, 5), 1, 2) for shape, co in TestConv2dWinograd.SHAPES]
        + TestConv2dReferenceOracle.CASES,
        ids=lambda case: "x".join(map(str, case[0])),
    )
    def test_small_units_match_the_oracle(self, case, dtype, monkeypatch):
        # every op split, however small, on two threads, one item per chunk
        # (so dU and the im2col weight gradient add several chunks), against
        # the float64 oracle
        shape, kshape, stride, pad = case
        monkeypatch.setattr(tensor_mod, "THREAD_BYTES", 0)
        monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", 1)
        g = rng(46)
        x, w = g.normal(size=shape).astype(dtype), g.normal(size=kshape).astype(dtype)
        with precision(dtype), tensor_mod.thread_budget(2):
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            out = conv2d(xt, wt, stride=stride, padding=pad)
            mix = g.normal(size=out.shape).astype(dtype)
            (out * Tensor(mix)).sum().backward()
        ref = reference_conv2d(x, w, mix, stride, pad)
        for actual, expected in zip((out.data, xt.grad, wt.grad), ref):
            TestConv2dWinograd.assert_close(actual, expected, TestConv2dWinograd.TOL[dtype])

    def test_adam_step(self):
        # Adam runs on the calling thread: a split of it must keep these bytes
        from lungsound.model import CnnTsa, icbhi_config
        from lungsound.optim import AdamState, adam_step

        model = CnnTsa(icbhi_config(4), seed=0)
        grads = {name: rng(43).normal(size=p.shape).astype(np.float32) for name, p in model.params.items()}

        def run():
            params = {name: Tensor(p.data.copy()) for name, p in model.params.items()}
            state = AdamState()
            adam_step(params, grads, state, lr=1e-3, weight_decay=1e-4)
            return [p.data for p in params.values()] + [*state.m.values(), *state.v.values()]

        self.at_each_budget(run)

    def test_icbhi_train_step(self):
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.model import icbhi_config
        from lungsound.train import TrainConfig, train

        specs = synth_corpus(SynthSpec(n_classes=4, n_bands=64, n_frames=249, n_per_class=1, seed=5))

        def run():
            model = train(specs, icbhi_config(4), TrainConfig(epochs=1, batch_size=4, seed=5)).model
            stats = [a for st in model.bn_states.values() for a in (st.running_mean, st.running_var)]
            return [p.data for p in model.params.values()] + stats

        self.at_each_budget(run)

    def test_small_ops_start_no_pool(self, monkeypatch):
        # below THREAD_BYTES per item an op runs its one unit on this
        # thread, at any batch size: the tiny preset at evaluate's batch
        monkeypatch.setattr(tensor_mod, "_POOL", None)
        x = Tensor(rng(44).normal(size=(128, 1, 10, 64)), requires_grad=True)
        y = conv2d(x, Tensor(rng(45).normal(size=(8, 1, 5, 5)), requires_grad=True), padding=2)
        gamma, beta = Tensor(np.ones(8), requires_grad=True), Tensor(np.zeros(8))
        bn_relu_pool(y, gamma, beta, BatchNormState(8), True).sum().backward()
        assert y.data.nbytes > tensor_mod.THREAD_BYTES > y.data[0].nbytes
        assert tensor_mod._POOL is None

    def test_budget_restores_pool_and_blas(self):
        blas = tensor_mod._openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
        before = tensor_mod._POOL, blas[0]()

        def conv():
            conv2d(Tensor(np.ones((1, 64, 124, 32))), Tensor(np.ones((128, 64, 5, 5))), padding=2)

        with tensor_mod.thread_budget(2):
            conv()
            assert tensor_mod._POOL[0] == 2 and blas[0]() == 1  # BLAS at one thread under the pool
        assert (tensor_mod._POOL, blas[0]()) == before
        # above UNITS threads the units run on this thread and OpenBLAS
        # keeps the budget, up to the CPUs, for its GEMMs
        with tensor_mod.thread_budget(tensor_mod.UNITS + 1):
            assert tensor_mod._lanes(True) == 1 and tensor_mod._POOL == (1, None)
            assert blas[0]() == min(tensor_mod.UNITS + 1, len(os.sched_getaffinity(0)))
        assert (tensor_mod._POOL, blas[0]()) == before

    def test_budget_gives_openblas_no_more_threads_than_cpus(self):
        # more OpenBLAS threads than CPUs spin against each other (a
        # block-2 conv took 40 s instead of 0.6 s); no GEMM runs here
        blas = tensor_mod._openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
        cpus, before = len(os.sched_getaffinity(0)), blas[0]()
        with tensor_mod.thread_budget(cpus + 1):
            assert blas[0]() == cpus
        assert blas[0]() == before
        for bad in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                with tensor_mod.thread_budget(bad):
                    pass
            assert blas[0]() == before

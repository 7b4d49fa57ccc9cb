"""Model tests: backbone shape arithmetic, the aggregation block,
attention properties, placements, parameter counts, FLOPs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import check_gradient
from lungsound.errors import ConfigError, ShapeError
from lungsound.flops import count_flops
from lungsound.model import (
    CnnTsa,
    ModelConfig,
    aggregate_frequency,
    classify_head,
    icbhi_config,
    sprsound_config,
    temporal_self_attention,
)
from lungsound.tensor import Tensor, conv2d, frozen, matmul, pool2d


def rng(seed=0):
    return np.random.default_rng(seed)


def backbone(m, x):
    """The conv blocks' output: ``features`` and the last block's pool
    (and no attention placed after the last block)."""
    return pool2d(m.features(x))


def eval_model(cfg):
    """A seed-1 model whose batchnorm running statistics are not the identity."""
    m = CnnTsa(cfg, seed=1)
    for k, state in enumerate(m.bn_states.values()):
        state.running_mean[...] = rng(k).normal(size=state.running_mean.shape) * 0.1
        state.running_var[...] = 0.5 + rng(k).random(size=state.running_var.shape)
    return m


def tiny_cfg(**kw):
    defaults = dict(channels=(8,), n_classes=2, n_mel_rows_in=8)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestModelConfig:
    def test_presets(self):
        assert icbhi_config().d == 512 and icbhi_config().n_conv_blocks == 4
        assert sprsound_config().d == 256 and sprsound_config().n_conv_blocks == 3
        assert icbhi_config().d_k == 64 and sprsound_config().d_k == 32

    def test_d_must_divide_by_8(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=(12,), n_classes=2)

    def test_invalid_placement(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=(8,), n_classes=2, attention_placement="after_block_3")


class TestBackbone:
    def test_shape_64x64_four_blocks(self):
        m = CnnTsa(icbhi_config(n_mel_rows_in=64), seed=0)
        out = backbone(m, Tensor(rng().normal(size=(1, 1, 64, 64)).astype(np.float32)))
        assert out.shape == (1, 512, 4, 4)

    def test_shape_248x32_three_blocks(self):
        m = CnnTsa(sprsound_config(n_mel_rows_in=32), seed=0)
        out = backbone(m, Tensor(rng().normal(size=(2, 1, 248, 32)).astype(np.float32)))
        assert out.shape == (2, 256, 31, 4)

    def test_zero_input_finite_output(self):
        m = CnnTsa(tiny_cfg(), seed=0)
        out = m.forward(Tensor(np.zeros((2, 1, 16, 8), np.float32)))
        assert np.all(np.isfinite(out.data))

    def test_too_small_input_names_failing_block(self):
        m = CnnTsa(icbhi_config(n_mel_rows_in=64), seed=0)
        with pytest.raises(ShapeError, match="conv block 3"):
            m.features(Tensor(np.zeros((1, 1, 6, 64), np.float32)))


    @pytest.mark.parametrize("placement", ["after_aggregation", "after_block_1", "after_last"])
    def test_training_graph_holds_no_bn_or_relu_map_before_last_block(self, placement):
        cfg = ModelConfig(channels=(8, 16, 24), n_classes=2, n_mel_rows_in=16, attention_placement=placement)
        x = Tensor(rng(4).normal(size=(2, 1, 20, 16)).astype(np.float32), requires_grad=True)
        logits = CnnTsa(cfg, seed=0).forward(x)
        nodes, stack = {}, [logits]
        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node._parents)
        shapes = [n.shape for n in nodes.values()]
        t, f = 20, 16
        for i, c in enumerate(cfg.channels, start=1):
            # block i's conv output; the last block's ReLU output too,
            # which Grad-CAM and the head's pool read, but no batchnorm map
            assert shapes.count((2, c, t, f)) == (2 if i == cfg.n_conv_blocks else 1), i
            t, f = t // 2, f // 2


class TestAggregation:
    def test_constant_map_gives_two_v(self):
        fm = Tensor(np.full((1, 3, 5, 4), 2.5, np.float32))
        out = aggregate_frequency(fm)
        assert out.shape == (1, 5, 3)
        np.testing.assert_allclose(out.data, 5.0, rtol=1e-6)

    def test_single_band_doubles(self):
        fm = Tensor(rng(1).normal(size=(2, 3, 4, 1)).astype(np.float32))
        out = aggregate_frequency(fm)
        np.testing.assert_allclose(out.data, 2 * fm.data[:, :, :, 0].transpose(0, 2, 1), rtol=1e-6)

    def test_hand_computed_slice(self):
        # one channel, T=2, F=2: rows over freq are [1,3] and [2,2]
        fm = Tensor(np.array([[[[1.0, 3.0], [2.0, 2.0]]]], np.float32))
        out = aggregate_frequency(fm)
        np.testing.assert_allclose(out.data[0, :, 0], [2.0 + 3.0, 2.0 + 2.0])


class TestTemporalSelfAttention:
    def proj(self, d, dk, seed):
        g = rng(seed)
        return (
            Tensor(g.normal(size=(d, dk)).astype(np.float32) * 0.3),
            Tensor(g.normal(size=(d, dk)).astype(np.float32) * 0.3),
            Tensor(g.normal(size=(d, d)).astype(np.float32) * 0.3),
        )

    def test_t1_weight_is_one_output_is_xwv(self):
        wq, wk, wv = self.proj(6, 2, 0)
        x = Tensor(rng(1).normal(size=(1, 1, 6)).astype(np.float32))
        out, weights = temporal_self_attention(x, wq, wk, wv, return_weights=True)
        assert weights.data.item() == pytest.approx(1.0)
        np.testing.assert_allclose(out.data, matmul(x, wv).data, rtol=1e-6)

    def test_zero_query_gives_uniform_attention(self):
        wq, wk, wv = self.proj(6, 2, 2)
        wq = Tensor(np.zeros_like(wq.data))
        x = Tensor(rng(3).normal(size=(2, 5, 6)).astype(np.float32))
        out, weights = temporal_self_attention(x, wq, wk, wv, return_weights=True)
        np.testing.assert_allclose(weights.data, 1 / 5, atol=1e-6)
        xv = matmul(x, wv).data.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(xv, out.shape), rtol=1e-4, atol=1e-6)

    def test_rows_sum_to_one(self):
        wq, wk, wv = self.proj(8, 1, 4)
        for seed in range(10):
            x = Tensor(rng(seed).normal(size=(1, 7, 8)).astype(np.float32) * 3)
            _, weights = temporal_self_attention(x, wq, wk, wv, return_weights=True)
            np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_equivariance(self, seed):
        wq, wk, wv = self.proj(6, 2, 40 + seed)
        x = rng(seed).normal(size=(1, 9, 6)).astype(np.float32)
        perm = rng(seed + 1).permutation(9)
        out = temporal_self_attention(Tensor(x), wq, wk, wv).data
        out_perm = temporal_self_attention(Tensor(x[:, perm]), wq, wk, wv).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-5)

    def test_dim_mismatch(self):
        wq, wk, wv = self.proj(6, 2, 5)
        with pytest.raises(ShapeError):
            temporal_self_attention(Tensor(np.zeros((1, 4, 5), np.float32)), wq, wk, wv)


class TestClassifyHead:
    def test_constant_over_time_matches_t1(self):
        g = rng(7)
        w = Tensor(g.normal(size=(6, 3)).astype(np.float32))
        b = Tensor(g.normal(size=(3,)).astype(np.float32))
        row = g.normal(size=(1, 1, 6)).astype(np.float32)
        x_rep = Tensor(np.repeat(row, 5, axis=1))
        np.testing.assert_allclose(
            classify_head(x_rep, w, b).data, classify_head(Tensor(row), w, b).data, rtol=1e-5
        )

    def test_zero_weights_gives_bias(self):
        b = np.array([0.5, -1.0], np.float32)
        out = classify_head(
            Tensor(rng(8).normal(size=(3, 4, 6)).astype(np.float32)),
            Tensor(np.zeros((6, 2), np.float32)),
            Tensor(b),
        )
        np.testing.assert_allclose(out.data, np.tile(b, (3, 1)), atol=1e-7)

    def test_hand_matmul(self):
        x = np.array([[[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]], np.float32)  # mean: [2,3,4]
        w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.float32)
        b = np.array([0.1, 0.2], np.float32)
        out = classify_head(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, [[2 + 4 + 0.1, 3 + 4 + 0.2]], rtol=1e-6)


class TestForwardPlacements:
    placements = ["none", "input", "after_block_1", "after_last", "after_aggregation"]

    def make(self, placement):
        cfg = ModelConfig(
            channels=(8, 16), n_classes=3, attention_placement=placement, n_mel_rows_in=16
        )
        return CnnTsa(cfg, seed=3)

    @pytest.mark.parametrize("placement", placements)
    def test_logits_shape(self, placement):
        m = self.make(placement)
        x = Tensor(rng(9).normal(size=(4, 1, 12, 16)).astype(np.float32))
        assert m.forward(x).shape == (4, 3)

    def test_none_equals_manual_baseline_composition(self):
        m = self.make("none")
        x = Tensor(rng(10).normal(size=(2, 1, 12, 16)).astype(np.float32))
        logits = m.forward(x)
        manual = classify_head(
            aggregate_frequency(backbone(m, Tensor(x.data.copy()))),
            m.params["head.weight"],
            m.params["head.bias"],
        )
        np.testing.assert_array_equal(logits.data, manual.data)
        assert "tsa.wq" not in m.params

    def test_gradient_reaches_wq_after_aggregation(self):
        m = self.make("after_aggregation")
        x = Tensor(rng(11).normal(size=(2, 1, 12, 16)).astype(np.float32))
        loss = m.forward(x).sum()
        m.zero_grad()
        loss.backward()
        assert m.params["tsa.wq"].grad is not None
        assert np.abs(m.params["tsa.wq"].grad).max() > 0

    def test_full_tiny_model_gradcheck(self):
        # 1 block, d=8, T=6, F=8, 2 classes: finite differences through
        # the whole network, all parameters and input at once.
        cfg = tiny_cfg(attention_placement="after_aggregation")
        m = CnnTsa(cfg, seed=1)
        x = rng(12).normal(size=(2, 1, 6, 8)).astype(np.float32)
        mix = rng(13).normal(size=(2, 2)).astype(np.float32)
        arrays = {"x": x}
        arrays.update({k: p.data.copy() for k, p in m.params.items()})

        def loss(t):
            clone = CnnTsa(cfg, seed=1)
            for k in clone.params:
                clone.params[k] = t[k]
            out = clone.forward(t["x"])
            return (out * Tensor(mix)).sum()

        # h=1e-5: batchnorm centers activations on the ReLU kink, where
        # h=1e-3 secants step across it and misestimate the slope
        check_gradient(loss, arrays, h=1e-5)


class TestParameterCounts:
    def test_icbhi_within_10pct_of_4_6m(self):
        n = CnnTsa(icbhi_config(n_classes=4), seed=0).n_parameters()
        assert abs(n - 4.6e6) / 4.6e6 < 0.10, n

    def test_sprsound_within_10pct_of_1_11m(self):
        n = CnnTsa(sprsound_config(n_classes=7), seed=0).n_parameters()
        assert abs(n - 1.11e6) / 1.11e6 < 0.10, n


class TestFlops:
    def test_single_1x1_conv_counting_definition(self):
        from lungsound.flops import conv2d_flops

        assert conv2d_flops(3, 5, 1, 1, 4, 4) == 2 * 16 * 3 * 5

    def test_halving_bands_halves_each_conv_layer(self):
        cfg = icbhi_config(n_mel_rows_in=64)
        half = replace(cfg, n_mel_rows_in=32)
        full_r, half_r = count_flops(cfg, 249), count_flops(half, 249)
        for i in range(1, 5):
            assert half_r.row(f"conv{i}") * 2 == full_r.row(f"conv{i}")

    @pytest.mark.parametrize("cfg_fn", [icbhi_config, sprsound_config])
    def test_half_mask_total_ratio(self, cfg_fn):
        cfg = cfg_fn(n_mel_rows_in=64)
        full = count_flops(cfg, 249).total
        half = count_flops(replace(cfg, n_mel_rows_in=32), 249).total
        assert 0.49 <= half / full <= 0.51

    def test_attention_term_band_invariant_after_aggregation(self):
        cfg = icbhi_config(n_mel_rows_in=64)
        half = replace(cfg, n_mel_rows_in=32)
        assert count_flops(cfg, 249).attention_total() == count_flops(half, 249).attention_total()

    def test_attention_qkt_quadratic_in_t(self):
        cfg = icbhi_config(n_mel_rows_in=64)
        # T' quadruples when the input frame count is scaled 4x (pooling is exact here)
        r1, r2 = count_flops(cfg, 64), count_flops(cfg, 128)
        assert r2.row("tsa.qkT") == 4 * r1.row("tsa.qkT")

    def test_counts_match_known_macs(self):
        # 4-block config on 249x64 should cost ~2.47 GMACs = 4.94 GFLOPs
        total = count_flops(icbhi_config(n_mel_rows_in=64), 249).total
        assert abs(total - 4.94e9) / 4.94e9 < 0.01


    def test_conv_flops_linear_in_kept_bands(self):
        # masked-input costing: conv FLOPs proportional to kept bands
        # (exact at multiples of 16 where the halving chain stays integral)
        cfg = icbhi_config(n_mel_rows_in=64)
        base = count_flops(cfg, 249).conv_total()
        for kept in (48, 32, 16):
            cost = count_flops(replace(cfg, n_mel_rows_in=kept), 249).conv_total()
            assert cost / base == pytest.approx(kept / 64, rel=1e-12)


    def test_placement_cost_ordering_matches_ablation(self):
        # cheapest to costliest: none, after-aggregation, input, after-last,
        # then progressively earlier conv blocks (the published ordering)
        order = ["none", "after_aggregation", "input", "after_last",
                 "after_block_3", "after_block_2", "after_block_1"]
        vals = [
            count_flops(icbhi_config(attention_placement=p, n_mel_rows_in=64), 249).total
            for p in order
        ]
        assert all(a < b for a, b in zip(vals, vals[1:])), dict(zip(order, vals))


class TestModeFollowsParameters:
    """The parameters' ``requires_grad`` is the model's one mode switch:
    batchnorm takes batch statistics, and moves its running statistics,
    exactly when its gamma or beta needs a gradient."""

    @staticmethod
    def states(m):
        return {k: (s.running_mean.tobytes(), s.running_var.tobytes()) for k, s in m.bn_states.items()}

    @staticmethod
    def conv1(m, x):
        return conv2d(Tensor(x), Tensor(m.params["conv1.weight"].data), padding=2).data

    @staticmethod
    def block1(m, conv, mean, var):
        """Block 1's ReLU output in numpy, normalized with ``mean`` and ``var``."""
        gamma, beta = m.params["bn1.gamma"].data, m.params["bn1.beta"].data
        xhat = (conv - mean[:, None, None]) / np.sqrt(var[:, None, None] + 1e-5)
        return np.maximum(gamma[:, None, None] * xhat + beta[:, None, None], 0)

    def test_unfrozen_forward_trains_batchnorm(self):
        m = eval_model(ModelConfig(channels=(8, 16), n_classes=3, n_mel_rows_in=16))
        x = rng(21).normal(size=(4, 1, 12, 16)).astype(np.float32)
        saved = self.states(m)
        old_mean = m.bn_states["bn1"].running_mean.copy()
        logits = m.forward(Tensor(x))
        assert logits.requires_grad
        moved = self.states(m)
        for k in saved:  # every state, both statistics
            assert moved[k][0] != saved[k][0] and moved[k][1] != saved[k][1], k
        batch_mean = self.conv1(m, x).mean(axis=(0, 2, 3))
        np.testing.assert_allclose(m.bn_states["bn1"].running_mean, 0.9 * old_mean + 0.1 * batch_mean, rtol=1e-5, atol=1e-6)

    def test_frozen_forward_reads_running_statistics(self):
        m = eval_model(ModelConfig(channels=(8, 16), n_classes=3, n_mel_rows_in=16))
        x = rng(22).normal(size=(4, 1, 12, 16)).astype(np.float32)
        saved = self.states(m)
        with frozen(m.params.values()):
            first = m.forward(Tensor(x))
            again = m.forward(Tensor(x))
        assert not first.requires_grad
        assert self.states(m) == saved  # byte-identical
        assert first.data.tobytes() == again.data.tobytes()
        assert first.data.tobytes() != m.forward(Tensor(x)).data.tobytes()  # a training forward

    def test_one_block_normalizes_by_mode(self):
        m = eval_model(tiny_cfg())
        x = rng(23).normal(size=(3, 1, 10, 8)).astype(np.float32)
        st = m.bn_states["bn1"]
        conv = self.conv1(m, x)
        with frozen(m.params.values()):
            got = m.features(Tensor(x)).data
        np.testing.assert_allclose(got, self.block1(m, conv, st.running_mean, st.running_var), rtol=1e-5, atol=1e-5)
        got = m.features(Tensor(x)).data
        want = self.block1(m, conv, conv.mean(axis=(0, 2, 3)), conv.var(axis=(0, 2, 3)))
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


class TestChunkedInference:
    """Without a graph and in eval mode, ``features`` and ``forward`` run
    a batch depth first: each chunk of items goes through every block
    (and ``forward``'s head) before the next starts. Its logits and
    Grad-CAM maps are the bytes of one chunk (a grad-enabled forward)
    and of each clip alone, at engine budgets of 1 and 2 threads, for
    every attention placement, and each Winograd kernel is transformed
    once per call. The chunk bound is patched small, so a batch of 7
    splits into chunks with a ragged last one."""

    # (preset, T, F): block 2 of the SPRSound and ICBHI inputs runs Winograd,
    # every other block im2col
    CASES = [("tiny", 12, 8), ("sprsound", 34, 32), ("icbhi", 37, 32)]
    ITEMS = (2, 3)  # items per chunk: 2+2+2+1 and 3+3+1

    @pytest.mark.parametrize("preset,t,f", CASES, ids=[c[0] for c in CASES])
    def test_same_bytes_as_whole_batch(self, preset, t, f):
        import lungsound.attribution as attribution_mod
        import lungsound.model as model_mod
        import lungsound.tensor as tensor_mod
        from lungsound.attribution import gradcam
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.model import PRESETS
        from lungsound.tensor import thread_budget

        channels = PRESETS[preset]
        specs = synth_corpus(SynthSpec(n_classes=2, n_bands=f, n_frames=t, n_per_class=4, seed=3))[:7]
        x = specs.clips(slice(None))[:, None]
        convs, kernels = [], []

        def counted(*args, **kwargs):
            convs.append((args[1].shape[0], args[0].shape[0]))  # (block width, items)
            return tensor_mod.conv2d(*args, **kwargs)

        real_kernel = tensor_mod._wino_kernel

        def built(*args):
            kernels.append(args[0].shape)
            return real_kernel(*args)

        cins = (1, *channels[:-1])
        winograd = sum(tensor_mod._winograd_applies(c, t >> i, f >> i, 5, 5, 1, 2) for i, c in enumerate(cins))
        for placement in sorted(ModelConfig(channels=channels, n_mel_rows_in=f).allowed_placements()):
            cfg = ModelConfig(channels=channels, n_classes=3, n_mel_rows_in=f, attention_placement=placement)
            m = eval_model(cfg)
            with frozen(m.params.values()):  # a graph to the input, IG's path: one chunk
                ref = m.forward(Tensor(x, requires_grad=True)).data
            ref_cams = [a.values for a in gradcam(m, specs, 1)]  # one chunk at 7 clips
            with frozen(m.params.values()):
                alone = np.concatenate([m.forward(Tensor(x[i : i + 1])).data for i in range(7)])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(attribution_mod, "ATTRIBUTION_BATCH", 1)
                alone_cams = [a.values for a in gradcam(m, specs, 1)]
            assert alone.tobytes() == ref.tobytes(), placement
            assert all(a.tobytes() == b.tobytes() for a, b in zip(alone_cams, ref_cams)), placement
            for items in self.ITEMS:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(model_mod, "IM2COL_BYTES", items * channels[0] * t * f * 4)
                    patch.setattr(tensor_mod, "THREAD_BYTES", 0)  # every op splits on the pool
                    patch.setattr(model_mod, "conv2d", counted)
                    patch.setattr(tensor_mod, "_wino_kernel", built)
                    for n in (1, 2):
                        convs.clear(), kernels.clear()
                        with thread_budget(n):
                            with frozen(m.params.values()):
                                got = m.forward(Tensor(x)).data
                            assert len(kernels) == winograd  # U once per call, not per chunk
                            cams = [a.values for a in gradcam(m, specs, 1)]
                        assert got.tobytes() == ref.tobytes(), (placement, items, n)
                        assert all(a.tobytes() == b.tobytes() for a, b in zip(cams, ref_cams)), (placement, items, n)
                        # depth first: block 1..n on one chunk, then the next chunk
                        sizes = [min(items, 7 - s) for s in range(0, 7, items)]
                        order = [(c, k) for k in sizes for c in channels]
                        assert convs == order + order, (placement, items, n)

    def test_no_stale_kernel_after_a_step(self):
        # a frozen forward, a training step that updates the weights in
        # place, then a frozen forward again: the second gets a fresh
        # model's bytes, so no transformed kernel outlives the first call
        import lungsound.model as model_mod
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.optim import AdamState, adam_step

        cfg = ModelConfig(channels=(64, 128, 256), n_classes=3, n_mel_rows_in=32)
        specs = synth_corpus(SynthSpec(n_classes=2, n_bands=32, n_frames=34, n_per_class=4, seed=3))[:5]
        x = Tensor(specs.clips(slice(None))[:, None])
        m = eval_model(cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_mod, "IM2COL_BYTES", 2 * 64 * 34 * 32 * 4)  # chunks of 2 items
            with frozen(m.params.values()):
                before = m.forward(x).data
            m.forward(x).sum().backward()
            adam_step(m.params, m.grads(), AdamState(), lr=1e-2)
            with frozen(m.params.values()):
                after = m.forward(x).data
            fresh_model = CnnTsa(cfg, state=m.state_dict())
            with frozen(fresh_model.params.values()):
                fresh = fresh_model.forward(x).data
        assert before.tobytes() != after.tobytes()
        assert after.tobytes() == fresh.tobytes()


class TestBatchInvariance:
    """A clip's frozen logits, Grad-CAM map and IG map are the bytes it
    gets alone (B=1, one IG step per pass), in any batch, however
    ``IM2COL_BYTES`` in ``model`` and ``tensor`` chunks that batch, at
    engine budgets of 1 and 2 threads. conv2d keeps a clip's GEMM columns
    apart or aligned (``tensor._winograd_chunk``), and ``classify_head``
    runs its linear layer per item."""

    # (preset, T, F): block 2's Winograd items hold 16 (32x32), 20 (34x32,
    # 37x32) or 32 (64x32) tiles, and at 64x64 block 3 runs Winograd on 16
    # tiles; the tiny preset runs im2col only
    CASES = [
        ("tiny", 12, 8), ("sprsound", 32, 32), ("sprsound", 34, 32),
        ("sprsound", 64, 64), ("icbhi", 37, 32), ("icbhi", 64, 32),
    ]
    # the conv of 20-tile items (ICBHI block 2 on 37x32 input) that first
    # showed a clip's bytes depending on its batch, at 7 items
    CONV = ("conv", 64, 128, 18, 16)
    # IM2COL_BYTES, the default first (the example Hypothesis tries first):
    # many items per chunk down to one
    BOUNDS = [16 << 20, 4 << 20, 1 << 20, 1 << 18, 1 << 12]
    IG_STEPS = 4
    alone = {}  # (case, placement, clip) -> its (logits, Grad-CAM map, IG map) at B=1

    @staticmethod
    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def model_run(self, data, case, batch):
        """The clips ``batch``'s logits and Grad-CAM maps, then one clip's IG
        map, each clip alone; and a function that runs them as one batch."""
        import lungsound.attribution as attribution_mod
        from lungsound.attribution import gradcam, integrated_gradients
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.model import PRESETS

        preset, t, f = case
        channels = PRESETS[preset]
        placements = sorted(ModelConfig(channels=channels, n_mel_rows_in=f).allowed_placements())
        placement = data.draw(st.sampled_from(placements), label="placement")
        per_pass = data.draw(st.sampled_from([2, 3, 16]), label="IG steps per pass")
        j = data.draw(st.integers(0, len(batch) - 1), label="IG clip")
        m = eval_model(ModelConfig(channels=channels, n_classes=3, n_mel_rows_in=f, attention_placement=placement))
        pool = synth_corpus(SynthSpec(n_classes=2, n_bands=f, n_frames=t, n_per_class=4, seed=3))

        def run(specs, ig_clip):
            with frozen(m.params.values()):
                logits = m.forward(Tensor(specs.clips()[:, None])).data
            cams = [a.values for a in gradcam(m, specs, 1)]
            ig = integrated_gradients(m, specs[ig_clip], 1, steps=self.IG_STEPS).values
            return [*logits, *cams, ig]

        for i in batch:
            if (case, placement, i) not in self.alone:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(attribution_mod, "ATTRIBUTION_BATCH", 1)
                    self.alone[case, placement, i] = run(pool[np.array([i])], 0)
        alone = [self.alone[case, placement, i] for i in batch]
        expected = [a[0] for a in alone] + [a[1] for a in alone] + [alone[j][2]]

        def batched():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(attribution_mod, "ATTRIBUTION_BATCH", per_pass)
                return run(pool[np.array(batch)], j)

        return expected, batched

    def conv_run(self, batch):
        """The items ``batch``'s outputs, then their input gradients (a
        frozen kernel), each item alone; and a function that runs them as
        one batch."""
        from lungsound.tensor import conv2d

        _, c, co, h, w = self.CONV
        g = rng(26)
        x = g.normal(size=(8, c, h, w)).astype(np.float32)
        k = (g.normal(size=(co, c, 5, 5)) * 0.05).astype(np.float32)
        mix = g.normal(size=(8, co, h, w)).astype(np.float32)

        def run(idx):
            xt = Tensor(x[idx], requires_grad=True)
            out = conv2d(xt, Tensor(k), padding=2)
            (out * Tensor(mix[idx])).sum().backward()
            return [*out.data, *xt.grad]

        alone = [run([i]) for i in batch]
        return [a[0] for a in alone] + [a[1] for a in alone], lambda: run(batch)

    # every case in every run: a drawn case left some out of 20 examples
    @pytest.mark.parametrize("case", [*CASES, CONV], ids=lambda c: f"{c[0]}-{c[-2]}x{c[-1]}")
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_clip_bytes_do_not_depend_on_batch(self, case, data):
        import lungsound.model as model_mod
        import lungsound.tensor as tensor_mod
        from lungsound.tensor import thread_budget

        size = 7 if case == self.CONV else data.draw(st.integers(2, 8), label="batch size")
        batch = data.draw(st.permutations(range(8)), label="clips")[:size]
        if case == self.CONV:
            expected, batched = self.conv_run(batch)
        else:
            expected, batched = self.model_run(data, case, batch)
        with pytest.MonkeyPatch.context() as patch:
            for mod in (model_mod, tensor_mod):
                patch.setattr(mod, "IM2COL_BYTES", data.draw(st.sampled_from(self.BOUNDS), label=mod.__name__))
            patch.setattr(tensor_mod, "THREAD_BYTES", 0)  # every op splits on the pool
            for n in (1, 2):
                with thread_budget(n):
                    got = batched()
                assert len(got) == len(expected)
                for k, (a, b) in enumerate(zip(got, expected)):
                    assert self.same(a, b), (case, n, k, np.abs(a - b).max())

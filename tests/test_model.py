"""Model tests: backbone shape arithmetic, the aggregation block,
attention properties, placements, parameter counts, FLOPs."""

from dataclasses import replace

import numpy as np
import pytest

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
from lungsound.tensor import Tensor, matmul, pool2d


def rng(seed=0):
    return np.random.default_rng(seed)


def backbone(m, x):
    """The conv blocks' output: ``features`` and the last block's pool
    (and no attention placed after the last block)."""
    return pool2d(m.features(x))


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
        logits = CnnTsa(cfg, seed=0).forward(x, training=True)
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
        loss = m.forward(x, training=True).sum()
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
            out = clone.forward(t["x"], training=True)
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

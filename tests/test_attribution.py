"""Attribution tests: Grad-CAM against a closed-form single-layer
oracle, the bilinear resize against hand values, Integrated Gradients
exactness/completeness, and band profiles."""

import numpy as np
import pytest

from lungsound.attribution import (
    ATTRIBUTION_BATCH,
    AttributionMap,
    band_profile,
    bilinear_resize,
    gradcam,
    integrated_gradients,
)
from lungsound.audio import Spectrogram
from lungsound.data import SpecSet, SynthSpec, synth_corpus
from lungsound.errors import DivergenceError, UnsupportedMethodError
from lungsound.model import CnnTsa, ModelConfig
from lungsound.tensor import Tensor, conv2d, matmul, reduce
from lungsound.train import TrainConfig, train


def make_spec(t=6, f=8, seed=0, scale=1.0):
    vals = np.random.default_rng(seed).normal(size=(t, f)).astype(np.float32) * scale
    centers = np.linspace(100, 2000, f)
    return Spectrogram(vals, centers, hop_seconds=0.032)


def make_set(n=1, t=6, f=8, seed=0, scale=1.0):
    """n random clips as a set, clip i drawn from seed + i."""
    vals = np.stack([np.random.default_rng(seed + i).normal(size=(t, f)) for i in range(n)]) * scale
    return SpecSet(
        vals, np.linspace(100, 2000, f), 0.032, labels=np.zeros(n, np.int64),
        patient_ids=[None] * n, ages=np.full(n, np.nan), splits=["unsplit"] * n,
        clip_ids=[f"clip{i}" for i in range(n)],
    )


class OneConvModel:
    """score_c = mean over the single conv feature map: the Grad-CAM
    weight is exactly 1/(h*w) and the map equals the scaled activation."""

    def __init__(self, kernel):
        self.w = Tensor(kernel, requires_grad=True)
        self.params = {"w": self.w}
        self.last_conv_activation = None

    def features(self, x, training=False):
        return conv2d(x, self.w, padding=1)

    def head(self, act):
        return reduce(act.reshape(act.shape[0], -1), "mean", axis=1).reshape(act.shape[0], 1)

    def forward(self, x, training=False):
        return self.head(self.features(x, training))

    def zero_grad(self):
        self.w.zero_grad()


class LinearModel:
    """Two logits per row, each a fixed linear functional of that row's input."""

    def __init__(self, w0, w1):
        self.w = Tensor(np.stack([w0.reshape(-1), w1.reshape(-1)], axis=1), requires_grad=True)
        self.params = {"w": self.w}

    def forward(self, x, training=False):
        return matmul(x.reshape(x.shape[0], -1), self.w)

    def zero_grad(self):
        self.w.zero_grad()


# -- per-sample references: one B=1 forward and a full backward per map,
# every weight gradient included; the batched, parameter-frozen versions
# must reproduce them


def _onehot_score(logits, class_id):
    onehot = np.zeros(logits.shape, dtype=np.float32)
    onehot[:, class_id] = 1.0
    return (logits * Tensor(onehot)).sum()


def reference_gradcam(model, spec, class_id):
    model.zero_grad()
    act = model.features(Tensor(spec.values[None, None, :, :]))
    # backward() frees an op result's gradient once it is passed on, so
    # catch the gradient entering ``act`` on its way through
    entering = []
    act_backward = act._backward

    def capture(g):
        entering.append(g.copy())
        act_backward(g)

    act._backward = capture
    _onehot_score(model.head(act), class_id).backward()
    assert len(entering) == 1 and act.grad is None
    assert all(p.grad is not None for p in model.params.values())
    weights = entering[0][0].mean(axis=(1, 2))
    cam = np.tensordot(weights, act.data[0], axes=(0, 0))
    model.zero_grad()
    return bilinear_resize(cam, (spec.n_frames, spec.n_bands))


def reference_integrated_gradients(model, spec, class_id, baseline, steps):
    x = spec.values.astype(np.float32)
    diff = x - baseline
    total = np.zeros_like(x)
    for j in range(1, steps + 1):
        xt = Tensor((baseline + (j / steps) * diff)[None, None, :, :], requires_grad=True)
        model.zero_grad()
        _onehot_score(model.forward(xt), class_id).backward()
        total += xt.grad[0, 0]
    model.zero_grad()
    return diff * (total / np.float32(steps))


def grads_untouched(model):
    return all(p.grad is None for p in model.params.values())


class TestBilinearResize:
    def test_identity_when_same_shape(self):
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        np.testing.assert_array_equal(bilinear_resize(x, (3, 4)), x)

    def test_2x2_to_4x4_reference_values(self):
        # align_corners=False doubling of [[1,2],[3,4]]: corners replicate,
        # interior sits at quarter blends
        x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
        out = bilinear_resize(x, (4, 4))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 3] == pytest.approx(2.0)
        assert out[3, 0] == pytest.approx(3.0)
        assert out[3, 3] == pytest.approx(4.0)
        assert out[1, 1] == pytest.approx(1.0 * 0.5625 + 2.0 * 0.1875 + 3.0 * 0.1875 + 4.0 * 0.0625)
        assert out[2, 2] == pytest.approx(4.0 * 0.5625 + 3.0 * 0.1875 + 2.0 * 0.1875 + 1.0 * 0.0625)

    def test_constant_preserved(self):
        out = bilinear_resize(np.full((2, 3), 5.0, np.float32), (7, 9))
        np.testing.assert_allclose(out, 5.0, rtol=1e-6)

    def test_mid_sample_interpolates(self):
        x = np.array([[0.0, 10.0]], np.float32)
        out = bilinear_resize(x, (1, 4))
        # sample positions 0, 0.5, 1.0 clamp pattern: [0, 2.5, 7.5, 10]
        np.testing.assert_allclose(out[0], [0.0, 2.5, 7.5, 10.0])


class TestGradCam:
    def test_zero_feature_maps_zero_attribution(self):
        model = OneConvModel(np.zeros((1, 1, 3, 3), np.float32))
        [amap] = gradcam(model, make_set(), class_id=0)
        np.testing.assert_array_equal(amap.values, 0.0)

    def test_one_conv_closed_form(self):
        kernel = np.random.default_rng(1).normal(size=(1, 1, 3, 3)).astype(np.float32)
        model = OneConvModel(kernel)
        specs = make_set(t=5, f=7, seed=2)
        [amap] = gradcam(model, specs, class_id=0)
        act = conv2d(Tensor(specs.values[:, None]), Tensor(kernel), padding=1).data[0, 0]
        np.testing.assert_allclose(amap.values, act / act.size, rtol=1e-5, atol=1e-7)

    def test_linearity_in_feature_maps(self):
        kernel = np.random.default_rng(3).normal(size=(1, 1, 3, 3)).astype(np.float32)
        specs = make_set(seed=4)
        a1 = gradcam(OneConvModel(kernel), specs, 0)[0].values
        a2 = gradcam(OneConvModel(2.0 * kernel), specs, 0)[0].values
        # doubling the maps (same gradients: score is mean, weights fixed)
        np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-5, atol=1e-7)

    def test_sign_preserved(self):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        model = CnnTsa(cfg, seed=0)
        found_negative = False
        specs = make_set(5, t=8, f=8, scale=3.0)
        for amap in gradcam(model, specs, class_id=1):
            assert np.all(np.isfinite(amap.values))
            found_negative |= bool((amap.values < 0).any())
        assert found_negative  # no ReLU clipping on the map

    def test_model_without_conv_is_unsupported(self):
        class NoConv:
            def forward(self, x, training=False):
                return Tensor(np.zeros((1, 2), np.float32))

        class FeaturesOnly(NoConv):
            params = {}

            def features(self, x, training=False):
                return x

        with pytest.raises(UnsupportedMethodError):
            gradcam(NoConv(), make_set(), 0)
        with pytest.raises(UnsupportedMethodError):
            gradcam(FeaturesOnly(), make_set(), 0)

    def test_upsampled_shape_matches_input(self):
        cfg = ModelConfig(channels=(8, 8), n_classes=2, n_mel_rows_in=16)
        model = CnnTsa(cfg, seed=1)
        [amap] = gradcam(model, make_set(t=12, f=16, seed=5), 0)
        assert amap.values.shape == (12, 16)

    def test_class_out_of_range(self):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        with pytest.raises(ValueError):
            gradcam(CnnTsa(cfg, seed=0), make_set(t=8, f=8), 2)

    def test_one_kernel_per_call_and_none_stale(self, monkeypatch):
        # SPRSound preset at 37x32: block 2 (18x16, 20 tiles) is the one
        # Winograd conv; six clips at two per chunk are three chunks
        import lungsound.attribution as attribution_mod
        import lungsound.tensor as tensor_mod
        from lungsound.model import PRESETS
        from lungsound.optim import AdamState, adam_step

        cfg = ModelConfig(channels=PRESETS["sprsound"], n_classes=3, n_mel_rows_in=32)
        m = CnnTsa(cfg, seed=1)
        specs = synth_corpus(SynthSpec(n_classes=2, n_bands=32, n_frames=37, n_per_class=3, seed=3))

        def cams(model):
            return np.stack([a.values for a in gradcam(model, specs, 1)])

        whole = cams(m)  # one chunk
        monkeypatch.setattr(attribution_mod, "ATTRIBUTION_BATCH", 2)
        kernels, real = [], tensor_mod._wino_kernel
        monkeypatch.setattr(tensor_mod, "_wino_kernel", lambda w, *rest: kernels.append(w.shape) or real(w, *rest))
        before = cams(m)
        assert kernels == [(128, 64, 5, 5)]  # the three chunks share one U
        assert before.tobytes() == whole.tobytes()
        m.forward(Tensor(specs.clips()[:, None]), training=True).sum().backward()
        adam_step(m.params, m.grads(), AdamState(), lr=1e-2)  # the weights change in place
        after = cams(m)
        fresh = cams(CnnTsa(cfg, state=m.state_dict()))
        assert before.tobytes() != after.tobytes()
        assert after.tobytes() == fresh.tobytes()

    def test_memory_bounded_by_one_chunk_and_every_kernel(self, monkeypatch):
        # SPRSound preset at 64x64: blocks 2 and 3 run Winograd. Over k
        # chunks, Grad-CAM holds one chunk's maps and head graph plus every
        # U, and its peak does not grow with k beyond the maps it returns.
        import tracemalloc

        import lungsound.attribution as attribution_mod
        import lungsound.tensor as tensor_mod
        from lungsound.attribution import _class_score
        from lungsound.model import PRESETS

        per, t, f = 2, 64, 64
        channels = PRESETS["sprsound"]
        m = CnnTsa(ModelConfig(channels=channels, n_classes=3, n_mel_rows_in=f), seed=1)
        specs = synth_corpus(SynthSpec(n_classes=2, n_bands=f, n_frames=t, n_per_class=4, seed=3))
        monkeypatch.setattr(attribution_mod, "ATTRIBUTION_BATCH", per)
        cins = (1, *channels[:-1])
        u_bytes = sum(
            64 * co * ci * 4
            for i, (ci, co) in enumerate(zip(cins, channels))
            if tensor_mod._winograd_applies(ci, t >> i, f >> i, 5, 5, 1, 2)
        )
        assert u_bytes == (64 * 128 + 128 * 256) * 64 * 4
        map_bytes = per * t * f * 4  # the maps one chunk returns

        def peak(run):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        def one_chunk_without_u():
            # one chunk as Grad-CAM runs it, each conv dropping its own U
            params = list(m.params.values())
            for p in params:
                p.requires_grad = False
            try:
                act = Tensor(m.features(Tensor(specs.clips(slice(0, per))[:, None])).data, requires_grad=True)
                _class_score(m.head(act), 1).backward()
            finally:
                for p in params:
                    p.requires_grad = True

        gradcam(m, specs[:1], 1)  # warm: the engine's threads and transforms
        one = peak(one_chunk_without_u)
        peaks = {k: peak(lambda: gradcam(m, specs[: k * per], 1)) for k in (1, 2, 4)}
        slack = 256 << 10
        for k, got in peaks.items():
            assert got <= one + u_bytes + k * map_bytes + slack, (k, got, one, u_bytes)
        assert peaks[4] <= peaks[2] + 2 * map_bytes + slack, peaks


class TestIntegratedGradients:
    def test_input_equal_baseline_gives_zero(self):
        w = np.random.default_rng(6).normal(size=(4, 5)).astype(np.float32)
        model = LinearModel(w, -w)
        spec = make_spec(t=4, f=5, seed=7)
        amap = integrated_gradients(model, spec, 0, baseline=spec.values.copy(), steps=8)
        np.testing.assert_array_equal(amap.values, 0.0)

    @pytest.mark.parametrize("steps", [1, 3, 50])
    def test_exact_on_linear_model(self, steps):
        g = np.random.default_rng(8)
        w0 = g.normal(size=(4, 5)).astype(np.float32)
        w1 = g.normal(size=(4, 5)).astype(np.float32)
        model = LinearModel(w0, w1)
        spec = make_spec(t=4, f=5, seed=9)
        baseline = g.normal(size=(4, 5)).astype(np.float32)
        amap = integrated_gradients(model, spec, 0, baseline=baseline, steps=steps)
        np.testing.assert_allclose(
            amap.values, w0 * (spec.values - baseline), rtol=1e-5, atol=1e-6
        )

    def test_completeness_on_trained_model(self):
        corpus = synth_corpus(
            SynthSpec(n_classes=2, n_bands=12, n_frames=12, n_per_class=12, snr_db=12.0, seed=0)
        )
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=12)
        tcfg = TrainConfig(
            epochs=6, batch_size=8, lr0=1e-3, weight_decay=0.0, seed=0,
            task="multiclass", specaugment=False,
        )
        model = train(corpus, cfg, tcfg).model
        spec = corpus[0]
        baseline = np.zeros_like(spec.values)
        errors = {}
        for steps in (10, 50, 200):
            amap = integrated_gradients(model, spec, 0, baseline=baseline, steps=steps)
            from lungsound.tensor import Tensor as T

            s_x = model.forward(T(spec.values[None, None])).data[0, 0]
            s_b = model.forward(T(baseline[None, None])).data[0, 0]
            gap = float(s_x - s_b)
            errors[steps] = abs(float(amap.values.sum()) - gap) / max(abs(gap), 1e-9)
        assert errors[200] < 0.02, errors
        assert errors[200] <= errors[10] + 1e-6, errors  # error shrinks with steps

    def test_one_kernel_per_call_and_none_stale(self, monkeypatch):
        # SPRSound preset at 37x32: block 2 (18x16, 20 tiles) is the one
        # Winograd conv; ATTRIBUTION_BATCH + 1 steps are two passes
        import lungsound.tensor as tensor_mod
        from lungsound.model import PRESETS
        from lungsound.optim import AdamState, adam_step

        cfg = ModelConfig(channels=PRESETS["sprsound"], n_classes=3, n_mel_rows_in=32)
        m = CnnTsa(cfg, seed=1)
        spec = synth_corpus(SynthSpec(n_classes=2, n_bands=32, n_frames=37, n_per_class=1, seed=3))[0]
        steps = ATTRIBUTION_BATCH + 1
        kernels, real = [], tensor_mod._wino_kernel
        monkeypatch.setattr(tensor_mod, "_wino_kernel", lambda w, *rest: kernels.append(w.shape) or real(w, *rest))
        before = integrated_gradients(m, spec, 1, steps=steps).values
        assert kernels == [(128, 64, 5, 5)]  # both passes' forward and dV share one U
        m.forward(Tensor(spec.values[None, None]), training=True).sum().backward()
        adam_step(m.params, m.grads(), AdamState(), lr=1e-2)  # the weights change in place
        after = integrated_gradients(m, spec, 1, steps=steps).values
        fresh = integrated_gradients(CnnTsa(cfg, state=m.state_dict()), spec, 1, steps=steps).values
        assert before.tobytes() != after.tobytes()
        assert after.tobytes() == fresh.tobytes()

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            integrated_gradients(LinearModel(np.ones((4, 5), np.float32), np.ones((4, 5), np.float32)), make_spec(4, 5), 0, steps=0)


PLACEMENTS = ["after_aggregation", "after_last", "after_block_1", "input", "none"]


def oracle_model(placement="after_aggregation"):
    cfg = ModelConfig(
        channels=(8, 8), n_classes=3, n_mel_rows_in=16, attention_placement=placement
    )
    model = CnnTsa(cfg, seed=2)
    # a head the size of a trained one, so the head gradients are not ~1e-3
    head = model.params["head.weight"]
    head.data[...] = np.random.default_rng(3).normal(size=head.shape).astype(np.float32)
    return model


def oracle_specs(n):
    corpus = synth_corpus(
        SynthSpec(n_classes=3, n_bands=16, n_frames=12, n_per_class=6, snr_db=6.0, seed=4)
    )
    return corpus[:n]


def assert_close_to(values, ref):
    np.testing.assert_allclose(values, ref, rtol=1e-5, atol=1e-6 * float(np.abs(ref).max()))


class TestBatchedMatchesPerSample:
    """Batched, parameter-frozen attribution against the per-sample
    references, on chunk sizes that fill one chunk partly (1), exactly
    (16 = ATTRIBUTION_BATCH), and spill into a second (17)."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("n_clips", [1, 16, 17])
    def test_gradcam(self, placement, n_clips):
        model = oracle_model(placement)
        specs = oracle_specs(n_clips)
        maps = gradcam(model, specs, 1)
        assert grads_untouched(model)
        assert all(p.requires_grad for p in model.params.values())
        assert [m.sample_id for m in maps] == [s.clip_id for s in specs]
        # the last chunk's activation, as a detached leaf
        act = model.last_conv_activation
        assert act._parents == () and act.shape[0] == (n_clips - 1) % ATTRIBUTION_BATCH + 1
        for spec, amap in zip(specs, maps):
            assert amap.method == "gradcam" and amap.class_id == 1
            assert_close_to(amap.values, reference_gradcam(model, spec, 1))

    @pytest.mark.parametrize("placement", ["after_aggregation", "after_block_1"])
    @pytest.mark.parametrize("steps", [1, 16, 17])
    def test_integrated_gradients(self, placement, steps):
        model = oracle_model(placement)
        spec = oracle_specs(1)[0]
        baseline = np.zeros_like(spec.values)
        amap = integrated_gradients(model, spec, 2, baseline=baseline, steps=steps)
        assert grads_untouched(model)
        assert all(p.requires_grad for p in model.params.values())
        ref = reference_integrated_gradients(model, spec, 2, baseline, steps)
        assert_close_to(amap.values, ref)

    def test_trained_model_grads_untouched(self):
        corpus = oracle_specs(18)
        cfg = ModelConfig(channels=(8,), n_classes=3, n_mel_rows_in=16)
        tcfg = TrainConfig(epochs=2, batch_size=8, lr0=1e-2, weight_decay=0.0, seed=0,
                           task="multiclass", specaugment=False)
        model = train(corpus, cfg, tcfg).model
        assert grads_untouched(model)
        gradcam(model, corpus, 0)
        assert grads_untouched(model)
        integrated_gradients(model, corpus[0], 0, steps=5)
        assert grads_untouched(model)


class TestAttributionMap:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_refused(self, bad):
        vals = np.zeros((4, 6), np.float32)
        vals[2, 3] = bad
        with pytest.raises(DivergenceError, match="non-finite"):
            AttributionMap(vals, "s", 0, "gradcam")


class TestBandProfile:
    def test_constant_map(self):
        amap = AttributionMap(np.full((5, 3), 2.0, np.float32), "s", 0, "gradcam")
        np.testing.assert_allclose(band_profile(amap), 2.0)

    def test_single_band_indicator(self):
        vals = np.zeros((4, 6), np.float32)
        vals[:, 3] = 1.0
        amap = AttributionMap(vals, "s", 0, "gradcam")
        np.testing.assert_array_equal(band_profile(amap), [0, 0, 0, 1, 0, 0])

    def test_random_vs_hand_mean(self):
        vals = np.random.default_rng(10).normal(size=(3, 4)).astype(np.float32)
        amap = AttributionMap(vals, "s", 1, "ig")
        np.testing.assert_allclose(band_profile(amap), vals.mean(axis=0), rtol=1e-6)

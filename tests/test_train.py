"""Training loop, loss, splits, metric suite, and age-specific models."""

import functools
import math

import numpy as np
import pytest

from helpers import check_gradient
from lungsound.data import SynthSpec, synth_corpus
from lungsound.errors import ConfigError, DataError, DivergenceError, ShapeError
from lungsound.metrics import MetricReport, collapse_to_binary, scores_from_rates
from lungsound.model import ModelConfig
from lungsound.tensor import Tensor
from lungsound.train import (
    TrainConfig,
    evaluate,
    patient_kfold,
    train,
    train_age_specific,
    wcce_loss,
)


def tiny_model_cfg(n_bands=12, n_classes=2):
    return ModelConfig(channels=(8,), n_classes=n_classes, n_mel_rows_in=n_bands)


def tiny_train_cfg(**kw):
    defaults = dict(
        epochs=5, batch_size=16, lr0=1e-3, weight_decay=0.0, seed=0,
        task="multiclass", specaugment=False,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_corpus(seed=0, n=16, snr=15.0, bands=12, frames=12, classes=2):
    return synth_corpus(
        SynthSpec(
            n_classes=classes, n_bands=bands, n_frames=frames,
            n_per_class=n, snr_db=snr, seed=seed,
        )
    )


# -- WCCE -------------------------------------------------------------------------


class TestWcceLoss:
    def test_perfect_predictions_near_zero(self):
        logits = Tensor(np.array([[20.0, -20.0], [-20.0, 20.0]], np.float32))
        loss = wcce_loss(logits, np.array([0, 1]), np.array([1, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_predictions_closed_form(self):
        # balanced counts: loss = |C| * log|C| / N with w_c = 1/count_c
        n_per, n_classes = 10, 4
        n = n_per * n_classes
        logits = Tensor(np.zeros((n, n_classes), np.float32))
        labels = np.repeat(np.arange(n_classes), n_per)
        counts = np.full(n_classes, n_per)
        loss = wcce_loss(logits, labels, counts)
        assert loss.item() == pytest.approx(math.log(n_classes) / n_per, rel=1e-5)

    def test_doubling_counts_halves_loss(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32))
        labels = np.array([0, 1, 2, 0, 1, 2])
        l1 = wcce_loss(logits, labels, np.array([2, 2, 2])).item()
        l2 = wcce_loss(Tensor(logits.data.copy()), labels, np.array([4, 4, 4])).item()
        assert l2 == pytest.approx(l1 / 2, rel=1e-6)

    def test_zero_count_for_present_class_errors(self):
        with pytest.raises(DataError):
            wcce_loss(Tensor(np.zeros((2, 2), np.float32)), np.array([0, 1]), np.array([1, 0]))

    def test_gradient_vs_finite_differences(self):
        logits = np.random.default_rng(1).normal(size=(5, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1, 0])
        counts = np.array([2, 2, 1])

        def loss(t):
            return wcce_loss(t["logits"], labels, counts)

        check_gradient(loss, {"logits": logits})


# -- patient k-fold ------------------------------------------------------------------


def patient_ids(patients):
    """The id column of a set whose patient ``p`` has ``patients[p]`` clips, in order."""
    return np.repeat(list(patients), list(patients.values()))


class TestPatientKfold:
    def test_five_patients_five_folds(self):
        pids = patient_ids({f"p{i}": 3 for i in range(5)})
        splits = patient_kfold(pids, k=5, seed=0)
        for train_idx, val_idx in splits:
            assert len(set(pids[val_idx])) == 1

    def test_no_patient_in_both_sides(self):
        pids = patient_ids({f"p{i}": i + 1 for i in range(8)})
        for train_idx, val_idx in patient_kfold(pids, k=3, seed=1):
            assert not set(pids[train_idx]) & set(pids[val_idx])

    def test_validation_folds_partition_everything(self):
        pids = patient_ids({f"p{i}": 2 + i % 3 for i in range(7)})
        splits = patient_kfold(pids, k=4, seed=2)
        seen = np.concatenate([v for _, v in splits])
        assert sorted(seen.tolist()) == list(range(len(pids)))

    def test_train_is_every_record_outside_the_fold(self):
        pids = patient_ids({"a": 3, "b": 3, "c": 3})
        for train_idx, val_idx in patient_kfold(pids, k=3, seed=0):
            assert sorted(np.concatenate([train_idx, val_idx]).tolist()) == list(range(9))

    def test_too_few_patients(self):
        with pytest.raises(DataError):
            patient_kfold(patient_ids({"a": 4, "b": 2}), k=3)

    @pytest.mark.parametrize("k", [1, 0, -2])
    def test_k_below_two_is_config_error(self, k):
        with pytest.raises(ConfigError, match="k >= 2"):
            patient_kfold(patient_ids({f"p{i}": 2 for i in range(4)}), k=k)

    def test_deterministic_for_seed(self):
        pids = patient_ids({f"p{i}": 2 for i in range(9)})
        a = patient_kfold(pids, k=3, seed=7)
        b = patient_kfold(pids, k=3, seed=7)
        assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))


# -- metric suite --------------------------------------------------------------------


from helpers import PUBLISHED_METRIC_ROWS as PUBLISHED_ROWS


class TestMetricFormulas:
    @pytest.mark.parametrize("sp,se,as_,hs,ts", PUBLISHED_ROWS)
    def test_published_rows_within_rounding(self, sp, se, as_, hs, ts):
        got_as, got_hs, got_ts = scores_from_rates(se, sp)
        assert abs(got_as - as_) <= 0.01 + 1e-9
        if hs is not None:
            assert abs(got_hs - hs) <= 0.01 + 1e-9
        if ts is not None:
            assert abs(got_ts - ts) <= 0.01 + 1e-9

    def test_perfect_scores(self):
        assert scores_from_rates(100.0, 100.0) == (100.0, 100.0, 100.0)

    def test_zero_rates_harmonic_guard(self):
        as_, hs, ts = scores_from_rates(0.0, 0.0)
        assert (as_, hs, ts) == (0.0, 0.0, 0.0)

    def test_identities_enforced_at_construction(self):
        with pytest.raises(ValueError):
            MetricReport(50.0, 50.0, 60.0, 50.0, 55.0, np.zeros((2, 2)), 0)

    def test_from_confusion_multiclass(self):
        conf = np.array([
            [8, 1, 1],   # normal: 8/10 correct
            [2, 6, 2],   # class 1: 6/10
            [1, 2, 7],   # class 2: 7/10
        ])
        rep = MetricReport.from_confusion(conf)
        assert rep.sp == pytest.approx(80.0)
        assert rep.se == pytest.approx(100.0 * 13 / 20)

    def test_binary_collapse(self):
        np.testing.assert_array_equal(collapse_to_binary(np.array([0, 1, 2, 3, 0])), [0, 1, 1, 1, 0])


# -- training -------------------------------------------------------------------------


class TestTrain:
    def test_separable_toy_reaches_high_train_as(self):
        corpus = tiny_corpus(n=25, snr=15.0)  # 50 samples, 2 classes
        cfg = tiny_train_cfg(epochs=30, batch_size=16, lr0=2e-3)
        result = train(corpus, tiny_model_cfg(), cfg)
        report = evaluate(result.model, corpus, "multiclass")
        assert report.as_score > 95.0, report.as_score
        assert len(result.history) == 30

    def test_initial_loss_near_random_predictor(self):
        corpus = tiny_corpus(n=25)
        cfg = tiny_train_cfg(epochs=1, lr0=0.0)
        result = train(corpus, tiny_model_cfg(), cfg)
        expected = 2 * math.log(2) / 50  # |C| log|C| / N, w_c = 1/count
        assert result.history[0].loss == pytest.approx(expected, rel=0.20)

    def test_train_inside_an_unrelated_block_matches_outside(self):
        # SPRSound preset at 37x32: block 2 (18x16, 20 tiles) is a Winograd
        # conv, whose weights every step changes in place
        from lungsound.model import PRESETS
        from lungsound.tensor import frozen

        corpus = synth_corpus(SynthSpec(n_classes=2, n_bands=32, n_frames=37, n_per_class=3, seed=3))
        model_cfg = ModelConfig(channels=PRESETS["sprsound"], n_classes=2, n_mel_rows_in=32)
        cfg = tiny_train_cfg(epochs=3, batch_size=2, lr0=1e-2)

        def run():
            result = train(corpus, model_cfg, cfg)
            return result.history, {k: v.tobytes() for k, v in result.model.state_dict().items()}

        outside = run()
        with frozen([Tensor(np.zeros(3, np.float32), requires_grad=True)]):
            inside = run()
        assert inside == outside

    def test_fixed_seed_reproducible_loss_curves(self):
        corpus = tiny_corpus(n=8)
        cfg = tiny_train_cfg(epochs=3, specaugment=True, seed=11)
        h1 = [e.loss for e in train(corpus, tiny_model_cfg(), cfg).history]
        h2 = [e.loss for e in train(corpus, tiny_model_cfg(), cfg).history]
        assert h1 == h2

    def test_specaugment_leaves_the_dataset_untouched(self):
        # SpecAugment masks each batch in place; a batch is a fresh array
        corpus = tiny_corpus(n=8)
        before = corpus.values.tobytes()
        train(corpus, tiny_model_cfg(), tiny_train_cfg(epochs=2, specaugment=True, seed=3))
        assert corpus.values.tobytes() == before

    def test_lr_schedule_endpoints(self):
        corpus = tiny_corpus(n=4)
        cfg = tiny_train_cfg(epochs=4, lr0=1e-3)
        hist = train(corpus, tiny_model_cfg(), cfg).history
        assert hist[0].lr == pytest.approx(1e-3)
        assert hist[-1].lr == pytest.approx(0.0, abs=1e-12)

    def test_empty_dataset_errors(self):
        with pytest.raises(DataError):
            train(tiny_corpus()[:0], tiny_model_cfg(), tiny_train_cfg())

    def test_mask_applied_and_model_shrinks(self):
        # train() takes the clips as given: the caller masks them first
        from lungsound.masks import FrequencyMask, apply_mask

        corpus = tiny_corpus(n=6, bands=12)
        keep = np.ones(12, dtype=bool)
        keep[:4] = False
        masked = apply_mask(corpus, FrequencyMask(keep))
        np.testing.assert_array_equal(masked.clips(), corpus.values[:, :, 4:])
        result = train(masked, tiny_model_cfg(n_bands=masked.n_bands), tiny_train_cfg(epochs=1))
        assert result.model.cfg.n_mel_rows_in == 8
        with pytest.raises(ShapeError):  # a model for the full band count refuses masked clips
            train(masked, tiny_model_cfg(n_bands=12), tiny_train_cfg(epochs=1))


class TestRebuiltFirstMap:
    """A first-block conv output larger than ``IM2COL_BYTES`` is not kept
    for backward: the epilogue rebuilds it and writes its gradient over it.
    The presets cross that size at 249 x 64 in training; these models at
    24 x 24 cross a smaller ``IM2COL_BYTES``, which changes no other
    float: every conv is im2col (block 2 has 9 tiles), whose items keep
    their bytes in any chunk."""

    # the first block pooled, and the one block unpooled
    MODELS = [(32, 8), (32,)]

    @staticmethod
    def run(channels, im2col_bytes=None):
        """History, state_dict bytes and conv forward count of a small train()."""
        import lungsound.tensor as tensor_mod

        corpus = synth_corpus(SynthSpec(n_classes=2, n_bands=24, n_frames=24, n_per_class=8, seed=5))
        cfg = ModelConfig(channels=channels, n_classes=2, n_mel_rows_in=24)
        forwards = []
        real = tensor_mod._conv_forward
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tensor_mod, "_conv_forward", lambda *a: forwards.append(1) or real(*a))
            if im2col_bytes is not None:
                patch.setattr(tensor_mod, "IM2COL_BYTES", im2col_bytes)
            result = train(corpus, cfg, tiny_train_cfg(epochs=2, batch_size=8, lr0=1e-2, specaugment=True))
        state = {k: v.tobytes() for k, v in result.model.state_dict().items()}
        return result.history, state, len(forwards)

    @pytest.mark.parametrize("channels", MODELS, ids=["pooled", "unpooled"])
    def test_same_bytes_as_the_kept_map(self, channels):
        first_map = 8 * channels[0] * 24 * 24 * 4  # bytes of block 1's conv output at B=8
        kept = self.run(channels)
        rebuilt = self.run(channels, im2col_bytes=first_map // 2)
        assert rebuilt[:2] == kept[:2]
        steps = 4  # 16 clips at a batch of 8, two epochs
        assert rebuilt[2] == kept[2] + steps  # one rebuild per step

    def test_a_step_never_holds_the_map_and_its_gradient(self, monkeypatch):
        # B=16, 32 channels at 32 x 32: block 1's conv output is 2 MiB, four
        # times the pooled map. Kept, its backward holds it, a fresh input
        # gradient of its size and the pooled map's gradient (2.25 maps);
        # rebuilt, the map with its gradient written over it (1.25 maps;
        # 2.42 and 1.46 measured). Small im2col chunks and batchnorm blocks
        # keep the scratch apart.
        import tracemalloc

        import lungsound.tensor as tensor_mod

        first_map = 16 * 32 * 32 * 32 * 4
        monkeypatch.setattr(tensor_mod, "IM2COL_BYTES", first_map // 8)
        monkeypatch.setattr(tensor_mod, "EPILOGUE_BYTES", 64 << 10)
        corpus = synth_corpus(SynthSpec(n_classes=2, n_bands=32, n_frames=32, n_per_class=8, seed=5))
        cfg = ModelConfig(channels=(32, 8), n_classes=2, n_mel_rows_in=32)
        train(corpus, cfg, tiny_train_cfg(epochs=1, batch_size=16))  # the modules a first step imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(corpus, cfg, tiny_train_cfg(epochs=1, batch_size=16))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * first_map, peak / first_map


def reachable_graph_nodes(obj, seen=None):
    """Tensors with a recorded backward reachable from obj's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj] if obj._parents or obj._backward is not None else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [t for c in children for t in reachable_graph_nodes(c, seen)]


class TestTrainedModelHoldsNoGraph:
    def test_no_graph_and_no_gradients(self):
        result = train(tiny_corpus(n=8), tiny_model_cfg(), tiny_train_cfg(epochs=2))
        model = result.model
        assert reachable_graph_nodes(result) == []
        assert all(p.grad is None for p in model.params.values())
        assert model.last_conv_activation is None

    def test_evaluate_builds_no_graph(self, monkeypatch):
        from lungsound.model import CnnTsa

        built = []
        original = CnnTsa.forward

        def spy(self, x, training=False):
            out = original(self, x, training)
            built.append(out)
            return out

        monkeypatch.setattr(CnnTsa, "forward", spy)
        evaluate(CnnTsa(tiny_model_cfg(), 0), tiny_corpus(n=4), "multiclass")
        assert built and all(not out.requires_grad and out._parents == () for out in built)


class TestEvaluate:
    def test_degenerate_predictor_zero_se(self):
        corpus = tiny_corpus(n=10)
        cfg = tiny_model_cfg()
        from lungsound.model import CnnTsa

        model = CnnTsa(cfg, seed=0)
        model.params["head.weight"].data[...] = 0.0
        model.params["head.bias"].data[...] = np.array([1.0, 0.0])  # always normal
        report = evaluate(model, corpus, "multiclass")
        assert report.se == 0.0
        assert report.sp == 100.0

    def test_binary_collapse_of_multiclass_model(self):
        corpus = tiny_corpus(n=10, classes=3, bands=12)
        cfg = tiny_model_cfg(n_classes=3)
        result = train(corpus, cfg, tiny_train_cfg(epochs=2))
        report = evaluate(result.model, corpus, "binary")
        assert report.confusion.shape == (2, 2)

    def test_empty_set_errors(self):
        from lungsound.model import CnnTsa

        with pytest.raises(DataError):
            evaluate(CnnTsa(tiny_model_cfg(), 0), tiny_corpus()[:0], "binary")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the scaled conv overflows
    def test_overflowing_model_raises(self):
        from lungsound.model import CnnTsa

        model = CnnTsa(tiny_model_cfg(), seed=0)
        model.params["conv1.weight"].data[...] *= np.float32(1e37)
        with pytest.raises(DivergenceError, match="non-finite logits"):
            evaluate(model, tiny_corpus(n=10), "multiclass")

    def test_label_range_checked_before_any_forward(self, monkeypatch):
        # a binary model on the multiclass task of a 3-class set fails before
        # it runs a batch, not after the whole split
        from lungsound.model import CnnTsa

        calls = []
        original = CnnTsa.forward
        monkeypatch.setattr(CnnTsa, "forward", lambda self, *a, **k: calls.append(1) or original(self, *a, **k))
        corpus = tiny_corpus(n=4, classes=3)
        assert len(corpus) == 12
        with pytest.raises(ConfigError, match="out of range"):
            evaluate(CnnTsa(tiny_model_cfg(n_classes=2), 0), corpus, "multiclass")
        assert calls == []

    def test_report_identities_hold(self):
        corpus = tiny_corpus(n=12)
        result = train(corpus, tiny_model_cfg(), tiny_train_cfg(epochs=2))
        rep = evaluate(result.model, corpus, "multiclass")
        as_, hs, ts = scores_from_rates(rep.se, rep.sp)
        assert rep.as_score == pytest.approx(as_, abs=1e-9)
        assert rep.hs == pytest.approx(hs, abs=1e-9)
        assert rep.ts == pytest.approx(ts, abs=1e-9)

    def test_one_kernel_per_call_and_none_stale(self, monkeypatch):
        # SPRSound preset at 37x32: block 2 (18x16, 20 tiles) is the one
        # Winograd conv; six clips at a batch of 2 are three batches
        import lungsound.tensor as tensor_mod
        from lungsound.model import PRESETS, CnnTsa
        from lungsound.optim import AdamState, adam_step

        cfg = ModelConfig(channels=PRESETS["sprsound"], n_classes=3, n_mel_rows_in=32)
        m = CnnTsa(cfg, seed=1)
        specs = synth_corpus(SynthSpec(n_classes=2, n_bands=32, n_frames=37, n_per_class=3, seed=3))

        def logits(model, batch_size):
            """Every batch's logits of one evaluate() call, in clip order."""
            out, forward = [], model.forward

            def spy(x, training=False):
                res = forward(x, training)
                out.append(res.data)
                return res

            model.forward = spy
            try:
                evaluate(model, specs, "multiclass", batch_size=batch_size)
            finally:
                del model.forward
            return np.concatenate(out)

        whole = logits(m, len(specs))  # one batch
        kernels, real = [], tensor_mod._wino_kernel
        monkeypatch.setattr(tensor_mod, "_wino_kernel", lambda w, *rest: kernels.append(w.shape) or real(w, *rest))
        before = logits(m, 2)
        assert kernels == [(128, 64, 5, 5)]  # the three batches share one U
        assert before.tobytes() == whole.tobytes()
        m.forward(Tensor(specs.clips()[:, None]), training=True).sum().backward()
        adam_step(m.params, m.grads(), AdamState(), lr=1e-2)  # the weights change in place
        after = logits(m, 2)
        fresh = logits(CnnTsa(cfg, state=m.state_dict()), 2)
        assert before.tobytes() != after.tobytes()
        assert after.tobytes() == fresh.tobytes()


# -- age-specific ----------------------------------------------------------------------


def aged_corpus(seed=0):
    corpus = tiny_corpus(seed=seed, n=12)
    corpus.ages[0::2], corpus.ages[1::2] = 8.0, 40.0
    return corpus


class TestAgeSpecific:
    def test_combined_is_mean_of_strata(self):
        corpus = aged_corpus()
        cfg = tiny_train_cfg(epochs=2)
        result = train_age_specific(corpus, tiny_model_cfg(), cfg)
        assert result.combined.se == pytest.approx(
            (result.child_report.se + result.adult_report.se) / 2
        )
        assert result.combined.as_score == pytest.approx(
            (result.child_report.as_score + result.adult_report.as_score) / 2
        )

    def test_all_child_dataset_errors(self):
        corpus = tiny_corpus(n=6)
        corpus.ages[:] = 5.0
        with pytest.raises(DataError, match="adult"):
            train_age_specific(corpus, tiny_model_cfg(), tiny_train_cfg(epochs=1))

    def test_unknown_age_excluded(self):
        from lungsound.train import split_by_age

        corpus = aged_corpus()
        corpus.ages[0] = np.nan
        child, adult = split_by_age(corpus, 18.0)
        assert len(child) + len(adult) == len(corpus) - 1

    def test_combined_example_rule(self):
        # child AS=65, adult AS=57 -> combined AS=61
        child = MetricReport.from_rates(60.0, 70.0)   # AS 65
        adult = MetricReport.from_rates(50.0, 64.0)   # AS 57
        from lungsound.train import combine_reports

        combined = combine_reports(child, adult)
        assert combined.as_score == pytest.approx(61.0)
        assert combined.se == pytest.approx(55.0)


    def test_divergence_aborts_with_epoch(self):
        import warnings

        corpus = tiny_corpus(n=6, bands=8, frames=8)
        cfg = tiny_train_cfg(epochs=4, batch_size=6, lr0=1e30)
        from lungsound.errors import DivergenceError

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                train(corpus, tiny_model_cfg(n_bands=8), cfg)
        assert err.value.epoch == 0


# Peak RSS (VmHWM, MiB) of one ICBHI-preset train() step at the paper's
# batch, B=128 on 249 x 64 input with SpecAugment on, measured on a 2-vCPU
# machine (numpy 2.4.6, OpenBLAS 0.3.31): 1,489 MiB when the step kept
# block 1's conv output for backward and summed a batch of attention
# weight-gradient products at once.
PAPER_STEP_PEAK_MIB = 927

# the high-water RSS of the process that reads it, in KiB; a child's ru_maxrss
# starts at the RSS of the process it was forked from, here the test run's
PEAK_KIB = 'int(open("/proc/self/status").read().split("VmHWM:")[1].split()[0])'


def _run_peaks(code: str) -> list[int]:
    """Run ``code`` in a fresh interpreter; the byte counts it prints (in KiB)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return [int(v) * 1024 for v in out.stdout.split()]


def test_paper_batch_step_memory():
    # the 1.15 margin that fbs.ACTIVATION_COPIES is set with: a change that
    # keeps block 1's conv output for backward again, or brings back a
    # whole-batch temporary of the conv-block epilogue, fails
    import lungsound.fbs as fbs
    from lungsound.model import icbhi_config

    code = f"""
from lungsound.data import SynthSpec, synth_corpus
from lungsound.model import icbhi_config
from lungsound.train import TrainConfig, train
specs = synth_corpus(SynthSpec(n_classes=4, n_bands=64, n_frames=249, n_per_class=32, seed=0))
train(specs, icbhi_config(4), TrainConfig(epochs=1, batch_size=128, seed=0, specaugment=True))
print({PEAK_KIB})
"""
    (peak,) = _run_peaks(code)
    assert peak < 1.15 * PAPER_STEP_PEAK_MIB * 2**20, peak / 2**20
    # the FBS pool's memory rule covers the step it sizes workers for
    specs = synth_corpus(SynthSpec(n_bands=64, n_frames=249, n_per_class=1))
    sweep = fbs._Sweep(specs, [], icbhi_config(4), TrainConfig(batch_size=128), None)
    assert fbs._training_bytes(sweep) > peak


# Peak RSS (MiB) that evaluate() adds over 128 ICBHI-preset clips of 249 x 64
# at EVAL_BATCH, measured as PAPER_STEP_PEAK_MIB is: 637 MiB when every conv
# block's output was built for the whole batch, 221 MiB with each block run
# over chunks of items into whole-batch maps, 72 MiB with each chunk run
# through every block and the head (depth first)
EVALUATE_ADDED_MIB = 72


@functools.cache
def _evaluate_peaks() -> tuple[int, int]:
    """Peak RSS (bytes) before and after evaluate() of 128 ICBHI-preset clips."""
    code = f"""
from lungsound.data import SynthSpec, synth_corpus
from lungsound.model import CnnTsa, icbhi_config
from lungsound.train import evaluate
specs = synth_corpus(SynthSpec(n_classes=4, n_bands=64, n_frames=249, n_per_class=32, seed=0))
model = CnnTsa(icbhi_config(4), seed=0)
print({PEAK_KIB})
evaluate(model, specs, "multiclass")
print({PEAK_KIB})
"""
    before, after = _run_peaks(code)
    return before, after


def test_evaluate_memory_is_bounded():
    # whole-batch pooled maps per block add about 3.1x this, a whole-batch
    # conv output per block, as a graph-building forward builds, about 8.8x
    before, after = _evaluate_peaks()
    assert after - before < 1.3 * EVALUATE_ADDED_MIB * 2**20, (after - before) / 2**20


def test_training_bytes_covers_evaluate_and_small_batch_step():
    import lungsound.fbs as fbs
    from lungsound.model import icbhi_config

    code = f"""
from lungsound.data import SynthSpec, synth_corpus
from lungsound.model import icbhi_config
from lungsound.train import TrainConfig, train
specs = synth_corpus(SynthSpec(n_classes=4, n_bands=64, n_frames=249, n_per_class=8, seed=0))
train(specs, icbhi_config(4), TrainConfig(epochs=1, batch_size=32, seed=0, specaugment=True))
print({PEAK_KIB})
"""
    (step,) = _run_peaks(code)
    _, inference = _evaluate_peaks()
    specs = synth_corpus(SynthSpec(n_bands=64, n_frames=249, n_per_class=1))
    sweep = fbs._Sweep(specs, [], icbhi_config(4), TrainConfig(batch_size=32), None)
    assert fbs._training_bytes(sweep) > max(step, inference), (step / 2**20, inference / 2**20)

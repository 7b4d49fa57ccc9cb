"""Frequency band selection: score arithmetic, elimination rules,
loop structure, and a small planted-band recovery run (the full-size
recovery sweep lives in the acceptance suite)."""

from dataclasses import replace

import numpy as np
import pytest

from lungsound.attribution import AttributionMap
from lungsound.data import SpecSet, SynthSpec, synth_corpus
from lungsound.errors import ConfigError, DataError
from lungsound.fbs import (
    FrequencyMask,
    eliminate_lowest,
    fbs_backward,
    fbs_importance,
    fold_average,
    importance_scores,
    per_class_band_attribution,
)
from lungsound.model import ModelConfig
from lungsound.train import TrainConfig


def amap(values):
    return AttributionMap(np.asarray(values, np.float32), "s", 0, "gradcam")


class TestPerClassBandAttribution:
    def test_single_sample_identity(self):
        vals = np.random.default_rng(0).normal(size=(4, 6)).astype(np.float32)
        out = per_class_band_attribution([amap(vals)])
        np.testing.assert_allclose(out, vals.mean(axis=0), rtol=1e-6)

    def test_two_profiles_average(self):
        a = amap(np.tile([1.0, 0.0], (3, 1)))
        b = amap(np.tile([0.0, 1.0], (3, 1)))
        np.testing.assert_allclose(per_class_band_attribution([a, b]), [0.5, 0.5])

    def test_five_random_vs_hand_mean(self):
        g = np.random.default_rng(1)
        maps = [amap(g.normal(size=(3, 5))) for _ in range(5)]
        hand = np.mean([m.values.mean(axis=0) for m in maps], axis=0)
        np.testing.assert_allclose(per_class_band_attribution(maps), hand, rtol=1e-6)

    def test_empty_names_class_and_fold(self):
        with pytest.raises(DataError, match="class 2.*fold 3"):
            per_class_band_attribution([], class_id=2, fold=3)


class TestFoldAverage:
    def test_single_fold_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(fold_average([v]), v)

    def test_two_folds(self):
        np.testing.assert_allclose(
            fold_average([np.array([2.0, 4.0]), np.array([4.0, 8.0])]), [3.0, 6.0]
        )

    def test_random_vs_oracle(self):
        g = np.random.default_rng(2)
        folds = [g.normal(size=7) for _ in range(4)]
        np.testing.assert_allclose(fold_average(folds), np.stack(folds).mean(axis=0))


class TestImportanceScores:
    def test_two_class_arithmetic(self):
        table = importance_scores([np.array([0.5]), np.array([0.3])], lam=0.5)
        assert table.mean[0] == pytest.approx(0.4)
        assert table.maxdiff[0] == pytest.approx(0.2)
        assert table.score[0] == pytest.approx(0.3)

    def test_identical_classes_score_equals_mean(self):
        v = np.array([0.1, -0.2, 0.3])
        for lam in (0.0, 0.5, 1.0):
            table = importance_scores([v, v, v], lam=lam)
            np.testing.assert_allclose(table.score, v)
            np.testing.assert_allclose(table.maxdiff, 0.0)

    def test_maxdiff_matches_all_pairs_bruteforce(self):
        g = np.random.default_rng(3)
        profiles = [g.normal(size=9) for _ in range(3)]
        table = importance_scores(profiles, lam=1.0)
        brute = np.zeros(9)
        for i in range(3):
            for j in range(i + 1, 3):
                brute = np.maximum(brute, np.abs(profiles[i] - profiles[j]))
        np.testing.assert_allclose(table.maxdiff, brute, rtol=1e-12)

    def test_score_identity_exact(self):
        g = np.random.default_rng(4)
        profiles = [g.normal(size=6) for _ in range(2)]
        table = importance_scores(profiles, lam=0.73)
        np.testing.assert_array_equal(table.score, table.mean - 0.73 * table.maxdiff)

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError):
            importance_scores([np.zeros(3)], lam=1.5)

    def test_single_class_maxdiff_zero(self):
        table = importance_scores([np.array([1.0, 2.0])], lam=1.0)
        np.testing.assert_array_equal(table.maxdiff, [0.0, 0.0])


class TestEliminateLowest:
    def table_for(self, scores, bands=None):
        scores = np.asarray(scores, dtype=float)
        return importance_scores(
            [scores], lam=0.0, band_indices=bands if bands is not None else np.arange(len(scores))
        )

    def test_removes_r_smallest(self):
        mask = FrequencyMask(np.ones(16, dtype=bool))
        table = self.table_for(np.arange(16, dtype=float))
        out = eliminate_lowest(table, mask, r=4, floor=8)
        assert sorted(out.history[-1]) == [0, 1, 2, 3]

    def test_already_removed_never_considered(self):
        mask = FrequencyMask(np.ones(16, dtype=bool)).remove([0, 1])
        table = self.table_for(np.arange(16, dtype=float))
        out = eliminate_lowest(table, mask, r=2, floor=8)
        assert sorted(out.history[-1]) == [2, 3]

    def test_tie_breaks_to_lower_band_index(self):
        mask = FrequencyMask(np.ones(12, dtype=bool))
        scores = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9, 9, 9, 9, 9, 9])
        out = eliminate_lowest(self.table_for(scores), mask, r=4, floor=8)
        assert sorted(out.history[-1]) == [1, 2, 3, 4]

    def test_floor_returns_stop_signal(self):
        mask = FrequencyMask(np.ones(10, dtype=bool))
        table = self.table_for(np.arange(10, dtype=float))
        assert eliminate_lowest(table, mask, r=4, floor=8) is None


def small_setup(seed=0, n_bands=16, planted=(4, 5, 6, 7)):
    corpus = synth_corpus(
        SynthSpec(
            n_classes=2, n_bands=n_bands, n_frames=10, n_per_class=24,
            snr_db=10.0, planted_bands=(planted, planted),
            amp_jitter=(0.05, 2.0), jitter_log=True, seed=seed,
        )
    )
    mcfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=n_bands)
    tcfg = TrainConfig(
        epochs=5, batch_size=16, lr0=1e-2, weight_decay=0.0, seed=seed,
        task="multiclass", specaugment=False,
    )
    return corpus, mcfg, tcfg


@pytest.fixture
def no_training(monkeypatch):
    """Make any CV training fail, so a check that must come first fails fast."""
    import lungsound.fbs as fbs

    def refuse(*args, **kwargs):
        raise AssertionError("trained before refusing the settings")

    monkeypatch.setattr(fbs, "train", refuse)


@pytest.mark.parametrize("method", [fbs_importance, fbs_backward], ids=["importance", "backward"])
@pytest.mark.parametrize("k_folds", [1, 0, -2])
def test_k_folds_below_two_is_config_error_before_training(no_training, method, k_folds):
    corpus, mcfg, tcfg = small_setup()
    with pytest.raises(ConfigError, match=f"k >= 2, got {k_folds}"):
        method(corpus, mcfg, tcfg, k_folds=k_folds, min_bands=8)


class TestFbsImportanceLoop:
    @pytest.mark.parametrize("r", [0, -4])
    def test_r_below_one_is_config_error_before_training(self, no_training, r):
        # r = 0 removes no band, so the loop would retrain the same mask forever
        corpus, mcfg, tcfg = small_setup()
        with pytest.raises(ConfigError, match=f"r must be >= 1 .*, got {r}"):
            fbs_importance(corpus, mcfg, tcfg, r=r, k_folds=2, min_bands=8)

    def test_masks_monotone_and_counter_matches_iterations(self):
        corpus, mcfg, tcfg = small_setup()
        res = fbs_importance(
            corpus, mcfg, tcfg, lam=0.0, r=2, k_folds=2,
            stop_epsilon=float("inf"), min_bands=10,
        )
        assert res.train_runs == len(res.iterations)
        kept_sets = [set(it.kept.tolist()) for it in res.iterations]
        for a, b in zip(kept_sets, kept_sets[1:]):
            assert b < a  # strictly shrinking subsets
        # runs to the floor with stop_epsilon = inf: 16 -> 10 by 2s
        assert res.iterations[-1].n_kept == 10

    def test_stop_epsilon_inf_reaches_floor_and_r4_iteration_bound(self):
        corpus, mcfg, tcfg = small_setup(n_bands=16)
        res = fbs_importance(
            corpus, mcfg, tcfg, lam=0.0, r=4, k_folds=2,
            stop_epsilon=float("inf"), min_bands=8,
        )
        # 16 -> 8 in steps of 4: exactly 3 iterations (the last cannot eliminate)
        assert len(res.iterations) == 3
        assert res.iterations[-1].n_kept == 8

    def test_tables_hold_score_identity(self):
        corpus, mcfg, tcfg = small_setup()
        res = fbs_importance(
            corpus, mcfg, tcfg, lam=0.4, r=4, k_folds=2,
            stop_epsilon=float("inf"), min_bands=8,
        )
        for it in res.iterations:
            if it.table is not None:
                np.testing.assert_array_equal(
                    it.table.score, it.table.mean - 0.4 * it.table.maxdiff
                )

    def test_lambda_zero_equals_pure_mean_ranking(self):
        corpus, mcfg, tcfg = small_setup()
        res = fbs_importance(
            corpus, mcfg, tcfg, lam=0.0, r=4, k_folds=2,
            stop_epsilon=float("inf"), min_bands=12,
        )
        it = res.iterations[0]
        order_by_mean = [
            int(b) for _, b in sorted(zip(it.table.mean, it.table.band_indices))
        ][:4]
        assert sorted(order_by_mean) == sorted(it.removed)

    def test_deterministic(self):
        corpus, mcfg, tcfg = small_setup(seed=1)
        r1 = fbs_importance(corpus, mcfg, tcfg, lam=0.0, r=4, k_folds=2,
                            stop_epsilon=float("inf"), min_bands=12)
        corpus2, _, _ = small_setup(seed=1)
        r2 = fbs_importance(corpus2, mcfg, tcfg, lam=0.0, r=4, k_folds=2,
                            stop_epsilon=float("inf"), min_bands=12)
        np.testing.assert_array_equal(r1.mask.keep, r2.mask.keep)


class TestFbsBackwardLoop:
    def test_candidate_count_is_disjoint_groups(self):
        corpus, mcfg, tcfg = small_setup(n_bands=16)
        res = fbs_backward(
            corpus, mcfg, tcfg, k_folds=2, stop_epsilon=float("inf"), min_bands=12
        )
        # iteration 1: 16 kept -> 4 disjoint groups of 4
        assert len(res.iterations[0].candidate_as) == 4
        assert res.train_runs == sum(len(it.candidate_as) for it in res.iterations)

    def test_deterministic(self):
        corpus, mcfg, tcfg = small_setup(seed=2)
        r1 = fbs_backward(corpus, mcfg, tcfg, k_folds=2,
                          stop_epsilon=float("inf"), min_bands=12)
        corpus2, _, _ = small_setup(seed=2)
        r2 = fbs_backward(corpus2, mcfg, tcfg, k_folds=2,
                          stop_epsilon=float("inf"), min_bands=12)
        np.testing.assert_array_equal(r1.final_mask.keep, r2.final_mask.keep)

    @pytest.mark.parametrize("min_bands", [13, 14, 16])
    def test_no_group_to_remove_is_config_error_before_training(self, no_training, min_bands):
        corpus, mcfg, tcfg = small_setup(n_bands=16)
        with pytest.raises(ConfigError, match=f"min_bands {min_bands}"):
            fbs_backward(corpus, mcfg, tcfg, k_folds=2, min_bands=min_bands)

    def test_small_recovery_avoids_planted_group(self):
        # 16 bands, planted 4..7 aligned to a group: backward should drop
        # noise groups, not the planted one
        corpus, mcfg, tcfg = small_setup(seed=3)
        res = fbs_backward(corpus, mcfg, tcfg, k_folds=2,
                           stop_epsilon=float("inf"), min_bands=8)
        kept = set(res.final_mask.kept_indices.tolist())
        assert res.final_mask.n_kept == 8
        assert len(kept & {4, 5, 6, 7}) >= 3


@pytest.fixture
def scripted(monkeypatch):
    """Replace CV training by a script: the AS of each kept-band tuple, the same
    on every fold, and class profiles that rank the kept bands by index."""
    import lungsound.fbs as fbs

    def set_script(as_by_kept):
        def job(sweep, keep, fold):
            kept = np.flatnonzero(keep)
            return as_by_kept[tuple(kept.tolist())], np.tile(kept.astype(np.float64), (2, 1))

        monkeypatch.setattr(fbs, "_pool_size", lambda sweep, n_jobs: 1)
        monkeypatch.setattr(fbs, "_cv_job", job)

    return set_script


def without(*groups):
    """The kept bands of a 16-band mask without the given aligned groups of 4."""
    return tuple(b for b in range(16) if b // 4 not in groups)


class TestStopRule:
    """A finite stop_epsilon on scripted scores: the stop iteration, the best
    mask against the final one, and the trainings counted."""

    def test_backward(self, scripted):
        scripted({
            without(0): 50.0, without(1): 70.0, without(2): 70.0, without(3): 60.0,
            without(1, 0): 65.0, without(1, 2): 69.6, without(1, 3): 68.0,
            without(1, 2, 0): 60.0, without(1, 2, 3): 69.0,
        })
        corpus, mcfg, tcfg = small_setup(n_bands=16)
        res = fbs_backward(corpus, mcfg, tcfg, k_folds=2, stop_epsilon=0.5, min_bands=4)
        # round 1: the tie between groups 1 and 2 goes to the first; round 2
        # removes group 2 at 69.6, within 0.5 of the best 70 but not above it;
        # round 3's best 69 is below 69.5, so it stops there
        assert [it.removed for it in res.iterations] == [[4, 5, 6, 7], [8, 9, 10, 11], []]
        assert [it.mean_cv_as for it in res.iterations] == [70.0, 69.6, 69.0]
        assert tuple(res.mask.kept_indices.tolist()) == without(1)
        assert tuple(res.final_mask.kept_indices.tolist()) == without(1, 2)
        assert res.train_runs == 9

    def test_importance(self, scripted):
        scripted({tuple(range(16)): 70.0, tuple(range(4, 16)): 70.0, tuple(range(8, 16)): 69.4})
        corpus, mcfg, tcfg = small_setup(n_bands=16)
        res = fbs_importance(corpus, mcfg, tcfg, lam=0.5, r=4, k_folds=2, stop_epsilon=0.5, min_bands=4)
        # 12 bands tie the best 70, which keeps the all-band mask; 8 bands
        # score 69.4, below 69.5, so that iteration stops without scoring bands
        assert [it.removed for it in res.iterations] == [[0, 1, 2, 3], [4, 5, 6, 7], []]
        assert [it.mean_cv_as for it in res.iterations] == [70.0, 70.0, 69.4]
        assert [it.fold_as for it in res.iterations] == [[70.0, 70.0], [70.0, 70.0], [69.4, 69.4]]
        assert res.iterations[-1].table is None
        assert res.mask.n_kept == 16
        assert res.final_mask.kept_indices.tolist() == list(range(8, 16))
        assert res.train_runs == 3

    def test_one_record_shape(self, scripted):
        # fold_as is the picked candidate's; importance scores one candidate
        scripted({tuple(range(16)): 70.0, without(0): 69.0, without(1): 70.0, without(2): 60.0, without(3): 60.0})
        corpus, mcfg, tcfg = small_setup(n_bands=16)
        back = fbs_backward(corpus, mcfg, tcfg, k_folds=2, stop_epsilon=0.5, min_bands=12)
        imp = fbs_importance(corpus, mcfg, tcfg, k_folds=2, stop_epsilon=0.5, min_bands=4)
        assert [(it.candidate_as, it.fold_as) for it in back.iterations] == [([69.0, 70.0, 60.0, 60.0], [70.0, 70.0])]
        assert [(it.candidate_as, it.fold_as) for it in imp.iterations] == [([70.0], [70.0, 70.0]), ([69.0], [69.0, 69.0])]


# -- the job pool ------------------------------------------------------------------------


def sweep_repr(res) -> str:
    """Every mask, score, table and counter of a sweep, floats as repr."""

    def floats(xs):
        return [repr(float(x)) for x in xs]

    lines = [res.mask.bitstring(), res.final_mask.bitstring(), str(res.train_runs)]
    for it in res.iterations:
        lines.append(repr((it.index, it.kept.tolist(), repr(it.mean_cv_as), floats(it.fold_as), it.removed)))
        lines.append(repr(floats(it.candidate_as)))
        t = it.table
        lines.append(repr(t and (t.band_indices.tolist(), floats(t.mean), floats(t.maxdiff), floats(t.score))))
    return "\n".join(lines)


@pytest.fixture
def pool_of(monkeypatch):
    """Set the number of workers every sweep uses; count the pools started."""
    import lungsound.fbs as fbs

    pools = []

    class Counted(fbs.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fbs, "ProcessPoolExecutor", Counted)

    def set_size(n):
        monkeypatch.setattr(fbs, "_pool_size", lambda sweep, n_jobs: n)
        return pools

    return set_size


SWEEPS = {
    "importance": lambda c, m, t: fbs_importance(c, m, t, lam=0.5, r=4, k_folds=3,
                                                 stop_epsilon=float("inf"), min_bands=8),
    "importance-ig": lambda c, m, t: fbs_importance(c, m, t, lam=0.0, r=4, k_folds=2, stop_epsilon=float("inf"),
                                                    min_bands=12, attribution_method="ig"),
    "backward": lambda c, m, t: fbs_backward(c, m, t, k_folds=3, stop_epsilon=float("inf"), min_bands=8),
}


class TestJobPool:
    @pytest.mark.parametrize("method", sorted(SWEEPS))
    def test_one_worker_equals_several(self, pool_of, method):
        import multiprocessing

        corpus, mcfg, tcfg = small_setup(seed=4)
        pools = pool_of(1)
        serial = sweep_repr(SWEEPS[method](corpus, mcfg, tcfg))
        assert pools == []  # one worker: the jobs ran in this process
        pool_of(3)
        pooled = sweep_repr(SWEEPS[method](corpus, mcfg, tcfg))
        assert pools == [3]
        assert multiprocessing.active_children() == []  # the pool is gone with the sweep
        assert pooled == serial

    def test_workers_share_the_blas_threads(self, pool_of, monkeypatch):
        import os

        import lungsound.fbs as fbs

        cpus = len(os.sched_getaffinity(0))
        if cpus < 2:
            pytest.skip("one CPU: no pool of two workers")
        blas = fbs._openblas()
        if blas is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
        get, _ = blas
        own = get()
        # each job reports the BLAS threads of the worker that ran it
        monkeypatch.setattr(fbs, "_cv_job", lambda sweep, keep, fold: get())
        corpus, mcfg, tcfg = small_setup()
        pools = pool_of(2)
        with fbs._Jobs(fbs._Sweep(corpus, [], mcfg, tcfg, None), 4) as jobs:
            threads = jobs.run([(np.ones(16, bool), fold) for fold in range(4)])
        assert pools == [2]
        assert threads == [cpus // 2] * 4 and 2 * max(threads) <= cpus
        assert get() == own  # this process keeps its count

    def test_fork_after_engine_pool_started(self, pool_of, monkeypatch):
        # the parent's engine threads are not forked: a sweep whose workers
        # fork after the parent ran a threaded op finishes, and on two CPUs
        # each worker runs its ops on its one thread
        import os
        import threading

        import lungsound.fbs as fbs
        import lungsound.tensor as tensor

        if tensor._openblas() is None:
            pytest.skip("numpy bundles no OpenBLAS whose threads can be set")
        x = np.random.default_rng(0).normal(size=(4, 64, 62, 16)).astype(np.float32)
        k = np.random.default_rng(1).normal(size=(128, 64, 5, 5)).astype(np.float32)

        def conv():
            return tensor.conv2d(tensor.Tensor(x), tensor.Tensor(k), padding=2).data

        def job(sweep, keep, fold):  # the worker's threads and pool after a large op
            out = conv()
            return threading.active_count(), tensor._POOL[0], out.tobytes() == here.tobytes()

        monkeypatch.setattr(fbs.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(fbs, "_cv_job", job)
        corpus, mcfg, tcfg = small_setup()
        with tensor.thread_budget(2):
            here = conv()
            assert tensor._POOL[0] == 2 and threading.active_count() > 1
            pools = pool_of(2)
            with fbs._Jobs(fbs._Sweep(corpus, [], mcfg, tcfg, None), 4) as jobs:
                ran = jobs.run([(np.ones(16, bool), fold) for fold in range(4)])
            # any other fork starts a pool of its own, of this process's budget
            import multiprocessing

            def check():
                assert job(None, None, 0) == (2, 2, True)

            other = multiprocessing.get_context("fork").Process(target=check)
            other.start()
            other.join(60)
            other.kill()
        assert pools == [2] and ran == [(1, 1, True)] * 4
        assert other.exitcode == 0

    def test_finds_numpy_1_openblas(self, monkeypatch, tmp_path):
        import ctypes
        import types

        import lungsound.fbs as fbs

        # numpy 1.24-1.26 wheels bundle libopenblas64_p-*.so, whose thread
        # functions have no scipy_ prefix
        for d in ("numpy", "numpy.libs"):
            (tmp_path / d).mkdir()
        (tmp_path / "numpy.libs" / "libopenblas64_p-r0-0cf96a72.3.23.dev.so").touch()
        fake = types.SimpleNamespace(
            openblas_get_num_threads64_=lambda: 2, openblas_set_num_threads64_=lambda n: None
        )
        monkeypatch.setattr(fbs.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        monkeypatch.setattr(ctypes, "CDLL", lambda path: fake)
        fbs._openblas.cache_clear()
        try:
            assert fbs._openblas() == (fake.openblas_get_num_threads64_, fake.openblas_set_num_threads64_)
        finally:
            fbs._openblas.cache_clear()

    def test_without_blas_control_jobs_run_here(self, pool_of, monkeypatch):
        import os

        import lungsound.fbs as fbs

        monkeypatch.setattr(fbs, "_openblas", lambda: None)
        monkeypatch.setattr(fbs, "_cv_job", lambda sweep, keep, fold: (os.getpid(), fold))
        corpus, mcfg, tcfg = small_setup()
        pools = pool_of(2)
        with fbs._Jobs(fbs._Sweep(corpus, [], mcfg, tcfg, None), 2) as jobs:
            ran = jobs.run([(np.ones(16, bool), fold) for fold in range(2)])
        assert pools == [] and ran == [(os.getpid(), 0), (os.getpid(), 1)]

    def test_pool_size_rule(self, monkeypatch):
        import lungsound.fbs as fbs
        from lungsound.model import icbhi_config

        corpus, mcfg, tcfg = small_setup()
        sweep = fbs._Sweep(corpus, [], mcfg, tcfg, None)
        monkeypatch.setattr(fbs.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(fbs, "_available_bytes", lambda: 64 << 30)
        assert fbs._pool_size(sweep, 32) == 4  # CPUs
        assert fbs._pool_size(sweep, 2) == 2  # jobs
        # the paper's ICBHI step at B=128 (about 0.97 GB, estimated 1.27 GB)
        # fits five times in 7 GB, four times in 5 GB and twice in 3 GB
        big = replace(sweep, dataset=synth_corpus(SynthSpec(n_bands=64, n_frames=249, n_per_class=1)),
                      model_cfg=icbhi_config(), train_cfg=replace(tcfg, batch_size=128))
        assert 1.15e9 < fbs._training_bytes(big) < 1.4e9
        monkeypatch.setattr(fbs.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(fbs, "_available_bytes", lambda: 7 << 30)
        assert fbs._pool_size(big, 32) == 5
        monkeypatch.setattr(fbs, "_available_bytes", lambda: 5 << 30)
        assert fbs._pool_size(big, 32) == 4
        monkeypatch.setattr(fbs, "_available_bytes", lambda: 3 << 30)
        assert fbs._pool_size(big, 32) == 2
        monkeypatch.setattr(fbs, "_available_bytes", lambda: 1 << 20)
        assert fbs._pool_size(sweep, 32) == 1  # never below one


def test_cv_job_copies_no_clip(monkeypatch):
    """One importance job hands train, evaluate and Grad-CAM sets that share
    the sweep's array, and allocates well under one copy of it."""
    import tracemalloc
    from types import SimpleNamespace

    import lungsound.fbs as fbs

    corpus = synth_corpus(SynthSpec(n_classes=2, n_bands=64, n_frames=64, n_per_class=60, seed=0))
    mcfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=64)
    tcfg = TrainConfig(epochs=1, batch_size=16, seed=0, specaugment=False)
    sweep = fbs._Sweep(corpus, fbs.patient_kfold(corpus.patient_ids, k=2), mcfg, tcfg, "gradcam")
    seen = []

    def record(result):
        def stand_in(*args):
            seen.append(next(a for a in args if isinstance(a, SpecSet)))
            return result(seen[-1])
        return stand_in

    def one_map(specs):
        return [AttributionMap(np.zeros((specs.n_frames, specs.n_bands), np.float32), "s", 0, "gradcam")]

    monkeypatch.setattr(fbs, "train", record(lambda specs: SimpleNamespace(model=None)))
    monkeypatch.setattr(fbs, "evaluate", record(lambda specs: SimpleNamespace(as_score=50.0)))
    monkeypatch.setattr(fbs, "gradcam", record(one_map))
    keep = np.ones(64, dtype=bool)
    keep[[0, 1, 2, 3, 40]] = False
    tracemalloc.start()
    try:
        fold_as, profiles = fbs._cv_job(sweep, keep, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fold_as == 50.0 and profiles.shape == (2, 59)
    assert len(seen) == 4  # train, evaluate and one Grad-CAM set per class
    assert all(s.values is corpus.values and s.n_bands == 59 for s in seen)
    assert peak < 0.05 * corpus.values.nbytes, (peak, corpus.values.nbytes)

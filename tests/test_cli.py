"""CLI end-to-end runs on tiny synthetic data: command wiring, exit
codes, manifests, and byte-determinism of primary outputs."""

import json

import numpy as np
import pytest

from lungsound.cli import main
from test_fbs import no_training  # noqa: F401 (fixture: CV training fails)

SYNTH_ARGS = [
    "preprocess", "--dataset", "synth", "--out", "synth.cache",
    "--synth-classes", "2", "--synth-per-class", "12", "--synth-bands", "16",
    "--synth-frames", "10", "--synth-snr-db", "12", "--seed", "5",
]


def run(workdir, *args):
    return main(["--workdir", str(workdir), *args])


@pytest.fixture
def cache_dir(tmp_path):
    assert run(tmp_path, *SYNTH_ARGS) == 0
    return tmp_path


def train_args(out="run1", extra=()):
    return [
        "train", "--cache", "synth.cache", "--out-dir", out,
        "--task", "multiclass", "--preset", "tiny", "--epochs", "3",
        "--batch-size", "8", "--lr0", "0.01", "--weight-decay", "0",
        "--no-specaugment", "--seed", "3", *extra,
    ]


class TestPreprocess:
    def test_synth_cache_written_with_manifest(self, cache_dir):
        assert (cache_dir / "synth.cache").exists()
        manifest = (cache_dir / "manifests.jsonl").read_text().splitlines()
        assert json.loads(manifest[0])["command"] == "preprocess"

    def test_cache_hit_short_circuits(self, cache_dir, capsys):
        before = (cache_dir / "synth.cache").read_bytes()
        manifest = (cache_dir / "manifests.jsonl").read_text()
        assert run(cache_dir, *SYNTH_ARGS) == 0
        assert "cache hit" in capsys.readouterr().out
        assert (cache_dir / "synth.cache").read_bytes() == before
        assert (cache_dir / "manifests.jsonl").read_text() == manifest  # a hit writes no record

    def test_config_change_invalidates(self, cache_dir):
        args = list(SYNTH_ARGS)
        args[args.index("--synth-snr-db") + 1] = "20"
        before = (cache_dir / "synth.cache").read_bytes()
        assert run(cache_dir, *args) == 0
        assert (cache_dir / "synth.cache").read_bytes() != before

    def test_truncated_cache_is_rebuilt(self, cache_dir, capsys):
        path = cache_dir / "synth.cache"
        good = path.read_bytes()
        path.write_bytes(good[:-50])
        assert run(cache_dir, *SYNTH_ARGS) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert path.read_bytes() == good

    def test_icbhi_preprocess_counts(self, tmp_path):
        from test_data import write_wav

        root = tmp_path / "icbhi"
        root.mkdir()
        stem = "101_1b1_Al_sc_Meditron"
        write_wav(root / f"{stem}.wav", seconds=3.0, rate=8000)
        (root / f"{stem}.txt").write_text("0.0 1.0 0 0\n1.0 2.0 1 0\n2.0 2.9 0 1\n")
        code = run(
            tmp_path, "preprocess", "--dataset", "icbhi", "--data-root", "icbhi",
            "--out", "icbhi.cache", "--target-seconds", "2", "--n-mels", "16",
            "--win", "256", "--hop", "128", "--f-max", "3000",
        )
        assert code == 0
        from lungsound.io import read_spec_cache

        specs, _, _ = read_spec_cache(tmp_path / "icbhi.cache")
        assert len(specs) == 3
        assert [s.label for s in specs] == [0, 1, 2]
        assert specs[0].n_frames == (2 * 16000 - 256) // 128 + 1

    def test_missing_data_root_is_config_error(self, tmp_path):
        assert run(tmp_path, "preprocess", "--dataset", "icbhi", "--out", "x") == 2


class TestTrainEvaluate:
    def test_train_writes_checkpoint_history(self, cache_dir):
        assert run(cache_dir, *train_args()) == 0
        assert (cache_dir / "run1" / "checkpoint.ckpt").exists()
        history = (cache_dir / "run1" / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,loss,train_as"
        assert len(history) == 4  # header + 3 epochs

    def test_train_deterministic_bytes(self, cache_dir):
        assert run(cache_dir, *train_args("runA")) == 0
        assert run(cache_dir, *train_args("runB")) == 0
        a = (cache_dir / "runA" / "checkpoint.ckpt").read_bytes()
        b = (cache_dir / "runB" / "checkpoint.ckpt").read_bytes()
        assert a == b
        assert (cache_dir / "runA" / "history.csv").read_text() == (
            cache_dir / "runB" / "history.csv"
        ).read_text()

    def test_evaluate_report_and_confusion(self, cache_dir):
        run(cache_dir, *train_args())
        code = run(
            cache_dir, "evaluate", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "synth.cache", "--split", "all", "--out-dir", "eval1",
        )
        assert code == 0
        report = json.loads((cache_dir / "eval1" / "report.json").read_text())
        as_ = (report["Se"] + report["Sp"]) / 2
        assert report["AS"] == pytest.approx(as_, abs=1e-9)
        assert (cache_dir / "eval1" / "confusion.csv").exists()

    def test_evaluate_hash_mismatch_refused(self, cache_dir):
        run(cache_dir, *train_args())
        args = list(SYNTH_ARGS)
        args[args.index("--out") + 1] = "other.cache"
        args[args.index("--synth-snr-db") + 1] = "30"
        run(cache_dir, *args)
        code = run(
            cache_dir, "evaluate", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "other.cache", "--split", "all", "--out-dir", "eval2",
        )
        assert code == 2  # config error

    def test_truncated_checkpoint_exits_3(self, cache_dir, capsys):
        run(cache_dir, *train_args())
        ckpt = cache_dir / "run1" / "checkpoint.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-50])
        capsys.readouterr()
        code = run(
            cache_dir, "evaluate", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "synth.cache", "--split", "all", "--out-dir", "eval3",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_train_split_lacking_top_class_evaluates(self, tmp_path):
        # the class count comes from the cache header, not from the labels
        # of the split being trained on
        from lungsound.io import read_spec_cache, write_spec_cache

        args = list(SYNTH_ARGS)
        args[args.index("--synth-classes") + 1] = "3"
        assert run(tmp_path, *args) == 0
        specs, preproc, _ = read_spec_cache(tmp_path / "synth.cache")
        odd = np.arange(len(specs)) % 2 == 1
        specs.splits[:] = np.where((specs.labels == 2) | odd, "official_test", "official_train")
        write_spec_cache(tmp_path / "synth.cache", specs, preproc)
        code = run(
            tmp_path, "train", "--cache", "synth.cache", "--out-dir", "run1",
            "--split", "official_train", "--task", "multiclass", "--preset", "tiny",
            "--epochs", "2", "--batch-size", "8", "--no-specaugment",
        )
        assert code == 0
        code = run(
            tmp_path, "evaluate", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "synth.cache", "--split", "official_test", "--out-dir", "eval1",
        )
        assert code == 0
        report = json.loads((tmp_path / "eval1" / "report.json").read_text())
        assert len(report["confusion"]) == 3

    def test_age_specific_training(self, tmp_path):
        # synth corpus has no ages: build a cache with ages injected
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.io import write_spec_cache

        corpus = synth_corpus(
            SynthSpec(n_classes=2, n_bands=16, n_frames=10, n_per_class=10, snr_db=15.0, seed=0)
        )
        corpus.ages[0::2], corpus.ages[1::2] = 6.0, 35.0
        write_spec_cache(tmp_path / "aged.cache", corpus, {"synthetic": True})
        code = run(
            tmp_path, "train", "--cache", "aged.cache", "--out-dir", "age_run",
            "--task", "multiclass", "--preset", "tiny", "--epochs", "2",
            "--batch-size", "8", "--no-specaugment", "--age-specific",
        )
        assert code == 0
        assert (tmp_path / "age_run" / "checkpoint_child.ckpt").exists()
        assert (tmp_path / "age_run" / "checkpoint_adult.ckpt").exists()
        combined = json.loads((tmp_path / "age_run" / "report_combined.json").read_text())
        assert 0 <= combined["AS"] <= 100

    def test_age_specific_manifest_records_the_stratum_batch_size(self, tmp_path):
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.io import write_spec_cache

        corpus = synth_corpus(
            SynthSpec(n_classes=2, n_bands=16, n_frames=10, n_per_class=10, snr_db=15.0, seed=0)
        )
        corpus.ages[0::2], corpus.ages[1::2] = 6.0, 35.0
        write_spec_cache(tmp_path / "aged.cache", corpus, {"synthetic": True})
        common = ["train", "--cache", "aged.cache", "--preset", "tiny", "--epochs", "2", "--age-specific"]
        assert run(tmp_path, *common, "--out-dir", "b8", "--batch-size", "8") == 0
        assert run(tmp_path, *common, "--out-dir", "default") == 0
        manifest = [json.loads(l) for l in (tmp_path / "manifests.jsonl").read_text().splitlines()]
        assert [m["config"]["train"]["batch_size"] for m in manifest] == [64, 64]
        for tag in ("child", "adult"):
            name = f"checkpoint_{tag}.ckpt"
            assert (tmp_path / "b8" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()

    def test_age_specific_training_under_a_mask_matches_the_library(self, tmp_path):
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.io import load_checkpoint, write_mask_file, write_spec_cache
        from lungsound.masks import FrequencyMask, apply_mask
        from lungsound.model import ModelConfig
        from lungsound.train import TrainConfig, train_age_specific

        corpus = synth_corpus(
            SynthSpec(n_classes=2, n_bands=16, n_frames=10, n_per_class=10, snr_db=15.0, seed=0)
        )
        corpus.ages[0::2], corpus.ages[1::2] = 6.0, 35.0
        write_spec_cache(tmp_path / "aged.cache", corpus, {"synthetic": True})
        mask = FrequencyMask(np.arange(16) % 4 != 0)
        write_mask_file(tmp_path / "mask.txt", mask)
        code = run(
            tmp_path, "train", "--cache", "aged.cache", "--out-dir", "age_run", "--preset", "tiny",
            "--epochs", "2", "--no-specaugment", "--age-specific", "--age-split", "10", "--mask", "mask.txt",
        )
        assert code == 0
        expected = train_age_specific(
            apply_mask(corpus, mask),
            ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=12),
            TrainConfig(epochs=2, age_split=10.0, specaugment=False),
        )
        for tag, res in (("child", expected.child), ("adult", expected.adult)):
            state, cfg, meta = load_checkpoint(tmp_path / "age_run" / f"checkpoint_{tag}.ckpt")
            assert cfg["n_mel_rows_in"] == 12
            assert (meta["mask"], meta["age_stratum"], meta["age_split"]) == (mask.bitstring(), tag, 10.0)
            assert sorted(state) == sorted(res.model.state_dict())
            for name, value in res.model.state_dict().items():
                np.testing.assert_array_equal(state[name], value, err_msg=f"{tag} {name}")
        code = run(
            tmp_path, "evaluate", "--checkpoint", "age_run/checkpoint_adult.ckpt",
            "--cache", "aged.cache", "--split", "all", "--out-dir", "ev",
        )
        assert code == 0
        assert json.loads((tmp_path / "ev" / "report.json").read_text())["n_eval"] == 10


def write_checkpoint(path, n_bands, meta, nan=False, overflow=False, channels=(8,)):
    """An untrained checkpoint (tiny preset by default) without a data_config_hash.

    ``overflow`` scales the conv weights so that the finite checkpoint's
    forward pass overflows to inf and NaN.
    """
    from dataclasses import asdict

    from lungsound.io import save_checkpoint
    from lungsound.model import CnnTsa, ModelConfig

    cfg = ModelConfig(channels=channels, n_classes=2, n_mel_rows_in=n_bands)
    state = CnnTsa(cfg, seed=0).state_dict()
    if nan:
        state["head.bias"] = np.array([0.0, np.nan], np.float32)
    if overflow:
        state["conv1.weight"] *= np.float32(1e37)
    save_checkpoint(path, state, asdict(cfg), {"task": "multiclass", **meta})


READERS = {
    "evaluate": ["evaluate", "--checkpoint", "m.ckpt", "--cache", "synth.cache",
                 "--split", "all", "--out-dir", "ev"],
    "attribute": ["attribute", "--checkpoint", "m.ckpt", "--cache", "synth.cache",
                  "--class-id", "0", "--first", "2", "--out-dir", "at"],
}


class TestCheckpointAgainstCache:
    """Checkpoints without a data_config_hash skip the hash guard; their
    band count and mask length are still checked against the cache."""

    @pytest.mark.parametrize("command", sorted(READERS))
    @pytest.mark.parametrize("n_bands,mask", [(12, None), (12, "1" * 12), (12, "1" * 20)],
                             ids=["model-bands", "mask-length", "mask-longer"])
    def test_mismatch_exits_2(self, cache_dir, capsys, command, n_bands, mask):
        write_checkpoint(cache_dir / "m.ckpt", n_bands, {"mask": mask})
        capsys.readouterr()
        assert run(cache_dir, *READERS[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(READERS))
    def test_matching_mask_runs(self, cache_dir, command):
        write_checkpoint(cache_dir / "m.ckpt", 12, {"mask": "0000" + "1" * 12})
        assert run(cache_dir, *READERS[command]) == 0

    @pytest.mark.parametrize("command", sorted(READERS))
    def test_nan_weight_exits_3(self, cache_dir, capsys, command):
        write_checkpoint(cache_dir / "m.ckpt", 16, {}, nan=True)
        capsys.readouterr()
        assert run(cache_dir, *READERS[command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "non-finite" in err and err.count("\n") == 1

    def test_unknown_tensor_exits_3(self, cache_dir, capsys):
        from dataclasses import asdict

        from lungsound.io import save_checkpoint
        from lungsound.model import CnnTsa, ModelConfig

        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=16)
        state = CnnTsa(cfg, seed=0).state_dict() | {"extra.weight": np.zeros(3, np.float32)}
        save_checkpoint(cache_dir / "m.ckpt", state, asdict(cfg), {"task": "multiclass"})
        capsys.readouterr()
        assert run(cache_dir, *READERS["evaluate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "extra.weight" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(READERS))
    @pytest.mark.parametrize("name", ["head.weight", "bn1.running_mean"])
    def test_missing_tensor_exits_3(self, cache_dir, capsys, command, name):
        # a model built with a random init would fill the gap and score, exit 0
        from dataclasses import asdict

        from lungsound.io import save_checkpoint
        from lungsound.model import CnnTsa, ModelConfig

        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=16)
        state = CnnTsa(cfg, seed=0).state_dict()
        del state[name]
        save_checkpoint(cache_dir / "m.ckpt", state, asdict(cfg), {"task": "multiclass"})
        capsys.readouterr()
        assert run(cache_dir, *READERS[command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"lacks tensor {name}" in err and err.count("\n") == 1

    def test_null_label_cache(self, cache_dir):
        # attribution needs no labels; training and scoring do
        from lungsound.io import read_spec_cache, write_spec_cache

        specs, preproc, _ = read_spec_cache(cache_dir / "synth.cache")
        specs.labels[3] = -1
        write_spec_cache(cache_dir / "synth.cache", specs, preproc)
        write_checkpoint(cache_dir / "m.ckpt", 16, {})
        assert run(cache_dir, *READERS["attribute"], "--samples", specs.clip_ids[3]) == 0
        assert run(cache_dir, *READERS["evaluate"]) == 3
        assert run(cache_dir, *train_args()) == 3

    @pytest.mark.parametrize("args", [
        [*READERS["evaluate"][:2], "nope.ckpt", *READERS["evaluate"][3:]],
        ["evaluate", "--checkpoint", "m.ckpt", "--cache", "nope.cache", "--out-dir", "ev"],
        ["flops", "--out", "f.csv", "--mask", "nope.txt"],
    ], ids=["checkpoint", "cache", "mask"])
    def test_missing_file_exits_3(self, cache_dir, capsys, args):
        write_checkpoint(cache_dir / "m.ckpt", 16, {})
        capsys.readouterr()
        assert run(cache_dir, *args) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "cannot read" in err and err.count("\n") == 1

    def test_train_mask_of_other_length_exits_2(self, cache_dir):
        from lungsound.io import write_mask_file
        from lungsound.masks import FrequencyMask

        write_mask_file(cache_dir / "m12.txt", FrequencyMask.full(12))
        assert run(cache_dir, *train_args(extra=("--mask", "m12.txt"))) == 2


class TestOneCheckpointPath:
    """evaluate and attribute share the hash guard, the age stratum and
    the numerical checks."""

    def test_attribute_hash_mismatch_exits_2(self, cache_dir, capsys):
        # evaluate's case is TestTrainEvaluate::test_evaluate_hash_mismatch_refused
        assert run(cache_dir, *train_args()) == 0
        args = list(SYNTH_ARGS)
        args[args.index("--out") + 1] = "other.cache"
        args[args.index("--synth-snr-db") + 1] = "30"
        assert run(cache_dir, *args) == 0
        capsys.readouterr()
        code = run(
            cache_dir, "attribute", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "other.cache", "--class-id", "0", "--out-dir", "at",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "cache config" in err and err.count("\n") == 1

    @pytest.fixture
    def age_run(self, tmp_path):
        """A cache whose even clips are children and odd clips adults, and
        the two age-specific checkpoints trained on it."""
        from lungsound.data import SynthSpec, synth_corpus
        from lungsound.io import write_spec_cache

        corpus = synth_corpus(
            SynthSpec(n_classes=2, n_bands=16, n_frames=10, n_per_class=10, snr_db=15.0, seed=0)
        )
        corpus.ages[0::2], corpus.ages[1::2] = 6.0, 35.0
        write_spec_cache(tmp_path / "aged.cache", corpus, {"synthetic": True})
        code = run(
            tmp_path, "train", "--cache", "aged.cache", "--out-dir", "age_run",
            "--task", "multiclass", "--preset", "tiny", "--epochs", "1",
            "--batch-size", "8", "--no-specaugment", "--age-specific",
        )
        assert code == 0
        return tmp_path, corpus

    def test_child_checkpoint_attributes_child_clips(self, age_run):
        from lungsound.io import load_checkpoint

        root, corpus = age_run
        code = run(
            root, "attribute", "--checkpoint", "age_run/checkpoint_child.ckpt",
            "--cache", "aged.cache", "--class-id", "1", "--first", "3", "--out-dir", "at",
        )
        assert code == 0
        maps, _, _ = load_checkpoint(root / "at" / "attributions.ckpt")
        assert sorted(maps) == sorted(corpus.clip_ids[0::2][:3])

    def test_samples_outside_stratum_exit_3(self, age_run, capsys):
        root, corpus = age_run
        capsys.readouterr()
        code = run(
            root, "attribute", "--checkpoint", "age_run/checkpoint_child.ckpt",
            "--cache", "aged.cache", "--class-id", "1", "--out-dir", "at",
            "--samples", f"{corpus.clip_ids[0]},{corpus.clip_ids[1]}",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "child" in err and corpus.clip_ids[1] in err
        assert corpus.clip_ids[0] not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the scaled conv overflows
    @pytest.mark.parametrize("command,extra,output", [
        ("evaluate", (), "report.json"),
        ("attribute", ("--method", "gradcam"), "attributions.ckpt"),
        ("attribute", ("--method", "ig", "--ig-steps", "4"), "attributions.ckpt"),
    ], ids=["evaluate", "gradcam", "ig"])
    def test_overflowing_checkpoint_exits_4(self, cache_dir, capsys, command, extra, output):
        write_checkpoint(cache_dir / "m.ckpt", 16, {}, overflow=True)
        capsys.readouterr()
        assert run(cache_dir, *READERS[command], *extra) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical abort:") and "non-finite" in err and err.count("\n") == 1
        out_dir = READERS[command][READERS[command].index("--out-dir") + 1]
        assert not (cache_dir / out_dir / output).exists()


class TestFbsCommand:
    def test_importance_emits_mask_tables_curves(self, cache_dir):
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "fbs1",
            "--method", "importance", "--fbs-lambda", "0", "--r", "4",
            "--k-folds", "2", "--stop-epsilon", "inf", "--min-bands", "8",
            "--preset", "tiny", "--epochs", "3", "--batch-size", "8",
            "--no-specaugment", "--seed", "1",
        )
        assert code == 0
        out = cache_dir / "fbs1"
        assert (out / "mask.txt").exists()
        assert (out / "iterations.csv").exists()
        assert (out / "retention_curve.csv").exists()
        assert (out / "retention_curve.svg").exists()
        assert (out / "importance_iter00.csv").exists()
        from lungsound.io import read_mask_file

        mask, _ = read_mask_file(out / "mask.txt")
        assert mask.n_bands == 16

    def test_mask_feeds_train(self, cache_dir):
        run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "fbs2",
            "--method", "importance", "--fbs-lambda", "0", "--r", "4",
            "--k-folds", "2", "--stop-epsilon", "inf", "--min-bands", "12",
            "--preset", "tiny", "--epochs", "2", "--batch-size", "8",
            "--no-specaugment",
        )
        code = run(cache_dir, *train_args("masked_run", extra=("--mask", "fbs2/mask.txt")))
        assert code == 0

    def test_backward_method_runs(self, cache_dir):
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "fbs3",
            "--method", "backward", "--k-folds", "2", "--stop-epsilon", "inf",
            "--min-bands", "12", "--preset", "tiny", "--epochs", "2",
            "--batch-size", "8", "--no-specaugment",
        )
        assert code == 0
        assert (cache_dir / "fbs3" / "mask.txt").exists()

    def test_backward_without_a_removable_group_exits_2(self, cache_dir, capsys):
        capsys.readouterr()
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "fbs4",
            "--method", "backward", "--preset", "tiny", "--epochs", "1",
            "--k-folds", "2", "--min-bands", "14",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "min_bands 14" in err and err.count("\n") == 1
        assert not (cache_dir / "fbs4").exists()

    def test_cache_with_unknown_patients_exits_3(self, cache_dir, capsys, no_training):
        # a clip of unknown patient cannot go to a patient-wise fold
        from lungsound.io import read_spec_cache, write_spec_cache

        specs, preproc, _ = read_spec_cache(cache_dir / "synth.cache")
        specs.patient_ids[3] = None
        write_spec_cache(cache_dir / "synth.cache", specs, preproc)
        capsys.readouterr()
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "fbs6",
            "--method", "importance", "--preset", "tiny", "--epochs", "1",
            "--k-folds", "2", "--min-bands", "8",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "has no patient id" in err and err.count("\n") == 1

    @pytest.mark.parametrize("extra,match", [
        (("--r", "0"), "r must be >= 1"),
        (("--r", "-4"), "r must be >= 1"),
        (("--k-folds", "0"), "k >= 2"),
        (("--k-folds", "-2"), "k >= 2"),
        (("--k-folds", "1"), "k >= 2"),
    ], ids=["r0", "r-4", "k0", "k-2", "k1"])
    def test_bad_r_or_k_folds_exits_2_before_training(self, cache_dir, capsys, no_training, extra, match):
        # no_training: unchecked, --r 0 would retrain the same mask forever
        capsys.readouterr()
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "fbs5",
            "--method", "importance", "--preset", "tiny", "--epochs", "1",
            "--k-folds", "2", "--min-bands", "8", *extra,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and match in err and err.count("\n") == 1


FBS_SMALL = [
    "fbs", "--cache", "synth.cache", "--out-dir", "fbs7", "--method", "importance",
    "--fbs-lambda", "0", "--r", "4", "--k-folds", "2", "--stop-epsilon", "inf",
    "--min-bands", "8", "--preset", "tiny", "--epochs", "2", "--batch-size", "8",
    "--no-specaugment", "--seed", "1",
]


def fbs_small(method):
    """FBS_SMALL under ``method``; backward selection takes no --fbs-lambda or --r."""
    args = [a if a != "importance" else method for a in FBS_SMALL]
    if method == "backward":
        for flag in ("--fbs-lambda", "--r"):
            i = args.index(flag)
            del args[i : i + 2]
    return args


def fold_seed(seed, fold):
    from lungsound.seeding import rng_for

    return int(rng_for(seed, "fbs-train", fold).integers(2**31))


class TestFbsWorkers:
    """``fbs`` on a pool of worker processes ends as a serial run does."""

    @pytest.mark.parametrize("error", ["DataError", "DivergenceError"])
    @pytest.mark.parametrize("method", ["importance", "backward"])
    def test_job_error_in_a_worker_exits_as_serial(self, cache_dir, capsys, monkeypatch, error, method):
        import lungsound.errors as errors
        import lungsound.fbs as fbs

        real = fbs.train

        def failing(dataset, model_cfg, train_cfg):
            if train_cfg.seed == fold_seed(1, 1) and model_cfg.n_mel_rows_in == 12:
                raise getattr(errors, error)("planted failure")
            return real(dataset, model_cfg, train_cfg)

        monkeypatch.setattr(fbs, "train", failing)
        args = fbs_small(method)
        ends = []
        for n in (1, 2):
            monkeypatch.setattr(fbs, "_pool_size", lambda sweep, n_jobs, n=n: n)
            capsys.readouterr()
            ends.append((run(cache_dir, *args), capsys.readouterr().err))
        code = {"DataError": 3, "DivergenceError": 4}[error]
        assert ends[0] == ends[1]
        assert ends[0][0] == code and ends[0][1].count("\n") == 1 and "planted failure" in ends[0][1]

    def test_killed_worker_exits_with_one_line_naming_the_job(self, cache_dir):
        import os
        import subprocess
        import sys
        from pathlib import Path

        # a worker that trains fold 1 of the 12-band candidate without bands 0-3 kills itself
        script = f"""
import os, signal, sys
import lungsound.fbs as fbs
from lungsound.cli import main
real, parent = fbs.train, os.getpid()
def train(dataset, model_cfg, train_cfg):
    if os.getpid() != parent and train_cfg.seed == {fold_seed(1, 1)} and dataset.n_bands == 12:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(dataset, model_cfg, train_cfg)
fbs.train = train
fbs._pool_size = lambda sweep, n_jobs: 2
sys.exit(main(["--workdir", sys.argv[1], *sys.argv[2:]]))
"""
        args = fbs_small("backward")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(cache_dir), *args],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 5, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("worker error: worker process ")
        assert f"killed by SIGKILL while running job (mask 0000{'1' * 12}, fold 1)" in proc.stderr


def test_numpy_warnings_stay_off_stderr(cache_dir):
    """A diverging run ends in exit 4 and its one error line; numpy's
    overflow warnings on the way there are not printed."""
    import subprocess
    import sys
    from pathlib import Path

    script = "import sys; from lungsound.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script, "--workdir", str(cache_dir), *train_args("big", ["--lr0", "1e30"])],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("numerical abort: "), proc.stderr


def test_import_starts_no_process():
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import multiprocessing, threading, lungsound, lungsound.cli; "
        "print(len(multiprocessing.active_children()), threading.active_count())"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "1"], out.stderr


class TestAttributeCommand:
    def test_gradcam_dumps_and_svg(self, cache_dir):
        run(cache_dir, *train_args())
        code = run(
            cache_dir, "attribute", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "synth.cache", "--method", "gradcam", "--class-id", "1",
            "--first", "3", "--svg", "--out-dir", "attr1",
        )
        assert code == 0
        out = cache_dir / "attr1"
        assert (out / "attributions.ckpt").exists()
        assert (out / "band_profiles.csv").exists()
        svgs = sorted(out.glob("attr_*.svg"))
        assert len(svgs) == 3
        # SVG canvas is T*cell x F*cell
        text = svgs[0].read_text()
        assert 'width="30"' in text and 'height="48"' in text  # T=10,F=16,cell=3

    def test_ig_completeness_printed(self, cache_dir, capsys):
        run(cache_dir, *train_args())
        code = run(
            cache_dir, "attribute", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "synth.cache", "--method", "ig", "--class-id", "0",
            "--first", "1", "--ig-steps", "100", "--out-dir", "attr2",
        )
        assert code == 0
        assert "completeness" in capsys.readouterr().out


class TestFlopsCommand:
    def test_breakdown_and_mask_ratio(self, tmp_path):
        from lungsound.io import write_mask_file
        from lungsound.masks import FrequencyMask

        keep = np.zeros(64, dtype=bool)
        keep[:32] = True
        write_mask_file(tmp_path / "half.txt", FrequencyMask(keep), "")
        code = run(
            tmp_path, "flops", "--out", "flops.csv", "--preset", "icbhi",
            "--mask", "half.txt", "--n-frames", "249",
        )
        assert code == 0
        rows = (tmp_path / "flops.csv").read_text().splitlines()
        assert rows[0] == "layer,flops"
        total = int(next(r.split(",")[1] for r in rows if r.startswith("total,")))
        masked = int(next(r.split(",")[1] for r in rows if r.startswith("total_masked,")))
        assert 0.49 <= masked / total <= 0.51

    @pytest.mark.parametrize("body", [
        "origin full\nkeep 1111\n", "bands 4\norigin full\n", "bands four\nkeep 1111\n",
    ])
    def test_bad_mask_file_exits_3(self, tmp_path, capsys, body):
        (tmp_path / "bad.txt").write_text("lungsound-mask v1\n" + body)
        code = run(tmp_path, "flops", "--out", "f.csv", "--preset", "tiny", "--mask", "bad.txt")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_no_mask_ratio_is_one(self, tmp_path, capsys):
        assert run(tmp_path, "flops", "--out", "f.csv", "--preset", "sprsound") == 0
        assert "total FLOPs" in capsys.readouterr().out


class TestConfigFileAndDeterminism:
    def test_config_file_fills_defaults_flags_win(self, cache_dir):
        (cache_dir / "cfg.json").write_text(json.dumps({"epochs": 2, "seed": 9}))
        code = run(
            cache_dir, "train", "--cache", "synth.cache", "--out-dir", "cfg_run",
            "--task", "multiclass", "--preset", "tiny", "--batch-size", "8",
            "--no-specaugment", "--config", "cfg.json", "--seed", "3",
        )
        assert code == 0
        history = (cache_dir / "cfg_run" / "history.csv").read_text().splitlines()
        assert len(history) == 3  # config epochs=2 applied
        manifest = [json.loads(l) for l in (cache_dir / "manifests.jsonl").read_text().splitlines()]
        assert manifest[-1]["config"]["train"]["seed"] == 3  # explicit flag wins

    def test_config_values_are_converted_like_flags(self, cache_dir):
        (cache_dir / "cfg.json").write_text(json.dumps({"epochs": "3"}))
        code = run(
            cache_dir, "train", "--cache", "synth.cache", "--out-dir", "str_run",
            "--preset", "tiny", "--batch-size", "8", "--config", "cfg.json",
        )
        assert code == 0
        history = (cache_dir / "str_run" / "history.csv").read_text().splitlines()
        assert len(history) == 4  # header + the 3 epochs of "3"

    def test_alias_flag_wins_over_config_dest(self, cache_dir, capsys):
        (cache_dir / "cfg.json").write_text(json.dumps({"fbs_lambda": 0.9}))
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "alias",
            "--method", "importance", "--lambda", "0.1", "--k-folds", "2",
            "--stop-epsilon", "inf", "--min-bands", "12", "--preset", "tiny",
            "--epochs", "1", "--batch-size", "8", "--no-specaugment", "--config", "cfg.json",
        )
        assert code == 0
        assert "lambda=0.1:" in capsys.readouterr().out

    @pytest.mark.parametrize("args, body, unwritten", [
        (("fbs", "--cache", "synth.cache", "--out-dir", "shap", "--method", "importance",
          "--preset", "tiny", "--epochs", "1", "--k-folds", "2"), {"attribution": "shap"}, "shap"),
        (SYNTH_ARGS[:4] + ["bogus.cache"] + SYNTH_ARGS[5:], {"pad_mode": "bogus"}, "bogus.cache"),
        (train_args("list"), {"age_split": [10]}, "list"),
        (train_args("chan"), {"channels": "abc"}, "chan"),
        (("fbs", "--cache", "synth.cache", "--out-dir", "sweep", "--method", "importance",
          "--preset", "tiny", "--epochs", "1", "--k-folds", "2"), {"lambda_sweep": "0.1,x"}, "sweep"),
    ])
    def test_bad_config_value_exits_2_before_any_work(self, cache_dir, capsys, args, body, unwritten):
        (cache_dir / "cfg.json").write_text(json.dumps(body))
        with pytest.raises(SystemExit) as exc:
            run(cache_dir, *args, "--config", "cfg.json")
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
        assert not (cache_dir / unwritten).exists()

    @pytest.mark.parametrize("args, unwritten", [
        (train_args("chan", extra=("--channels", "abc")), "chan"),
        (("fbs", "--cache", "synth.cache", "--out-dir", "sweep", "--method", "importance",
          "--lambda-sweep", "0.1,x", "--preset", "tiny", "--epochs", "1", "--k-folds", "2"), "sweep"),
    ], ids=["channels", "lambda-sweep"])
    def test_bad_comma_list_flag_is_usage_error(self, cache_dir, capsys, args, unwritten):
        with pytest.raises(SystemExit) as exc:
            run(cache_dir, *args)
        assert exc.value.code == 2
        assert "invalid comma-separated" in capsys.readouterr().err
        assert not (cache_dir / unwritten).exists()

    def test_comma_lists_parse(self, cache_dir, capsys):
        assert run(cache_dir, *train_args("chan", extra=("--channels", "4,8"))) == 0
        manifest = [json.loads(l) for l in (cache_dir / "manifests.jsonl").read_text().splitlines()]
        assert manifest[-1]["config"]["model"]["channels"] == [4, 8]
        code = run(
            cache_dir, "fbs", "--cache", "synth.cache", "--out-dir", "sweep", "--method", "importance",
            "--lambda-sweep", "0,1", "--preset", "tiny", "--epochs", "1", "--k-folds", "2",
            "--min-bands", "12", "--stop-epsilon", "inf", "--no-specaugment",
        )
        assert code == 0
        assert "lambda=0:" in capsys.readouterr().out
        assert (cache_dir / "sweep" / "lambda_sweep.csv").read_text().splitlines()[0] == "lambda,best_cv_as"

    @pytest.mark.parametrize("body", [{"no_specaugment": "yes"}, {"help": True}, [1, 2]])
    def test_malformed_config_value_is_config_error(self, cache_dir, capsys, body):
        (cache_dir / "cfg.json").write_text(json.dumps(body))
        capsys.readouterr()
        assert run(cache_dir, *train_args("x"), "--config", "cfg.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_unknown_config_key_rejected(self, cache_dir):
        (cache_dir / "bad.json").write_text(json.dumps({"nonsense": 1}))
        code = run(
            cache_dir, "train", "--cache", "synth.cache", "--out-dir", "x",
            "--preset", "tiny", "--config", "bad.json",
        )
        assert code == 2

    def test_fbs_outputs_byte_identical(self, cache_dir):
        args = [
            "fbs", "--cache", "synth.cache", "--method", "importance",
            "--fbs-lambda", "0", "--r", "4", "--k-folds", "2",
            "--stop-epsilon", "inf", "--min-bands", "12", "--preset", "tiny",
            "--epochs", "2", "--batch-size", "8", "--no-specaugment", "--seed", "4",
        ]
        assert run(cache_dir, *args, "--out-dir", "detA") == 0
        assert run(cache_dir, *args, "--out-dir", "detB") == 0
        for name in ("mask.txt", "iterations.csv", "retention_curve.csv", "retention_curve.svg"):
            assert (cache_dir / "detA" / name).read_bytes() == (
                cache_dir / "detB" / name
            ).read_bytes(), name


class TestAttributeBatching:
    def test_attribute_matches_per_sample_reference(self, cache_dir):
        """17 clips: one full chunk of 16 and one of 1, against per-sample Grad-CAM."""
        from test_attribution import assert_close_to, reference_gradcam

        from lungsound.cli import _load_model
        from lungsound.io import load_checkpoint, read_spec_cache

        run(cache_dir, *train_args())
        assert run(cache_dir, "attribute", "--checkpoint", "run1/checkpoint.ckpt",
                   "--cache", "synth.cache", "--method", "gradcam", "--class-id", "0",
                   "--first", "17", "--out-dir", "b17") == 0
        maps, _, _ = load_checkpoint(cache_dir / "b17" / "attributions.ckpt")
        model, _ = _load_model(cache_dir / "run1" / "checkpoint.ckpt")
        specs, _, _ = read_spec_cache(cache_dir / "synth.cache")
        assert len(maps) == 17
        for spec in specs[:17]:
            assert_close_to(maps[spec.clip_id], reference_gradcam(model, spec, 0))


class TestCliMatchesLibrary:
    def test_report_json_bit_exact_vs_evaluate(self, cache_dir):
        run(cache_dir, *train_args())
        run(cache_dir, "evaluate", "--checkpoint", "run1/checkpoint.ckpt",
            "--cache", "synth.cache", "--split", "all", "--out-dir", "evx")
        from lungsound.cli import _load_model
        from lungsound.io import read_spec_cache
        from lungsound.train import evaluate

        model, meta = _load_model(cache_dir / "run1" / "checkpoint.ckpt")
        specs, _, _ = read_spec_cache(cache_dir / "synth.cache")
        report = evaluate(model, specs, meta["task"])
        emitted = json.loads((cache_dir / "evx" / "report.json").read_text())
        assert emitted["Se"] == report.se and emitted["Sp"] == report.sp
        assert emitted["AS"] == report.as_score
        assert emitted["confusion"] == report.confusion.tolist()

    def test_placement_none_trains(self, cache_dir):
        code = run(cache_dir, *train_args("none_run", extra=("--placement", "none")))
        assert code == 0
        from lungsound.io import load_checkpoint

        state, cfg, _ = load_checkpoint(cache_dir / "none_run" / "checkpoint.ckpt")
        assert cfg["attention_placement"] == "none"
        assert not any(k.startswith("tsa.") for k in state)


def synth_cache(name, bands, frames):
    return ["preprocess", "--dataset", "synth", "--out", name, "--synth-per-class", "12",
            "--synth-bands", str(bands), "--synth-frames", str(frames), "--seed", "5"]


ATTRIBUTE = ["attribute", "--checkpoint", "m.ckpt", "--cache", "synth.cache", "--out-dir", "out"]
FBS = ["fbs", "--cache", "synth.cache", "--out-dir", "out", "--preset", "tiny", "--epochs", "1",
       "--k-folds", "2"]


class TestBadArguments:
    """Each bad argument exits with its code and one stderr line before any
    work: no traceback, no output directory, no manifest record. synth.cache is
    16 bands x 10 frames, narrow.cache 8 x 16 and deep.cache 16 x 16; m.ckpt
    is a one-block model of 16 bands and deep.ckpt a four-block one."""

    @pytest.mark.parametrize("args, code, match", [
        (ATTRIBUTE + ["--class-id", "9"], 2, "--class-id 9"),
        (ATTRIBUTE + ["--class-id", "-1"], 2, "--class-id -1"),
        (ATTRIBUTE + ["--class-id", "0", "--method", "ig", "--ig-steps", "0"], 2, "--ig-steps"),
        (["evaluate", "--checkpoint", "m.ckpt", "--cache", "synth.cache", "--out-dir", "out",
          "--task", "bogus"], 2, "invalid choice: 'bogus'"),
        (["evaluate", "--checkpoint", "deep.ckpt", "--cache", "synth.cache", "--split", "all",
          "--out-dir", "out"], 2, "16 frames, got 10"),
        (["attribute", "--checkpoint", "deep.ckpt", "--cache", "synth.cache", "--class-id", "0",
          "--out-dir", "out"], 2, "16 frames, got 10"),
        (train_args("out") + ["--cache", "narrow.cache", "--preset", "icbhi"], 2, "16 bands, got 8"),
        (train_args("out") + ["--preset", "icbhi"], 2, "16 frames, got 10"),
        (train_args("out") + ["--mask", "mask4.txt"], 2, "2 bands, got 1"),
        (FBS + ["--method", "importance", "--preset", "icbhi"], 2, "16 frames, got 10"),
        (FBS + ["--cache", "deep.cache", "--method", "backward", "--preset", "icbhi"], 2,
         "floor 16 for a 4-block model"),
        (FBS + ["--method", "backward", "--lambda-sweep", "0,0.5,1"], 2, "--lambda-sweep"),
        (FBS + ["--method", "backward", "--r", "3"], 2, "takes no --r:"),
        (FBS + ["--method", "backward", "--attribution", "ig"], 2, "takes no --attribution:"),
        (FBS + ["--method", "backward", "--lambda", "0.9"], 2, "takes no --lambda:"),
        (FBS + ["--method", "backward", "--attribution", "ig", "--r", "3", "--fbs-lambda", "0.5"], 2,
         "takes no --lambda, --r, --attribution:"),
        (FBS + ["--method", "importance", "--age-split", "10"], 2, "unrecognized arguments"),
        (["flops", "--out", "out/f.csv", "--n-mels", "4"], 2, "16 bands, got 4"),
        (["flops", "--out", "out/f.csv", "--n-frames", "1"], 2, "16 frames, got 1"),
        (train_args("out") + ["--lr0", "inf"], 2, "lr0"),
        (train_args("out") + ["--lr0", "-1"], 2, "lr0"),
        (train_args("out") + ["--weight-decay", "nan"], 2, "weight_decay"),
        (synth_cache("out/empty.cache", 16, 0), 2, "n_frames"),
        (ATTRIBUTE + ["--class-id", "0", "--first", "-1"], 2, "--first must be >= 1, got -1"),
        (ATTRIBUTE + ["--class-id", "0", "--first", "0"], 2, "--first must be >= 1, got 0"),
        (FBS + ["--method", "importance", "--stop-epsilon", "nan"], 2, "stop_epsilon must be >= 0, got nan"),
        (FBS + ["--method", "backward", "--stop-epsilon", "-1"], 2, "stop_epsilon must be >= 0, got -1.0"),
    ], ids=[
        "class-id-9", "class-id--1", "ig-steps-0", "evaluate-task", "evaluate-frames",
        "attribute-frames", "train-bands", "train-frames", "train-masked-bands", "fbs-frames",
        "fbs-backward-floor", "fbs-backward-lambda-sweep", "fbs-backward-r", "fbs-backward-attribution",
        "fbs-backward-lambda", "fbs-backward-all", "fbs-age-split", "flops-bands",
        "flops-frames", "lr0-inf", "lr0-negative", "weight-decay-nan", "synth-frames-0",
        "attribute-first--1", "attribute-first-0", "fbs-stop-epsilon-nan", "fbs-backward-stop-epsilon--1",
    ])
    def test_exits_with_one_line_before_any_work(self, cache_dir, capsys, no_training, args, code, match):
        assert run(cache_dir, *synth_cache("narrow.cache", 8, 16)) == 0
        assert run(cache_dir, *synth_cache("deep.cache", 16, 16)) == 0
        write_checkpoint(cache_dir / "m.ckpt", 16, {})
        write_checkpoint(cache_dir / "deep.ckpt", 16, {}, channels=(8, 8, 8, 8))
        (cache_dir / "mask4.txt").write_text("lungsound-mask v1\nbands 16\nkeep " + "0" * 15 + "1\n")
        manifest = (cache_dir / "manifests.jsonl").read_text()
        capsys.readouterr()
        try:
            got = run(cache_dir, *args)
        except SystemExit as exc:  # an argparse usage error
            got = exc.code
        err = capsys.readouterr().err
        assert got == code
        assert err.count("\n") == 1 and match in err and "Traceback" not in err, err
        assert not (cache_dir / "out").exists()  # not even an empty --out-dir
        assert (cache_dir / "manifests.jsonl").read_text() == manifest

    @pytest.mark.parametrize("args, match", [
        (["--hop", "0"], "--hop must be >= 1, got 0"),
        (["--hop", "-1"], "--hop must be >= 1, got -1"),
        (["--win", "0"], "--win must be >= 1, got 0"),
        (["--n-mels", "0"], "--n-mels must be >= 1, got 0"),
        (["--target-seconds", "nan"], "--target-seconds must be finite and > 0, got nan"),
        (["--target-seconds", "0.01"], "shorter than one --win of 256 samples"),
        (["--f-min", "3500", "--f-max", "3000"], "got 3500.0 and 3000.0"),
        (["--f-max", "nan"], "got 50.0 and nan"),
    ], ids=["hop-0", "hop--1", "win-0", "n-mels-0", "target-seconds-nan", "target-below-win",
            "f-min-above-f-max", "f-max-nan"])
    def test_preprocess_frontend_values(self, tmp_path, capsys, args, match):
        from test_data import write_wav

        root = tmp_path / "icbhi"
        root.mkdir()
        write_wav(root / "101_1b1_Al_sc_Meditron.wav", seconds=3.0, rate=8000)
        (root / "101_1b1_Al_sc_Meditron.txt").write_text("0.0 1.0 0 0\n1.0 2.0 1 0\n")
        code = run(
            tmp_path, "preprocess", "--dataset", "icbhi", "--data-root", "icbhi", "--out", "icbhi.cache",
            "--target-seconds", "2", "--n-mels", "16", "--win", "256", "--hop", "128", "--f-max", "3000",
            *args,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and match in err and "Traceback" not in err, err
        assert not (tmp_path / "icbhi.cache").exists() and not (tmp_path / "manifests.jsonl").exists()

    def test_fbs_importance_stops_at_the_model_floor(self, cache_dir, capsys):
        # a four-block model reads no fewer than 16 bands: the sweep of a
        # 16-band cache trains once and keeps every band
        assert run(cache_dir, *synth_cache("deep.cache", 16, 16)) == 0
        code = run(cache_dir, *FBS, "--cache", "deep.cache", "--method", "importance",
                   "--preset", "icbhi", "--stop-epsilon", "inf", "--batch-size", "8")
        assert code == 0
        rows = (cache_dir / "out" / "iterations.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0,16,")
        assert "best mask keeps 16/16 bands" in capsys.readouterr().out

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


def write_checkpoint(path, n_bands, meta, nan=False, overflow=False):
    """An untrained tiny-preset checkpoint without a data_config_hash.

    ``overflow`` scales the conv weights so that the finite checkpoint's
    forward pass overflows to inf and NaN.
    """
    from dataclasses import asdict

    from lungsound.io import save_checkpoint
    from lungsound.model import CnnTsa, ModelConfig

    cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=n_bands)
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
        assert not list((cache_dir / "fbs4").iterdir())

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

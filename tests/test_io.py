"""Serialization round-trips, byte determinism, and rejection of
truncated or corrupt files."""

import json
import struct

import numpy as np
import pytest

from lungsound.audio import Spectrogram
from lungsound.data import SpecSet
from lungsound.errors import ConfigError, DataError
from lungsound.io import (
    config_hash,
    load_checkpoint,
    read_mask_file,
    read_spec_cache,
    save_checkpoint,
    write_mask_file,
    write_spec_cache,
)
from lungsound.masks import FrequencyMask
from lungsound.model import CnnTsa, ModelConfig


def make_specs(n=3, t=6, f=8):
    """n random clips; labels and splits alternate, clip 0's age is unknown."""
    return SpecSet(
        np.stack([np.random.default_rng(i).normal(size=(t, f)) for i in range(n)]),
        np.linspace(100, 2000, f), 0.032,
        labels=np.arange(n) % 2,
        patient_ids=[f"p{i}" for i in range(n)],
        ages=[10.0 * i if i else np.nan for i in range(n)],
        splits=["official_train" if i % 2 == 0 else "official_test" for i in range(n)],
        clip_ids=[f"clip{i}" for i in range(n)],
    )


class TestCheckpoint:
    def test_round_trip_state(self, tmp_path):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        model = CnnTsa(cfg, seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model.state_dict(), {"channels": [8]}, {"task": "binary"})
        state, mcfg, meta = load_checkpoint(path)
        assert meta["task"] == "binary"
        assert mcfg["channels"] == [8]
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(state[k], v)

    def test_load_into_model(self, tmp_path):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        m1 = CnnTsa(cfg, seed=1)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m1.state_dict(), {}, {})
        m2 = CnnTsa(cfg, seed=2)
        state, _, _ = load_checkpoint(path)
        m2.load_state_dict(state)
        x = np.random.default_rng(0).normal(size=(1, 1, 6, 8)).astype(np.float32)
        np.testing.assert_array_equal(m1.forward(x).data, m2.forward(x).data)

    @pytest.mark.parametrize("name", ["extra.weight", "bn9.running_mean"])
    def test_unknown_tensor_name_refused(self, name):
        model = CnnTsa(ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8), seed=1)
        state = model.state_dict() | {name: np.zeros(8, np.float32)}
        with pytest.raises(ConfigError, match=name):
            model.load_state_dict(state)

    def test_byte_identical_writes(self, tmp_path):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        model = CnnTsa(cfg, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model.state_dict(), {"x": 1}, {})
        save_checkpoint(p2, model.state_dict(), {"x": 1}, {})
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_checkpoint(path)


    @pytest.mark.parametrize("end", [-4, -50, 10, 40])
    def test_truncated_rejected(self, tmp_path, end):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, CnnTsa(cfg, seed=5).state_dict(), {}, {})
        path.write_bytes(path.read_bytes()[:end])
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.ones(3, np.float32)}, {}, {})
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(DataError, match="past the last tensor"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.ones(2, np.float32), "w": np.array([1.0, bad], np.float32)}, {})
        with pytest.raises(DataError, match="'w' holds non-finite"):
            load_checkpoint(path)


def blob(magic: bytes, header, payload=b"") -> bytes:
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return magic + struct.pack("<I", len(text)) + text + payload


class TestSpecCache:
    @pytest.mark.parametrize("cut", [1, 50, 200])
    def test_truncated_rejected(self, tmp_path, cut):
        path = tmp_path / "c.cache"
        write_spec_cache(path, make_specs(), {})
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError):
            read_spec_cache(path)

    @pytest.mark.parametrize("data", [
        b"LSCACHE1\x10\x00",  # header length cut short
        blob(b"LSCACHE1", b"{not json"),
        blob(b"LSCACHE1", [1, 2]),
        blob(b"LSCACHE1", {"format_version": 1}),  # no entries
        blob(b"LSCACHE1", {"format_version": 1, "band_centers": [1.0], "hop_seconds": 0.1,
                           "entries": [{"t": 1, "f": 1, "offset": -4}]}, b"\0" * 8),
    ], ids=["short-length", "bad-json", "not-object", "no-entries", "negative-offset"])
    def test_corrupt_header_rejected(self, tmp_path, data):
        path = tmp_path / "c.cache"
        path.write_bytes(data)
        with pytest.raises(DataError):
            read_spec_cache(path)


    def cache_with(self, tmp_path, edit):
        """A valid three-clip cache whose header entries ``edit`` changes."""
        path = tmp_path / "c.cache"
        write_spec_cache(path, make_specs(), {})
        data = path.read_bytes()
        hlen = struct.unpack("<I", data[8:12])[0]
        header = json.loads(data[12 : 12 + hlen])
        edit(header["entries"])
        path.write_bytes(blob(b"LSCACHE1", header, data[12 + hlen :]))
        return path

    def test_rewritten_header_reads(self, tmp_path):
        loaded, _, _ = read_spec_cache(self.cache_with(tmp_path, lambda entries: None))
        assert len(loaded) == 3

    @pytest.mark.parametrize("edit,match", [
        (lambda es: es[1].update(t=4, f=12), "mixed"),
        (lambda es: es.reverse(), "not contiguous"),
        (lambda es: es[2].update(offset=es[2]["offset"] + 4), "not contiguous"),
        (lambda es: es.pop(), "past the last clip"),
        (lambda es: es[0].update(split="train"), "split"),
        (lambda es: es[0].update(label=-2), "labels must be"),
        (lambda es: es[0].update(age_years="old"), "malformed"),
        (lambda es: es.clear(), "no clips"),
    ], ids=["mixed-shapes", "reordered", "gap", "trailing-bytes", "split-tag",
            "negative-label", "age-type", "no-clips"])
    def test_inconsistent_entries_rejected(self, tmp_path, edit, match):
        with pytest.raises(DataError, match=match):
            read_spec_cache(self.cache_with(tmp_path, edit))

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "c.cache"
        write_spec_cache(path, make_specs(), {})
        data = bytearray(path.read_bytes())
        data[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="non-finite"):
            read_spec_cache(path)

    def test_null_label_read_as_unlabeled(self, tmp_path):
        def unlabel(entries):
            entries[1]["label"] = None

        loaded, _, _ = read_spec_cache(self.cache_with(tmp_path, unlabel))
        assert loaded.labels.tolist() == [0, -1, 0]
        assert loaded[1].label is None

    def test_round_trip(self, tmp_path):
        specs = make_specs()
        path = tmp_path / "c.cache"
        chash = write_spec_cache(path, specs, {"n_mels": 8})
        loaded, cfg, chash2 = read_spec_cache(path)
        assert chash == chash2 == config_hash({"n_mels": 8})
        assert cfg == {"n_mels": 8}
        np.testing.assert_array_equal(loaded.values, specs.values)
        np.testing.assert_array_equal(loaded.band_centers, specs.band_centers)
        assert loaded.hop_seconds == specs.hop_seconds
        for column in ("labels", "patient_ids", "splits", "clip_ids"):
            np.testing.assert_array_equal(getattr(loaded, column), getattr(specs, column))

    def test_age_none_survives(self, tmp_path):
        specs = make_specs()
        path = tmp_path / "c.cache"
        write_spec_cache(path, specs, {})
        loaded, _, _ = read_spec_cache(path)
        assert np.isnan(loaded.ages[0])
        assert loaded.ages[1] == 10.0

    def test_byte_identical(self, tmp_path):
        specs = make_specs()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_spec_cache(p1, specs, {"v": 2})
        write_spec_cache(p2, specs, {"v": 2})
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_refused(self, tmp_path):
        with pytest.raises(DataError):
            write_spec_cache(tmp_path / "e", make_specs()[:0], {})


class TestMaskFile:
    def test_round_trip_with_history(self, tmp_path):
        mask = FrequencyMask(np.ones(12, dtype=bool), origin="importance")
        mask = mask.remove([3, 7, 9, 11]).remove([0, 1, 2, 4])
        path = tmp_path / "m.txt"
        write_mask_file(path, mask, "abc123")
        loaded, chash = read_mask_file(path)
        assert chash == "abc123"
        np.testing.assert_array_equal(loaded.keep, mask.keep)
        assert loaded.history == [[3, 7, 9, 11], [0, 1, 2, 4]]
        assert loaded.origin == "importance"

    def test_bad_bitstring_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("lungsound-mask v1\nbands 4\norigin full\nconfig_hash x\nkeep 10\n")
        with pytest.raises(DataError):
            read_mask_file(path)


    @pytest.mark.parametrize("body", [
        "origin full\nkeep 1111\n",  # no bands line
        "bands 4\norigin full\n",  # no keep line
        "bands four\nkeep 1111\n",
        "bands 4\nkeep 1101\niter 1 removed x\n",
        "bands 4\nkeep 1101\niter 1 removed 0\n",  # history disagrees with keep
    ])
    def test_malformed_rejected(self, tmp_path, body):
        path = tmp_path / "m.txt"
        path.write_text("lungsound-mask v1\n" + body)
        with pytest.raises(DataError):
            read_mask_file(path)


class TestAtomicWrites:
    """Writers go through a temp file renamed over the target, so a write
    that fails partway leaves the old file whole and no temp file behind."""

    def test_cache_write_failing_partway_keeps_old_file(self, tmp_path, monkeypatch):
        import lungsound.io as lio

        path = tmp_path / "c.cache"
        write_spec_cache(path, make_specs(), {"v": 1})
        before = path.read_bytes()
        specs = make_specs()

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        # the header is written, then the disk fills before the values block
        with monkeypatch.context() as m:
            m.setattr(lio.np, "ascontiguousarray", disk_full)
            with pytest.raises(OSError, match="No space"):
                write_spec_cache(path, specs, {"v": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.cache"]

    def test_checkpoint_write_failing_partway_keeps_old_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.ones(3, np.float32)}, {"k": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint(path, {"a": np.zeros(3, np.float32), "b": np.full(2, "x")}, {"k": 2})
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] == {"k": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_interrupted_mask_write_keeps_old_file(self, tmp_path, monkeypatch):
        import lungsound.io as lio

        path = tmp_path / "m.txt"
        write_mask_file(path, FrequencyMask(np.ones(4, dtype=bool)), "old")
        before = path.read_bytes()

        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(lio.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            write_mask_file(path, FrequencyMask(np.zeros(4, dtype=bool)), "new")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.txt"]


class TestFrequencyMaskInvariants:
    def test_history_partitions_removed(self):
        mask = FrequencyMask(np.ones(8, dtype=bool)).remove([1, 2]).remove([5])
        assert sorted(i for it in mask.history for i in it) == sorted(
            np.flatnonzero(~mask.keep).tolist()
        )

    def test_double_removal_rejected(self):
        mask = FrequencyMask(np.ones(8, dtype=bool)).remove([1])
        with pytest.raises(ValueError):
            mask.remove([1])

    def test_apply_mask_round_trip_idempotent(self):
        from lungsound.masks import apply_mask

        specs = make_specs(1, t=4, f=8)
        mask = FrequencyMask(np.array([1, 0, 1, 1, 0, 1, 1, 1], dtype=bool))
        compact = apply_mask(specs[0], mask)
        assert compact.n_bands == 6
        # re-expand with zeros then re-mask: identical compact spectrogram
        full = np.zeros((4, 8), np.float32)
        full[:, mask.kept_indices] = compact.values
        re_spec = Spectrogram(full, specs[0].band_centers, 0.032)
        again = apply_mask(re_spec, mask)
        np.testing.assert_array_equal(again.values, compact.values)

    def test_all_true_mask_is_identity(self):
        from lungsound.masks import apply_mask

        spec = make_specs(1)[0]
        assert apply_mask(spec, FrequencyMask(np.ones(8, dtype=bool))) is spec

    def test_keep_bands_0_2_of_4(self):
        from lungsound.masks import apply_mask

        vals = np.arange(8, dtype=np.float32).reshape(2, 4)
        spec = Spectrogram(vals, np.array([10.0, 20.0, 30.0, 40.0]), 0.01)
        out = apply_mask(spec, FrequencyMask(np.array([1, 0, 1, 0], dtype=bool)))
        np.testing.assert_array_equal(out.values, vals[:, [0, 2]])
        np.testing.assert_array_equal(out.band_centers, [10.0, 30.0])

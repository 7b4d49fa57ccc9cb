"""Serialization round-trips, byte determinism, and rejection of
truncated or corrupt files."""

import json
import struct

import numpy as np
import pytest

from lungsound.audio import Spectrogram
from lungsound.data import CycleRecord
from lungsound.errors import DataError
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
    out = []
    for i in range(n):
        rec = CycleRecord(
            audio_path="x.wav", onset_s=0.0, offset_s=1.0, label=i % 2,
            patient_id=f"p{i}", age_years=10.0 * i if i else None,
            split="official_train" if i % 2 == 0 else "official_test",
            clip_id=f"clip{i}",
        )
        vals = np.random.default_rng(i).normal(size=(t, f)).astype(np.float32)
        out.append(Spectrogram(vals, np.linspace(100, 2000, f), 0.032, label=i % 2, provenance=rec))
    return out


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


    def test_round_trip(self, tmp_path):
        specs = make_specs()
        path = tmp_path / "c.cache"
        chash = write_spec_cache(path, specs, {"n_mels": 8})
        loaded, cfg, chash2 = read_spec_cache(path)
        assert chash == chash2 == config_hash({"n_mels": 8})
        assert cfg == {"n_mels": 8}
        assert len(loaded) == len(specs)
        for a, b in zip(loaded, specs):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.label == b.label
            assert a.patient_id == b.patient_id
            assert a.split == b.split
            assert a.clip_id == b.clip_id

    def test_age_none_survives(self, tmp_path):
        specs = make_specs()
        path = tmp_path / "c.cache"
        write_spec_cache(path, specs, {})
        loaded, _, _ = read_spec_cache(path)
        assert loaded[0].age_years is None
        assert loaded[1].age_years == 10.0

    def test_byte_identical(self, tmp_path):
        specs = make_specs()
        p1, p2 = tmp_path / "a", tmp_path / "b"
        write_spec_cache(p1, specs, {"v": 2})
        write_spec_cache(p2, specs, {"v": 2})
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_refused(self, tmp_path):
        with pytest.raises(DataError):
            write_spec_cache(tmp_path / "e", [], {})


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

    def test_cache_write_failing_partway_keeps_old_file(self, tmp_path):
        path = tmp_path / "c.cache"
        write_spec_cache(path, make_specs(), {"v": 1})
        before = path.read_bytes()
        specs = make_specs()
        # the last block cannot become float32: the header and the first
        # blocks are already written when it fails
        specs[-1].values = np.full((6, 8), "x")
        with pytest.raises(ValueError):
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


class TestImportHook:
    def test_backbone_import_with_name_map(self, tmp_path):
        from lungsound.io import import_backbone_weights, save_checkpoint

        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        donor = CnnTsa(cfg, seed=11)
        external = {
            "features.0.w": donor.params["conv1.weight"].data,
            "features.0.bn_g": donor.params["bn1.gamma"].data + 0.25,
            "head.ignore_me": np.zeros(3, np.float32),
        }
        path = tmp_path / "external.ckpt"
        save_checkpoint(path, external, {}, {"source": "external"})
        target = CnnTsa(cfg, seed=12)
        imported = import_backbone_weights(
            target,
            path,
            name_map={"features.0.w": "conv1.weight", "features.0.bn_g": "bn1.gamma"},
        )
        assert imported == ["bn1.gamma", "conv1.weight"]
        np.testing.assert_array_equal(
            target.params["conv1.weight"].data, donor.params["conv1.weight"].data
        )
        np.testing.assert_array_equal(
            target.params["bn1.gamma"].data, donor.params["bn1.gamma"].data + 0.25
        )
        # head untouched
        assert not np.array_equal(
            target.params["head.weight"].data, donor.params["head.weight"].data
        )

"""Serialization round-trips, byte determinism, and rejection of
truncated or corrupt files."""

import ast
import json
import re
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lungsound.data import SpecSet
from lungsound.errors import ConfigError, DataError, ShapeError
from lungsound.io import (
    config_hash,
    load_checkpoint,
    read_mask_file,
    read_spec_cache,
    save_checkpoint,
    write_file,
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
        state, _, _ = load_checkpoint(path)
        m2 = CnnTsa(cfg, seed=2, state=state)
        x = np.random.default_rng(0).normal(size=(1, 1, 6, 8)).astype(np.float32)
        np.testing.assert_array_equal(m1.forward(x).data, m2.forward(x).data)

    @pytest.mark.parametrize("name", ["extra.weight", "bn9.running_mean"])
    def test_unknown_tensor_name_refused(self, name):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        state = CnnTsa(cfg, seed=1).state_dict() | {name: np.zeros(8, np.float32)}
        with pytest.raises(ConfigError, match=name):
            CnnTsa(cfg, state=state)

    @pytest.mark.parametrize("name", ["head.weight", "conv1.weight", "bn1.running_var"])
    def test_missing_tensor_refused(self, name):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        state = CnnTsa(cfg, seed=1).state_dict()
        del state[name]
        with pytest.raises(ConfigError, match=f"lacks tensor {name}"):
            CnnTsa(cfg, state=state)

    def test_misshapen_tensor_refused(self):
        cfg = ModelConfig(channels=(8,), n_classes=2, n_mel_rows_in=8)
        state = CnnTsa(cfg, seed=1).state_dict()
        state["head.bias"] = np.zeros(3, np.float32)
        with pytest.raises(ShapeError, match="head.bias"):
            CnnTsa(cfg, state=state)

    def test_state_load_draws_no_init(self, monkeypatch):
        import lungsound.model as model_mod

        cfg = ModelConfig(channels=(8, 16), n_classes=3, n_mel_rows_in=8)
        state = CnnTsa(cfg, seed=1).state_dict()

        def refuse(*args):
            raise AssertionError("random init drawn for a loaded model")

        monkeypatch.setattr(model_mod, "_kaiming_uniform", refuse)
        loaded = CnnTsa(cfg, state=state).state_dict()
        assert loaded.keys() == state.keys()
        for k, v in state.items():
            np.testing.assert_array_equal(loaded[k], v)

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
    def test_read_holds_one_copy_of_the_clips(self, tmp_path):
        import tracemalloc

        specs = make_specs(n=64, t=64, f=64)
        write_spec_cache(tmp_path / "c.cache", specs, {})
        tracemalloc.start()
        try:
            back, _, _ = read_spec_cache(tmp_path / "c.cache")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.values, specs.values)
        assert back.values.flags.writeable
        assert peak < 1.5 * back.values.nbytes, (peak, back.values.nbytes)

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

    @pytest.mark.parametrize("ids", [
        [None] * 6,
        ["p0", "p1", None, "p3", None, "p5"],
    ], ids=["all_unknown", "mixed"])
    def test_unknown_patient_survives(self, tmp_path, ids):
        # an unknown patient stays unknown, so a patient-wise split refuses
        # the cache as it refuses the set, instead of pooling the clips
        from lungsound.train import patient_kfold

        specs = replace(make_specs(6), patient_ids=ids)
        with pytest.raises(DataError, match="record (\\d+) has no patient id") as before:
            patient_kfold(specs.patient_ids, k=2)
        path = tmp_path / "c.cache"
        write_spec_cache(path, specs, {})
        loaded, _, _ = read_spec_cache(path)
        assert loaded.patient_ids.tolist() == ids
        with pytest.raises(DataError) as after:
            patient_kfold(loaded.patient_ids, k=2)
        assert str(after.value) == str(before.value)

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
            with pytest.raises(DataError, match="c.cache: cannot write \\(No space"):
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

    def test_write_makes_missing_directories_and_returns_the_path(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.bin"
        assert write_file(path, [b"ab", memoryview(b"cd"), bytearray(b"e")]) == path
        assert path.read_bytes() == b"abcde"
        assert [p.name for p in path.parent.iterdir()] == ["f.bin"]

    def test_write_under_a_file_is_data_error_and_makes_nothing(self, tmp_path):
        (tmp_path / "afile").write_bytes(b"keep")
        with pytest.raises(DataError, match=r"afile/run/f.csv: cannot write \("):
            write_file(tmp_path / "afile" / "run" / "f.csv", [b"x"])
        assert (tmp_path / "afile").read_bytes() == b"keep"
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    def test_cache_values_stream_from_their_buffer(self, tmp_path, monkeypatch):
        # the (N, T, F) block goes to the file as a view of the set's own
        # values: no joined copy of a cache that can be hundreds of MB
        import lungsound.io as lio

        specs = make_specs()
        seen = []
        write = lio.write_file

        def recording(path, parts):
            seen.extend(parts)
            return write(path, seen)

        monkeypatch.setattr(lio, "write_file", recording)
        write_spec_cache(tmp_path / "c.cache", specs, {"v": 1})
        block = np.frombuffer(seen[-1], dtype="<f4")
        assert block.size == specs.values.size and np.shares_memory(block, specs.values)


# writes that name a file mode or an os.open flag
_WRITE_MODE = re.compile(r"[rb]*[wax+][rwaxbt+]*")
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT", "O_TRUNC"}


def _file_writes(source: str) -> list[int]:
    """Line numbers of the calls in ``source`` that write a file: ``write_text``,
    ``write_bytes``, or any ``open``/``fdopen`` given a write or append mode."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", ""))
        args = [*node.args, *(kw.value for kw in node.keywords)]
        if name in ("write_text", "write_bytes") or name.endswith("open") and any(
            isinstance(a, ast.Constant) and isinstance(a.value, str) and _WRITE_MODE.fullmatch(a.value)
            or any(getattr(n, "attr", None) in _WRITE_FLAGS for n in ast.walk(a))
            for a in args
        ):
            lines.append(node.lineno)
    return lines


class TestOneWriter:
    """Every file the package writes goes through ``io``: ``write_file``, or
    the manifest's append. No other module opens a file for writing."""

    def test_only_io_writes_files(self):
        package = Path(__file__).resolve().parents[1] / "src" / "lungsound"
        modules = sorted(package.glob("*.py"))
        assert len(modules) > 10
        found = {
            m.name: _file_writes(m.read_text()) for m in modules if m.name != "io.py"
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    @pytest.mark.parametrize("code, writes", [
        ("p.write_text('x')", True),
        ("Path(p).write_bytes(b'x')", True),
        ("open(p, 'w')", True),
        ("open(p, mode='ab')", True),
        ("p.open('r+')", True),
        ("os.fdopen(fd, 'wb')", True),
        ("os.open(p, os.O_WRONLY | os.O_CREAT)", True),
        ("open('/proc/meminfo')", False),
        ("open(p, 'rb')", False),
        ("p.read_text()", False),
        ("write_file(p, [b'x'])", False),
    ])
    def test_the_check_sees_each_way_to_write(self, code, writes):
        assert bool(_file_writes(code)) == writes


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
        compact = apply_mask(specs, mask)
        assert compact.n_bands == 6
        # re-expand with zeros then re-mask: identical compact set
        full = np.zeros((1, 4, 8), np.float32)
        full[..., mask.kept_indices] = compact.clips()
        again = apply_mask(replace(specs, values=full), mask)
        np.testing.assert_array_equal(again.clips(), compact.clips())
        np.testing.assert_array_equal(again.band_centers, compact.band_centers)

    def test_all_true_mask_is_identity(self):
        from lungsound.masks import apply_mask

        specs = make_specs(1)
        assert apply_mask(specs, FrequencyMask(np.ones(8, dtype=bool))) is specs

    def test_keep_bands_0_2_of_4(self):
        from lungsound.masks import apply_mask

        vals = np.arange(8, dtype=np.float32).reshape(1, 2, 4)
        specs = replace(make_specs(1, t=2, f=4), values=vals, band_centers=[10.0, 20.0, 30.0, 40.0])
        out = apply_mask(specs, FrequencyMask(np.array([1, 0, 1, 0], dtype=bool)))
        np.testing.assert_array_equal(out.clips(), vals[..., [0, 2]])
        np.testing.assert_array_equal(out.band_centers, [10.0, 30.0])

"""Dataset parsing on miniature fixture trees and the synthetic
planted-band corpus."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from lungsound.audio import Spectrogram
from lungsound.data import (
    SPRSOUND_CLASSES,
    CycleRecord,
    SpecSet,
    SynthSpec,
    parse_icbhi,
    parse_sprsound,
    synth_corpus,
)
from lungsound.errors import ConfigError, DataError, ShapeError
from lungsound.io import read_spec_cache, write_spec_cache
from lungsound.masks import FrequencyMask, apply_mask


def write_wav(path: Path, seconds=1.0, rate=8000, seed=0):
    rng = np.random.default_rng(seed)
    data = (rng.normal(0, 0.1, int(seconds * rate)) * 32767 * 0.1).astype(np.int16)
    wavfile.write(path, rate, data)


@pytest.fixture
def icbhi_root(tmp_path):
    root = tmp_path / "icbhi"
    root.mkdir()
    recs = {
        "101_1b1_Al_sc_Meditron": [
            "0.036 0.579 0 0",
            "0.579 2.45 1 0",
            "2.45 3.893 0 1",
            "3.893 5.793 1 1",
        ],
        "102_1b1_Ar_sc_Litt3200": [
            "0.0 1.2 0 0",
            "1.2 2.2 1 0",
        ],
    }
    for stem, lines in recs.items():
        write_wav(root / f"{stem}.wav", seconds=6.0)
        (root / f"{stem}.txt").write_text("\n".join(lines) + "\n")
    (root / "ICBHI_Challenge_demographic_information.txt").write_text(
        "101 3.0 F NA 19.0 99.0\n102 71.0 M 28.47 NA NA\n"
    )
    (root / "ICBHI_challenge_train_test.txt").write_text(
        "101_1b1_Al_sc_Meditron\ttrain\n102_1b1_Ar_sc_Litt3200\ttest\n"
    )
    return root


class TestParseIcbhi:
    def test_counts_and_flag_mapping(self, icbhi_root):
        records = parse_icbhi(icbhi_root)
        assert len(records) == 6
        first = records[0]
        assert (first.onset_s, first.offset_s) == (0.036, 0.579)
        assert first.label == 0  # (0,0) -> Normal
        labels = [r.label for r in records if r.patient_id == "101"]
        assert labels == [0, 1, 2, 3]  # (0,0),(1,0),(0,1),(1,1)

    def test_patient_device_age_split(self, icbhi_root):
        records = parse_icbhi(icbhi_root)
        r101 = [r for r in records if r.patient_id == "101"]
        assert all(r.age_years == 3.0 for r in r101)
        assert all(r.device_id == "Meditron" for r in r101)
        assert all(r.split == "official_train" for r in r101)
        r102 = [r for r in records if r.patient_id == "102"]
        assert all(r.split == "official_test" for r in r102)
        assert all(r.age_years == 71.0 for r in r102)

    def test_malformed_line_reports_file_and_line(self, icbhi_root):
        bad = icbhi_root / "103_1b1_Pl_sc_Meditron"
        write_wav(bad.with_suffix(".wav"))
        bad.with_suffix(".txt").write_text("0.0 1.0 0 0\n0.5 oops 1 0\n")
        with pytest.raises(DataError, match=r"103_1b1_Pl_sc_Meditron\.txt:2"):
            parse_icbhi(icbhi_root)

    def test_reparse_is_idempotent(self, icbhi_root):
        a = parse_icbhi(icbhi_root)
        b = parse_icbhi(icbhi_root)
        assert [r.clip_id for r in a] == [r.clip_id for r in b]
        assert [r.label for r in a] == [r.label for r in b]

    def test_train_test_patients_disjoint(self, icbhi_root):
        records = parse_icbhi(icbhi_root)
        train_p = {r.patient_id for r in records if r.split == "official_train"}
        test_p = {r.patient_id for r in records if r.split == "official_test"}
        assert not train_p & test_p

    def test_missing_root(self, tmp_path):
        with pytest.raises(DataError):
            parse_icbhi(tmp_path / "nope")


@pytest.fixture
def sprsound_root(tmp_path):
    root = tmp_path / "sprsound"
    (root / "train_wav").mkdir(parents=True)
    (root / "test_wav").mkdir()
    stem_train = "51249388_3.1_1_p1_2873"
    write_wav(root / "train_wav" / f"{stem_train}.wav", seconds=4.0)
    (root / "train_wav" / f"{stem_train}.json").write_text(
        json.dumps(
            {
                "record_annotation": "Adventitious",
                "event_annotation": [
                    {"start": "1000", "end": "2400", "type": "Fine Crackle"},
                    {"start": "2600", "end": "3100", "type": "Normal"},
                ],
            }
        )
    )
    stem_test = "60341963_6.5_2_p2_101"
    write_wav(root / "test_wav" / f"{stem_test}.wav", seconds=3.0)
    (root / "test_wav" / f"{stem_test}.json").write_text(
        json.dumps(
            {
                "record_annotation": "Normal",
                "event_annotation": [{"start": 0, "end": 2900, "type": "Wheeze"}],
            }
        )
    )
    return root


class TestParseSprsound:
    def test_event_units_and_labels(self, sprsound_root):
        records = parse_sprsound(sprsound_root, edition=2022)
        assert len(records) == 3
        fine = next(r for r in records if r.label == SPRSOUND_CLASSES.index("Fine Crackle"))
        assert (fine.onset_s, fine.offset_s) == (1.0, 2.4)
        assert fine.patient_id == "51249388"
        assert fine.age_years == pytest.approx(3.1)

    def test_split_tags_from_directories(self, sprsound_root):
        records = parse_sprsound(sprsound_root, edition=2022)
        splits = {r.patient_id: r.split for r in records}
        assert splits["51249388"] == "official_train"
        assert splits["60341963"] == "official_test"

    def test_unknown_event_type_lists_offender(self, sprsound_root):
        extra = sprsound_root / "test_wav" / "70000000_5.0_1_p1_1.wav"
        write_wav(extra)
        extra.with_suffix(".json").write_text(
            json.dumps({"event_annotation": [{"start": 0, "end": 500, "type": "Snore"}]})
        )
        with pytest.raises(DataError, match="Snore"):
            parse_sprsound(sprsound_root, edition=2022)

    def test_txt_fallback_layout(self, tmp_path):
        root = tmp_path / "spr2"
        root.mkdir()
        write_wav(root / "1234_2.0_1_p1_1.wav")
        (root / "1234_2.0_1_p1_1.txt").write_text("0 500 Rhonchi\n600 900 Normal\n")
        records = parse_sprsound(root, edition=2023)
        assert [r.label for r in records] == [
            SPRSOUND_CLASSES.index("Rhonchi"),
            SPRSOUND_CLASSES.index("Normal"),
        ]
        assert all(r.split == "official_test" for r in records)  # 2023 is test-only

    def test_bad_edition(self, sprsound_root):
        with pytest.raises(ConfigError):
            parse_sprsound(sprsound_root, edition=2024)


class TestCycleRecord:
    def test_bad_bounds(self):
        with pytest.raises(DataError):
            CycleRecord(audio_path="x", onset_s=2.0, offset_s=1.0, label=0, patient_id="p")

    def test_clip_id_derived(self):
        rec = CycleRecord(audio_path="/a/b/rec.wav", onset_s=0.5, offset_s=1.0, label=0, patient_id="p")
        assert rec.clip_id == "rec_0.500"


class TestSynthCorpus:
    def test_noise_off_background_is_exact_floor(self):
        spec = SynthSpec(n_classes=2, n_bands=16, n_frames=8, n_per_class=3,
                         snr_db=float("inf"), planted_bands=((2, 3), (10, 11)))
        corpus = synth_corpus(spec)
        planted = {0: (2, 3), 1: (10, 11)}
        for s in corpus:
            outside = np.delete(s.values, planted[s.label], axis=1)
            assert np.all(outside == 0.0)
            assert np.any(s.values[:, list(planted[s.label])] != 0.0)

    def test_disjoint_classes_energy_separable(self):
        spec = SynthSpec(n_classes=2, n_bands=32, n_frames=16, n_per_class=40,
                         snr_db=10.0, planted_bands=((4, 5, 6, 7), (20, 21, 22, 23)),
                         disjoint=True, seed=3)
        corpus = synth_corpus(spec)
        # oracle classifier: compare mean power in the two band groups
        correct = 0
        for s in corpus:
            power = s.values**2
            e0 = power[:, 4:8].mean()
            e1 = power[:, 20:24].mean()
            correct += int((e1 > e0) == (s.label == 1))
        assert correct == len(corpus)

    def test_overlap_with_disjoint_requested_errors(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_classes=2, n_bands=16, n_frames=8, n_per_class=2,
                      planted_bands=((2, 3), (3, 4)), disjoint=True).resolved_bands()

    def test_same_seed_identical_corpus(self):
        spec = SynthSpec(n_classes=2, n_bands=16, n_frames=8, n_per_class=5, seed=9)
        a, b = synth_corpus(spec), synth_corpus(spec)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))
        assert [x.clip_id for x in a] == [y.clip_id for y in b]

    def test_bands_outside_range_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_bands=8, planted_bands=((6, 7, 8),), n_classes=1).resolved_bands()

    def test_labels_and_patients_present(self):
        corpus = synth_corpus(SynthSpec(n_classes=2, n_bands=16, n_frames=8, n_per_class=4))
        assert set(corpus.labels.tolist()) == {0, 1}
        assert all(corpus.patient_ids)
        assert len(set(corpus.patient_ids)) == len(corpus)  # one patient each


class TestRecordBounds:
    def test_cycles_lie_within_recording_duration(self, icbhi_root):
        from scipy.io import wavfile

        for rec in parse_icbhi(icbhi_root):
            rate, data = wavfile.read(rec.audio_path)
            assert rec.offset_s <= len(data) / rate + 1e-9


# -- the columnar set ----------------------------------------------------------------


def small_set():
    specs = synth_corpus(SynthSpec(n_classes=3, n_bands=12, n_frames=6, n_per_class=4, seed=2))
    specs.ages[:] = np.arange(len(specs), dtype=np.float64)
    specs.splits[::3] = "official_test"
    return specs


class TestSpecSet:
    def test_row_is_a_spectrogram_of_its_columns(self):
        specs = small_set()
        row = specs[5]
        assert isinstance(row, Spectrogram)
        np.testing.assert_array_equal(row.values, specs.values[5])
        assert row.values.base is specs.values
        np.testing.assert_array_equal(row.band_centers, specs.band_centers)
        assert row.hop_seconds == specs.hop_seconds
        assert row.label == specs.labels[5] == 1
        assert row.clip_id == specs.clip_ids[5] == "synth-c1-0001"
        assert specs[-1].clip_id == specs.clip_ids[-1]

    @pytest.mark.parametrize("index", [
        slice(2, 9, 3), np.array([7, 0, 3]), np.arange(12) % 4 == 1, slice(0, 0),
    ], ids=["slice", "index-array", "bool-array", "empty"])
    def test_slices_keep_columns_aligned(self, index):
        specs = small_set()
        sub = specs[index]
        assert isinstance(sub, SpecSet)
        rows = np.arange(len(specs))[index]
        assert len(sub) == len(rows)
        np.testing.assert_array_equal(sub.clips(), specs.values[rows])
        for column in ("labels", "patient_ids", "ages", "splits", "clip_ids"):
            np.testing.assert_array_equal(getattr(sub, column), getattr(specs, column)[rows])
        assert [s.clip_id for s in sub] == specs.clip_ids[rows].tolist()
        assert (sub.n_frames, sub.n_bands) == (6, 12)

    def test_clip_without_provenance(self):
        specs = SpecSet(
            np.zeros((1, 3, 4), np.float32), np.arange(1.0, 5.0), 0.01, labels=[-1],
            patient_ids=[None], ages=[np.nan], splits=["unsplit"], clip_ids=["c"],
        )
        assert specs[0].label is None
        with pytest.raises(DataError, match="'c'.* no label"):
            specs.targets("multiclass")

    def test_targets(self):
        specs = small_set()
        np.testing.assert_array_equal(specs.targets("multiclass"), np.repeat([0, 1, 2], 4))
        np.testing.assert_array_equal(specs.targets("binary"), np.repeat([0, 1, 1], 4))

    @pytest.mark.parametrize("field,value,error", [
        ("values", np.full((1, 6, 12), np.nan, np.float32), DataError),
        ("splits", ["train"], DataError),
        ("band_centers", np.arange(12.0)[::-1], DataError),
        ("hop_seconds", 0.0, DataError),
        ("labels", [0, 1], ShapeError),
    ])
    def test_invalid_sets_refused(self, field, value, error):
        from dataclasses import replace

        one = small_set()[:1]
        with pytest.raises(error):
            replace(one, **{field: value})

    def test_derived_sets_scan_no_shared_values(self, monkeypatch):
        # a subset or a masked set shares its parent's checked values, so
        # only a set with an array not yet checked scans it for NaN and inf
        from dataclasses import replace

        import lungsound.data as data_mod

        specs = small_set()
        scans = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def isfinite(self, x):
                scans.append(len(x))
                return np.isfinite(x)

        monkeypatch.setattr(data_mod, "np", CountingNumpy())
        masked = apply_mask(specs[2:9], FrequencyMask(np.ones(12, dtype=bool)).remove([0, 3]))
        assert len(masked[masked.labels == 1][::2]) == 2 and scans == []
        replace(masked, values=specs.values.copy())
        assert scans == [2]

    def test_set_mask_matches_per_clip_mask(self):
        specs = small_set()
        mask = FrequencyMask(np.ones(12, dtype=bool)).remove([0, 5, 6, 11])
        masked = apply_mask(specs, mask)
        assert isinstance(masked, SpecSet) and masked.clips().flags.c_contiguous
        for i, row in enumerate(masked):
            oracle = apply_mask(specs[i : i + 1], mask)  # each clip masked alone
            np.testing.assert_array_equal(row.values, oracle.clips(0))
            np.testing.assert_array_equal(row.band_centers, oracle.band_centers)
            assert row.clip_id == oracle.clip_ids[0] and row.label == specs[i].label
        np.testing.assert_array_equal(masked.labels, specs.labels)
        np.testing.assert_array_equal(masked.clip_ids, specs.clip_ids)

    def test_full_mask_returns_input(self):
        specs = small_set()
        assert apply_mask(specs, FrequencyMask.full(12)) is specs
        sub = apply_mask(specs[0:3], FrequencyMask.full(12))
        assert sub.values is specs.values  # shared, not copied
        np.testing.assert_array_equal(sub.clips(), specs.values[0:3])

    def test_mask_of_other_length_refused(self):
        with pytest.raises(ShapeError):
            apply_mask(small_set(), FrequencyMask.full(16))


def draw_view(data, specs: SpecSet):
    """One random derivation of ``specs`` and the numpy index it applies:
    ("rows", idx) for a slice (negative steps included), an index array
    or a bool mask; ("bands", keep) for ``apply_mask``."""
    n, f = len(specs), specs.n_bands
    kind = data.draw(st.sampled_from(["slice", "index", "bool", "mask"]), label="kind")
    if kind == "mask":
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=f, max_size=f), label="keep"))
        keep[data.draw(st.integers(0, f - 1), label="kept band")] = True
        return apply_mask(specs, FrequencyMask(keep)), ("bands", keep)
    if kind == "slice":
        bound = st.none() | st.integers(-n - 2, n + 2)
        step = data.draw(st.sampled_from([None, 1, 2, 3, -1, -2, -3]), label="step")
        idx = slice(data.draw(bound, label="start"), data.draw(bound, label="stop"), step)
    elif kind == "index":
        positions = st.lists(st.integers(-n, n - 1), max_size=2 * n) if n else st.just([])
        idx = np.array(data.draw(positions, label="positions"), dtype=np.int64)
    else:
        idx = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="rows"), dtype=bool)
    return specs[idx], ("rows", idx)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_views_match_an_eager_oracle(data):
    """Chains of indexing and ``apply_mask`` read what the same numpy
    indexing of a private copy reads, share the parent's array, and write
    a cache that reads back as the view's clips."""
    specs = small_set()
    parent = specs.values
    values, centers = specs.values.copy(), specs.band_centers.copy()
    columns = {c: getattr(specs, c).copy() for c in SpecSet.COLUMNS}
    for _ in range(data.draw(st.integers(1, 4), label="chain length")):
        specs, (axis, idx) = draw_view(data, specs)
        if axis == "bands":
            values, centers = values[..., idx], centers[idx]
        else:
            values, columns = values[idx], {c: v[idx] for c, v in columns.items()}
    assert specs.values is parent
    assert len(specs) == len(values) and (specs.n_frames, specs.n_bands) == values.shape[1:]
    np.testing.assert_array_equal(specs.clips(), values)
    np.testing.assert_array_equal(specs.clips(slice(None, None, -2)), values[::-2])
    np.testing.assert_array_equal(specs.clips(np.arange(len(values))[::-1]), values[::-1])
    np.testing.assert_array_equal(specs.band_centers, centers)
    for column, oracle in columns.items():
        np.testing.assert_array_equal(getattr(specs, column), oracle)
    for i in range(-len(values), len(values)):
        np.testing.assert_array_equal(specs[i].values, values[i])
        assert specs[i].clip_id == columns["clip_ids"][i]
    if not len(specs):
        return
    with tempfile.TemporaryDirectory() as tmp:
        write_spec_cache(Path(tmp) / "view.cache", specs, {"dataset": "view"})
        back, _, _ = read_spec_cache(Path(tmp) / "view.cache")
    np.testing.assert_array_equal(back.values, values)
    np.testing.assert_array_equal(back.band_centers, centers)
    for column, oracle in columns.items():
        np.testing.assert_array_equal(getattr(back, column), oracle)

"""Dataset parsing (ICBHI 2017, SPRSound) and the synthetic
planted-band corpus used for desk-scale verification.

ICBHI layout: one WAV per recording plus a same-stem .txt annotation
with lines "begin end crackles wheezes"; the filename's first
underscore token is the patient id and the last is the device. Ages
come from a *demographic*.txt file (patient id, age, ...); the
official split from a *train_test*.txt file (stem, train|test).

SPRSound layout: WAVs plus same-stem .json annotations holding an
"event_annotation" list of {start, end, type} in milliseconds (a .txt
fallback with "start end type" lines is also accepted). Records are
tagged official_train/official_test from train/test path components.
"""

from __future__ import annotations

import json
import logging
import math
import weakref
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio import Spectrogram, _band_centers, mel_edges
from .errors import ConfigError, DataError, ShapeError
from .metrics import collapse_to_binary
from .seeding import rng_for

__all__ = [
    "CycleRecord",
    "SpecSet",
    "SynthSpec",
    "ICBHI_CLASSES",
    "SPRSOUND_CLASSES",
    "parse_icbhi",
    "parse_sprsound",
    "synth_corpus",
]

log = logging.getLogger("lungsound.data")

ICBHI_CLASSES = ("Normal", "Crackle", "Wheeze", "Crackle+Wheeze")
SPRSOUND_CLASSES = (
    "Normal",
    "Rhonchi",
    "Wheeze",
    "Stridor",
    "Coarse Crackle",
    "Fine Crackle",
    "Wheeze and Crackle",
)
SPLITS = ("official_train", "official_test", "unsplit")


@dataclass
class CycleRecord:
    """One annotated respiratory cycle or sound event."""

    audio_path: str
    onset_s: float
    offset_s: float
    label: int
    patient_id: str
    age_years: float | None = None
    device_id: str | None = None
    split: str = "unsplit"  # official_train | official_test | unsplit
    clip_id: str = ""

    def __post_init__(self):
        if not 0 <= self.onset_s < self.offset_s < math.inf:
            raise DataError(
                f"bad cycle bounds [{self.onset_s}, {self.offset_s}] in {self.audio_path}"
            )
        if self.split not in SPLITS:
            raise DataError(f"unknown split tag {self.split!r}")
        if not self.clip_id:
            self.clip_id = f"{Path(self.audio_path).stem}_{self.onset_s:.3f}"


# the values arrays of sets whose scan for non-finite values passed, by id
_FINITE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(eq=False)
class SpecSet:
    """Equally shaped labeled spectrograms, stored by column.

    ``values`` is one array that every set derived from this one shares:
    ``rows`` and ``bands`` index the clips and bands of it held here (None:
    all), and ``clips(idx)`` reads them. The metadata are (N,) columns in
    the same order. Splits, folds and age strata index the columns
    (``specs[specs.splits == "official_test"]``) and a frequency mask the
    bands (``masks.apply_mask``); neither copies ``values``. An integer
    index gives one clip as a ``Spectrogram`` (label None for -1, clip id)
    and iteration yields them in order; a slice or index array a ``SpecSet``.
    """

    values: np.ndarray  # (M, T, B) float32, all finite, shared by derived sets
    band_centers: np.ndarray  # (F,) Hz of the kept bands, strictly increasing
    hop_seconds: float
    labels: np.ndarray  # (N,) int64; -1 marks an unlabeled clip
    patient_ids: np.ndarray  # (N,) str, None where unknown
    ages: np.ndarray  # (N,) float64 years, NaN where unknown
    splits: np.ndarray  # (N,) one of SPLITS
    clip_ids: np.ndarray  # (N,) str
    rows: np.ndarray | None = None  # (N,) positions in values' first axis
    bands: np.ndarray | None = None  # (F,) positions in values' last axis

    COLUMNS = ("labels", "patient_ids", "ages", "splits", "clip_ids")

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3:
            raise ShapeError(f"a spectrogram set is (N, T, F), got shape {self.values.shape}")
        self.hop_seconds = float(self.hop_seconds)
        for name, dtype in zip(self.COLUMNS, (np.int64, object, np.float64, object, object)):
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != (len(self),):
                raise ShapeError(f"{name} column of shape {column.shape} for {len(self)} clips")
            setattr(self, name, column)
        self.band_centers = _band_centers(self.band_centers, self.n_bands)
        if not self.hop_seconds > 0:
            raise DataError(f"hop must be positive, got {self.hop_seconds}")
        if (self.labels < -1).any() or not set(self.splits.tolist()) <= set(SPLITS):
            raise DataError("labels must be >= 0 (-1: unlabeled) and splits one of " + str(SPLITS))
        # min and max carry any NaN or inf, without a mask the size of
        # values; a set derived from another shares its checked array
        if self.values.size and _FINITE.get(id(self.values)) is not self.values:
            if not np.isfinite([self.values.min(), self.values.max()]).all():
                raise DataError("spectrogram set contains non-finite values")
            _FINITE[id(self.values)] = self.values

    def __len__(self) -> int:
        return len(self.values if self.rows is None else self.rows)

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    @property
    def n_bands(self) -> int:
        return self.values.shape[2] if self.bands is None else len(self.bands)

    def clips(self, idx=slice(None)) -> np.ndarray:
        """The (T, F) or (n, T, F) kept bands of the clips at ``idx``: a fresh
        array, or a view when the set holds all of ``values`` and ``idx`` is an int or slice."""
        x = self.values[idx if self.rows is None else self.rows[idx]]
        return x if self.bands is None else x.take(self.bands, axis=-1)

    def __getitem__(self, idx):
        if not isinstance(idx, (int, np.integer)):
            rows = np.arange(len(self))[idx] if self.rows is None else self.rows[idx]
            return replace(self, rows=rows, **{c: getattr(self, c)[idx] for c in self.COLUMNS})
        label = int(self.labels[idx])
        return Spectrogram(
            self.clips(idx), self.band_centers, self.hop_seconds,
            None if label < 0 else label, self.clip_ids[idx],
        )

    def targets(self, task: str) -> np.ndarray:
        """Class labels for ``task``; "binary" maps every adventitious class to 1."""
        if (self.labels < 0).any():
            i = int(np.argmax(self.labels < 0))
            raise DataError(f"spectrogram {i} ({self.clip_ids[i]!r}) has no label")
        return collapse_to_binary(self.labels) if task == "binary" else self.labels


# -- ICBHI ------------------------------------------------------------------------


def _read_icbhi_demographics(root: Path) -> dict[str, float]:
    ages: dict[str, float] = {}
    for path in sorted(root.rglob("*.txt")):
        if "demographic" not in path.name.lower():
            continue
        for line in path.read_text().splitlines():
            parts = line.split()
            if len(parts) < 2:
                continue
            try:
                ages[parts[0]] = float(parts[1])
            except ValueError:
                continue  # missing age recorded as NA or similar
    return ages


def _read_icbhi_split(root: Path) -> dict[str, str]:
    split: dict[str, str] = {}
    for path in sorted(root.rglob("*.txt")):
        if "train_test" not in path.name.lower():
            continue
        for line in path.read_text().splitlines():
            parts = line.split()
            if len(parts) != 2:
                continue
            split[parts[0]] = "official_train" if parts[1] == "train" else "official_test"
    return split


def _icbhi_label(crackles: int, wheezes: int) -> int:
    return {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}[(crackles, wheezes)]


def parse_icbhi(root_dir) -> list[CycleRecord]:
    """Parse an ICBHI 2017 tree into one record per annotated cycle."""
    root = Path(root_dir)
    if not root.is_dir():
        raise DataError(f"ICBHI root {root} is not a directory")
    ages = _read_icbhi_demographics(root)
    split_map = _read_icbhi_split(root)
    records: list[CycleRecord] = []
    wavs = sorted(root.rglob("*.wav"))
    if not wavs:
        raise DataError(f"no WAV files under {root}")
    for wav in wavs:
        ann = wav.with_suffix(".txt")
        if not ann.exists():
            log.warning("no annotation for %s, skipped", wav.name)
            continue
        stem = wav.stem
        tokens = stem.split("_")
        patient = tokens[0]
        device = tokens[-1] if len(tokens) > 1 else None
        split = split_map.get(stem)
        if split is None and split_map:
            log.warning("recording %s missing from the official split list", stem)
        for lineno, line in enumerate(ann.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            parts = line.split()
            try:
                onset, offset = float(parts[0]), float(parts[1])
                crackles, wheezes = int(float(parts[2])), int(float(parts[3]))
                if crackles not in (0, 1) or wheezes not in (0, 1) or len(parts) != 4:
                    raise ValueError
            except (ValueError, IndexError):
                raise DataError(f"malformed annotation line {ann}:{lineno}: {line!r}") from None
            records.append(
                CycleRecord(
                    audio_path=str(wav),
                    onset_s=onset,
                    offset_s=offset,
                    label=_icbhi_label(crackles, wheezes),
                    patient_id=patient,
                    age_years=ages.get(patient),
                    device_id=device,
                    split=split or "unsplit",
                    clip_id=f"{stem}_{lineno}",
                )
            )
    return records


# -- SPRSound ---------------------------------------------------------------------


def _sprsound_label(event_type: str) -> int:
    try:
        return SPRSOUND_CLASSES.index(event_type)
    except ValueError:
        raise DataError(
            f"unknown SPRSound event type {event_type!r}; expected one of "
            f"{list(SPRSOUND_CLASSES)}"
        ) from None


def _split_from_path(path: Path) -> str:
    parts = {p.lower() for p in path.parts}
    for p in parts:
        if "train" in p:
            return "official_train"
    for p in parts:
        if "test" in p:
            return "official_test"
    return "unsplit"


def _sprsound_events(ann: Path) -> list[tuple[float, float, str]]:
    """(onset s, offset s, type) of each event of an annotation file: the
    ``event_annotation`` list of a JSON object, or a .txt line
    "start end type" per event, with bounds in ms."""
    if ann.suffix == ".json":
        try:
            payload = json.loads(ann.read_text())
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise DataError(f"annotation {ann} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise DataError(f"annotation {ann} does not hold a JSON object")
        events = payload.get("event_annotation", [])
        if not isinstance(events, list):
            raise DataError(f"event_annotation of {ann} is not a list")
    else:
        events = [line for line in ann.read_text().splitlines() if line.strip()]
    parsed = []
    for ev in events:
        try:
            if ann.suffix == ".json":
                start, end, etype = ev["start"], ev["end"], ev["type"]
            else:
                start, end, etype = ev.strip().split(None, 2)
            parsed.append((float(start) / 1000.0, float(end) / 1000.0, str(etype)))
        except (KeyError, TypeError, ValueError):
            raise DataError(f"malformed event in {ann}: {ev!r}") from None
    return parsed


def parse_sprsound(root_dir, edition: int = 2022) -> list[CycleRecord]:
    """Parse a SPRSound tree into one record per annotated event.

    The 2023 edition is test-only; records default to official_test there.
    """
    if edition not in (2022, 2023):
        raise ConfigError(f"unknown SPRSound edition {edition}")
    root = Path(root_dir)
    if not root.is_dir():
        raise DataError(f"SPRSound root {root} is not a directory")
    records: list[CycleRecord] = []
    wavs = sorted(root.rglob("*.wav"))
    if not wavs:
        raise DataError(f"no WAV files under {root}")
    for wav in wavs:
        ann = wav.with_suffix(".json")
        if not ann.exists():
            ann = wav.with_suffix(".txt")
        if not ann.exists():
            log.warning("no annotation for %s, skipped", wav.name)
            continue
        tokens = wav.stem.split("_")
        patient = tokens[0]
        age = None
        if len(tokens) > 1:
            try:
                age = float(tokens[1])
            except ValueError:
                age = None
        split = _split_from_path(wav.relative_to(root))
        if split == "unsplit" and edition == 2023:
            split = "official_test"
        for i, (onset, offset, etype) in enumerate(_sprsound_events(ann), start=1):
            records.append(
                CycleRecord(
                    audio_path=str(wav),
                    onset_s=onset,
                    offset_s=offset,
                    label=_sprsound_label(etype),
                    patient_id=patient,
                    age_years=age,
                    split=split,
                    clip_id=f"{wav.stem}_{i}",
                )
            )
    return records


# -- synthetic planted-band corpus ---------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings for the planted-band verification corpus.

    Each class's discriminative energy lives only in its planted
    bands: a class-specific temporal pulse pattern (unit mean square)
    scaled by 10^(snr_db/20) with independent per-(sample, band)
    amplitude jitter, on top of unit white noise. Per-class band sets may coincide (shared
    bands, classes differ by pattern) or be disjoint (classes differ by
    which bands carry energy).
    """

    n_classes: int = 2
    n_bands: int = 64
    n_frames: int = 249
    n_per_class: int = 200
    snr_db: float = 10.0
    planted_bands: tuple[tuple[int, ...], ...] | None = None
    disjoint: bool = False
    amp_jitter: tuple[float, float] = (0.7, 1.4)
    jitter_log: bool = False  # draw jitter log-uniformly (heavy spread)
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "n_per_class", "n_frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.snr_db > -math.inf:  # +inf is the noiseless corpus
            raise ConfigError(f"snr_db must be a number above -inf, got {self.snr_db}")

    def resolved_bands(self) -> tuple[tuple[int, ...], ...]:
        if self.planted_bands is not None:
            bands = tuple(tuple(sorted(int(i) for i in b)) for b in self.planted_bands)
        else:
            # default: one contiguous group per class, spread out
            gap = self.n_bands // (self.n_classes + 1)
            width = max(1, min(4, gap))
            bands = tuple(
                tuple(range(min(gap * (c + 1), self.n_bands - width),
                            min(gap * (c + 1), self.n_bands - width) + width))
                for c in range(self.n_classes)
            )
        if len(bands) != self.n_classes:
            raise ConfigError(
                f"{len(bands)} planted band sets for {self.n_classes} classes"
            )
        for b in bands:
            if not b or min(b) < 0 or max(b) >= self.n_bands:
                raise ConfigError(f"planted bands {b} outside [0, {self.n_bands})")
        if self.disjoint:
            seen: set[int] = set()
            for b in bands:
                if seen.intersection(b):
                    raise ConfigError("planted band sets overlap but disjointness was requested")
                seen.update(b)
        return bands


def _class_pattern(class_id: int, n_frames: int) -> np.ndarray:
    """Unit-mean-square temporal texture; classes differ locally.

    Class 0 is a steady tone; class c >= 1 is a pulse train with period
    2c frames (shorter period = denser clicks). Texture differences
    survive the model's frequency and time pooling, unlike pure band
    position or phase.
    """
    if class_id == 0:
        return np.ones(n_frames, dtype=np.float32)
    period = 2 * class_id
    pattern = ((np.arange(n_frames) % period) < period / 2).astype(np.float64)
    rms = np.sqrt(np.mean(pattern**2))
    return (pattern / rms).astype(np.float32)


def _jitter_norm(cfg: SynthSpec) -> float:
    """Scale factor making E[jitter^2] = 1 so snr_db stays the corpus mean."""
    lo, hi = cfg.amp_jitter
    if lo == hi:
        return 1.0 / lo
    if cfg.jitter_log:
        mean_sq = (hi**2 - lo**2) / (2.0 * (math.log(hi) - math.log(lo)))
    else:
        mean_sq = (hi**3 - lo**3) / (3.0 * (hi - lo))
    return 1.0 / math.sqrt(mean_sq)


def _jitter(cfg: SynthSpec, u: np.ndarray) -> np.ndarray:
    """Per-band amplitude jitter from uniform draws ``u`` in [0, 1).

    ``lo + (hi - lo) * u`` is how ``Generator.uniform(lo, hi)`` maps
    each draw, so the values are those it would give.
    """
    lo, hi = cfg.amp_jitter
    if cfg.jitter_log:
        lo, hi = math.log(lo), math.log(hi)
        return np.exp(lo + (hi - lo) * u)
    return lo + (hi - lo) * u


def synth_corpus(cfg: SynthSpec) -> SpecSet:
    """Generate the labeled planted-band corpus (seed-deterministic).

    snr_db is the corpus-mean planted-cell signal power over the unit
    noise variance; per-(sample, band) amplitude jitter spreads
    difficulty around that mean.
    """
    bands = cfg.resolved_bands()
    amp0 = 10.0 ** (cfg.snr_db / 20.0) if np.isfinite(cfg.snr_db) else None
    jnorm = _jitter_norm(cfg)
    rng = rng_for(cfg.seed, "synth-corpus")
    centers = mel_edges(cfg.n_bands)[1:-1]
    n = cfg.n_classes * cfg.n_per_class
    values = np.empty((n, cfg.n_frames, cfg.n_bands), dtype=np.float32)
    block = np.empty((cfg.n_per_class, cfg.n_frames, cfg.n_bands))  # one class, float64
    for c in range(cfg.n_classes):
        band_idx = np.asarray(bands[c], dtype=np.int64)
        if amp0 is None:
            block[...] = 0.0
            amps = np.ones((cfg.n_per_class, len(band_idx)))
        else:
            u = np.empty((cfg.n_per_class, len(band_idx)))
            for i in range(cfg.n_per_class):  # each clip's noise, then its jitter draws
                rng.standard_normal(out=block[i])  # the stream of rng.normal(0, 1, size)
                rng.random(out=u[i])
            amps = amp0 * jnorm * _jitter(cfg, u)
        block[:, :, band_idx] += amps[:, None, :] * _class_pattern(c, cfg.n_frames)[None, :, None]
        values[c * cfg.n_per_class : (c + 1) * cfg.n_per_class] = block
    rows = [(c, i) for c in range(cfg.n_classes) for i in range(cfg.n_per_class)]
    return SpecSet(
        values, centers, 0.032,
        labels=[c for c, _ in rows],
        patient_ids=[f"synth-c{c}-p{i:04d}" for c, i in rows],
        ages=np.full(n, np.nan),
        splits=["unsplit"] * n,
        clip_ids=[f"synth-c{c}-{i:04d}" for c, i in rows],
    )

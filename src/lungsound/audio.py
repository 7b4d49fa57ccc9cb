"""Audio frontend: WAV loading, 16 kHz standardization, duration
fitting, log-Mel spectrograms, and SpecAugment masking.

Conventions (fixed so the numeric tests are exact):
  * periodic Hann window, no STFT centering, so the frame count is
    exactly floor((n_samples - win) / hop) + 1
  * HTK mel scale: mel(f) = 2595 * log10(1 + f / 700)
  * log compression log(power + LOG_FLOOR) with LOG_FLOOR = 1e-10
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, ShapeError

__all__ = [
    "AudioClip",
    "Spectrogram",
    "LOG_FLOOR",
    "TARGET_RATE",
    "read_wav",
    "standardize",
    "fit_duration",
    "mel_edges",
    "mel_filterbank",
    "mel_spectrogram",
]

TARGET_RATE = 16_000
LOG_FLOOR = 1e-10
FADE_SECONDS = 0.1  # fade at the end of each copy in ``fit_duration``'s repeat_fade


@dataclass
class AudioClip:
    """Raw audio with its source.

    ``samples`` is float32, shape (n,) for mono or (n, channels)
    before standardization.
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.size == 0:
            raise DataError(f"empty audio clip (source {self.source_id!r})")
        if self.sample_rate <= 0:
            raise DataError(f"non-positive sample rate {self.sample_rate}")


def _band_centers(centers, n_bands: int) -> np.ndarray:
    """``centers`` as float64 Hz, checked to be ``n_bands`` strictly increasing values."""
    centers = np.asarray(centers, dtype=np.float64)
    if centers.shape != (n_bands,):
        raise ShapeError(f"band_centers length {centers.shape} does not match {n_bands} bands")
    if not np.all(np.diff(centers) > 0):
        raise DataError("band centers must be strictly increasing")
    return centers


@dataclass
class Spectrogram:
    """One clip's log-Mel energies, time on axis 0 and Mel band on axis 1.

    Patient, age and split are dataset columns (``data.SpecSet``), not
    clip fields.
    """

    values: np.ndarray  # (T, F) float32
    band_centers: np.ndarray  # (F,) Hz, strictly increasing
    hop_seconds: float
    label: int | None = None
    clip_id: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ShapeError(f"spectrogram must be 2-D, got {self.values.shape}")
        self.band_centers = _band_centers(self.band_centers, self.n_bands)
        if not np.all(np.isfinite(self.values)):
            raise DataError("spectrogram contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bands(self) -> int:
        return self.values.shape[1]


# -- loading and standardization ------------------------------------------------

_INT_SCALES = {np.dtype(np.int16): 2**15, np.dtype(np.int32): 2**31}


def read_wav(path) -> AudioClip:
    """Read a PCM WAV (16/24/32-bit int or 32-bit float) as float32.

    Integer samples are scaled to [-1, 1); 24-bit files arrive from
    scipy as left-justified int32 and scale the same way.
    """
    from scipy.io import wavfile  # loaded by preprocess alone, as scipy.signal below

    try:
        rate, data = wavfile.read(str(path))
    except (ValueError, OSError) as exc:
        raise DataError(f"cannot read WAV {path}: {exc}") from exc
    if data.dtype in _INT_SCALES:
        data = data.astype(np.float32) / _INT_SCALES[data.dtype]
    elif data.dtype == np.uint8:
        data = (data.astype(np.float32) - 128.0) / 128.0
    else:
        data = data.astype(np.float32)
    return AudioClip(data, int(rate), source_id=str(path))


def standardize(clip: AudioClip) -> AudioClip:
    """Resample to 16 kHz mono (polyphase filter, mean channel downmix)."""
    # imported here, so that no other command pays its ~1.2 s and 54 MB
    # (2-vCPU host)
    from scipy.signal import resample_poly

    if clip.sample_rate < 4000:
        raise DataError(
            f"sample rate {clip.sample_rate} below supported minimum 4000 Hz"
        )
    samples = clip.samples
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if clip.sample_rate == TARGET_RATE:
        if samples is clip.samples:
            return clip
        return replace(clip, samples=samples)
    g = math.gcd(clip.sample_rate, TARGET_RATE)
    out = resample_poly(samples.astype(np.float64), TARGET_RATE // g, clip.sample_rate // g)
    return replace(clip, samples=out.astype(np.float32), sample_rate=TARGET_RATE)


def fit_duration(clip: AudioClip, target_seconds: float = 8.0, mode: str = "circular") -> AudioClip:
    """Force a clip to exactly ``target_seconds``.

    Longer clips keep their start. Shorter clips are extended either by
    circular wrapping or by repetition where each full copy fades
    linearly to zero over its last ``FADE_SECONDS`` (smooth seams).
    """
    if mode not in ("circular", "repeat_fade"):
        raise ValueError(f"unknown fit_duration mode {mode!r}")
    target = int(round(target_seconds * clip.sample_rate))
    n = clip.samples.shape[0]
    if n == target:
        return clip
    if n > target:
        return replace(clip, samples=clip.samples[:target].copy())
    if mode == "circular":
        reps = -(-target // n)
        out = np.tile(clip.samples, reps)[:target]
        return replace(clip, samples=out.copy())
    fade = min(int(round(FADE_SECONDS * clip.sample_rate)), n)
    unit = clip.samples.copy()
    if fade > 0:
        unit[n - fade :] *= np.linspace(1.0, 0.0, fade, dtype=np.float32)
    reps = -(-target // n)
    out = np.tile(unit, reps)[:target]
    return replace(clip, samples=out.copy())


# -- Mel spectrogram --------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_edges(n_mels: int = 64, f_min: float = 50.0, f_max: float = 2000.0) -> np.ndarray:
    """The n_mels + 2 corners (Hz) of ``mel_filterbank``'s triangles, evenly
    spaced in mel; band b peaks at corner b + 1. A set's band centers come
    from here, without building a filterbank's (n_mels, n_fft//2+1) arrays."""
    return mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2))


def mel_filterbank(
    n_mels: int = 64,
    n_fft: int = 1024,
    sample_rate: int = TARGET_RATE,
    f_min: float = 50.0,
    f_max: float = 2000.0,
):
    """Triangular mel filterbank.

    Returns (weights, centers): weights has shape (n_mels, n_fft//2+1);
    centers are the triangle peak frequencies in Hz.
    """
    if not 0 <= f_min < f_max <= sample_rate / 2:
        raise ValueError(f"bad mel range [{f_min}, {f_max}] at rate {sample_rate}")
    hz_pts = mel_edges(n_mels, f_min, f_max)
    bin_freqs = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    left, center, right = hz_pts[:-2], hz_pts[1:-1], hz_pts[2:]
    rising = (bin_freqs[None, :] - left[:, None]) / (center - left)[:, None]
    falling = (right[:, None] - bin_freqs[None, :]) / (right - center)[:, None]
    weights = np.maximum(0.0, np.minimum(rising, falling)).astype(np.float32)
    return weights, center.copy()


def mel_spectrogram(
    clip: AudioClip,
    n_mels: int = 64,
    win: int = 1024,
    hop: int = 512,
    f_min: float = 50.0,
    f_max: float = 2000.0,
) -> Spectrogram:
    """Log-Mel spectrogram of a standardized (16 kHz mono) clip."""
    if clip.sample_rate != TARGET_RATE:
        raise DataError(
            f"mel_spectrogram expects a {TARGET_RATE} Hz clip, got {clip.sample_rate}"
        )
    x = clip.samples
    if x.ndim != 1:
        raise DataError("mel_spectrogram expects mono audio; run standardize first")
    n = x.shape[0]
    if n < win:
        raise DataError(f"clip of {n} samples shorter than one window ({win})")
    n_frames = (n - win) // hop + 1
    idx = np.arange(n_frames)[:, None] * hop + np.arange(win)[None, :]
    window = np.hanning(win + 1)[:-1].astype(np.float32)  # periodic Hann
    frames = x[idx] * window
    spectrum = np.fft.rfft(frames, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2).astype(np.float32)
    fb, centers = mel_filterbank(n_mels, win, clip.sample_rate, f_min, f_max)
    mel = power @ fb.T
    values = np.log(mel + np.float32(LOG_FLOOR))
    return Spectrogram(
        values=values.astype(np.float32),
        band_centers=centers,
        hop_seconds=hop / clip.sample_rate,
    )


# -- SpecAugment -------------------------------------------------------------------


def _augment_values(
    values: np.ndarray,
    time_masks: int,
    freq_masks: int,
    max_t: int,
    max_f: int,
    rng: np.random.Generator,
) -> None:
    """In-place time/frequency masking; fill value is the overall mean.

    Widths are drawn from [0, max_t] and [0, max_f], which must not
    exceed the clip's frames and bands (``train`` clamps them).
    """
    t_dim, f_dim = values.shape
    fill = np.float32(values.mean())
    for _ in range(time_masks):
        width = int(rng.integers(0, max_t + 1))
        if width == 0:
            continue
        start = int(rng.integers(0, t_dim - width + 1))
        values[start : start + width, :] = fill
    for _ in range(freq_masks):
        width = int(rng.integers(0, max_f + 1))
        if width == 0:
            continue
        start = int(rng.integers(0, f_dim - width + 1))
        values[:, start : start + width] = fill


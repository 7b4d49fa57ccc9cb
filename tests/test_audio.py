"""Audio frontend tests: resampling, duration fitting, the mel
spectrogram contract, filterbank geometry, and SpecAugment."""

import math

import numpy as np
import pytest

from lungsound.audio import (
    LOG_FLOOR,
    AudioClip,
    _augment_values,
    fit_duration,
    mel_filterbank,
    mel_spectrogram,
    standardize,
)
from lungsound.errors import DataError


def tone(freq, seconds, rate, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


class TestStandardize:
    def test_identity_fast_path(self):
        clip = AudioClip(tone(440, 1.0, 16000), 16000)
        assert standardize(clip) is clip

    def test_resample_preserves_tone_frequency(self):
        clip = AudioClip(tone(440, 1.0, 32000), 32000)
        out = standardize(clip)
        assert out.sample_rate == 16000
        spectrum = np.abs(np.fft.rfft(out.samples.astype(np.float64)))
        peak_hz = np.argmax(spectrum) * 16000 / len(out.samples)
        assert abs(peak_hz - 440.0) <= 1.0  # one bin at 1 s duration

    def test_stereo_downmix_is_channel_mean(self):
        left = tone(100, 0.1, 16000)
        right = 3.0 * left
        clip = AudioClip(np.stack([left, right], axis=1), 16000)
        out = standardize(clip)
        np.testing.assert_allclose(out.samples, 2.0 * left, rtol=1e-6)

    def test_low_rate_rejected(self):
        with pytest.raises(DataError):
            standardize(AudioClip(tone(100, 0.5, 2000), 2000))

    def test_empty_audio_rejected(self):
        with pytest.raises(DataError):
            AudioClip(np.array([], dtype=np.float32), 16000)


class TestFitDuration:
    def test_exact_length_unchanged(self):
        clip = AudioClip(tone(200, 8.0, 16000), 16000)
        assert fit_duration(clip, 8.0) is clip

    def test_idempotent_on_8s(self):
        clip = AudioClip(tone(200, 3.0, 16000), 16000)
        once = fit_duration(clip, 8.0)
        twice = fit_duration(once, 8.0)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_circular_wrap_definition(self):
        clip = AudioClip(tone(321, 2.0, 16000), 16000)
        out = fit_duration(clip, 8.0, mode="circular")
        n = clip.samples.shape[0]
        assert out.samples.shape[0] == 8 * 16000
        for k in (0, n - 1, n, 2 * n + 17, 8 * 16000 - 1):
            assert out.samples[k] == clip.samples[k % n]

    def test_truncation_keeps_start(self):
        clip = AudioClip(tone(150, 10.0, 16000), 16000)
        out = fit_duration(clip, 8.0)
        np.testing.assert_array_equal(out.samples, clip.samples[: 8 * 16000])

    def test_repeat_fade_seams_fade_to_zero(self):
        clip = AudioClip(np.ones(16000, dtype=np.float32), 16000)
        out = fit_duration(clip, 2.0, mode="repeat_fade", fade_seconds=0.1)
        assert out.samples.shape[0] == 32000
        assert out.samples[15999] == 0.0  # end of the first copy fully faded
        assert out.samples[16000] == 1.0  # next copy restarts at full level
        fade = out.samples[16000 - 1600 : 16000]
        assert np.all(np.diff(fade) <= 0)


class TestMelSpectrogram:
    def test_silence_is_constant_log_floor(self):
        clip = AudioClip(np.zeros(16000, dtype=np.float32), 16000)
        spec = mel_spectrogram(clip)
        np.testing.assert_allclose(spec.values, math.log(LOG_FLOOR), rtol=1e-6)

    def test_frame_count_formula_8s(self):
        clip = AudioClip(np.zeros(8 * 16000, dtype=np.float32), 16000)
        spec = mel_spectrogram(clip)
        assert spec.n_frames == 249  # floor((128000-1024)/512)+1
        assert spec.n_bands == 64

    def test_tone_hits_nearest_band_every_frame(self):
        clip = AudioClip(tone(1000, 2.0, 16000), 16000)
        spec = mel_spectrogram(clip)
        nearest = int(np.argmin(np.abs(spec.band_centers - 1000.0)))
        assert np.all(spec.values.argmax(axis=1) == nearest)

    def test_too_short_clip_errors(self):
        with pytest.raises(DataError):
            mel_spectrogram(AudioClip(np.zeros(512, dtype=np.float32), 16000))

    def test_requires_16k(self):
        with pytest.raises(DataError):
            mel_spectrogram(AudioClip(np.zeros(32000, dtype=np.float32), 32000))

    def test_deterministic(self):
        x = np.random.default_rng(0).normal(size=32000).astype(np.float32)
        a = mel_spectrogram(AudioClip(x, 16000)).values
        b = mel_spectrogram(AudioClip(x.copy(), 16000)).values
        assert np.array_equal(a, b)

    def test_energy_monotonicity(self):
        x = np.random.default_rng(1).normal(size=32000).astype(np.float32) * 0.1
        lo = mel_spectrogram(AudioClip(x, 16000)).values
        hi = mel_spectrogram(AudioClip(3.0 * x, 16000)).values
        assert np.all(hi >= lo - 1e-6)

    def test_band_centers_increasing_in_range(self):
        spec = mel_spectrogram(AudioClip(np.zeros(16000, np.float32), 16000))
        assert np.all(np.diff(spec.band_centers) > 0)
        assert spec.band_centers[0] >= 50.0
        assert spec.band_centers[-1] <= 2000.0


class TestMelFilterbank:
    def test_rows_sum_positive(self):
        fb, _ = mel_filterbank()
        assert np.all(fb.sum(axis=1) > 0)

    def test_no_spectral_holes_inside_range(self):
        fb, _ = mel_filterbank()
        freqs = np.fft.rfftfreq(1024, d=1 / 16000)
        inside = (freqs > 50.0) & (freqs < 2000.0)
        coverage = fb.sum(axis=0)
        assert np.all(coverage[inside] > 0)

    def test_nothing_outside_range(self):
        fb, _ = mel_filterbank()
        freqs = np.fft.rfftfreq(1024, d=1 / 16000)
        outside = (freqs < 50.0) | (freqs > 2000.0)
        assert np.all(fb[:, outside] == 0)


class TestSpecAugment:
    """``_augment_values``, the in-place masking ``train`` applies to each batch row."""

    def make_values(self, t=40, f=16, seed=0):
        return np.random.default_rng(seed).normal(size=(t, f)).astype(np.float32)

    def test_zero_masks_is_identity(self):
        values = self.make_values()
        out = values.copy()
        _augment_values(out, 0, 0, 20, 8, np.random.default_rng(0))
        np.testing.assert_array_equal(out, values)

    def test_masked_region_equals_mean(self):
        values = self.make_values()
        mean = values.mean()
        out = values.copy()
        _augment_values(out, 1, 0, 40, 0, np.random.default_rng(3))
        masked = np.flatnonzero((out == mean).all(axis=1))
        changed = np.flatnonzero((out != values).any(axis=1))
        assert set(changed).issubset(set(masked))

    def test_fixed_seed_reproducible(self):
        a, b = self.make_values(), self.make_values()
        _augment_values(a, 2, 2, 10, 4, np.random.default_rng(42))
        _augment_values(b, 2, 2, 10, 4, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

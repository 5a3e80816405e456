import numpy as np
import pytest
from scipy.signal import butter, sosfiltfilt

from f0warp import (
    AudioBuffer,
    DomainError,
    PitchConfig,
    PitchFrame,
    PitchTrack,
    TooShort,
    VowelSpec,
    detect_pitch,
    median_f0,
    shift_vowel_for_f0,
    synth_harmonic,
    synth_vowel,
)
from f0warp import pitch
from tests.conftest import noisy_harmonic

SR = 16000


def _interior(track):
    return track.frames[1:-1]


class TestDetector:
    def test_clean_100hz_train(self):
        track = detect_pitch(synth_harmonic(100.0, 1.0))
        for frame in _interior(track):
            assert frame.voiced
            assert abs(frame.f0 - 100.0) <= 2.0

    def test_clean_270hz_train(self):
        track = detect_pitch(synth_harmonic(270.0, 1.0))
        for frame in _interior(track):
            assert frame.voiced
        uf = median_f0(track, 100.0)
        assert abs(uf.f0_utt - 270.0) <= 3.0

    def test_silence_is_unvoiced(self):
        track = detect_pitch(AudioBuffer(np.zeros(SR), SR))
        assert all(not frame.voiced for frame in track.frames)
        assert all(frame.periodicity == 0.0 for frame in track.frames)

    def test_dc_offset_is_unvoiced(self):
        # A constant stretch has no period: every d' lag is neutral, as over
        # silence.  The FFT form of the kernel must not turn its rounding
        # residue into dips.
        track = detect_pitch(AudioBuffer(np.full(SR, 0.1), SR))
        assert not any(frame.voiced for frame in track.frames)
        assert median_f0(track, 100.0).fallback_used

    def test_dc_offset_then_tone_voices_only_the_tone(self):
        tone = 0.5 * np.sin(2 * np.pi * 200.0 * np.arange(SR // 2) / SR)
        x = np.concatenate([np.full(SR // 2, 0.1), tone])
        track = detect_pitch(AudioBuffer(x, SR))
        win = round(PitchConfig().window * SR)
        for t, frame in enumerate(track.frames):
            start = round(t * track.frame_shift * SR)
            if start + win <= SR // 2:
                assert not frame.voiced, t
            elif start >= SR // 2:
                assert frame.voiced and abs(frame.f0 - 200.0) <= 2.0, (t, frame)

    def test_white_noise_mostly_unvoiced(self, rng):
        buf = AudioBuffer(rng.standard_normal(SR) * 0.2, SR)
        track = detect_pitch(buf)
        voiced = sum(frame.voiced for frame in track.frames)
        assert voiced < 0.2 * len(track.frames)

    @pytest.mark.parametrize("f0", [60.0, 200.0, 400.0])
    def test_noisy_20db_median_within_3hz(self, f0):
        uf = median_f0(detect_pitch(noisy_harmonic(f0, seed=int(f0))), 100.0)
        assert not uf.fallback_used
        assert abs(uf.f0_utt - f0) <= 3.0

    def test_amplitude_invariance(self):
        base = synth_harmonic(150.0, 0.5, amplitude=0.4)
        double = AudioBuffer(base.samples * 2.0, SR)
        track_a = detect_pitch(base)
        track_b = detect_pitch(double)
        # scaling by a power of two is exact, so tracks must match bitwise
        assert [f.f0 for f in track_a.frames] == [f.f0 for f in track_b.frames]
        assert [f.periodicity for f in track_a.frames] == [
            f.periodicity for f in track_b.frames
        ]

    def test_frame_times_increasing_by_shift(self):
        track = detect_pitch(synth_harmonic(120.0, 0.5))
        times = np.array([frame.time for frame in track.frames])
        assert np.allclose(np.diff(times), track.frame_shift)

    def test_voiced_f0_within_search_range(self):
        cfg = PitchConfig(f0_min=80.0, f0_max=300.0)
        track = detect_pitch(noisy_harmonic(100.0, seed=5), cfg)
        for frame in track.frames:
            if frame.voiced:
                assert cfg.f0_min <= frame.f0 <= cfg.f0_max

    def test_too_short_raises(self):
        with pytest.raises(TooShort):
            detect_pitch(AudioBuffer(np.zeros(500), SR))

    def test_f0_max_above_nyquist_rejected(self):
        with pytest.raises(DomainError):
            detect_pitch(
                AudioBuffer(np.zeros(SR), SR), PitchConfig(f0_max=9000.0)
            )

    def test_vowel_a_at_234hz_does_not_lock_on_half_period(self):
        # Moved to 233.9 Hz, vowel a has F1 (969 Hz) near harmonic 4, so d'
        # dips just below DIP_THRESHOLD at half the period (~0.2), far above
        # its dip at the period (~0.01).
        ref = VowelSpec(f0=100.0, formants=(730.0, 1090.0, 2440.0),
                        bandwidths=(60.0, 90.0, 150.0))
        vowel = synth_vowel(shift_vowel_for_f0(ref, 233.9))
        uf = median_f0(detect_pitch(vowel), 100.0)
        assert abs(uf.f0_utt - 233.9) <= 1.0

    @pytest.mark.parametrize("before, after", [(0.0, 0.0), (-0.2, 0.3)])
    def test_flat_stretches_around_a_vowel_are_unvoiced(self, before, after):
        # Digital silence or a DC offset next to sound: band-limited, a flat
        # stretch picks up the filter's response to the sound and rounding
        # residue, neither of which is a pitch.
        vowel = synth_vowel(VowelSpec(f0=180.0, formants=(530.0, 1840.0, 2480.0),
                                      bandwidths=(60.0, 90.0, 150.0), duration=0.8))
        n = vowel.samples.shape[0]
        x = np.concatenate([np.full(SR // 2, before), vowel.samples,
                            np.full(SR // 2, after)])
        track = detect_pitch(AudioBuffer(x, SR))
        win = round(PitchConfig().window * SR)
        flat = 0
        for t, frame in enumerate(track.frames):
            start = round(t * track.frame_shift * SR)
            if start + win <= SR // 2 or start >= SR // 2 + n:
                flat += 1
                assert not frame.voiced and frame.periodicity == 0.0, (t, frame)
        assert flat == 94
        assert median_f0(track, 100.0).voiced_count > 0

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_kernel_block_size_does_not_change_the_track(self, monkeypatch, block):
        # Voiced vowel, silence, a DC stretch and noise, 2 s: 197 frames,
        # so blocks of 7 and 128 end in a partial block; the reference runs
        # them all in one block.
        vowel = synth_vowel(VowelSpec(f0=180.0, formants=(530.0, 1840.0, 2480.0),
                                      bandwidths=(60.0, 90.0, 150.0), duration=0.8))
        rng = np.random.default_rng(3)
        x = np.concatenate([
            vowel.samples, np.zeros(SR // 4), np.full(SR // 4, -0.2),
            0.1 * rng.standard_normal(int(0.7 * SR)),
        ])
        buf = AudioBuffer(x, SR)
        monkeypatch.setattr(pitch, "KERNEL_BLOCK", 10**6)
        whole = detect_pitch(buf)
        monkeypatch.setattr(pitch, "KERNEL_BLOCK", block)
        blocked = detect_pitch(buf)
        assert len(whole.frames) == 197
        assert any(f.voiced for f in whole.frames)
        assert [(f.f0, f.periodicity) for f in blocked.frames] == [
            (f.f0, f.periodicity) for f in whole.frames
        ]

    def test_determinism(self):
        buf = noisy_harmonic(170.0, seed=11)
        a = detect_pitch(buf)
        b = detect_pitch(buf)
        assert [f.f0 for f in a.frames] == [f.f0 for f in b.frames]


def _sosfiltfilt(x, f0_max=500.0):
    cutoff = min(2.4 * f0_max, 0.45 * SR)
    return sosfiltfilt(butter(4, cutoff, btype="low", fs=SR, output="sos"), x)


BAND_STEP = pitch.BAND_FFT - 2 * pitch.BAND_HALF_TAPS


class TestBandLimit:
    """The FFT band-limit against scipy's butter + sosfiltfilt, the filter
    it replaces (scipy serves here as a test-only oracle)."""

    @pytest.mark.parametrize(
        "n",
        # around one and two block steps, and past one call's group of blocks
        [16, BAND_STEP - 1, BAND_STEP, BAND_STEP + 1, 2 * BAND_STEP + 1,
         (pitch.BAND_BLOCKS + 1) * BAND_STEP + 5],
    )
    def test_matches_sosfiltfilt(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        got = pitch._band_limit(x, SR, 500.0)
        assert got.shape == x.shape
        err = np.abs(got - _sosfiltfilt(x)) / np.abs(x).max()
        # Away from the ends, equal to rounding; at the ends sosfiltfilt's
        # IIR initial state and the held edge part ways.
        assert err[512:n - 512].max(initial=0.0) <= 1e-12
        assert err.max() <= 0.02

    def test_short_buffers_pass_through(self):
        rng = np.random.default_rng(1)
        for n in range(1, pitch.BAND_ODD_PAD + 1):
            x = rng.standard_normal(n)
            assert np.array_equal(pitch._band_limit(x, SR, 500.0), x)

    def test_constant_stays_constant(self):
        for n in (16, BAND_STEP, 10_000):
            for level in (0.1, -3.0, 1e-6):
                out = pitch._band_limit(np.full(n, level), SR, 500.0)
                assert np.max(np.abs(out / level - 1.0)) <= 1e-15, (n, level)


class TestMedianF0:
    def _track(self, f0s):
        frames = tuple(
            PitchFrame(time=0.01 * i, f0=f0, periodicity=1.0 if f0 else 0.0)
            for i, f0 in enumerate(f0s)
        )
        return PitchTrack(frames=frames, frame_shift=0.01)

    def test_odd_count(self):
        uf = median_f0(self._track([90.0, 100.0, 110.0]), 100.0)
        assert uf.f0_utt == 100.0
        assert uf.voiced_count == 3
        assert not uf.fallback_used

    def test_even_count_takes_lower_middle(self):
        uf = median_f0(self._track([200.0, 300.0, 250.0, 280.0]), 100.0)
        assert uf.f0_utt == 250.0

    def test_fallback_when_all_unvoiced(self):
        uf = median_f0(self._track([None, None]), 100.0)
        assert uf.f0_utt == 100.0
        assert uf.voiced_count == 0
        assert uf.fallback_used

    @pytest.mark.parametrize("default", [0.0, -5.0, float("inf"), float("nan")])
    def test_invalid_fallback_rejected(self, default):
        with pytest.raises(DomainError):
            median_f0(self._track([None, None]), default)

    def test_permutation_invariant(self):
        values = [130.0, 90.0, 210.0, 175.0, 110.0]
        a = median_f0(self._track(values), 100.0)
        b = median_f0(self._track(values[::-1]), 100.0)
        assert a.f0_utt == b.f0_utt

    def test_unvoiced_frames_ignored(self):
        uf = median_f0(self._track([None, 120.0, None, 140.0, 130.0]), 100.0)
        assert uf.f0_utt == 130.0
        assert uf.voiced_count == 3


class TestPitchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f0_min": 0.0},
            {"f0_min": 500.0, "f0_max": 400.0},
            {"voicing_threshold": 1.5},
            {"window": -0.01},
            {"shift": 0.0},
            {"f0_max": np.inf},
            {"window": np.inf},
            {"shift": np.nan},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PitchConfig(**kwargs)

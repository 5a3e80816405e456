import tracemalloc

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
    detect_pitch,
    median_f0,
)
from f0warp import pitch
from tests.conftest import noisy_harmonic
from tests.synthkit import (
    VowelSpec,
    shift_vowel_for_f0,
    synth_contour,
    synth_harmonic,
    synth_vowel,
)

SR = 16000


def _interior(track):
    return track.frames[1:-1]


class TestDetector:
    def test_clean_100hz_train(self):
        track = detect_pitch(synth_harmonic(100.0, 1.0))
        for frame in _interior(track):
            assert frame.f0 is not None
            assert abs(frame.f0 - 100.0) <= 2.0

    def test_clean_270hz_train(self):
        track = detect_pitch(synth_harmonic(270.0, 1.0))
        for frame in _interior(track):
            assert frame.f0 is not None
        uf = median_f0(track, 100.0)
        assert abs(uf.f0_utt - 270.0) <= 3.0

    def test_silence_is_unvoiced(self):
        track = detect_pitch(AudioBuffer(np.zeros(SR)))
        assert all(frame.f0 is None for frame in track.frames)
        assert all(frame.periodicity == 0.0 for frame in track.frames)

    def test_dc_offset_is_unvoiced(self):
        # A constant stretch has no period: every d' lag is neutral, as over
        # silence.  The FFT form of the kernel must not turn its rounding
        # residue into dips.
        track = detect_pitch(AudioBuffer(np.full(SR, 0.1)))
        assert all(frame.f0 is None for frame in track.frames)
        assert median_f0(track, 100.0).fallback_used

    def test_dc_offset_then_tone_voices_only_the_tone(self):
        tone = 0.5 * np.sin(2 * np.pi * 200.0 * np.arange(SR // 2) / SR)
        x = np.concatenate([np.full(SR // 2, 0.1), tone])
        track = detect_pitch(AudioBuffer(x))
        win = round(PitchConfig().window * SR)
        for t, frame in enumerate(track.frames):
            start = round(t * PitchConfig().shift * SR)
            if start + win <= SR // 2:
                assert frame.f0 is None, t
            elif start >= SR // 2:
                assert frame.f0 is not None and abs(frame.f0 - 200.0) <= 2.0, (t, frame)

    def test_white_noise_mostly_unvoiced(self, rng):
        buf = AudioBuffer(rng.standard_normal(SR) * 0.2)
        track = detect_pitch(buf)
        voiced = sum(frame.f0 is not None for frame in track.frames)
        assert voiced < 0.2 * len(track.frames)

    @pytest.mark.parametrize("f0", [60.0, 200.0, 400.0])
    def test_noisy_20db_median_within_3hz(self, f0):
        uf = median_f0(detect_pitch(noisy_harmonic(f0, seed=int(f0))), 100.0)
        assert not uf.fallback_used
        assert abs(uf.f0_utt - f0) <= 3.0

    def test_amplitude_invariance(self):
        base = synth_harmonic(150.0, 0.5, amplitude=0.4)
        double = AudioBuffer(base.samples * 2.0)
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
        assert np.allclose(np.diff(times), PitchConfig().shift)

    def test_voiced_f0_within_search_range(self):
        cfg = PitchConfig(f0_min=80.0, f0_max=300.0)
        track = detect_pitch(noisy_harmonic(100.0, seed=5), cfg)
        for frame in track.frames:
            if frame.f0 is not None:
                assert cfg.f0_min <= frame.f0 <= cfg.f0_max

    def test_too_short_raises(self):
        with pytest.raises(TooShort):
            detect_pitch(AudioBuffer(np.zeros(500)))

    def test_f0_max_above_nyquist_rejected(self):
        with pytest.raises(DomainError, match="f0_max must be below Nyquist"):
            PitchConfig(f0_max=9000.0)

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
        cfg = PitchConfig(shift=0.010)
        track = detect_pitch(AudioBuffer(x), cfg)
        win = round(cfg.window * SR)
        flat = 0
        for t, frame in enumerate(track.frames):
            start = round(t * cfg.shift * SR)
            if start + win <= SR // 2 or start >= SR // 2 + n:
                flat += 1
                assert frame.f0 is None and frame.periodicity == 0.0, (t, frame)
        assert flat == 94
        assert median_f0(track, 100.0).voiced_count > 0

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_kernel_block_size_does_not_change_the_track(self, monkeypatch, block):
        # Voiced vowel, silence, a DC stretch and noise, 2 s: 197 frames at
        # a 10 ms hop, so blocks of 7 and 128 end in a partial block; the
        # reference runs them all in one block.
        vowel = synth_vowel(VowelSpec(f0=180.0, formants=(530.0, 1840.0, 2480.0),
                                      bandwidths=(60.0, 90.0, 150.0), duration=0.8))
        rng = np.random.default_rng(3)
        x = np.concatenate([
            vowel.samples, np.zeros(SR // 4), np.full(SR // 4, -0.2),
            0.1 * rng.standard_normal(int(0.7 * SR)),
        ])
        buf = AudioBuffer(x)
        cfg = PitchConfig(shift=0.010)
        monkeypatch.setattr(pitch, "KERNEL_BLOCK", 10**6)
        whole = detect_pitch(buf, cfg)
        monkeypatch.setattr(pitch, "KERNEL_BLOCK", block)
        blocked = detect_pitch(buf, cfg)
        assert len(whole.frames) == 197
        assert any(f.f0 is not None for f in whole.frames)
        assert [(f.f0, f.periodicity) for f in blocked.frames] == [
            (f.f0, f.periodicity) for f in whole.frames
        ]

    def test_determinism(self):
        buf = noisy_harmonic(170.0, seed=11)
        a = detect_pitch(buf)
        b = detect_pitch(buf)
        assert [f.f0 for f in a.frames] == [f.f0 for f in b.frames]


def _moving_f0_cases(count, seed):
    """(buffer, f0 per sample) of seeded contours: 0.5-3 s, 1-4 semitones
    of declination and 0-4 of intonation, all within 90-450 Hz."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        declination, intonation = rng.uniform(1.0, 4.0), rng.uniform(0.0, 4.0)
        reach = 2.0 ** ((declination + intonation) / 24)
        f0_mid = float(np.exp(rng.uniform(np.log(90.0 * reach), np.log(450.0 / reach))))
        yield synth_contour(f0_mid, rng.uniform(0.5, 3.0), declination, intonation,
                            rate=rng.uniform(0.5, 2.5), phase=rng.uniform(0.0, 2 * np.pi))


def test_default_hop_keeps_the_median_of_moving_f0():
    # The median of a moving f0 from the default 20 ms hop against the
    # 10 ms one, as |cents| from each contour's true median: here 0.91
    # against 1.26 clean and 1.80 against 2.00 at 10 dB, none gross.  Over
    # 300 such contours the 20 ms median is 0.5 cents worse at 10 dB, and
    # a 24-contour median moves by about 1 cent from seed to seed.
    hops = {"10 ms": PitchConfig(shift=0.010), "default": PitchConfig()}
    errors = {}
    for i, (buffer, f0) in enumerate(_moving_f0_cases(24, seed=2021)):
        noise = np.random.default_rng(i).standard_normal(len(buffer))
        noise *= np.sqrt(np.mean(buffer.samples ** 2) / np.mean(noise ** 2) / 10)
        for condition, x in [("clean", buffer.samples), ("10 dB", buffer.samples + noise)]:
            for hop, cfg in hops.items():
                uf = median_f0(detect_pitch(AudioBuffer(x), cfg), 100.0)
                cents = abs(1200.0 * np.log2(uf.f0_utt / np.median(f0)))
                errors.setdefault((condition, hop), []).append(cents)
    for condition in ("clean", "10 dB"):
        fine, default = (np.array(errors[condition, hop]) for hop in hops)
        assert np.median(default) <= np.median(fine) + 1.0, condition
        assert np.sum(default > 50.0) <= np.sum(fine > 50.0), condition


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
        got = pitch._band_limit(x, 500.0)
        assert got.shape == x.shape
        err = np.abs(got - _sosfiltfilt(x)) / np.abs(x).max()
        # Away from the ends, equal to rounding; at the ends sosfiltfilt's
        # IIR initial state and the held edge part ways.
        assert err[512:n - 512].max(initial=0.0) <= 1e-12
        assert err.max() <= 0.02

    @pytest.mark.parametrize("f0_max", [100.0, 60.0])
    def test_low_cutoff_matches_sosfiltfilt(self, f0_max):
        # A low cutoff rings longer than 513 taps reach: with them the
        # output was 1e-5 (100 Hz) and 3e-4 (60 Hz) of the peak off.
        n = 40_000
        x = np.random.default_rng(7).standard_normal(n)
        want = _sosfiltfilt(x, f0_max)
        err = np.abs(pitch._band_limit(x, f0_max) - want) / np.abs(want).max()
        assert err[4000:n - 4000].max() <= 1e-12

    def test_taps_stop_growing_at_the_signal_length(self):
        # A 1.2 Hz cutoff would ask for half a million taps; a signal of
        # 2000 samples caps them at 2048, and the spectra at a few MiB.
        x = np.random.default_rng(2).standard_normal(2000)
        tracemalloc.start()
        try:
            out = pitch._band_limit(x, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape and np.all(np.isfinite(out))
        assert peak < 4 * 2**20

    def test_short_buffers_pass_through(self):
        rng = np.random.default_rng(1)
        for n in range(1, pitch.BAND_ODD_PAD + 1):
            x = rng.standard_normal(n)
            assert np.array_equal(pitch._band_limit(x, 500.0), x)

    @pytest.mark.parametrize("f0_max", [60.0, 100.0, 400.0, 500.0, 1000.0])
    def test_padding_is_the_np_pad_form(self, monkeypatch, f0_max):
        # The padding as two np.pad calls, the odd extension then the held
        # edges, which cost an extra (n + 30)-sample array.
        def np_pad_edges(x, before, after):
            odd = np.pad(x, pitch.BAND_ODD_PAD, mode="reflect", reflect_type="odd")
            return np.pad(odd, (before - pitch.BAND_ODD_PAD, after - pitch.BAND_ODD_PAD),
                          mode="edge")

        rng = np.random.default_rng(int(f0_max))
        lengths = [16, 17, BAND_STEP - 1, BAND_STEP, BAND_STEP + 1, 40_000]
        for n in lengths + rng.integers(16, 40_001, 6).tolist():
            x = rng.standard_normal(n)
            got = pitch._band_limit(x, f0_max)
            with monkeypatch.context() as patch:
                patch.setattr(pitch, "_pad_edges", np_pad_edges)
                want = pitch._band_limit(x, f0_max)
            assert np.array_equal(got, want), n

    def test_constant_stays_constant(self):
        for n in (16, BAND_STEP, 10_000):
            for level in (0.1, -3.0, 1e-6):
                out = pitch._band_limit(np.full(n, level), 500.0)
                assert np.max(np.abs(out / level - 1.0)) <= 1e-15, (n, level)


class TestMedianF0:
    def _track(self, f0s):
        frames = tuple(
            PitchFrame(time=0.01 * i, f0=f0, periodicity=1.0 if f0 else 0.0)
            for i, f0 in enumerate(f0s)
        )
        return PitchTrack(frames=frames)

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
            {"f0_max": 8000.0},
            {"shift": 0.00001},
            {"window": 0.01},
            {"f0_min": 60.0, "window": 0.0167},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PitchConfig(**kwargs)

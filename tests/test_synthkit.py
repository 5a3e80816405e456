import numpy as np
import pytest

from f0warp import (
    DomainError,
    FeatureConfig,
    compute_warp,
    detect_pitch,
    extract_features,
    hz_to_mel,
    identity_warp,
    median_f0,
)
from f0warp.melwarp import LOG_MEL
from tests.synthkit import (
    VowelSpec,
    resonator_cascade,
    resonator_coefficients,
    shift_vowel_for_f0,
    synth_contour,
    synth_harmonic,
    synth_vowel,
)

SR = 16000

IY_SPEC = VowelSpec(
    f0=106.0,
    formants=(300.0, 2300.0, 3000.0),
    bandwidths=(60.0, 100.0, 120.0),
    duration=1.0,
    amplitude=0.9,
)


class TestSynthHarmonic:
    def test_autocorrelation_peak_at_period(self):
        buf = synth_harmonic(100.0, 1.0)
        x = buf.samples
        acf = np.correlate(x, x, mode="full")[len(x) - 1 :]
        lag = 80 + int(np.argmax(acf[80:241]))
        assert lag == 160  # sr / f0

    def test_peak_bounded_by_amplitude(self):
        buf = synth_harmonic(140.0, 0.5, amplitude=0.7)
        assert np.max(np.abs(buf.samples)) <= 0.7 + 1e-12

    def test_zero_amplitude_is_silence(self):
        buf = synth_harmonic(100.0, 0.5, amplitude=0.0)
        assert np.all(buf.samples == 0.0)

    def test_pitch_oracle_270(self):
        uf = median_f0(detect_pitch(synth_harmonic(270.0, 1.0)), 100.0)
        assert abs(uf.f0_utt - 270.0) <= 3.0

    @pytest.mark.parametrize("f0", [0.0, -10.0, 8000.0])
    def test_invalid_f0_rejected(self, f0):
        with pytest.raises(DomainError):
            synth_harmonic(f0, 1.0)

    def test_deterministic(self):
        a = synth_harmonic(93.0, 0.3)
        b = synth_harmonic(93.0, 0.3)
        assert np.array_equal(a.samples, b.samples)


class TestSynthContour:
    def test_contour_spans_declination_and_intonation(self):
        buf, f0 = synth_contour(200.0, 2.0, declination=3.0, intonation=2.0, rate=1.0)
        assert len(buf) == f0.shape[0] == 32000
        semitones = 12.0 * np.log2(f0 / 200.0)
        assert semitones[0] == pytest.approx(1.5)
        assert semitones.max() <= 2.5 and semitones.min() >= -2.5
        assert np.max(np.abs(buf.samples)) == pytest.approx(0.9)

    def test_flat_contour_tracks_its_f0(self):
        buf, f0 = synth_contour(180.0, 1.0)
        assert np.all(f0 == 180.0)
        uf = median_f0(detect_pitch(buf), 100.0)
        assert abs(1200.0 * np.log2(uf.f0_utt / 180.0)) <= 5.0

    def test_falling_contour_reads_falling(self):
        buf, _ = synth_contour(200.0, 1.0, declination=6.0)
        voiced = [f.f0 for f in detect_pitch(buf).frames if f.f0 is not None]
        assert voiced[0] > 1.15 * voiced[-1]

    @pytest.mark.parametrize("kwargs", [{"f0_mid": 0.0}, {"f0_mid": 7900.0, "intonation": 4.0},
                                        {"f0_mid": 100.0, "amplitude": 1.5}])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            synth_contour(duration=0.5, **kwargs)


class TestSynthVowel:
    def test_resonator_sections_peak_at_formants(self):
        # Each two-pole section's response must peak within one 4096-point
        # bin of its formant; the full vowel spectrum cannot be used for
        # this check because its peaks sit on harmonics of f0.
        a1, a2, gain = resonator_coefficients(IY_SPEC.formants, IY_SPEC.bandwidths)
        impulse = np.zeros(4096)
        impulse[0] = 1.0
        bin_width = SR / 4096
        for section, formant in enumerate(IY_SPEC.formants):
            response = resonator_cascade(
                impulse, a1[section : section + 1], a2[section : section + 1],
                gain[section : section + 1],
            )
            magnitude = np.abs(np.fft.rfft(response, 4096))
            peak_bin = int(np.argmax(magnitude))
            assert abs(peak_bin - formant / bin_width) <= 1.0

    def test_cascade_peaks_near_formants(self):
        # On the cascade the neighbouring skirts tug the peaks slightly.
        a1, a2, gain = resonator_coefficients(IY_SPEC.formants, IY_SPEC.bandwidths)
        impulse = np.zeros(4096)
        impulse[0] = 1.0
        magnitude = np.abs(
            np.fft.rfft(resonator_cascade(impulse, a1, a2, gain), 4096)
        )
        bin_width = SR / 4096
        for formant in IY_SPEC.formants:
            expected = int(round(formant / bin_width))
            local = expected - 10 + int(np.argmax(magnitude[expected - 10 : expected + 11]))
            assert abs(local - formant / bin_width) <= 3.0

    def test_f0_above_f1_rejected(self):
        with pytest.raises(DomainError):
            VowelSpec(f0=400.0, formants=(300.0, 2300.0, 3000.0),
                      bandwidths=(60.0, 100.0, 120.0))

    def test_formant_above_nyquist_rejected(self):
        # Checked when the spec is built, before anything is synthesized.
        with pytest.raises(DomainError, match="below Nyquist"):
            VowelSpec(f0=100.0, formants=(300.0, 2300.0, 8000.0),
                      bandwidths=(60.0, 100.0, 120.0))

    def test_doubling_duration_doubles_frames(self):
        (short,) = extract_features(synth_vowel(IY_SPEC), FeatureConfig())
        long_spec = VowelSpec(
            f0=106.0, formants=IY_SPEC.formants, bandwidths=IY_SPEC.bandwidths,
            duration=2.0, amplitude=0.9,
        )
        (long,) = extract_features(synth_vowel(long_spec), FeatureConfig())
        assert short.shape[0] == 98
        assert long.shape[0] == 198

    def test_peak_bounded_and_deterministic(self):
        a = synth_vowel(IY_SPEC)
        b = synth_vowel(IY_SPEC)
        assert np.max(np.abs(a.samples)) <= IY_SPEC.amplitude + 1e-12
        assert np.array_equal(a.samples, b.samples)

    def test_detector_finds_vowel_pitch(self):
        uf = median_f0(detect_pitch(synth_vowel(IY_SPEC)), 100.0)
        assert abs(uf.f0_utt - 106.0) <= 3.0


class TestShiftVowel:
    def test_identity_for_same_pitch(self):
        assert shift_vowel_for_f0(IY_SPEC, 106.0) == IY_SPEC

    def test_mel_distances_preserved(self):
        shifted = shift_vowel_for_f0(IY_SPEC, 270.0)
        for old, new in zip(IY_SPEC.formants, shifted.formants):
            before = hz_to_mel(old) - hz_to_mel(IY_SPEC.f0)
            after = hz_to_mel(new) - hz_to_mel(shifted.f0)
            assert after == pytest.approx(before, abs=1e-9)

    def test_formant_offset_matches_pitch_offset(self):
        shifted = shift_vowel_for_f0(IY_SPEC, 270.0)
        expected = hz_to_mel(270.0) - hz_to_mel(106.0)
        for old, new in zip(IY_SPEC.formants, shifted.formants):
            assert hz_to_mel(new) - hz_to_mel(old) == pytest.approx(expected, abs=1e-9)

    def test_bandwidths_scale_with_formants(self):
        shifted = shift_vowel_for_f0(IY_SPEC, 270.0)
        for old_f, new_f, old_b, new_b in zip(
            IY_SPEC.formants, shifted.formants, IY_SPEC.bandwidths, shifted.bandwidths
        ):
            assert new_b == pytest.approx(old_b * new_f / old_f, rel=1e-12)

    def test_shift_past_nyquist_rejected(self):
        with pytest.raises(DomainError):
            shift_vowel_for_f0(IY_SPEC, 1200.0)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(DomainError):
            shift_vowel_for_f0(IY_SPEC, 0.0)


class TestAlignment:
    def test_normalization_aligns_vowel_pair(self):
        # Fig-1-style check: the same vowel spoken at 106 and 270 Hz,
        # log-Mel outputs with 15 filters over 20 Hz - 6 kHz.
        cfg = FeatureConfig(
            num_filters=15, lo_freq=20.0, hi_freq=6000.0, feature_kind=LOG_MEL
        )
        low = synth_vowel(IY_SPEC)
        high = synth_vowel(shift_vowel_for_f0(IY_SPEC, 270.0))

        def mean_distance(low_warp, high_warp):
            (a,) = extract_features(low, cfg, low_warp)
            (b,) = extract_features(high, cfg, high_warp)
            return float(np.mean(np.linalg.norm(a - b, axis=1)))

        plain = mean_distance(identity_warp(), identity_warp())
        warped = mean_distance(compute_warp(106.0, 100.0), compute_warp(270.0, 100.0))
        assert warped < plain

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from f0warp import (
    AudioBuffer,
    DomainError,
    EmptyFilter,
    FeatureConfig,
    TooShort,
    WarpSpec,
    build_filterbank,
    compute_warp,
    extract_features,
    frame_and_window,
    hz_to_mel,
    identity_warp,
    mel_to_hz,
    power_spectrum,
    warp_bin_mels,
)
from f0warp.melwarp import LOG_MEL, SPECTRUM_BLOCK, WARPED_HI_FREQ, _dct_basis

SR = 16000

# Hz values reproduced by shifting 100 Hz by -60..+60 Mels in 20-Mel steps.
TARGET_F0_SET = [58.52, 72.10, 85.93, 100.00, 114.32, 128.90, 143.74]


class TestMelScale:
    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0
        assert mel_to_hz(0.0) == 0.0

    def test_hundred_hz(self):
        # independent evaluation of 1127 * ln(8/7)
        assert hz_to_mel(100.0) == pytest.approx(1127.0 * math.log(8.0 / 7.0), abs=1e-12)
        assert hz_to_mel(100.0) == pytest.approx(150.49, abs=0.005)

    def test_minus_sixty_mels_from_hundred_hz(self):
        assert mel_to_hz(150.49 - 60.0) == pytest.approx(58.52, abs=0.01)

    @pytest.mark.parametrize("shift,expected", zip(range(-60, 61, 20), TARGET_F0_SET))
    def test_shifted_default_set(self, shift, expected):
        assert mel_to_hz(hz_to_mel(100.0) + shift) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("f", [0.1, 5.0, 99.0, 700.0, 4000.0, 7999.0])
    def test_round_trip(self, f):
        assert mel_to_hz(hz_to_mel(f)) == pytest.approx(f, rel=1e-12)

    def test_arrays_supported(self):
        f = np.array([0.0, 100.0, 700.0])
        m = hz_to_mel(f)
        assert m.shape == (3,)
        assert np.allclose(mel_to_hz(m), f)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            hz_to_mel(-1.0)
        with pytest.raises(DomainError):
            mel_to_hz(-0.5)
        with pytest.raises(DomainError):
            hz_to_mel(np.array([10.0, -2.0]))

    def test_monotone(self):
        f = np.linspace(0, 8000, 2000)
        assert np.all(np.diff(hz_to_mel(f)) > 0)


class TestComputeWarp:
    def test_equal_pitches_give_exact_zero(self):
        w = compute_warp(100.0, 100.0)
        assert w.delta_mel == 0.0
        assert not w.clamped

    def test_child_to_adult(self):
        w = compute_warp(270.0, 100.0)
        assert w.delta_mel == pytest.approx(217.1552554958479, abs=1e-9)
        assert not w.clamped

    def test_clamp_positive(self):
        w = compute_warp(1000.0, 100.0)
        assert w.clamped
        assert w.delta_mel == 250.0

    def test_clamp_negative(self):
        w = compute_warp(50.0, 1000.0)
        assert w.clamped
        assert w.delta_mel == -250.0

    @pytest.mark.parametrize("u,d", [(0.0, 100.0), (-5.0, 100.0), (100.0, 0.0)])
    def test_nonpositive_rejected(self, u, d):
        with pytest.raises(DomainError):
            compute_warp(u, d)

    @pytest.mark.parametrize("f0", [np.nan, np.inf])
    def test_nonfinite_rejected(self, f0):
        # A nan would reach the filterbank as a nan shift, an inf a clamped one.
        for u, d in ((f0, 100.0), (100.0, f0)):
            with pytest.raises(DomainError, match="must be positive and finite"):
                compute_warp(u, d)
        with pytest.raises(DomainError, match="must be positive and finite"):
            identity_warp(f0)


class TestWarpBinMels:
    def test_zero_shift_is_plain_mel(self):
        (coords,) = warp_bin_mels(512, identity_warp())
        freqs = np.arange(257) * (SR / 512)
        assert np.array_equal(coords, hz_to_mel(freqs))

    def test_child_bin_lands_on_adult_pitch(self):
        w = compute_warp(270.0, 100.0)
        assert hz_to_mel(270.0) - w.delta_mel == pytest.approx(hz_to_mel(100.0), abs=1e-9)

    @pytest.mark.parametrize("delta", [-250.0, -17.5, 0.0, 88.0, 250.0])
    def test_strictly_increasing(self, delta):
        (coords,) = warp_bin_mels(512, WarpSpec(100.0, 100.0, delta))
        assert np.all(np.diff(coords) > 0)

    def test_stack_rows_equal_single_warps(self):
        warps = [WarpSpec(100.0, 100.0, d) for d in (-250.0, 0.0, 17.5, 250.0)]
        stack = warp_bin_mels(512, *warps)
        assert stack.shape == (4, 257)
        for row, warp in zip(stack, warps):
            assert np.array_equal(row[None], warp_bin_mels(512, warp))


class TestFilterbank:
    def test_default_config_all_rows_nonempty(self):
        cfg = FeatureConfig()
        (weights,) = build_filterbank(cfg, warp_bin_mels(512, identity_warp()))
        assert weights.shape == (23, 257)
        assert np.all((weights >= 0) & (weights <= 1))
        assert np.all((weights > 0).any(axis=1))

    def test_centers_equally_spaced(self):
        # On a 2**16-point grid each row peaks at the bin nearest its
        # center, so the peaks are span / (num_filters + 1) Mels apart to
        # within the grid's step in Mels.
        cfg = FeatureConfig(dft_size=2**16)
        stack = warp_bin_mels(cfg.dft_size, identity_warp())
        (coords,) = stack
        (weights,) = build_filterbank(cfg, stack)
        peaks = coords[np.argmax(weights, axis=1)]
        span = hz_to_mel(cfg.hi_freq) - hz_to_mel(cfg.lo_freq)
        step = np.max(np.diff(coords))
        assert np.all(np.abs(np.diff(peaks) - span / (cfg.num_filters + 1)) <= step)

    @pytest.mark.parametrize("delta", [0.0, 217.1552554958479])
    def test_fig1_style_config_builds(self, delta):
        cfg = FeatureConfig(num_filters=15, lo_freq=20.0, hi_freq=6000.0)
        (weights,) = build_filterbank(
            cfg, warp_bin_mels(512, WarpSpec(100.0, 100.0, delta))
        )
        assert weights.shape[0] == 15

    def test_max_positive_shift_stays_below_nyquist(self):
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        (weights,) = build_filterbank(
            cfg, warp_bin_mels(512, WarpSpec(100.0, 100.0, 250.0))
        )
        top_bin = np.flatnonzero((weights > 0).any(axis=0)).max()
        assert top_bin * SR / 512 <= 8000.0

    def test_empty_filter_raises(self):
        # 23 filters over 20-200 Hz are ~10 Mels wide, narrower than the
        # 31.25 Hz bin spacing of a 512-point DFT, so some rows fall between
        # bins; at zero shift the mirrored bins all lie below 0 Mels and
        # cannot fill them.
        cfg = FeatureConfig(lo_freq=20.0, hi_freq=200.0)
        with pytest.raises(EmptyFilter):
            build_filterbank(cfg, warp_bin_mels(512, identity_warp()))

    def test_mirrored_bins_fill_lowest_filter_at_max_negative_shift(self):
        # At -250 Mels even bin 0 sits above the lowest filter (31.75 to
        # 244 Mels); its energy comes from the negative-frequency twins of
        # bins 1.., folded onto those bins.
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        stack = warp_bin_mels(512, WarpSpec(100.0, 100.0, -250.0))
        (coords,) = stack
        assert coords[0] > 244.0
        (weights,) = build_filterbank(cfg, stack)
        assert np.all((weights > 0).any(axis=1))
        twins = 2.0 * coords[0] - coords
        lowest = np.flatnonzero(weights[0] > 0)
        assert lowest.min() > 0 and lowest.max() < 256
        assert np.all(twins[lowest] < 244.0)

    def test_stack_empty_filter_names_warp_and_rows(self):
        # Under this narrow 20-400 Hz bank a shift of 0 leaves row 1 empty
        # and one of -100 Mels rows 1 and 6, while +100 and +250 Mels fill
        # every row: only warps 1 and 3 of the stack are named.
        cfg = FeatureConfig(lo_freq=20.0, hi_freq=400.0)
        stack = warp_bin_mels(
            512, *(WarpSpec(100.0, 100.0, d) for d in (100.0, 0.0, 250.0, -100.0))
        )
        with pytest.raises(EmptyFilter) as info:
            build_filterbank(cfg, stack)
        assert str(info.value).startswith(
            "warp 1 filter rows [1]; warp 3 filter rows [1, 6] cover no DFT bin"
        )

    def test_three_dimensional_bins_rejected(self):
        stack = warp_bin_mels(512, identity_warp())
        with pytest.raises(ValueError):
            build_filterbank(FeatureConfig(), stack[None])

    def test_one_dimensional_bins_rejected(self):
        (coords,) = warp_bin_mels(512, identity_warp())
        with pytest.raises(ValueError):
            build_filterbank(FeatureConfig(), coords)

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError):
            build_filterbank(FeatureConfig(), warp_bin_mels(256, identity_warp()))

    def test_unsorted_bins_rejected(self):
        cfg = FeatureConfig()
        with pytest.raises(ValueError):
            build_filterbank(cfg, np.array([[0.0, 2.0, 1.0]]))


class TestFraming:
    def test_one_second_yields_98_frames(self):
        buf = AudioBuffer(np.random.default_rng(0).standard_normal(16000))
        frames = frame_and_window(buf, FeatureConfig())
        assert frames.shape == (98, 400)

    def test_exact_window_yields_one_frame(self):
        frames = frame_and_window(AudioBuffer(np.ones(400)), FeatureConfig())
        assert frames.shape == (1, 400)

    def test_too_short_raises(self):
        with pytest.raises(TooShort):
            frame_and_window(AudioBuffer(np.zeros(399)), FeatureConfig())

    def test_zero_input_gives_zero_frames(self):
        frames = frame_and_window(AudioBuffer(np.zeros(1000)), FeatureConfig())
        assert np.all(frames == 0)

    def test_preemphasis_uses_previous_buffer_sample(self):
        # Sample 0 of frame 1 must be emphasized against the last sample
        # before the frame, not treated as a fresh start.
        x = np.arange(1000, dtype=float) / 1000.0
        cfg = FeatureConfig()
        frames = frame_and_window(AudioBuffer(x), cfg)
        window = np.hamming(400)
        assert frames[0, 0] == pytest.approx(x[0] * window[0])
        expected = (x[160] - cfg.preemphasis * x[159]) * window[0]
        assert frames[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_hamming_window_applied(self):
        cfg = FeatureConfig(preemphasis=0.0)
        frames = frame_and_window(AudioBuffer(np.ones(400)), cfg)
        assert np.allclose(frames[0], np.hamming(400))


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.all(power_spectrum(np.zeros((1, 400)), 512) == 0)

    def test_unit_impulse_is_flat(self):
        frame = np.zeros((1, 400))
        frame[0, 0] = 1.0
        assert np.allclose(power_spectrum(frame, 512), 1.0)

    def test_parseval(self, rng):
        frame = rng.standard_normal(400)
        (ps,) = power_spectrum(frame[None], 512)
        # reconstruct the full-DFT energy from the one-sided spectrum
        full_energy = ps[0] + ps[-1] + 2 * ps[1:-1].sum()
        oracle = np.sum(np.abs(np.fft.fft(frame, 512)) ** 2)
        assert full_energy == pytest.approx(oracle, rel=1e-12)
        assert full_energy == pytest.approx(512 * np.sum(frame ** 2), rel=1e-12)

    def test_frame_longer_than_dft_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros((1, 600)), 512)

    def test_one_dimensional_frame_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(400), 512)

    @pytest.mark.parametrize(
        "n_frames",
        [1, SPECTRUM_BLOCK - 1, SPECTRUM_BLOCK, SPECTRUM_BLOCK + 1, 2 * SPECTRUM_BLOCK + 1],
    )
    def test_blocks_match_one_shot_rfft(self, rng, n_frames):
        # Either side of a block boundary the blocked spectrum is the power
        # of one rfft over all frames, bit for bit.
        frames = rng.standard_normal((n_frames, 400))
        spec = np.fft.rfft(frames, n=512, axis=-1)
        one_shot = spec.real ** 2 + spec.imag ** 2
        ps = power_spectrum(frames, 512)
        assert ps.shape == (n_frames, 257)
        assert np.array_equal(ps, one_shot)


def _dct2_orthonormal_matrix(n):
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    mat[0] *= 1.0 / np.sqrt(2.0)
    return mat


class TestDct:
    def test_matches_explicit_matrix(self):
        for num_filters, num_ceps in [(23, 13), (23, 23), (40, 1)]:
            basis = _dct_basis(num_filters, num_ceps)
            oracle = _dct2_orthonormal_matrix(num_filters)[:num_ceps].T
            assert basis.shape == (num_filters, num_ceps)
            assert np.allclose(basis, oracle, rtol=0, atol=1e-15)

    def test_orthonormal_round_trip(self, rng):
        basis = _dct_basis(23, 23)
        assert np.allclose(basis.T @ basis, np.eye(23), atol=1e-12)
        logm = rng.standard_normal((6, 23))
        back = (logm @ basis) @ basis.T
        assert np.max(np.abs(back - logm) / np.abs(logm).max()) < 1e-10

    @pytest.mark.parametrize(
        "num_filters, num_ceps", [(23, 13), (23, 23), (13, 1), (30, 20), (40, 13)]
    )
    def test_mfcc_is_orthonormal_dct_of_log_mel(self, num_filters, num_ceps):
        # The MFCC path's DCT against scipy's, on the log-Mel matrix the
        # same config gives.
        buf = AudioBuffer(np.random.default_rng(num_filters).standard_normal(8000) * 0.3)
        cfg = FeatureConfig(num_filters=num_filters, num_ceps=num_ceps)
        (mfcc,) = extract_features(buf, cfg)
        (log_mel,) = extract_features(buf, replace(cfg, feature_kind=LOG_MEL))
        oracle = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=1)[:, :num_ceps]
        assert mfcc.shape == oracle.shape
        assert np.max(np.abs(mfcc - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestExtractFeatures:
    def _noise(self, n=8000, seed=3):
        return AudioBuffer(
            np.random.default_rng(seed).standard_normal(n) * 0.3, source_id="noise"
        )

    def test_zero_warp_equals_unwarped_bitwise(self):
        buf = self._noise()
        cfg = FeatureConfig()
        zero, identity = compute_warp(123.0, 123.0), identity_warp()
        (a,) = extract_features(buf, cfg, zero)
        (b,) = extract_features(buf, cfg, identity)
        assert np.array_equal(a, b)
        together = extract_features(buf, cfg, zero, identity)
        assert np.array_equal(together[0], together[1])
        assert np.array_equal(together[0], a)

    def test_equal_delta_pairs_are_bit_identical(self):
        buf = self._noise()
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        w1 = compute_warp(270.0, 100.0)
        d2 = mel_to_hz(hz_to_mel(180.0) - w1.delta_mel)
        w2 = WarpSpec(180.0, d2, w1.delta_mel, False)
        (a,) = extract_features(buf, cfg, w1)
        (b,) = extract_features(buf, cfg, w2)
        assert np.array_equal(a, b)
        together = extract_features(buf, cfg, w1, w2)
        assert np.array_equal(together[0], together[1])
        assert np.array_equal(together[0], a)
        # the reconstructed pair really does produce the same shift
        assert compute_warp(180.0, d2).delta_mel == pytest.approx(
            w1.delta_mel, abs=1e-9
        )

    def test_fan_out_equals_single_past_two_spectrum_blocks(self):
        # 2 * SPECTRUM_BLOCK + 3 frames: the spectrum runs in three blocks,
        # and each warp of one call still equals its call alone.
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        n_frames = 2 * SPECTRUM_BLOCK + 3
        buf = self._noise(n=400 + 160 * (n_frames - 1))
        warps = [WarpSpec(100.0, 100.0, d) for d in (0.0, 20.0, -60.0, 250.0, -250.0)]
        together = extract_features(buf, cfg, *warps)
        for values, warp in zip(together, warps):
            (alone,) = extract_features(buf, cfg, warp)
            assert values.shape == (n_frames, 13)
            assert np.array_equal(values, alone)

    def test_mfcc_shape_and_finite(self):
        (values,) = extract_features(AudioBuffer(np.zeros(16000)), FeatureConfig())
        assert values.shape == (98, 13)
        assert np.isfinite(values).all()

    def test_log_mel_shape(self):
        cfg = FeatureConfig(feature_kind=LOG_MEL)
        (values,) = extract_features(self._noise(), cfg)
        assert values.shape == (48, 23)

    def test_determinism(self):
        buf = self._noise()
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        warp = compute_warp(220.0, 100.0)
        (a,) = extract_features(buf, cfg, warp)
        (b,) = extract_features(buf, cfg, warp)
        assert np.array_equal(a, b)

    # Both are rejected when the config is built, before any extraction.
    def test_hi_freq_above_nyquist_rejected(self):
        with pytest.raises(DomainError, match="exceeds Nyquist for 16000 Hz audio"):
            FeatureConfig(hi_freq=9000.0)

    def test_dft_smaller_than_window_rejected(self):
        message = r"dft_size 256 is shorter than window 0.025 s \(400 samples\)"
        with pytest.raises(ValueError, match=message):
            FeatureConfig(dft_size=256)


class TestFeatureConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0.0},
            {"hop": -0.01},
            {"lo_freq": 100.0, "hi_freq": 50.0},
            {"num_ceps": 24},
            {"preemphasis": 1.0},
            {"log_floor": 0.0},
            {"feature_kind": "plp"},
            {"window": math.inf},
            {"hop": math.nan},
            {"hi_freq": math.inf},
            {"log_floor": math.nan},
            {"log_floor": math.inf},
            {"hi_freq": 8000.5},
            {"window": 0.05},
            {"window": 0.00001},
            {"hop": 0.00001},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FeatureConfig(**kwargs)

import numpy as np
import pytest
import scipy.fft

import f0warp as fw
from f0warp import _kernels
from f0warp.pitch import DIP_THRESHOLD, DIP_TOLERANCE
from tests.synthkit import resonator_cascade, synth_harmonic


def _cumulative_mean_difference_loop(frames, tau_max, span):
    # Plain-loop definition of the kernel, kept as the oracle.
    n_frames = frames.shape[0]
    out = np.ones((n_frames, tau_max + 1))
    for t in range(n_frames):
        x = frames[t]
        running = 0.0
        for tau in range(1, tau_max + 1):
            acc = 0.0
            for j in range(span):
                diff = x[j] - x[j + tau]
                acc += diff * diff
            running += acc
            if running > 0.0:
                out[t, tau] = acc * tau / running
            else:
                out[t, tau] = 1.0
    return out


def _parabolic_minimum_loop(row, tau):
    # Scalar definition of the picker's parabolic refinement (oracle).
    if tau <= 0 or tau >= row.shape[0] - 1:
        return float(tau)
    denom = row[tau - 1] - 2.0 * row[tau] + row[tau + 1]
    if denom <= 0:
        return float(tau)
    offset = 0.5 * (row[tau - 1] - row[tau + 1]) / denom
    return tau + min(max(offset, -1.0), 1.0)


def _pick_lag_loop(row, tau_min, tau_max):
    # Scalar definition of the picker's accepted lag (oracle): the first
    # local minimum below DIP_THRESHOLD and within DIP_TOLERANCE of the
    # row's minimum over [tau_min, tau_max], else that minimum.
    limit = row[tau_min:tau_max + 1].min() + DIP_TOLERANCE
    for tau in range(tau_min, tau_max):
        if (
            row[tau] < DIP_THRESHOLD
            and row[tau] <= limit
            and row[tau] <= row[tau - 1]
            and row[tau] <= row[tau + 1]
        ):
            return tau
    return tau_min + int(np.argmin(row[tau_min:tau_max + 1]))


def _frames(seed=0, n_frames=12, length=640):
    rng = np.random.default_rng(seed)
    t = np.arange(length) / 16000.0
    base = np.sin(2 * np.pi * 125.0 * t)
    out = base[None, :] + 0.05 * rng.standard_normal((n_frames, length))
    return np.ascontiguousarray(out)


class TestCumulativeMeanDifference:
    def test_numpy_dips_at_period(self):
        # The dips at 2x and 3x the period are about as deep as the one at
        # the period, so the promise is about the first deep dip (the one
        # the picker takes), not the deepest one.
        d = _kernels.cumulative_mean_difference(_frames(), 320)
        for t, row in enumerate(d):
            lag = _pick_lag_loop(row, 32, 320)
            assert row[lag] < DIP_THRESHOLD, (t, lag, row[lag])
            assert abs(lag - 128) <= 1, (t, lag)  # 16000 / 125

    def test_numpy_matches_loop_definition(self):
        frames = _frames()[:3]
        a = _kernels.cumulative_mean_difference(frames, 320)
        b = _cumulative_mean_difference_loop(frames, 320, 320)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_lag_zero_column_is_one(self):
        d = _kernels.cumulative_mean_difference(_frames()[:, :300], 100)
        assert np.all(d[:, 0] == 1.0)

    def test_exactly_periodic_frame_dips_to_zero(self):
        # x[j] == x[j + 40] bit for bit, so the plain sum of squared
        # differences is exactly 0 at every multiple of 40; the FFT form
        # leaves rounding residue there that the cancellation floor clears.
        pattern = np.random.default_rng(4).standard_normal(40)
        frames = np.tile(pattern, 16)[None, :]
        d = _kernels.cumulative_mean_difference(frames, 320)
        assert np.all(d[0, 40::40] == 0.0)
        slow = _cumulative_mean_difference_loop(frames, 320, 320)
        assert np.array_equal(d[0, 40::40], slow[0, 40::40])

    def test_dc_offset_then_soft_onset_matches_loop(self):
        # e_0 + e_tau - 2 r over a 0.1 offset cancels to residue of the
        # offset's energy, which swamps the onset's d at the first lags it
        # reaches unless the kernel takes the offset off first.
        frames = np.full((1, 640), 0.1)
        frames[0, 500:] += 1e-3 * np.sin(2 * np.pi * np.arange(140) / 40.0 + 0.3)
        fast = _kernels.cumulative_mean_difference(frames, 320)
        slow = _cumulative_mean_difference_loop(frames, 320, 320)
        assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_silence_stays_neutral(self):
        d = _kernels.cumulative_mean_difference(np.zeros((3, 640)), 320)
        assert np.all(d == 1.0)


def test_next_fast_len_matches_scipy():
    sizes = range(1, 4097)
    assert [_kernels.next_fast_len(n) for n in sizes] == [
        scipy.fft.next_fast_len(n, real=True) for n in sizes
    ]


class TestResonatorCascade:
    def _coeffs(self):
        radius = np.exp(-np.pi * np.array([60.0, 100.0, 120.0]) / 16000.0)
        theta = 2 * np.pi * np.array([300.0, 2300.0, 3000.0]) / 16000.0
        a1 = -2 * radius * np.cos(theta)
        a2 = radius ** 2
        return a1, a2, 1.0 + a1 + a2

    def test_unity_dc_gain(self):
        a1, a2, gain = self._coeffs()
        steady = resonator_cascade(np.ones(4000), a1, a2, gain)
        assert steady[-1] == pytest.approx(1.0, abs=1e-6)


def test_numpy_lane_produces_same_pitch_results():
    uf = fw.median_f0(fw.detect_pitch(synth_harmonic(100.0, 0.5)), 100.0)
    assert abs(uf.f0_utt - 100.0) <= 2.0, uf

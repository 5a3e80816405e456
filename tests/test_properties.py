"""Property tests: the method's invariants over random buffers and configs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from f0warp import (
    AudioBuffer,
    FeatureConfig,
    WarpSpec,
    compute_warp,
    extract_features,
    hz_to_mel,
    identity_warp,
    mel_to_hz,
)
from f0warp import _kernels
from f0warp.melwarp import LOG_MEL, MFCC, WARPED_HI_FREQ
from tests.test_kernels import _cumulative_mean_difference_loop

SR = 16000

# Few examples and no per-example deadline: each one runs whole extractions.
# Derandomized, so every run draws the same examples and a counterexample
# fails the change that brings it, not a later one.
few = settings(max_examples=20, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def buffers(draw):
    n = draw(st.integers(800, 6400))
    rng = np.random.default_rng(draw(seeds))
    return AudioBuffer(rng.standard_normal(n) * 0.3, SR, "u")


configs = st.builds(
    FeatureConfig,
    window=st.sampled_from([0.02, 0.025, 0.032]),
    hop=st.sampled_from([0.005, 0.01, 0.02]),
    dft_size=st.sampled_from([512, 1024]),
    num_filters=st.integers(13, 30),
    lo_freq=st.floats(0.0, 200.0),
    hi_freq=st.just(WARPED_HI_FREQ),
    preemphasis=st.floats(0.0, 0.97),
    feature_kind=st.sampled_from([LOG_MEL, MFCC]),
)


@few
@given(buffers(), configs, st.floats(50.0, 500.0))
def test_zero_shift_is_bit_exact(buffer, cfg, f0):
    """c2: f0_utt == f0_def reproduces the unwarped pipeline bit for bit.

    test_acceptance.py checks this for the default config only; here the
    config and the buffer length vary too.
    """
    warped = extract_features(buffer, cfg, compute_warp(f0, f0))
    plain = extract_features(buffer, cfg, identity_warp())
    assert np.array_equal(warped.values, plain.values)


@few
@given(
    buffers(), configs,
    st.floats(80.0, 320.0), st.floats(58.0, 144.0), st.floats(80.0, 400.0),
)
def test_equal_shifts_give_identical_features(buffer, cfg, u1, d1, u2):
    """c3: two (f0_utt, f0_def) pairs with the same shift, same features.

    Rebuilding f0_def from the shift rounds, so, as in test_acceptance.py,
    the second spec carries the first one's delta_mel exactly: this checks
    that the features depend on the pair only through its shift.  What it
    adds over the acceptance test is the random config.
    """
    w1 = compute_warp(u1, d1)
    assume(hz_to_mel(u2) > w1.delta_mel)
    d2 = mel_to_hz(hz_to_mel(u2) - w1.delta_mel)
    assert compute_warp(u2, d2).delta_mel == pytest.approx(w1.delta_mel, abs=1e-9)
    w2 = WarpSpec(u2, d2, w1.delta_mel, w1.clamped)
    a = extract_features(buffer, cfg, w1)
    b = extract_features(buffer, cfg, w2)
    assert np.array_equal(a.values, b.values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seeds,
    st.integers(1, 3),
    st.integers(1, 60),
    st.integers(1, 80),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 140),
)
def test_kernel_matches_loop_definition(seed, n_frames, tau_max, span, scale, silent):
    """The difference kernel equals its plain-loop definition, silent
    stretches (the neutral value 1) included."""
    frames = np.random.default_rng(seed).standard_normal((n_frames, span + tau_max))
    frames *= scale
    frames[:, :silent] = 0.0
    fast = _kernels.cumulative_mean_difference(frames, tau_max, span)
    slow = _cumulative_mean_difference_loop(frames, tau_max, span)
    assert np.max(np.abs(fast - slow)) <= 1e-12

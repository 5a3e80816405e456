"""Property tests: the method's invariants over random buffers and configs."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from f0warp import (
    AudioBuffer,
    FeatureConfig,
    ManifestEntry,
    PitchConfig,
    WarpSpec,
    build_filterbank,
    compute_warp,
    detect_pitch,
    extract_features,
    hz_to_mel,
    identity_warp,
    make_plan,
    median_f0,
    mel_to_hz,
    process_dataset,
    read_archive_index,
    warp_bin_mels,
)
from f0warp import _kernels
from f0warp.melwarp import DFT_SIZE, LOG_MEL, MAX_ABS_SHIFT_MEL, MFCC, WARPED_HI_FREQ
from f0warp.pitch import DIP_THRESHOLD, _pick_lags
from tests.conftest import archive_contents
from tests.synthkit import (
    VowelSpec,
    resonator_cascade,
    resonator_coefficients,
    shift_vowel_for_f0,
    synth_harmonic,
    synth_vowel,
    write_wav,
)
from tests.test_kernels import (
    _cumulative_mean_difference_loop,
    _parabolic_minimum_loop,
    _pick_lag_loop,
)

SR = 16000

# When a property fails, hypothesis's pytest plugin imports libcst to
# suggest a patch, and libcst sets off this DeprecationWarning from
# mypy_extensions.  The suite turns warnings into errors, which would turn
# that report into an INTERNALERROR that stops the whole run; ignored here,
# a failing property reports as one failed test.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

# Few examples and no per-example deadline: each one runs whole extractions.
# Derandomized, so every run draws the same examples and a counterexample
# fails the change that brings it, not a later one.
few = settings(max_examples=20, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def buffers(draw):
    n = draw(st.integers(800, 6400))
    rng = np.random.default_rng(draw(seeds))
    return AudioBuffer(rng.standard_normal(n) * 0.3, source_id="u")


configs = st.builds(
    FeatureConfig,
    window=st.sampled_from([0.02, 0.025, 0.032]),
    hop=st.sampled_from([0.005, 0.01, 0.02]),
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
    zero, identity = compute_warp(f0, f0), identity_warp()
    (warped,) = extract_features(buffer, cfg, zero)
    (plain,) = extract_features(buffer, cfg, identity)
    assert np.array_equal(warped, plain)
    together = extract_features(buffer, cfg, zero, identity)
    assert np.array_equal(together[0], together[1])
    assert np.array_equal(together[0], plain)


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
    (a,) = extract_features(buffer, cfg, w1)
    (b,) = extract_features(buffer, cfg, w2)
    assert np.array_equal(a, b)
    together = extract_features(buffer, cfg, w1, w2)
    assert np.array_equal(together[0], together[1])
    assert np.array_equal(together[0], a)


shifts = st.floats(-MAX_ABS_SHIFT_MEL, MAX_ABS_SHIFT_MEL)


@st.composite
def warp_lists(draw):
    """1-5 warps in +/-250 Mels plus the identity and a repeat of one of
    them, in random order."""
    deltas = draw(st.lists(shifts, min_size=1, max_size=5))
    warps = [WarpSpec(100.0, 100.0, d) for d in deltas]
    warps += [identity_warp(), draw(st.sampled_from(warps))]
    return draw(st.permutations(warps))


@few
@given(buffers(), configs, warp_lists())
def test_fan_out_equals_single_extraction(buffer, cfg, warps):
    """One call with several warps gives, for each warp, the array a call
    with that warp alone gives, bit for bit: the shared spectrum changes
    nothing."""
    together = extract_features(buffer, cfg, *warps)
    assert len(together) == len(warps)
    for values, warp in zip(together, warps):
        (alone,) = extract_features(buffer, cfg, warp)
        assert np.array_equal(values, alone)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.builds(
        FeatureConfig,
        num_filters=st.integers(13, 40),
        lo_freq=st.floats(0.0, 300.0),
        hi_freq=st.floats(3000.0, WARPED_HI_FREQ),
    ),
    shifts,
)
def test_every_filter_nonempty_below_nyquist(cfg, delta):
    """c5: any shift in +/-250 Mels under a ceiling up to 6200 Hz keeps
    every filter row nonempty and the topmost contributing bin at or below
    8000 Hz."""
    (weights,) = build_filterbank(cfg, warp_bin_mels(WarpSpec(100.0, 100.0, delta)))
    assert weights.shape == (cfg.num_filters, DFT_SIZE // 2 + 1)
    assert np.all((weights > 0).any(axis=1))
    top_bin = np.flatnonzero((weights > 0).any(axis=0)).max()
    assert top_bin * SR / DFT_SIZE <= 8000.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.builds(
        FeatureConfig,
        num_filters=st.integers(13, 40),
        lo_freq=st.floats(0.0, 300.0),
        hi_freq=st.floats(3000.0, WARPED_HI_FREQ),
    ),
    st.lists(shifts, min_size=1, max_size=7),
)
def test_stacked_filterbank_rows_equal_single_builds(cfg, deltas):
    """A stack of bin coordinates builds, in one call, each warp's
    filterbank exactly as a one-row stack of that warp does."""
    warps = [WarpSpec(100.0, 100.0, d) for d in deltas]
    stacked = build_filterbank(cfg, warp_bin_mels(*warps))
    assert stacked.shape == (len(deltas), cfg.num_filters, DFT_SIZE // 2 + 1)
    for weights, warp in zip(stacked, warps):
        alone = build_filterbank(cfg, warp_bin_mels(warp))
        assert np.array_equal(weights[None], alone)


harmonics = st.tuples(st.floats(80.0, 400.0), st.floats(0.3, 0.6))


@settings(max_examples=5, deadline=None, derandomize=True)
@given(
    st.lists(harmonics, min_size=1, max_size=3), st.floats(0.3, 0.6), st.integers(0, 3)
)
def test_archive_bytes_independent_of_worker_count(voiced, silent_s, silent_at):
    """c7: a small manifest of harmonics and one silent utterance (which
    takes the unvoiced fallback), normalized over the paper's plan, gives
    the same archive bytes at 1 and 3 workers."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        audio = [synth_harmonic(f0, duration) for f0, duration in voiced]
        audio.insert(silent_at, AudioBuffer(np.zeros(int(silent_s * SR))))
        entries = []
        for i, buffer in enumerate(audio):
            path = tmp / f"u{i}.wav"
            write_wav(path, buffer)
            entries.append(ManifestEntry(id=f"u{i}", audio_path=str(path)))
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        archives = []
        for workers in (1, 3):
            result = process_dataset(
                entries, tmp / f"w{workers}", cfg, make_plan(100.0),
                normalize=True, workers=workers,
            )
            assert not result.failures
            assert any(r["fallback_used"] for r in result.records)
            assert result.records == read_archive_index(tmp / f"w{workers}")
            archives.append(archive_contents(tmp / f"w{workers}"))
        assert archives[0] == archives[1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seeds,
    st.integers(1, 3),
    st.integers(1, 60),
    st.integers(1, 80),
    st.sampled_from([1e-3, 1.0, 1e3]),
    st.integers(0, 140),
    st.sampled_from([0.0, 0.1, -2.5]),
)
def test_kernel_matches_loop_definition(
    seed, n_frames, tau_max, span, scale, stretch, level
):
    """The difference kernel equals its plain-loop definition, frames that
    are silent or constant up to some lag or throughout (where the plain
    sum gives exact zeros and the neutral value 1) included."""
    frames = np.random.default_rng(seed).standard_normal((n_frames, span + tau_max))
    frames[:, :stretch] = level
    frames *= scale
    fast = _kernels.cumulative_mean_difference(frames, tau_max)
    slow = _cumulative_mean_difference_loop(frames, tau_max, span)
    assert np.max(np.abs(fast - slow)) <= 1e-12


# d' values near the picker's thresholds, repeated so rows hold ties.
DPRIME_LEVELS = [0.0, 0.01, 0.04, 0.1, 0.15, DIP_THRESHOLD, 0.3, 0.8, 1.0, 1.4]


@st.composite
def dprime_blocks(draw):
    """Rows of d' over lags 0..tau_max: free values, rows with no value
    below DIP_THRESHOLD (no qualifying dip), rows from few levels (equal
    dips), and rows whose minimum sits at tau_min or at tau_max."""
    tau_min = draw(st.integers(2, 8))
    tau_max = draw(st.integers(tau_min + 1, 40))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "no dip", "ties", "edge"]))
        if kind == "free":
            values = st.floats(0.0, 1.5)
        elif kind == "no dip":
            values = st.floats(DIP_THRESHOLD, 1.5)
        else:
            values = st.sampled_from(DPRIME_LEVELS)
        row = draw(st.lists(values, min_size=tau_max + 1, max_size=tau_max + 1))
        if kind == "edge":
            row[draw(st.sampled_from([tau_min, tau_max]))] = -0.01
        rows.append(row)
    return np.array(rows), tau_min, tau_max


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dprime_blocks())
def test_block_picker_matches_scalar_picker(block):
    """Per row, the vectorized picker's lag, refined lag and periodicity
    equal the scalar picker's, bit for bit."""
    dprime, tau_min, tau_max = block
    lags, refined, periodicity = _pick_lags(dprime, tau_min, tau_max)
    for t, row in enumerate(dprime):
        lag = _pick_lag_loop(row, tau_min, tau_max)
        assert lags[t] == lag
        assert refined[t] == _parabolic_minimum_loop(row, lag)
        assert periodicity[t] == min(max(1.0 - row[lag], 0.0), 1.0)


@st.composite
def stretches(draw):
    """1-4 stretches end to end, each a harmonic tone, digital silence, a
    DC offset or white noise, trimmed to an odd or even number of 10 ms
    pitch frames."""
    rng = np.random.default_rng(draw(seeds))
    parts = []
    for kind in draw(st.lists(st.sampled_from(["tone", "silence", "dc", "noise"]),
                              min_size=1, max_size=4)):
        n = draw(st.integers(800, 8000))
        if kind == "tone":
            parts.append(synth_harmonic(draw(st.floats(60.0, 450.0)), n / SR).samples)
        elif kind == "noise":
            parts.append(0.3 * rng.standard_normal(n))
        else:
            parts.append(np.full(n, 0.0 if kind == "silence" else draw(st.floats(-0.5, 0.5))))
    x = np.concatenate(parts)
    win, hop = 640, 160
    if (1 + (x.shape[0] - win) // hop) % 2 != draw(st.integers(0, 1)):
        x = x[:-hop]
    return AudioBuffer(x)


@few
@given(stretches())
def test_default_track_is_the_10ms_tracks_even_frames(buffer):
    """Every kernel row is computed on its own, so the default 20 ms track
    is exactly frames 0, 2, 4, ... of the 10 ms one, times included."""
    fine = detect_pitch(buffer, PitchConfig(shift=0.010)).frames
    assert detect_pitch(buffer).frames == fine[::2]


PB_VOWELS = {
    "a": (730.0, 1090.0, 2440.0),
    "e": (530.0, 1840.0, 2480.0),
    "i": (270.0, 2290.0, 3010.0),
    "o": (570.0, 840.0, 2410.0),
    "u": (300.0, 870.0, 2240.0),
}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(PB_VOWELS)), st.floats(80.0, 400.0))
def test_vowel_median_f0_within_50_cents(vowel, f0):
    """Peterson-Barney vowels (100 Hz reference) moved to f0 over the
    paper's 80-400 Hz range: the median f0 does not lock onto a multiple
    or sub-multiple of the period."""
    ref = VowelSpec(f0=100.0, formants=PB_VOWELS[vowel],
                    bandwidths=(60.0, 90.0, 150.0), duration=0.5)
    uf = median_f0(detect_pitch(synth_vowel(shift_vowel_for_f0(ref, f0))), 100.0)
    assert abs(1200.0 * np.log2(uf.f0_utt / f0)) <= 50.0, uf


@st.composite
def resonator_sections(draw):
    """(a1, a2, gain) of 1-4 stable two-pole sections: formant resonators,
    or raw coefficients anywhere in the stability triangle (pole radius
    below 1, real or complex poles) with a gain of either sign."""
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        formants = [draw(st.floats(50.0, 7900.0)) for _ in range(count)]
        bandwidths = [draw(st.floats(10.0, 1000.0)) for _ in range(count)]
        return resonator_coefficients(formants, bandwidths)
    a2 = [draw(st.floats(-0.999, 0.999)) for _ in range(count)]
    a1 = [draw(st.floats(-0.999, 0.999)) * (1.0 + c2) for c2 in a2]
    gain = [draw(st.floats(-4.0, 4.0)) for _ in range(count)]
    return np.array(a1), np.array(a2), np.array(gain)


@st.composite
def resonator_inputs(draw):
    """0-3000 samples of noise with exact zeros scattered through it and a
    silent tail."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(0, 3000))
    tail = draw(st.integers(0, n))
    x = rng.standard_normal(n)
    x[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    x[n - tail:] = 0.0
    return x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(resonator_sections(), resonator_inputs())
def test_resonator_cascade_matches_lfilter(sections, x):
    """The synthesizer's own two-pole recursion equals scipy's lfilter run
    section after section, exactly (a zero output may differ in sign where
    a negative gain meets a zero input, which array_equal allows)."""
    a1, a2, gain = sections
    expected = x
    for c1, c2, g in zip(a1, a2, gain):
        expected = lfilter([g], [1.0, c1, c2], expected)
    assert np.array_equal(resonator_cascade(x, a1, a2, gain), expected)

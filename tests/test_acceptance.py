"""Acceptance suite: one test per shipped guarantee, run via pytest.

Each test prints a ``[criterion N] PASS`` line on success; a failure shows
up both as the pytest failure and in the printed line.
"""

import numpy as np
import pytest

from f0warp import (
    AudioBuffer,
    FeatureConfig,
    WarpSpec,
    build_filterbank,
    compute_warp,
    detect_pitch,
    export_text_archive,
    extract_features,
    hz_to_mel,
    identity_warp,
    make_plan,
    mel_to_hz,
    median_f0,
    process_dataset,
    read_manifest,
    read_matrix,
    warp_bin_mels,
    write_matrix,
)
from f0warp.melwarp import LOG_MEL, WARPED_HI_FREQ
from f0warp.pipeline import variant_key
from tests.conftest import (
    archive_contents,
    make_wav_dataset,
    noisy_harmonic,
    read_text_archive,
    write_manifest,
)
from tests.synthkit import VowelSpec, shift_vowel_for_f0, synth_harmonic, synth_vowel

SR = 16000


def _report(number, detail):
    print(f"[criterion {number}] PASS: {detail}")


def test_c1_default_target_set():
    """The seven f0 targets around 100 Hz, each within 0.02 Hz."""
    expected = [58.52, 72.10, 85.93, 100.00, 114.32, 128.90, 143.74]
    plan = make_plan(100.0, (0.0, 20.0, -20.0, 40.0, -40.0, 60.0, -60.0))
    got = sorted(plan.f0_def_values)
    for value, target in zip(got, expected):
        assert abs(value - target) <= 0.02, (value, target)
    _report(1, f"f0_def values {[round(v, 4) for v in got]}")


def test_c2_warp_identity_bit_exact():
    """f0_utt == f0_def reproduces the unwarped pipeline bit for bit."""
    rng = np.random.default_rng(42)
    cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
    for i in range(50):
        n = int(rng.integers(4800, 9600))
        buf = AudioBuffer(rng.standard_normal(n) * 0.3, source_id=f"u{i}")
        pitch = float(rng.uniform(60.0, 300.0))
        zero, identity = compute_warp(pitch, pitch), identity_warp()
        (warped,) = extract_features(buf, cfg, zero)
        (plain,) = extract_features(buf, cfg, identity)
        assert np.array_equal(warped, plain), i
        together = extract_features(buf, cfg, zero, identity)
        assert np.array_equal(together[0], together[1]), i
        assert np.array_equal(together[0], plain), i
    _report(2, "50 random utterances, zero-shift extraction bit-identical")


def test_c3_shift_equivalence_and_composition():
    """Equal shifts give identical features; plan shifts compose additively."""
    rng = np.random.default_rng(7)
    cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
    buf = AudioBuffer(rng.standard_normal(8000) * 0.3, source_id="u")
    for _ in range(10):
        u1 = float(rng.uniform(80.0, 320.0))
        d1 = float(rng.uniform(58.0, 144.0))
        w1 = compute_warp(u1, d1)
        u2 = float(rng.uniform(80.0, 320.0))
        d2 = mel_to_hz(hz_to_mel(u2) - w1.delta_mel)
        # the reconstructed pair shares the shift (to rounding), so pin the
        # shift value itself and require bit-identical features
        assert compute_warp(u2, d2).delta_mel == pytest.approx(
            w1.delta_mel, abs=1e-9
        )
        w2 = WarpSpec(u2, d2, w1.delta_mel, w1.clamped)
        (a,) = extract_features(buf, cfg, w1)
        (b,) = extract_features(buf, cfg, w2)
        assert np.array_equal(a, b)
        together = extract_features(buf, cfg, w1, w2)
        assert np.array_equal(together[0], together[1])
        assert np.array_equal(together[0], a)

    plan = make_plan(100.0)
    for utterance_pitch in (90.0, 160.0, 270.0):
        for shift, f0_def in zip(plan.shifts_mel, plan.f0_def_values):
            raw = hz_to_mel(utterance_pitch) - hz_to_mel(f0_def)
            composed = hz_to_mel(utterance_pitch) - hz_to_mel(100.0) + shift
            assert abs(raw - composed) <= 1e-9
    _report(3, "equal-shift extractions bit-identical; composition within 1e-9 Mels")


def test_c4_vowel_alignment():
    """Normalized log-Mel distance < 0.8x the unnormalized distance.

    This is the Fig. 1 alignment measurement that the ``demo-fig1`` command
    used to print."""
    reference = VowelSpec(
        f0=106.0, formants=(300.0, 2300.0, 3000.0),
        bandwidths=(60.0, 100.0, 120.0), duration=1.0, amplitude=0.9,
    )
    low = synth_vowel(reference)
    high = synth_vowel(shift_vowel_for_f0(reference, 270.0))
    cfg = FeatureConfig(
        num_filters=15, lo_freq=20.0, hi_freq=6000.0, feature_kind=LOG_MEL
    )

    def mean_distance(low_warp, high_warp):
        (a,) = extract_features(low, cfg, low_warp)
        (b,) = extract_features(high, cfg, high_warp)
        return float(np.mean(np.linalg.norm(a - b, axis=1)))

    unnormalized = mean_distance(identity_warp(), identity_warp())
    warps = [
        compute_warp(median_f0(detect_pitch(b), 100.0).f0_utt, 100.0)
        for b in (low, high)
    ]
    normalized = mean_distance(*warps)
    assert normalized < 0.8 * unnormalized, (normalized, unnormalized)
    _report(
        4,
        f"normalized {normalized:.3f} vs unnormalized {unnormalized:.3f} "
        f"(ratio {normalized / unnormalized:.3f} < 0.8)",
    )


def test_c5_shift_sweep_keeps_filters_nonempty_below_nyquist():
    """Every shift in [-250, +250] Mels with the 6200 Hz ceiling must keep
    all filter rows nonempty and the topmost contributing bin at or below
    8000 Hz (1-Mel sweep)."""
    cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
    bad = []
    for delta in range(-250, 251):
        coords = warp_bin_mels(512, WarpSpec(100.0, 100.0, float(delta)))
        try:
            (weights,) = build_filterbank(cfg, coords)
        except Exception as exc:
            bad.append((delta, str(exc)))
            continue
        contributing = np.flatnonzero((weights > 0).any(axis=0))
        top_hz = contributing.max() * SR / 512
        if top_hz > 8000.0:
            bad.append((delta, f"top bin at {top_hz} Hz"))
    assert not bad, (
        f"{len(bad)} of 501 shifts violate the sweep; the lowest filter spans "
        f"(31.75, 244.00) Mels, so shifts below -244 leave it with no bin to "
        f"draw from (it would need energy from below 0 Hz): {bad}"
    )
    _report(5, "all 501 shifts keep every filter nonempty below Nyquist")


def test_c6_pitch_oracle():
    """Median f0 within 3 Hz at 20 dB SNR; silence falls back."""
    errors = {}
    for f0 in (60.0, 100.0, 106.0, 200.0, 270.0, 400.0):
        buf = noisy_harmonic(f0, duration=1.0, snr_db=20.0, seed=int(f0))
        result = median_f0(detect_pitch(buf), 100.0)
        assert not result.fallback_used
        assert abs(result.f0_utt - f0) <= 3.0, (f0, result.f0_utt)
        errors[f0] = abs(result.f0_utt - f0)
    silent = median_f0(detect_pitch(AudioBuffer(np.zeros(SR))), 100.0)
    assert silent.fallback_used and silent.f0_utt == 100.0
    worst = max(errors.values())
    _report(6, f"max median error {worst:.3f} Hz; silence takes the fallback")


def test_c7_fan_out_and_archive_determinism(tmp_path):
    """10 utterances x 7 shifts -> 70 records; rerun and worker count do not
    change a single byte."""
    f0s = (95.0, 130.0, 180.0, 240.0, 300.0, 75.0, 110.0, 220.0, 260.0, 150.0)
    entries = make_wav_dataset(tmp_path, f0s, duration=0.5)
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, entries)
    parsed = read_manifest(manifest)
    cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
    plan = make_plan(100.0)

    archives = []
    for name, workers in (("a1", 1), ("a2", 4), ("a3", 4)):
        result = process_dataset(
            parsed, tmp_path / name, cfg, plan, normalize=True, workers=workers
        )
        assert len(result.records) == 70
        assert not result.failures
        archives.append(archive_contents(tmp_path / name))
    assert archives[0] == archives[1] == archives[2]
    _report(7, "70 records; archives byte-identical across reruns and workers")


def test_c8_frame_count_and_format_round_trips(tmp_path, rng):
    """1 s -> 98x13; binary matrices round-trip exactly; text export
    round-trips within 1e-6 relative."""
    (values,) = extract_features(
        AudioBuffer(rng.standard_normal(SR) * 0.3, source_id="u"), FeatureConfig()
    )
    assert values.shape == (98, 13)

    stored = values.astype(np.float32)
    write_matrix(tmp_path / "m.mwf", values)
    assert np.array_equal(read_matrix(tmp_path / "m.mwf"), stored)

    entries = make_wav_dataset(tmp_path, (120.0,), duration=1.0)
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, entries)
    result = process_dataset(
        read_manifest(manifest), tmp_path / "arch",
        FeatureConfig(hi_freq=WARPED_HI_FREQ), make_plan(100.0), normalize=True,
    )
    export_text_archive(tmp_path / "arch", tmp_path / "feats.ark")
    parsed = read_text_archive(tmp_path / "feats.ark")
    for record in result.records:
        binary = read_matrix(tmp_path / "arch" / record["path"])
        text = parsed[variant_key(record["id"], record["shift_mel"])]
        scale = np.maximum(np.abs(binary), 1e-12)
        assert np.max(np.abs(text - binary) / scale) <= 1e-6
    _report(8, "98x13 frames; binary exact; text export within 1e-6 relative")

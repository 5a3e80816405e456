import numpy as np
import pytest

from f0warp import (
    AudioBuffer,
    DomainError,
    DuplicateShift,
    FeatureConfig,
    MissingZeroShift,
    UtteranceF0,
    augment_utterance,
    compute_warp,
    extract_features,
    hz_to_mel,
    make_plan,
)
from f0warp.melwarp import MAX_ABS_SHIFT_MEL, WARPED_HI_FREQ

SR = 16000

PAPER_STYLE_SET = [58.52, 72.10, 85.93, 100.00, 114.32, 128.90, 143.74]


def _buffer(seed=1, n=8000):
    return AudioBuffer(
        np.random.default_rng(seed).standard_normal(n) * 0.3, SR, "utt"
    )


class TestMakePlan:
    def test_default_plan_reproduces_target_set(self):
        plan = make_plan(100.0)
        assert len(plan) == 7
        assert sorted(plan.shifts_mel) == [-60.0, -40.0, -20.0, 0.0, 20.0, 40.0, 60.0]
        for value, expected in zip(sorted(plan.f0_def_values), PAPER_STYLE_SET):
            assert value == pytest.approx(expected, abs=0.02)

    def test_zero_shift_maps_to_base_exactly(self):
        plan = make_plan(100.0, (0.0,))
        assert plan.f0_def_values == (100.0,)

    def test_sign_convention(self):
        # a positive shift lowers the target pitch, a negative one raises it
        plan = make_plan(100.0, (0.0, 60.0, -60.0))
        assert plan.f0_def_values[1] == pytest.approx(58.52, abs=0.02)
        assert plan.f0_def_values[2] == pytest.approx(143.74, abs=0.02)

    def test_duplicate_shift_rejected(self):
        with pytest.raises(DuplicateShift):
            make_plan(100.0, (0.0, 20.0, 20.0))

    @pytest.mark.parametrize(
        "base, shifts",
        [
            (0.0, (0.0,)),
            (np.inf, (0.0,)),
            (np.nan, (0.0,)),
            (100.0, (0.0, np.nan)),
            (100.0, (0.0, -np.inf)),
        ],
    )
    def test_nonpositive_or_nonfinite_rejected(self, base, shifts):
        with pytest.raises(DomainError):
            make_plan(base, shifts)

    def test_missing_zero_rejected(self):
        with pytest.raises(MissingZeroShift):
            make_plan(100.0, (20.0, -20.0))

    def test_plan_value_definition(self):
        plan = make_plan(110.0, (0.0, 35.0, -12.5))
        base_mel = hz_to_mel(110.0)
        for shift, value in plan.entries():
            if shift == 0.0:
                assert value == 110.0
            else:
                assert hz_to_mel(value) == pytest.approx(base_mel - shift, abs=1e-9)


class TestAugmentUtterance:
    def _run(self, f0_utt):
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        plan = make_plan(100.0)
        return augment_utterance(_buffer(), cfg, plan, f0_utt), plan, cfg

    def test_fan_out_cardinality(self):
        mats, plan, _ = self._run(UtteranceF0(270.0, 40, False))
        assert len(mats) == len(plan) == 7

    def test_delta_composition(self):
        mats, plan, _ = self._run(UtteranceF0(270.0, 40, False))
        base_term = hz_to_mel(270.0) - hz_to_mel(100.0)
        for matrix, shift in zip(mats, plan.shifts_mel):
            raw = hz_to_mel(270.0) - hz_to_mel(matrix.warp.f0_def)
            assert raw == pytest.approx(base_term + shift, abs=1e-9)
            expected = min(max(base_term + shift, -MAX_ABS_SHIFT_MEL), MAX_ABS_SHIFT_MEL)
            assert matrix.warp.delta_mel == pytest.approx(expected, abs=1e-9)

    def test_clamped_variants_kept_and_flagged(self):
        mats, plan, _ = self._run(UtteranceF0(270.0, 40, False))
        # 270 Hz puts the base shift at ~217 Mels, so +40 and +60 clamp
        flagged = {s for m, s in zip(mats, plan.shifts_mel) if m.warp.clamped}
        assert flagged == {40.0, 60.0}
        assert len(mats) == 7

    def test_zero_shift_variant_matches_plain_normalized_extraction(self):
        mats, plan, cfg = self._run(UtteranceF0(270.0, 40, False))
        plain = extract_features(_buffer(), cfg, compute_warp(270.0, 100.0))
        zero_index = plan.shifts_mel.index(0.0)
        assert np.array_equal(mats[zero_index].values, plain.values)

    def test_unnormalized_zero_shift_matches_baseline_extraction(self):
        mats, plan, cfg = self._run(UtteranceF0(100.0, 0, False))
        plain = extract_features(_buffer(), cfg, compute_warp(100.0, 100.0))
        zero_index = plan.shifts_mel.index(0.0)
        assert np.array_equal(mats[zero_index].values, plain.values)
        assert mats[zero_index].warp.delta_mel == 0.0

    def test_unvoiced_fallback_gives_shift_only_deltas(self):
        mats, plan, _ = self._run(UtteranceF0(100.0, 0, True))
        for matrix, shift in zip(mats, plan.shifts_mel):
            assert matrix.warp.delta_mel == pytest.approx(shift, abs=1e-9)
            assert matrix.fallback_used

    def test_metadata_records_shift(self):
        mats, plan, _ = self._run(UtteranceF0(200.0, 12, False))
        assert [m.shift_mel for m in mats] == list(plan.shifts_mel)

    def test_fan_out_for_unnormalized_mode(self):
        mats, plan, _ = self._run(UtteranceF0(100.0, 0, False))
        assert len(mats) == 7
        for matrix, shift in zip(mats, plan.shifts_mel):
            assert matrix.warp.f0_utt == 100.0
            assert matrix.warp.delta_mel == pytest.approx(shift, abs=1e-9)
            assert not matrix.fallback_used

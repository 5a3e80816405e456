import numpy as np
import pytest

from f0warp import (
    AudioBuffer,
    DomainError,
    FeatureConfig,
    WarpSpec,
    augment_utterance,
    compute_warp,
    extract_features,
    hz_to_mel,
    make_plan,
)
from f0warp.augment import shift_text
from f0warp.melwarp import MAX_ABS_SHIFT_MEL, WARPED_HI_FREQ

PAPER_STYLE_SET = [58.52, 72.10, 85.93, 100.00, 114.32, 128.90, 143.74]


def _buffer(seed=1, n=8000):
    return AudioBuffer(
        np.random.default_rng(seed).standard_normal(n) * 0.3, source_id="utt"
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
        with pytest.raises(DomainError, match=r"^shifts_mel 20\.0 and 20\.0 are one shift"):
            make_plan(100.0, (0.0, 20.0, 20.0))

    def test_shifts_one_variant_name_apart_rejected(self):
        # Both shifts are written "+20" in variant names, so one variant's
        # matrix file would overwrite the other's.
        assert shift_text(20.0) == shift_text(20.0000001) == "+20"
        with pytest.raises(
            DomainError, match=r"^shifts_mel 20\.0 and 20\.0000001 are one shift to the 6"
        ):
            make_plan(100.0, (0.0, 20.0, 20.0000001))
        make_plan(100.0, (0.0, 20.0, 20.0001))

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

    def test_shift_past_the_base_rejected(self):
        # The shift must stay below hz_to_mel(100) = 150.5 Mel, or the
        # target pitch would be 0 Hz or below.
        make_plan(100.0, (0.0, 150.0))
        for shift in (150.5, 200.0):
            with pytest.raises(
                DomainError, match=f"^shifts_mel {shift:g} must be below 150.5 Mel"
            ):
                make_plan(100.0, (0.0, shift))

    def test_shift_with_no_finite_target_rejected(self):
        # hz_to_mel(100) + 1e6 Mel is past the largest float in Hz; the plan
        # is refused without an overflow warning or an infinite target.
        with pytest.raises(DomainError, match=r"^shifts_mel -1e\+06 gives base_f0_def 100 Hz"):
            make_plan(100.0, (0.0, 20.0, -1e6))

    def test_missing_zero_rejected(self):
        with pytest.raises(DomainError, match="^shifts_mel must include 0$"):
            make_plan(100.0, (20.0, -20.0))

    def test_plan_value_definition(self):
        plan = make_plan(110.0, (0.0, 35.0, -12.5))
        base_mel = hz_to_mel(110.0)
        for shift, value in zip(plan.shifts_mel, plan.f0_def_values):
            if shift == 0.0:
                assert value == 110.0
            else:
                assert hz_to_mel(value) == pytest.approx(base_mel - shift, abs=1e-9)


class TestAugmentUtterance:
    def _run(self, f0_utt, fallback_used=False):
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        plan = make_plan(100.0)
        return augment_utterance(_buffer(), cfg, plan, f0_utt, fallback_used), plan, cfg

    def test_fan_out_cardinality(self):
        variants, plan, _ = self._run(270.0)
        assert len(variants) == len(plan) == 7

    def test_delta_composition(self):
        variants, plan, _ = self._run(270.0)
        base_term = hz_to_mel(270.0) - hz_to_mel(100.0)
        for (facts, _), shift in zip(variants, plan.shifts_mel):
            raw = hz_to_mel(270.0) - hz_to_mel(facts["f0_def"])
            assert raw == pytest.approx(base_term + shift, abs=1e-9)
            expected = min(max(base_term + shift, -MAX_ABS_SHIFT_MEL), MAX_ABS_SHIFT_MEL)
            assert facts["delta_mel"] == pytest.approx(expected, abs=1e-9)

    def test_clamped_variants_kept_and_flagged(self):
        variants, plan, _ = self._run(270.0)
        # 270 Hz puts the base shift at ~217 Mels, so +40 and +60 clamp
        flagged = {s for (facts, _), s in zip(variants, plan.shifts_mel) if facts["clamped"]}
        assert flagged == {40.0, 60.0}
        assert len(variants) == 7

    def test_zero_shift_variant_matches_plain_normalized_extraction(self):
        variants, plan, cfg = self._run(270.0)
        (plain,) = extract_features(_buffer(), cfg, compute_warp(270.0, 100.0))
        zero_index = plan.shifts_mel.index(0.0)
        assert np.array_equal(variants[zero_index][1], plain)

    def test_unnormalized_zero_shift_matches_baseline_extraction(self):
        variants, plan, cfg = self._run(100.0)
        (plain,) = extract_features(_buffer(), cfg, compute_warp(100.0, 100.0))
        facts, values = variants[plan.shifts_mel.index(0.0)]
        assert np.array_equal(values, plain)
        assert facts["delta_mel"] == 0.0

    def test_unvoiced_fallback_gives_shift_only_deltas(self):
        variants, plan, _ = self._run(100.0, fallback_used=True)
        for (facts, _), shift in zip(variants, plan.shifts_mel):
            assert facts["delta_mel"] == pytest.approx(shift, abs=1e-9)
            assert facts["fallback_used"]

    def test_meta_records_warp_and_config(self):
        variants, plan, _ = self._run(270.0)
        for (facts, _), f0_def in zip(variants, plan.f0_def_values):
            warp = WarpSpec(facts["f0_utt"], facts["f0_def"], facts["delta_mel"],
                            facts["clamped"])
            assert warp == compute_warp(270.0, f0_def)

    def test_metadata_records_shift(self):
        variants, plan, _ = self._run(200.0)
        assert [facts["shift_mel"] for facts, _ in variants] == list(plan.shifts_mel)

    def test_fan_out_for_unnormalized_mode(self):
        variants, plan, _ = self._run(100.0)
        assert len(variants) == 7
        for (facts, _), shift in zip(variants, plan.shifts_mel):
            assert facts["f0_utt"] == 100.0
            assert facts["delta_mel"] == pytest.approx(shift, abs=1e-9)
            assert not facts["fallback_used"]

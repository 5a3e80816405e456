"""f0-perturbation plans and per-utterance feature fan-out.

Augmentation re-extracts one utterance several times with the target
pitch moved by fixed Mel offsets.  Raising the target lowers the shift
and vice versa, so each plan entry's shift composes additively with the
normalization shift: ``delta = mel(f0_utt) - mel(base) + shift_mel``
(clamped afterwards; clamped variants are kept and flagged so the
fan-out count is stable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .audio_io import AudioBuffer
from .errors import DomainError
from .melwarp import (
    FeatureConfig,
    compute_warp,
    extract_features,
    hz_to_mel,
    mel_to_hz,
)
from .pitch import UtteranceF0

DEFAULT_SHIFTS_MEL = (0.0, 20.0, -20.0, 40.0, -40.0, 60.0, -60.0)
DEFAULT_BASE_F0_DEF = 100.0


class DuplicateShift(ValueError):
    pass


class MissingZeroShift(ValueError):
    pass


@dataclass(frozen=True)
class AugmentationPlan:
    base_f0_def: float
    shifts_mel: tuple
    f0_def_values: tuple

    def __len__(self) -> int:
        return len(self.shifts_mel)

    def entries(self):
        return zip(self.shifts_mel, self.f0_def_values)


def make_plan(
    base_f0_def: float = DEFAULT_BASE_F0_DEF, shifts_mel=None
) -> AugmentationPlan:
    """Build a plan from a base target pitch and a set of Mel shifts.

    Entry i uses ``f0_def = mel_to_hz(hz_to_mel(base) - shift_i)``; the
    zero shift maps to the base exactly.  The base must be positive and
    finite; shifts must be finite, distinct and include 0.
    """
    if not 0 < base_f0_def < math.inf:
        raise DomainError("base_f0_def must be positive and finite")
    shifts = tuple(
        float(s) for s in (DEFAULT_SHIFTS_MEL if shifts_mel is None else shifts_mel)
    )
    if not all(math.isfinite(s) for s in shifts):
        raise DomainError(f"shifts must be finite: {shifts}")
    if len(set(shifts)) != len(shifts):
        raise DuplicateShift(f"shifts contain duplicates: {shifts}")
    if 0.0 not in shifts:
        raise MissingZeroShift("the zero shift must be part of every plan")
    base_mel = hz_to_mel(base_f0_def)
    values = tuple(
        float(base_f0_def) if s == 0.0 else mel_to_hz(base_mel - s) for s in shifts
    )
    return AugmentationPlan(
        base_f0_def=float(base_f0_def), shifts_mel=shifts, f0_def_values=values
    )


def augment_utterance(
    buffer: AudioBuffer,
    cfg: FeatureConfig,
    plan: AugmentationPlan,
    f0_utt: UtteranceF0,
) -> list:
    """One FeatureMatrix per plan entry, warped from ``f0_utt.f0_utt``.

    Callers that do not normalize pass the plan's base as ``f0_utt``, so
    each variant's shift equals its plan entry exactly.  Every matrix
    records its plan shift and whether the unvoiced-utterance fallback was
    taken.
    """
    out = []
    for shift, f0_def in plan.entries():
        fm = extract_features(buffer, cfg, compute_warp(f0_utt.f0_utt, f0_def))
        out.append(replace(fm, shift_mel=shift, fallback_used=f0_utt.fallback_used))
    return out

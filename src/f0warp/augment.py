"""f0-perturbation plans and per-utterance feature fan-out.

Augmentation extracts one utterance under several warps, with the target
pitch moved by fixed Mel offsets: the spectrum is computed once, and only
the filterbank positions change from variant to variant.  Raising the
target lowers the shift and vice versa, so each plan entry's shift
composes additively with the normalization shift:
``delta = mel(f0_utt) - mel(base) + shift_mel`` (clamped afterwards;
clamped variants are kept and flagged so the fan-out count is stable).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import DomainError
from .melwarp import FeatureConfig, compute_warp, extract_features, hz_to_mel, mel_to_hz

DEFAULT_SHIFTS_MEL = (0.0, 20.0, -20.0, 40.0, -40.0, 60.0, -60.0)
DEFAULT_BASE_F0_DEF = 100.0


@dataclass(frozen=True)
class AugmentationPlan:
    base_f0_def: float
    shifts_mel: tuple
    f0_def_values: tuple

    def __len__(self) -> int:
        return len(self.shifts_mel)


def shift_text(shift_mel: float) -> str:
    """A shift as variant names write it: signed, 6 significant digits."""
    return f"{shift_mel:+g}"


def make_plan(
    base_f0_def: float = DEFAULT_BASE_F0_DEF, shifts_mel=None
) -> AugmentationPlan:
    """Build a plan from a base target pitch and a set of Mel shifts.

    Entry i uses ``f0_def = mel_to_hz(hz_to_mel(base) - shift_i)``; the
    zero shift maps to the base exactly.  The base must be positive and
    finite; shifts must be finite, include 0 and stay below
    ``hz_to_mel(base)`` and above the shift whose target overflows, so
    that every target is a positive, finite pitch, and no two may share a
    :func:`shift_text`, which names their variants.
    """
    if not 0 < base_f0_def < math.inf:
        raise DomainError(f"base_f0_def must be positive and finite, not {base_f0_def:g}")
    shifts = tuple(
        float(s) for s in (DEFAULT_SHIFTS_MEL if shifts_mel is None else shifts_mel)
    )
    if not all(math.isfinite(s) for s in shifts):
        raise DomainError(f"shifts_mel must be finite: {shifts}")
    for a, b in itertools.combinations(shifts, 2):
        if a == b or shift_text(a) == shift_text(b):
            raise DomainError(
                f"shifts_mel {a!r} and {b!r} are one shift to the 6 significant"
                f" digits of variant names"
            )
    if 0.0 not in shifts:
        raise DomainError("shifts_mel must include 0")
    base_mel = hz_to_mel(base_f0_def)
    if max(shifts) >= base_mel:
        raise DomainError(
            f"shifts_mel {max(shifts):g} must be below {base_mel:.1f} Mel, the Mel"
            f" value of base_f0_def {base_f0_def:g} Hz, for a positive target f0"
        )
    with np.errstate(over="ignore"):
        values = tuple(
            float(base_f0_def) if s == 0.0 else mel_to_hz(base_mel - s) for s in shifts
        )
    if not all(map(math.isfinite, values)):
        raise DomainError(
            f"shifts_mel {min(shifts):g} gives base_f0_def {base_f0_def:g} Hz a target"
            f" f0 too high to be a finite number"
        )
    return AugmentationPlan(
        base_f0_def=float(base_f0_def), shifts_mel=shifts, f0_def_values=values
    )


def augment_utterance(
    buffer: AudioBuffer,
    cfg: FeatureConfig,
    plan: AugmentationPlan,
    f0_utt: float,
    fallback_used: bool,
) -> list:
    """One ``(facts, values)`` pair per plan entry, warped from ``f0_utt``.

    ``values`` is the variant's frames x dims feature matrix.  ``facts``
    are its ``index.jsonl`` fields, in index order: the plan shift, the
    warp's f0s, shift and clamp, whether the unvoiced-utterance fallback
    gave ``f0_utt``, and the matrix shape.  Callers that do not normalize
    pass the plan's base as ``f0_utt``, so each variant's shift equals its
    plan entry exactly.
    """
    warps = [compute_warp(f0_utt, f0_def) for f0_def in plan.f0_def_values]
    matrices = extract_features(buffer, cfg, *warps)
    return [
        ({"shift_mel": shift, "f0_utt": warp.f0_utt, "f0_def": warp.f0_def,
          "delta_mel": warp.delta_mel, "clamped": warp.clamped,
          "fallback_used": fallback_used, "frames": values.shape[0],
          "dims": values.shape[1]}, values)
        for values, warp, shift in zip(matrices, warps, plan.shifts_mel)
    ]

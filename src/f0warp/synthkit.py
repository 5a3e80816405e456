"""Deterministic test-signal synthesis: harmonic trains and vowels.

Vowels are source-filter: a band-limited impulse train excites cascaded
two-pole resonators, one per formant.  ``shift_vowel_for_f0`` re-places
the formants of a reference vowel for a new pitch so that every formant
keeps its Mel-domain distance to f0, which is the placement rule the
warp-based normalization in :mod:`f0warp.melwarp` is built to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .audio_io import AudioBuffer
from .errors import DomainError
from .melwarp import hz_to_mel, mel_to_hz

DEFAULT_SAMPLE_RATE = 16000


@dataclass(frozen=True)
class VowelSpec:
    f0: float
    formants: tuple
    bandwidths: tuple
    duration: float = 1.0
    amplitude: float = 0.9

    def __post_init__(self):
        if len(self.formants) != 3 or len(self.bandwidths) != 3:
            raise DomainError("exactly three formants and bandwidths are required")
        f1, f2, f3 = self.formants
        if not 0 < self.f0 < f1 < f2 < f3:
            raise DomainError("need 0 < f0 < F1 < F2 < F3")
        if any(b <= 0 for b in self.bandwidths):
            raise DomainError("bandwidths must be positive")
        if self.duration <= 0:
            raise DomainError("duration must be positive")
        if not 0 <= self.amplitude <= 1:
            raise DomainError("amplitude must be in [0, 1]")


def _harmonic_sum(f0: float, n_samples: int, sample_rate: int) -> np.ndarray:
    # Equal-amplitude cosine harmonics below Nyquist, all at zero phase.
    t = np.arange(n_samples) / sample_rate
    n_harmonics = int(np.floor((sample_rate / 2 - 1e-9) / f0))
    x = np.zeros(n_samples)
    for k in range(1, n_harmonics + 1):
        x += np.cos(2.0 * np.pi * k * f0 * t)
    return x


def _peak_normalize(x: np.ndarray, amplitude: float) -> np.ndarray:
    peak = np.max(np.abs(x))
    if peak > 0:
        return x * (amplitude / peak)
    return x


def synth_harmonic(
    f0: float,
    duration: float,
    amplitude: float = 0.9,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> AudioBuffer:
    """Band-limited impulse train at f0, peak-scaled to ``amplitude``."""
    if not 0 < f0 < sample_rate / 2:
        raise DomainError("f0 must be positive and below Nyquist")
    if duration <= 0:
        raise DomainError("duration must be positive")
    if not 0 <= amplitude <= 1:
        raise DomainError("amplitude must be in [0, 1]")
    n = int(round(duration * sample_rate))
    x = _peak_normalize(_harmonic_sum(f0, n, sample_rate), amplitude)
    return AudioBuffer(x, sample_rate, source_id=f"harmonic-{f0:g}hz")


def resonator_coefficients(formants, bandwidths, sample_rate: int):
    """Two-pole section coefficients for each (formant, bandwidth) pair.

    Poles sit at radius exp(-pi*B/sr) and angle 2*pi*F/sr; each section is
    scaled for unity gain at DC.
    """
    f = np.asarray(formants, dtype=np.float64)
    b = np.asarray(bandwidths, dtype=np.float64)
    radius = np.exp(-np.pi * b / sample_rate)
    theta = 2.0 * np.pi * f / sample_rate
    a1 = -2.0 * radius * np.cos(theta)
    a2 = radius ** 2
    gain = 1.0 + a1 + a2
    return a1, a2, gain


def resonator_cascade(source, a1, a2, gain):
    """Run a signal through cascaded two-pole sections."""
    # Imported here so that loading the package (and every command but
    # synthesis) stays free of scipy.
    from scipy.signal import lfilter

    y = np.ascontiguousarray(source, dtype=np.float64)
    for c1, c2, g in zip(a1, a2, gain):
        y = lfilter([g], [1.0, c1, c2], y)
    return y


def synth_vowel(spec: VowelSpec, sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioBuffer:
    """Impulse train at ``spec.f0`` through the three formant resonators."""
    if spec.formants[-1] >= sample_rate / 2:
        raise DomainError("highest formant must be below Nyquist")
    n = int(round(spec.duration * sample_rate))
    source = _harmonic_sum(spec.f0, n, sample_rate)
    a1, a2, gain = resonator_coefficients(spec.formants, spec.bandwidths, sample_rate)
    y = resonator_cascade(source, a1, a2, gain)
    y = _peak_normalize(y, spec.amplitude)
    return AudioBuffer(y, sample_rate, source_id=f"vowel-{spec.f0:g}hz")


def shift_vowel_for_f0(
    ref: VowelSpec, target_f0: float, sample_rate: int = DEFAULT_SAMPLE_RATE
) -> VowelSpec:
    """Re-place formants for a new pitch, preserving Mel distances to f0.

    Each formant moves by the same Mel offset as the pitch, so
    ``hz_to_mel(Fx) - hz_to_mel(f0)`` is unchanged; bandwidths scale with
    each formant's own Hz ratio.
    """
    if target_f0 <= 0:
        raise DomainError("target_f0 must be positive")
    if target_f0 == ref.f0:
        return ref
    offset = hz_to_mel(target_f0) - hz_to_mel(ref.f0)
    shifted = tuple(mel_to_hz(hz_to_mel(fx) + offset) for fx in ref.formants)
    if any(fx >= sample_rate / 2 for fx in shifted):
        raise DomainError("shifted formant reaches Nyquist")
    bandwidths = tuple(
        bx * (new / old) for bx, new, old in zip(ref.bandwidths, shifted, ref.formants)
    )
    return replace(ref, f0=float(target_f0), formants=shifted, bandwidths=bandwidths)

"""Test fixture: deterministic test signals and a WAV writer.

The tests build their inputs here; none of it is part of the ``f0warp``
package.  Vowels are source-filter: a band-limited impulse train excites
cascaded two-pole resonators, one per formant, each run as a plain
recursion over the samples, so synthesis needs numpy alone.
``shift_vowel_for_f0`` re-places the formants of a reference vowel for a
new pitch so that every formant keeps its Mel-domain distance to f0, which
is the placement rule the warp-based normalization in
:mod:`f0warp.melwarp` is built to exploit.  ``synth_contour`` is a
harmonic sum whose f0 moves (declination plus intonation), returned with
its true f0 at every sample.  ``write_wav`` writes a buffer
as the 16-bit PCM that :func:`f0warp.audio_io.read_wav` reads.
"""

from __future__ import annotations

import wave
from array import array
from dataclasses import dataclass, replace

import numpy as np

from f0warp.audio_io import PCM_SCALE, REQUIRED_SAMPLE_RATE, AudioBuffer, whole_samples
from f0warp.errors import DomainError
from f0warp.melwarp import hz_to_mel, mel_to_hz


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
        if self.f0 <= 0:
            raise DomainError("f0 must be positive")
        f1, f2, f3 = self.formants
        if not self.f0 < f1 < f2 < f3:
            raise DomainError(f"formants must rise above f0 {self.f0:g}, not {self.formants}")
        if f3 >= REQUIRED_SAMPLE_RATE / 2:
            raise DomainError(f"formants must be below Nyquist, not F3 {f3:g} Hz")
        if any(b <= 0 for b in self.bandwidths):
            raise DomainError("bandwidths must be positive")
        whole_samples("duration", self.duration)
        if not 0 <= self.amplitude <= 1:
            raise DomainError("amplitude must be in [0, 1]")


def _harmonic_sum(f0: float, n_samples: int) -> np.ndarray:
    # Equal-amplitude cosine harmonics below Nyquist, all at zero phase.
    t = np.arange(n_samples) / REQUIRED_SAMPLE_RATE
    n_harmonics = int(np.floor((REQUIRED_SAMPLE_RATE / 2 - 1e-9) / f0))
    x = np.zeros(n_samples)
    for k in range(1, n_harmonics + 1):
        x += np.cos(2.0 * np.pi * k * f0 * t)
    return x


def _peak_normalize(x: np.ndarray, amplitude: float) -> np.ndarray:
    peak = np.max(np.abs(x))
    if peak > 0:
        return x * (amplitude / peak)
    return x


def synth_harmonic(f0: float, duration: float, amplitude: float = 0.9) -> AudioBuffer:
    """Band-limited impulse train at f0, peak-scaled to ``amplitude``."""
    if not 0 < f0 < REQUIRED_SAMPLE_RATE / 2:
        raise DomainError("f0 must be positive and below Nyquist")
    n = whole_samples("duration", duration)
    if not 0 <= amplitude <= 1:
        raise DomainError("amplitude must be in [0, 1]")
    x = _peak_normalize(_harmonic_sum(f0, n), amplitude)
    return AudioBuffer(x, source_id=f"harmonic-{f0:g}hz")


def synth_contour(f0_mid: float, duration: float, declination: float = 0.0,
                  intonation: float = 0.0, rate: float = 1.0, phase: float = 0.0,
                  amplitude: float = 0.9) -> tuple:
    """Harmonic sum whose f0 moves, and its f0 in Hz at every sample.

    In semitones about ``f0_mid``, the f0 falls linearly by
    ``declination`` across the utterance (from ``+declination / 2`` to
    ``-declination / 2``) plus a sinusoid at ``rate`` Hz and ``phase``
    radians that spans ``intonation`` semitones peak to peak.  Each
    equal-amplitude harmonic's phase is the running sum of its frequency,
    so the pitch glides without phase jumps; the harmonics are those that
    stay below Nyquist at the contour's highest f0.
    """
    n = whole_samples("duration", duration)
    if f0_mid <= 0 or not 0 <= amplitude <= 1:
        raise DomainError("f0_mid must be positive and amplitude in [0, 1]")
    t = np.arange(n) / REQUIRED_SAMPLE_RATE
    semitones = (declination * (0.5 - t / duration)
                 + 0.5 * intonation * np.sin(2.0 * np.pi * rate * t + phase))
    f0 = f0_mid * 2.0 ** (semitones / 12.0)
    if not f0.max() < REQUIRED_SAMPLE_RATE / 2:
        raise DomainError("the contour must stay below Nyquist")
    cycle = 2.0 * np.pi * np.cumsum(f0) / REQUIRED_SAMPLE_RATE
    x = np.zeros(n)
    for k in range(1, int((REQUIRED_SAMPLE_RATE / 2 - 1e-9) // f0.max()) + 1):
        x += np.cos(k * cycle)
    buffer = AudioBuffer(_peak_normalize(x, amplitude), source_id=f"contour-{f0_mid:g}hz")
    return buffer, f0


def resonator_coefficients(formants, bandwidths):
    """Two-pole section coefficients for each (formant, bandwidth) pair.

    Poles sit at radius exp(-pi*B/fs) and angle 2*pi*F/fs at the fixed
    rate fs = REQUIRED_SAMPLE_RATE; each section is scaled for unity gain
    at DC.
    """
    f = np.asarray(formants, dtype=np.float64)
    b = np.asarray(bandwidths, dtype=np.float64)
    radius = np.exp(-np.pi * b / REQUIRED_SAMPLE_RATE)
    theta = 2.0 * np.pi * f / REQUIRED_SAMPLE_RATE
    a1 = -2.0 * radius * np.cos(theta)
    a2 = radius ** 2
    gain = 1.0 + a1 + a2
    return a1, a2, gain


def resonator_cascade(source, a1, a2, gain):
    """Run a signal through cascaded two-pole sections, in order.

    Each section is ``y[n] = g*x[n] - a1*y[n-1] - a2*y[n-2]`` from zero
    state.  The sum is taken in the order of the direct-form-II-transposed
    loop of ``scipy.signal.lfilter([g], [1, a1, a2], x)``, so the output
    equals that filter's bit for bit, but for the sign of an exact zero
    where ``g*x[n]`` is -0.0 (never with a resonator's positive gain and
    an input free of -0.0).
    """
    y = np.ascontiguousarray(source, dtype=np.float64)
    for c1, c2, g in zip(a1, a2, gain):
        c1, c2, g = float(c1), float(c2), float(g)
        out = array("d")
        y1 = y2 = 0.0
        for x in memoryview(y):
            y1, y2 = (-(y2 * c2) - y1 * c1) + g * x, y1
            out.append(y1)
        y = np.asarray(out)
    return y


def synth_vowel(spec: VowelSpec) -> AudioBuffer:
    """Impulse train at ``spec.f0`` through the three formant resonators."""
    source = _harmonic_sum(spec.f0, whole_samples("duration", spec.duration))
    a1, a2, gain = resonator_coefficients(spec.formants, spec.bandwidths)
    y = resonator_cascade(source, a1, a2, gain)
    y = _peak_normalize(y, spec.amplitude)
    return AudioBuffer(y, source_id=f"vowel-{spec.f0:g}hz")


def shift_vowel_for_f0(ref: VowelSpec, target_f0: float) -> VowelSpec:
    """Re-place formants for a new pitch, preserving Mel distances to f0.

    Each formant moves by the same Mel offset as the pitch, so
    ``hz_to_mel(Fx) - hz_to_mel(f0)`` is unchanged; bandwidths scale with
    each formant's own Hz ratio.  The new spec is checked like any other.
    """
    if target_f0 <= 0:
        raise DomainError("target_f0 must be positive")
    if target_f0 == ref.f0:
        return ref
    offset = hz_to_mel(target_f0) - hz_to_mel(ref.f0)
    shifted = tuple(mel_to_hz(hz_to_mel(fx) + offset) for fx in ref.formants)
    bandwidths = tuple(
        bx * (new / old) for bx, new, old in zip(ref.bandwidths, shifted, ref.formants)
    )
    return replace(ref, f0=float(target_f0), formants=shifted, bandwidths=bandwidths)


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write an AudioBuffer as 16-bit PCM WAV."""
    quantized = np.clip(np.round(buffer.samples * PCM_SCALE), -32768, 32767)
    pcm = quantized.astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(REQUIRED_SAMPLE_RATE)
        handle.writeframes(pcm.tobytes())

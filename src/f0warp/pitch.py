"""Per-frame f0 estimation and the utterance-level median pitch.

The detector is a band-limited normalized-difference tracker: each
frame's cumulative-mean-normalized difference function is searched for
its first deep dip in the candidate lag range, the dip is refined by
parabolic interpolation, and ``1 - dip depth`` serves as a periodicity
score in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import butter, sosfiltfilt

from . import _kernels
from .audio_io import AudioBuffer
from .errors import DomainError, TooShort

# Absolute depth a normalized-difference dip must reach for first-dip
# candidate selection; deeper than any subharmonic dip of real speech but
# comfortably above the noise floor of a periodic frame.
DIP_THRESHOLD = 0.2
# How far above the row's deepest dip an accepted dip may sit, so dips at
# a fraction of the period (F1 near a low harmonic) are passed over, as
# with the relative threshold of McLeod & Wyvill's MPM (2005).
DIP_TOLERANCE = 0.05


@dataclass(frozen=True)
class PitchConfig:
    f0_min: float = 50.0
    f0_max: float = 500.0
    voicing_threshold: float = 0.5
    window: float = 0.040
    shift: float = 0.010

    def __post_init__(self):
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValueError("pitch settings must be finite")
        if not 0 < self.f0_min < self.f0_max:
            raise ValueError("need 0 < f0_min < f0_max")
        if not 0 <= self.voicing_threshold <= 1:
            raise ValueError("voicing_threshold must be in [0, 1]")
        if self.window <= 0 or self.shift <= 0:
            raise ValueError("window and shift must be positive")


@dataclass(frozen=True)
class PitchFrame:
    """One analysis frame: center time, f0 (None when unvoiced), score."""

    time: float
    f0: float | None
    periodicity: float

    @property
    def voiced(self) -> bool:
        return self.f0 is not None


@dataclass(frozen=True)
class PitchTrack:
    frames: tuple
    frame_shift: float

    def voiced_f0s(self) -> list:
        return [f.f0 for f in self.frames if f.f0 is not None]


@dataclass(frozen=True)
class UtteranceF0:
    """Median f0 over voiced frames, or the configured default."""

    f0_utt: float
    voiced_count: int
    fallback_used: bool


def _band_limit(x: np.ndarray, sample_rate: int, f0_max: float) -> np.ndarray:
    """Zero-phase low-pass keeping the fundamental and low harmonics."""
    cutoff = min(2.4 * f0_max, 0.45 * sample_rate)
    sos = butter(4, cutoff, btype="low", fs=sample_rate, output="sos")
    pad = 3 * (2 * sos.shape[0] + 1)
    if x.shape[0] <= pad:
        return x
    return sosfiltfilt(sos, x)


def _parabolic_minimum(row: np.ndarray, tau: int) -> float:
    if tau <= 0 or tau >= row.shape[0] - 1:
        return float(tau)
    denom = row[tau - 1] - 2.0 * row[tau] + row[tau + 1]
    if denom <= 0:
        return float(tau)
    offset = 0.5 * (row[tau - 1] - row[tau + 1]) / denom
    return tau + min(max(offset, -1.0), 1.0)


def _pick_lag(row: np.ndarray, tau_min: int, tau_max: int, floor: float) -> int:
    """First local minimum below DIP_THRESHOLD and within DIP_TOLERANCE of
    ``floor`` (the row's minimum over the lag range), else the global one.

    Taking the first deep dip rather than the deepest one avoids the
    octave-down errors a plain argmin makes on strongly periodic frames,
    where dips at 2x and 3x the period are equally deep.
    """
    limit = floor + DIP_TOLERANCE
    for tau in range(tau_min, tau_max):
        if (
            row[tau] < DIP_THRESHOLD
            and row[tau] <= limit
            and row[tau] <= row[tau - 1]
            and row[tau] <= row[tau + 1]
        ):
            return tau
    return tau_min + int(np.argmin(row[tau_min:tau_max + 1]))


def detect_pitch(buffer: AudioBuffer, cfg: PitchConfig | None = None) -> PitchTrack:
    """Track f0 over a buffer (see module docstring for the algorithm)."""
    cfg = cfg if cfg is not None else PitchConfig()
    if cfg.f0_max >= buffer.sample_rate / 2:
        raise DomainError("f0_max must be below Nyquist")
    sr = buffer.sample_rate
    win = int(round(cfg.window * sr))
    hop = int(round(cfg.shift * sr))
    x = buffer.samples
    if x.shape[0] < win:
        raise TooShort(
            f"buffer has {x.shape[0]} samples, needs {win} for one pitch window"
        )
    tau_min = max(2, int(sr // cfg.f0_max))
    tau_max = int(math.ceil(sr / cfg.f0_min))
    if tau_max + 2 > win:
        raise DomainError("pitch window too short for f0_min")
    span = win - tau_max

    banded = _band_limit(x, sr, cfg.f0_max)
    n_frames = 1 + (x.shape[0] - win) // hop
    frames = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(banded, win)[::hop][:n_frames]
    )
    dprime = _kernels.cumulative_mean_difference(frames, tau_max, span)
    floors = dprime[:, tau_min:tau_max + 1].min(axis=1)

    out = []
    for t in range(n_frames):
        row = dprime[t]
        tau = _pick_lag(row, tau_min, tau_max, floors[t])
        periodicity = min(max(1.0 - row[tau], 0.0), 1.0)
        f0 = None
        if periodicity >= cfg.voicing_threshold:
            refined = _parabolic_minimum(row, tau)
            f0 = min(max(sr / refined, cfg.f0_min), cfg.f0_max)
        time = (t * hop + win / 2) / sr
        out.append(PitchFrame(time=time, f0=f0, periodicity=periodicity))
    return PitchTrack(frames=tuple(out), frame_shift=hop / sr)


def median_f0(track: PitchTrack, default_f0: float) -> UtteranceF0:
    """Median over voiced frames; the configured default when none exist.

    Even-count median takes the lower-middle element so the result always
    equals an observed frame value.  The fallback keeps the downstream
    warp shift at zero for fully unvoiced utterances, so it must be a
    positive, finite pitch.
    """
    if not 0 < default_f0 < math.inf:
        raise DomainError("default_f0 must be positive and finite")
    voiced = sorted(track.voiced_f0s())
    if not voiced:
        return UtteranceF0(f0_utt=float(default_f0), voiced_count=0, fallback_used=True)
    return UtteranceF0(
        f0_utt=float(voiced[(len(voiced) - 1) // 2]),
        voiced_count=len(voiced),
        fallback_used=False,
    )

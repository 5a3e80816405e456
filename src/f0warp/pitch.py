"""Per-frame f0 estimation and the utterance-level median pitch.

The detector is a band-limited normalized-difference tracker: each
frame's cumulative-mean-normalized difference function is searched for
its first deep dip in the candidate lag range, the dip is refined by
parabolic interpolation, and ``1 - dip depth`` serves as a periodicity
score in [0, 1].  A frame whose samples are all equal scores 0.

The band-limit is a zero-phase low-pass applied with ``numpy.fft`` in
fixed blocks (see ``_band_limit``), so tracking needs nothing beyond
numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# Frames per difference-kernel call: bounds the kernel's spectra and d'
# rows to a few hundred KiB whatever the utterance length.  Output does
# not depend on it.
KERNEL_BLOCK = 128
# Band-limit FIR: 513 taps (+/-256) applied by overlap-save in 4096-point
# real FFTs, so 3584 output samples per block.
BAND_HALF_TAPS = 256
BAND_FFT = 4096
# Blocks per FFT call: enough to amortize the call, few enough that the
# spectra stay a few hundred KiB.  Output does not depend on it.
BAND_BLOCKS = 8
# Odd extension at each end, as scipy's sosfiltfilt pads a 4th-order
# (two-section) filter: 3 * (2 * sections + 1) samples.
BAND_ODD_PAD = 15


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
    """Zero-phase low-pass keeping the fundamental and low harmonics.

    The response is that of a 4th-order bilinear Butterworth at ``cutoff``
    run forward and backward (scipy's ``butter`` + ``sosfiltfilt``), whose
    power response has the closed form
    ``1 / (1 + (tan(w / 2) / tan(w_c / 2))**8)`` with zero phase.  Its
    impulse response is truncated to ``2 * BAND_HALF_TAPS + 1`` taps and
    applied by overlap-save in ``BAND_FFT``-point blocks, BAND_BLOCKS
    blocks per FFT call.  At the default cutoff (1200 Hz) every dropped
    tap is below 1e-16 of the centre tap.  A lower cutoff rings longer, so
    there the truncation shows: about 2e-13 of the peak at ``f0_max`` =
    300 Hz and 1e-5 at 100 Hz.

    The signal is padded like ``sosfiltfilt``: an odd extension of
    BAND_ODD_PAD samples at each end; beyond that the outermost extension
    value is held, so a constant signal stays constant to the edges.  At
    the default cutoff the output is within 1e-12 of the peak of
    ``sosfiltfilt``'s at 512 samples or more from either end (to rounding
    in practice).  Within about 140 samples of an end the two part ways,
    by up to ~1.5% of the peak at the end samples on white noise, because
    ``sosfiltfilt`` starts its recursions from steady-state initial
    conditions rather than from the held edge.  Signals of BAND_ODD_PAD
    samples or fewer are returned unfiltered, as ``sosfiltfilt`` rejects
    them.
    """
    n = x.shape[0]
    if n <= BAND_ODD_PAD:
        return x
    cutoff = min(2.4 * f0_max, 0.45 * sample_rate)
    half = BAND_HALF_TAPS
    step = BAND_FFT - 2 * half

    omega = np.linspace(0.0, np.pi, BAND_FFT // 2 + 1)
    ratio = np.tan(omega / 2) / np.tan(np.pi * cutoff / sample_rate)
    taps = np.fft.irfft(1.0 / (1.0 + ratio ** 8), BAND_FFT)
    taps[half + 1:BAND_FFT - half] = 0.0
    response = np.fft.rfft(taps)

    n_out = -(-n // step) * step
    padded = np.empty(n_out + 2 * half)
    head = 2.0 * x[0] - x[BAND_ODD_PAD:0:-1]
    tail = 2.0 * x[-1] - x[-2:-BAND_ODD_PAD - 2:-1]
    padded[:half] = head[0]
    padded[half - BAND_ODD_PAD:half] = head
    padded[half:half + n] = x
    padded[half + n:] = tail[-1]
    padded[half + n:half + n + BAND_ODD_PAD] = tail

    blocks = np.lib.stride_tricks.sliding_window_view(padded, BAND_FFT)[::step]
    out = np.empty((blocks.shape[0], step))
    for first in range(0, blocks.shape[0], BAND_BLOCKS):
        group = slice(first, first + BAND_BLOCKS)
        spec = np.fft.rfft(blocks[group], axis=1)
        spec *= response
        out[group] = np.fft.irfft(spec, BAND_FFT, axis=1)[:, half:half + step]
    return out.reshape(-1)[:n]


def _pick_lags(dprime: np.ndarray, tau_min: int, tau_max: int):
    """Accepted lag, its parabolic refinement and periodicity, per row.

    A row's accepted lag is its first local minimum in ``[tau_min,
    tau_max)`` that is below DIP_THRESHOLD and within DIP_TOLERANCE of the
    row's minimum over ``[tau_min, tau_max]``, else that minimum.  Taking
    the first deep dip rather than the deepest one avoids the octave-down
    errors a plain argmin makes on strongly periodic frames, where dips at
    2x and 3x the period are equally deep.  The refinement is the vertex
    of the parabola through the lag and its neighbours, moved by at most
    one lag, and the lag itself where there is no upward curvature or no
    right neighbour.  Periodicity is ``1 - d'(lag)`` clipped to [0, 1].
    The integer lag is returned too so tests can compare it with the
    scalar rule; ``detect_pitch`` uses only the other two.
    """
    rows = np.arange(dprime.shape[0])
    in_range = dprime[:, tau_min:tau_max + 1]
    inner = dprime[:, tau_min:tau_max]
    dips = (
        (inner < DIP_THRESHOLD)
        & (inner <= (in_range.min(axis=1) + DIP_TOLERANCE)[:, None])
        & (inner <= dprime[:, tau_min - 1:tau_max - 1])
        & (inner <= dprime[:, tau_min + 1:tau_max + 1])
    )
    lag = tau_min + np.where(
        dips.any(axis=1), dips.argmax(axis=1), in_range.argmin(axis=1)
    )

    left = dprime[rows, lag - 1]
    centre = dprime[rows, lag]
    right = dprime[rows, np.minimum(lag + 1, tau_max)]
    denom = left - 2.0 * centre + right
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = 0.5 * (left - right) / denom
    curved = (lag < tau_max) & (denom > 0)
    refined = lag + np.where(curved, np.clip(offset, -1.0, 1.0), 0.0)
    return lag, refined, np.clip(1.0 - centre, 0.0, 1.0)


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
    windows = np.lib.stride_tricks.sliding_window_view(banded, win)[::hop]
    raw = np.lib.stride_tricks.sliding_window_view(x, win)[::hop]
    n_frames = windows.shape[0]
    refined = np.empty(n_frames)
    periodicity = np.empty(n_frames)
    for start in range(0, n_frames, KERNEL_BLOCK):
        block = slice(start, start + KERNEL_BLOCK)
        dprime = _kernels.cumulative_mean_difference(windows[block], tau_max, span)
        _, refined[block], periodicity[block] = _pick_lags(dprime, tau_min, tau_max)
        # A frame whose samples are all equal (digital silence, a DC
        # stretch) has no period.  Band-limited, it holds only rounding
        # residue and the filter's response to sound nearby, so its dips
        # mean nothing.
        held = raw[block]
        periodicity[block][held.max(axis=1) == held.min(axis=1)] = 0.0

    voiced = periodicity >= cfg.voicing_threshold
    f0 = np.clip(sr / refined, cfg.f0_min, cfg.f0_max)
    times = (np.arange(n_frames) * hop + win / 2) / sr
    out = tuple(
        PitchFrame(time=time, f0=f if v else None, periodicity=p)
        for time, f, v, p in zip(
            times.tolist(), f0.tolist(), voiced.tolist(), periodicity.tolist()
        )
    )
    return PitchTrack(frames=out, frame_shift=hop / sr)


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

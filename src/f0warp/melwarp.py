"""Mel-scale conversions, the f0 warp, warped filterbanks, and features.

The normalization at the heart of this package is a constant shift of DFT
bin positions in the Mel domain: every bin's Mel coordinate is moved by
``-delta_mel`` where ``delta_mel = hz_to_mel(f0_utt) - hz_to_mel(f0_def)``,
and a fixed bank of triangular filters is evaluated at the shifted
coordinates.  There is no spectral interpolation or resampling, so a zero
shift reproduces the plain pipeline bit for bit, and any two (f0_utt,
f0_def) pairs with the same shift produce identical features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import DomainError, TooShort

MEL_LOG_FACTOR = 1127.0
MEL_CORNER_HZ = 700.0

# The warped filterbank ceiling leaves headroom below the 8 kHz Nyquist:
# hz_to_mel(6200) + 250 is still below hz_to_mel(8000), so shifts up to
# MAX_ABS_SHIFT_MEL never ask the top filter to read past Nyquist.  At the
# bottom edge a shift down to -MAX_ABS_SHIFT_MEL moves even bin 0 above
# the lowest filter; build_filterbank then draws that filter's energy from
# the negative-frequency mirror images of bins 1.., folded onto those bins.
BASELINE_HI_FREQ = 8000.0
WARPED_HI_FREQ = 6200.0
MAX_ABS_SHIFT_MEL = 250.0

LOG_MEL = "log-mel"
MFCC = "mfcc"


class EmptyFilter(ValueError):
    """A filter row covers no DFT bin (invalid shift/bandwidth/DFT combo)."""


def hz_to_mel(f):
    """Map frequency in Hz to Mels: ``1127 * ln(1 + f/700)``.

    Accepts scalars or arrays; negative input raises DomainError.
    """
    arr = np.asarray(f, dtype=np.float64)
    if np.any(arr < 0):
        raise DomainError("frequency must be >= 0 Hz")
    mels = MEL_LOG_FACTOR * np.log1p(arr / MEL_CORNER_HZ)
    return float(mels) if arr.ndim == 0 else mels


def mel_to_hz(m):
    """Exact inverse of :func:`hz_to_mel`."""
    arr = np.asarray(m, dtype=np.float64)
    if np.any(arr < 0):
        raise DomainError("Mel value must be >= 0")
    hz = MEL_CORNER_HZ * np.expm1(arr / MEL_LOG_FACTOR)
    return float(hz) if arr.ndim == 0 else hz


@dataclass(frozen=True)
class WarpSpec:
    """An (f0_utt, f0_def) pair and the Mel-domain shift it induces."""

    f0_utt: float
    f0_def: float
    delta_mel: float
    clamped: bool = False


def identity_warp(f0: float = 100.0) -> WarpSpec:
    """Warp with a zero shift (f0_utt == f0_def)."""
    return WarpSpec(float(f0), float(f0), 0.0, False)


def compute_warp(f0_utt: float, f0_def: float) -> WarpSpec:
    """Derive the Mel shift for an utterance pitch and a target pitch.

    ``delta_mel = hz_to_mel(f0_utt) - hz_to_mel(f0_def)``, clamped to
    +/- MAX_ABS_SHIFT_MEL with the ``clamped`` flag recording that the
    clamp was applied.
    """
    if f0_utt <= 0 or f0_def <= 0:
        raise DomainError("f0_utt and f0_def must be positive")
    raw = hz_to_mel(f0_utt) - hz_to_mel(f0_def)
    clamped = abs(raw) > MAX_ABS_SHIFT_MEL
    delta = min(max(raw, -MAX_ABS_SHIFT_MEL), MAX_ABS_SHIFT_MEL)
    return WarpSpec(float(f0_utt), float(f0_def), float(delta), clamped)


def warp_bin_mels(dft_size: int, sample_rate: int, warp: WarpSpec) -> np.ndarray:
    """Warped Mel coordinate of every DFT bin 0..dft_size/2.

    Bin k sits at ``hz_to_mel(k * sample_rate / dft_size) - delta_mel``;
    the shift is constant so the coordinates stay strictly increasing.
    This is the ``bin_mels`` layout :func:`build_filterbank` expects.  The
    mirror image of bin k below 0 Hz sits at ``-hz_to_mel(f_k) - delta_mel``,
    which is ``2 * bin_mels[0] - bin_mels[k]``.
    """
    freqs = np.arange(dft_size // 2 + 1) * (sample_rate / dft_size)
    return hz_to_mel(freqs) - warp.delta_mel


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters.

    ``hi_freq`` defaults to the 8 kHz baseline ceiling; use
    ``WARPED_HI_FREQ`` (6200 Hz) whenever a nonzero shift may occur.
    """

    window: float = 0.025
    hop: float = 0.010
    dft_size: int = 512
    num_filters: int = 23
    lo_freq: float = 20.0
    hi_freq: float = BASELINE_HI_FREQ
    num_ceps: int = 13
    preemphasis: float = 0.97
    log_floor: float = 1e-10
    feature_kind: str = MFCC

    def __post_init__(self):
        floats = [v for v in vars(self).values() if isinstance(v, float)]
        if not all(map(math.isfinite, floats)):
            raise ValueError("feature settings must be finite")
        if self.window <= 0 or self.hop <= 0:
            raise ValueError("window and hop must be positive")
        if not 0 <= self.lo_freq < self.hi_freq:
            raise ValueError("need 0 <= lo_freq < hi_freq")
        if self.num_filters < 1:
            raise ValueError("num_filters must be >= 1")
        if not 1 <= self.num_ceps <= self.num_filters:
            raise ValueError("need 1 <= num_ceps <= num_filters")
        if self.dft_size < 2:
            raise ValueError("dft_size must be >= 2")
        if not 0 <= self.preemphasis < 1:
            raise ValueError("preemphasis must be in [0, 1)")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")
        if self.feature_kind not in (LOG_MEL, MFCC):
            raise ValueError(f"unknown feature_kind {self.feature_kind!r}")

    def window_samples(self, sample_rate: int) -> int:
        return int(round(self.window * sample_rate))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop * sample_rate))

    @property
    def dims(self) -> int:
        return self.num_ceps if self.feature_kind == MFCC else self.num_filters


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filter weights evaluated at (warped) bin coordinates."""

    weights: np.ndarray
    centers_mel: np.ndarray


def _triangles(points: np.ndarray, mels: np.ndarray) -> np.ndarray:
    """Weights of the triangles over ``points`` at Mel coordinates ``mels``."""
    left = points[:-2, None]
    center = points[1:-1, None]
    right = points[2:, None]
    rise = (mels[None, :] - left) / (center - left)
    fall = (right - mels[None, :]) / (right - center)
    return np.clip(np.minimum(rise, fall), 0.0, 1.0)


def build_filterbank(cfg: FeatureConfig, bin_mels: np.ndarray) -> MelFilterbank:
    """Evaluate ``cfg.num_filters`` triangles at the given bin coordinates.

    ``bin_mels`` are the warped coordinates of DFT bins 0..dft_size/2 as
    :func:`warp_bin_mels` returns them for ``cfg.dft_size``.  Edges and
    centers are the num_filters + 2 points equally spaced in Mel over
    [hz_to_mel(lo_freq), hz_to_mel(hi_freq)]; filter i rises over
    (point i, point i+1) and falls over (point i+1, point i+2).  A bin
    outside a triangle gets weight 0.

    A real signal's power spectrum is even, so the energy a shifted filter
    would read below 0 Hz is that of bins 1..(dft_size-1)/2 mirrored about
    0 Hz.  Each such bin's twin sits at ``2 * bin_mels[0] - bin_mels[k]``;
    the triangles are evaluated there too and the weights are added onto
    bin k (DC and, for an even dft_size, Nyquist have no twin).  The twins
    lie below every filter, and so add exact zeros, for any shift at or
    above ``-(hz_to_mel(lo_freq) + hz_to_mel(sample_rate / dft_size))``
    (about -81 Mels for the defaults); below that a folded weight may
    exceed 1.  Raises EmptyFilter when a row still ends up with no
    positive weight.
    """
    bin_mels = np.asarray(bin_mels, dtype=np.float64)
    if bin_mels.ndim != 1 or np.any(np.diff(bin_mels) <= 0):
        raise ValueError("bin coordinates must be a strictly ascending 1-D array")
    if bin_mels.shape[0] != cfg.dft_size // 2 + 1:
        raise ValueError(
            f"expected {cfg.dft_size // 2 + 1} bin coordinates (bins "
            f"0..{cfg.dft_size // 2}), got {bin_mels.shape[0]}"
        )
    points = np.linspace(
        hz_to_mel(cfg.lo_freq), hz_to_mel(cfg.hi_freq), cfg.num_filters + 2
    )
    weights = _triangles(points, bin_mels)
    twinned = slice(1, (cfg.dft_size + 1) // 2)
    weights[:, twinned] += _triangles(points, 2.0 * bin_mels[0] - bin_mels[twinned])
    empty = ~(weights > 0).any(axis=1)
    if empty.any():
        rows = np.flatnonzero(empty).tolist()
        raise EmptyFilter(
            f"filter rows {rows} cover no DFT bin; the shift/bandwidth/"
            "DFT-size combination is invalid"
        )
    return MelFilterbank(weights=weights, centers_mel=points[1:-1].copy())


def frame_and_window(buffer: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """Slice a buffer into pre-emphasized, Hamming-windowed frames.

    Frame t covers samples [t*hop, t*hop + window); a trailing partial
    frame is dropped.  Pre-emphasis of each sample uses the sample that
    precedes it in the buffer (0 before the very first sample), so frames
    see a seamless pre-emphasized signal.
    """
    sr = buffer.sample_rate
    win = cfg.window_samples(sr)
    hop = cfg.hop_samples(sr)
    x = buffer.samples
    if x.shape[0] < win:
        raise TooShort(
            f"buffer has {x.shape[0]} samples, needs at least {win} for one frame"
        )
    emphasized = np.empty_like(x)
    emphasized[0] = x[0]
    emphasized[1:] = x[1:] - cfg.preemphasis * x[:-1]
    n_frames = 1 + (x.shape[0] - win) // hop
    windows = np.lib.stride_tricks.sliding_window_view(emphasized, win)[::hop]
    return windows[:n_frames] * np.hamming(win)


def power_spectrum(frames: np.ndarray, dft_size: int) -> np.ndarray:
    """Magnitude-squared DFT of zero-padded frames, bins 0..dft_size/2."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-1] > dft_size:
        raise ValueError("frame longer than dft_size")
    spec = np.fft.rfft(frames, n=dft_size, axis=-1)
    return spec.real ** 2 + spec.imag ** 2


def _dct_basis(num_filters: int, num_ceps: int) -> np.ndarray:
    """Orthonormal DCT-II as a num_filters x num_ceps matrix: ``feats @
    basis`` keeps coefficients c0..num_ceps-1 of each row of ``feats``
    (``scipy.fft.dct(feats, type=2, norm="ortho")[:, :num_ceps]``)."""
    n = np.arange(num_filters)[:, None]
    k = np.arange(num_ceps)[None, :]
    angle = np.pi * k * (2 * n + 1) / (2 * num_filters)
    basis = np.sqrt(2.0 / num_filters) * np.cos(angle)
    basis[:, 0] *= np.sqrt(0.5)
    return basis


@dataclass(frozen=True)
class FeatureMatrix:
    """frames x dims feature values, the warp that produced them, and the
    plan shift and unvoiced fallback of the variant they belong to."""

    values: np.ndarray
    warp: WarpSpec
    shift_mel: float = 0.0
    fallback_used: bool = False

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def extract_features(
    buffer: AudioBuffer,
    cfg: FeatureConfig | None = None,
    warp: WarpSpec | None = None,
) -> FeatureMatrix:
    """Full front end: frames -> power spectra -> warped filterbank ->
    log energies -> (for MFCC) orthonormal DCT-II keeping c0..num_ceps-1,
    as one product with :func:`_dct_basis`.

    Features depend on the warp only through ``warp.delta_mel``, and a
    zero shift is bit-identical to the unwarped pipeline.  Pure and
    deterministic; safe to call from parallel workers.
    """
    cfg = cfg if cfg is not None else FeatureConfig()
    warp = warp if warp is not None else identity_warp()
    sr = buffer.sample_rate
    if cfg.hi_freq > sr / 2:
        raise DomainError(
            f"hi_freq {cfg.hi_freq} Hz exceeds Nyquist for {sr} Hz audio"
        )
    if cfg.dft_size < cfg.window_samples(sr):
        raise ValueError("dft_size must cover the analysis window")

    frames = frame_and_window(buffer, cfg)
    pspec = power_spectrum(frames, cfg.dft_size)
    fbank = build_filterbank(cfg, warp_bin_mels(cfg.dft_size, sr, warp))
    energies = pspec @ fbank.weights.T
    feats = np.log(np.maximum(energies, cfg.log_floor))
    if cfg.feature_kind == MFCC:
        feats = feats @ _dct_basis(cfg.num_filters, cfg.num_ceps)
    return FeatureMatrix(np.ascontiguousarray(feats), warp)

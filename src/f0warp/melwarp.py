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

from .audio_io import REQUIRED_SAMPLE_RATE, AudioBuffer, whole_samples
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

# Frames per rFFT call in power_spectrum: bounds the complex spectrum held
# at once to SPECTRUM_BLOCK x (dft_size/2 + 1) values.
SPECTRUM_BLOCK = 256

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
    """Warp with a zero shift (f0_utt == f0_def) at a positive, finite f0."""
    if not 0 < f0 < math.inf:
        raise DomainError(f"f0 must be positive and finite, not {f0:g}")
    return WarpSpec(float(f0), float(f0), 0.0, False)


def compute_warp(f0_utt: float, f0_def: float) -> WarpSpec:
    """Derive the Mel shift for an utterance pitch and a target pitch.

    ``delta_mel = hz_to_mel(f0_utt) - hz_to_mel(f0_def)``, clamped to
    +/- MAX_ABS_SHIFT_MEL with the ``clamped`` flag recording that the
    clamp was applied.  Both f0s must be positive and finite.
    """
    if not (0 < f0_utt < math.inf and 0 < f0_def < math.inf):
        raise DomainError(
            f"f0_utt and f0_def must be positive and finite, not {f0_utt:g} and {f0_def:g}"
        )
    raw = hz_to_mel(f0_utt) - hz_to_mel(f0_def)
    clamped = abs(raw) > MAX_ABS_SHIFT_MEL
    delta = min(max(raw, -MAX_ABS_SHIFT_MEL), MAX_ABS_SHIFT_MEL)
    return WarpSpec(float(f0_utt), float(f0_def), float(delta), clamped)


def warp_bin_mels(dft_size: int, *warps: WarpSpec) -> np.ndarray:
    """Warped Mel coordinates of DFT bins 0..dft_size/2, one row per warp.

    Bin k of row w sits at ``hz_to_mel(k * REQUIRED_SAMPLE_RATE / dft_size) -
    warps[w].delta_mel``; the shift is constant so each row stays strictly
    increasing.  This is the (warps x bins) stack :func:`build_filterbank`
    expects.  The mirror image of bin k below 0 Hz sits at
    ``-hz_to_mel(f_k) - delta_mel``, which is ``2 * row[0] - row[k]``.
    """
    freqs = np.arange(dft_size // 2 + 1) * (REQUIRED_SAMPLE_RATE / dft_size)
    deltas = np.array([warp.delta_mel for warp in warps])
    return hz_to_mel(freqs) - deltas[:, None]


@dataclass(frozen=True)
class FeatureConfig:
    """Extraction parameters, checked when built against the fixed 16 kHz
    rate.  ``hi_freq`` defaults to the 8 kHz baseline ceiling; a warped
    extraction needs a lower one (see :func:`filterbank_ceiling`).
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
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value}")
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
        if self.hi_freq > REQUIRED_SAMPLE_RATE / 2:
            raise DomainError(
                f"hi_freq {self.hi_freq} Hz exceeds Nyquist for"
                f" {REQUIRED_SAMPLE_RATE} Hz audio"
            )
        window = self.in_samples()[0]
        if self.dft_size < window:
            raise ValueError(
                f"dft_size {self.dft_size} is shorter than window {self.window:g} s"
                f" ({window} samples)"
            )

    def in_samples(self) -> tuple:
        """(window, hop) in samples; DomainError for either under one."""
        return whole_samples("window", self.window), whole_samples("hop", self.hop)


def filterbank_ceiling(hi_freq: float | None, normalize: bool, shifts_mel) -> float:
    """The filterbank ceiling of an extraction.

    The extraction is warped when it normalizes or when any of its plan's
    ``shifts_mel`` is nonzero.  With ``hi_freq`` None this is then
    WARPED_HI_FREQ, and BASELINE_HI_FREQ otherwise.  A given ``hi_freq`` is
    returned as it is, unless the extraction is warped and a
    MAX_ABS_SHIFT_MEL shift would move the top filter past Nyquist; that
    raises DomainError.
    """
    warped = normalize or any(s != 0.0 for s in shifts_mel)
    if hi_freq is None:
        return WARPED_HI_FREQ if warped else BASELINE_HI_FREQ
    limit = mel_to_hz(hz_to_mel(REQUIRED_SAMPLE_RATE / 2) - MAX_ABS_SHIFT_MEL)
    if warped and hi_freq > limit:
        raise DomainError(
            f"hi_freq {hi_freq:g} conflicts with warped extraction: a shift of"
            f" {MAX_ABS_SHIFT_MEL:g} Mels would push the top filter past Nyquist,"
            f" so warped ceilings must be at or below {int(limit)} Hz (leave hi_freq"
            f" unset for {WARPED_HI_FREQ:g} Hz)"
        )
    return hi_freq


def _triangles(points: np.ndarray, mels: np.ndarray) -> np.ndarray:
    """Weights of the triangles over ``points`` at Mel coordinates ``mels``:
    coordinates of shape ``(..., bins)`` give weights of shape ``(...,
    len(points) - 2, bins)``.  Every weight is computed elementwise, so
    each row of a stack equals its result as a one-row stack, bit for bit."""
    left = points[:-2, None]
    center = points[1:-1, None]
    right = points[2:, None]
    mels = mels[..., None, :]
    rise = (mels - left) / (center - left)
    fall = (right - mels) / (right - center)
    np.minimum(rise, fall, out=rise)
    return np.clip(rise, 0.0, 1.0, out=rise)


def build_filterbank(cfg: FeatureConfig, bin_mels: np.ndarray) -> np.ndarray:
    """Weights of ``cfg.num_filters`` triangles at each warp's bin
    coordinates, as a (warps x filters x bins) array.

    ``bin_mels`` is the (warps x bins) stack of warped coordinates of DFT
    bins 0..dft_size/2 that :func:`warp_bin_mels` returns for
    ``cfg.dft_size``; slice ``[w]`` of the result equals the build from
    row ``w`` alone, bit for bit.  Edges and centers are the num_filters +
    2 points equally spaced in Mel over [hz_to_mel(lo_freq),
    hz_to_mel(hi_freq)]; filter i rises over (point i, point i+1) and falls
    over (point i+1, point i+2).  A bin outside a triangle gets weight 0.

    A real signal's power spectrum is even, so the energy a shifted filter
    would read below 0 Hz is that of bins 1..(dft_size-1)/2 mirrored about
    0 Hz.  Each such bin's twin sits at ``2 * bin_mels[0] - bin_mels[k]``;
    the triangles are evaluated there too and the weights are added onto
    bin k (DC and, for an even dft_size, Nyquist have no twin).  The twins
    lie below every filter, and so add exact zeros, for any shift at or
    above ``-(hz_to_mel(lo_freq) + hz_to_mel(REQUIRED_SAMPLE_RATE / dft_size))``
    (about -81 Mels for the defaults); below that a folded weight may
    exceed 1.  Raises EmptyFilter when a row still ends up with no
    positive weight, naming each such warp and its rows.
    """
    bin_mels = np.asarray(bin_mels, dtype=np.float64)
    if bin_mels.ndim != 2 or np.any(np.diff(bin_mels) <= 0):
        raise ValueError(
            "bin coordinates must be a (warps x bins) stack of strictly ascending rows"
        )
    if bin_mels.shape[-1] != cfg.dft_size // 2 + 1:
        raise ValueError(
            f"expected {cfg.dft_size // 2 + 1} bin coordinates (bins "
            f"0..{cfg.dft_size // 2}), got {bin_mels.shape[-1]}"
        )
    points = np.linspace(
        hz_to_mel(cfg.lo_freq), hz_to_mel(cfg.hi_freq), cfg.num_filters + 2
    )
    weights = _triangles(points, bin_mels)
    twinned = slice(1, (cfg.dft_size + 1) // 2)
    weights[..., twinned] += _triangles(
        points, 2.0 * bin_mels[..., :1] - bin_mels[..., twinned]
    )
    empty = ~(weights > 0).any(axis=-1)
    if empty.any():
        where = "; ".join(
            f"warp {w} filter rows {np.flatnonzero(empty[w]).tolist()}"
            for w in np.flatnonzero(empty.any(axis=1))
        )
        raise EmptyFilter(
            f"{where} cover no DFT bin; the shift/bandwidth/DFT-size"
            " combination is invalid"
        )
    return weights


def frame_and_window(buffer: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """Slice a buffer into pre-emphasized, Hamming-windowed frames.

    Frame t covers samples [t*hop, t*hop + window); a trailing partial
    frame is dropped.  Pre-emphasis of each sample uses the sample that
    precedes it in the buffer (0 before the very first sample), so frames
    see a seamless pre-emphasized signal.
    """
    win, hop = cfg.in_samples()
    x = buffer.samples
    if x.shape[0] < win:
        raise TooShort(
            f"buffer has {x.shape[0]} samples, needs at least {win} for one frame"
        )
    emphasized = np.empty_like(x)
    emphasized[0] = x[0]
    emphasized[1:] = x[1:] - cfg.preemphasis * x[:-1]
    windows = np.lib.stride_tricks.sliding_window_view(emphasized, win)[::hop]
    return windows * np.hamming(win)


def power_spectrum(frames: np.ndarray, dft_size: int) -> np.ndarray:
    """Magnitude-squared DFT of each zero-padded row of a (frames x
    samples) matrix, as a (frames x bins) matrix over bins 0..dft_size/2.

    The rFFT runs over SPECTRUM_BLOCK frames at a time, and each block's
    squares go straight into the one output array, so no whole-utterance
    complex spectrum is ever held.  Every frame is transformed on its own,
    so the output does not depend on the block size, bit for bit.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] > dft_size:
        raise ValueError("need a (frames x samples) matrix, frames no longer than dft_size")
    out = np.empty((frames.shape[0], dft_size // 2 + 1))
    for start in range(0, frames.shape[0], SPECTRUM_BLOCK):
        block = out[start:start + SPECTRUM_BLOCK]
        spec = np.fft.rfft(frames[start:start + SPECTRUM_BLOCK], n=dft_size, axis=-1)
        np.square(spec.real, out=block)
        block += np.square(spec.imag, out=spec.imag)
    return out


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


def extract_features(
    buffer: AudioBuffer, cfg: FeatureConfig | None = None, *warps: WarpSpec
) -> list[np.ndarray]:
    """Full front end, one frames x dims array per warp, in order: frames
    -> power spectra, once for all warps (the frame matrix is freed as
    soon as the spectra exist); the filterbanks of all warps in
    one :func:`build_filterbank` call; then per warp its own filterbank
    product -> log energies -> (for MFCC) orthonormal DCT-II keeping
    c0..num_ceps-1, as one product with :func:`_dct_basis`.  With no warp
    given it uses the identity warp.

    Each warp keeps a product of its own: on OpenBLAS one stacked product
    over all warps' filters rounds differently from per-warp products for
    some frame counts, which would break the bit-exact guarantees below.

    Features depend on the warp only through ``warp.delta_mel``, and a
    zero shift is bit-identical to the unwarped pipeline.  Each warp's
    array is the one a call with that warp alone returns, bit for bit.
    Pure and deterministic; safe to call from parallel workers.
    """
    cfg = cfg if cfg is not None else FeatureConfig()
    warps = warps or (identity_warp(),)
    pspec = power_spectrum(frame_and_window(buffer, cfg), cfg.dft_size)
    filterbanks = build_filterbank(cfg, warp_bin_mels(cfg.dft_size, *warps))
    dct = _dct_basis(cfg.num_filters, cfg.num_ceps) if cfg.feature_kind == MFCC else None
    out = []
    for weights in filterbanks:
        feats = np.log(np.maximum(pspec @ weights.T, cfg.log_floor))
        if dct is not None:
            feats = feats @ dct
        out.append(feats)
    return out

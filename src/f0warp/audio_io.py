"""Reading 16 kHz mono 16-bit PCM WAV files."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError

# The package's only sample rate: buffers and configs all use it.
REQUIRED_SAMPLE_RATE = 16000

# Symmetric dequantization: divide by 32768 (not 32767) so that the
# integer range maps onto [-1.0, 32767/32768] and goldens stay stable.
PCM_SCALE = 32768.0


class AudioIOError(Exception):
    pass


class CorruptFile(AudioIOError):
    pass


class UnsupportedFormat(AudioIOError):
    pass


class ChannelMismatch(AudioIOError):
    pass


class RateMismatch(AudioIOError):
    pass


def whole_samples(name: str, seconds: float) -> int:
    """``seconds`` as a whole number of samples; DomainError below one."""
    count = int(round(seconds * REQUIRED_SAMPLE_RATE))
    if count < 1:
        raise DomainError(
            f"{name} of {seconds:g} s is under one sample at {REQUIRED_SAMPLE_RATE} Hz"
        )
    return count


@dataclass(frozen=True)
class AudioBuffer:
    """Mono PCM samples in [-1, 1] at the fixed REQUIRED_SAMPLE_RATE."""

    samples: np.ndarray
    source_id: str = field(default="", kw_only=True)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        if not np.isfinite(samples).all():
            raise ValueError("samples must all be finite")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]


def read_wav(path, source_id: str | None = None) -> AudioBuffer:
    """Read a RIFF/WAVE file into an AudioBuffer.

    Only linear PCM, mono, 16-bit input at REQUIRED_SAMPLE_RATE (16 kHz,
    the package's only rate) is accepted; anything else raises (there is
    no implicit resampling or downmixing).
    Deterministic: identical bytes produce identical buffers.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptFile(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4:pos + 8])
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise CorruptFile(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None or payload is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise CorruptFile(f"{path}: fmt chunk too small")
    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format != 1:
        raise UnsupportedFormat(
            f"{path}: compression code {audio_format}, only linear PCM is supported"
        )
    if bits != 16:
        raise UnsupportedFormat(f"{path}: {bits}-bit samples, only 16-bit is supported")
    if channels != 1:
        raise ChannelMismatch(f"{path}: {channels} channels, only mono is supported")
    if rate != REQUIRED_SAMPLE_RATE:
        raise RateMismatch(
            f"{path}: sample rate {rate} Hz, expected {REQUIRED_SAMPLE_RATE}"
            " (no implicit resampling)"
        )
    if len(payload) % 2:
        raise CorruptFile(f"{path}: odd data chunk length")

    raw = np.frombuffer(payload, dtype="<i2")
    samples = raw.astype(np.float64) / PCM_SCALE
    return AudioBuffer(samples, source_id=source_id if source_id is not None else path.stem)

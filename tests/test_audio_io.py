import struct
import wave

import numpy as np
import pytest

from f0warp import (
    AudioBuffer,
    ChannelMismatch,
    CorruptFile,
    RateMismatch,
    UnsupportedFormat,
    read_wav,
)
from tests.synthkit import write_wav


def _write_raw_wav(path, rate=16000, channels=1, sampwidth=2, frames=b"\x00\x00" * 100):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(sampwidth)
        handle.setframerate(rate)
        handle.writeframes(frames)


def test_read_zeros_second(tmp_path):
    path = tmp_path / "zeros.wav"
    write_wav(path, AudioBuffer(np.zeros(16000)))
    with wave.open(str(path), "rb") as handle:
        assert handle.getframerate() == 16000
    buf = read_wav(path)
    assert len(buf) == 16000
    assert np.all(buf.samples == 0.0)
    assert buf.source_id == "zeros"


def test_rate_mismatch_rejected(tmp_path):
    path = tmp_path / "cd.wav"
    _write_raw_wav(path, rate=44100)
    with pytest.raises(RateMismatch):
        read_wav(path)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    _write_raw_wav(path, channels=2, frames=b"\x00\x00\x00\x00" * 100)
    with pytest.raises(ChannelMismatch):
        read_wav(path)


def test_8bit_rejected(tmp_path):
    path = tmp_path / "eight.wav"
    _write_raw_wav(path, sampwidth=1, frames=b"\x80" * 200)
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_compressed_format_rejected(tmp_path):
    # Hand-built RIFF with a mu-law format code (7).
    fmt = struct.pack("<HHIIHH", 7, 1, 16000, 16000, 1, 8)
    data = b"\x00" * 64
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    blob = b"RIFF" + struct.pack("<I", len(body)) + body
    path = tmp_path / "mulaw.wav"
    path.write_bytes(blob)
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"not a wav at all",
        b"RIFF\x10\x00\x00\x00JUNK",
        b"RIFF\x04\x00\x00\x00WAVE",  # no chunks at all
        pytest.param(
            b"RIFF\xf0\x00\x00\x00WAVEfmt \x10\x00\x00\x00"
            + struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
            + b"data\xf0\xff\xff\xff" + b"\x00" * 200,
            id="data-chunk-declares-0xFFFFFFF0-bytes-holds-200",
        ),
    ],
)
def test_corrupt_rejected(tmp_path, blob):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(CorruptFile):
        read_wav(path)


def test_full_scale_negative_maps_to_minus_one(tmp_path):
    path = tmp_path / "fs.wav"
    _write_raw_wav(path, frames=struct.pack("<h", -32768) * 500)
    buf = read_wav(path)
    assert np.all(buf.samples == -1.0)


def test_round_trip_within_one_quantization_step(tmp_path, rng):
    samples = np.clip(rng.standard_normal(4000) * 0.4, -1.0, 1.0)
    path = tmp_path / "rt.wav"
    write_wav(path, AudioBuffer(samples))
    back = read_wav(path)
    assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768


def test_read_is_deterministic(tmp_path, rng):
    samples = rng.standard_normal(2000) * 0.3
    path = tmp_path / "det.wav"
    write_wav(path, AudioBuffer(samples))
    a = read_wav(path)
    b = read_wav(path)
    assert np.array_equal(a.samples, b.samples)


def test_buffer_rejects_nonfinite():
    with pytest.raises(ValueError):
        AudioBuffer(np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        AudioBuffer(np.array([np.nan]))


def test_source_id_override(tmp_path):
    path = tmp_path / "named.wav"
    write_wav(path, AudioBuffer(np.zeros(500)))
    assert read_wav(path, source_id="spk1-utt7").source_id == "spk1-utt7"

import json
from pathlib import Path

import numpy as np
import pytest

from f0warp import AudioBuffer
from tests.synthkit import synth_harmonic, write_wav


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def noisy_harmonic(f0, duration=1.0, snr_db=20.0, seed=0):
    """Harmonic train plus white noise at the requested SNR."""
    buf = synth_harmonic(f0, duration)
    gen = np.random.default_rng(seed)
    noise = gen.standard_normal(len(buf))
    signal_power = np.mean(buf.samples ** 2)
    noise *= np.sqrt(signal_power / np.mean(noise ** 2) / 10 ** (snr_db / 10))
    return AudioBuffer(buf.samples + noise, source_id=f"noisy-{f0:g}hz")


def archive_contents(directory) -> list:
    """(name, bytes) of every file under ``directory``, in path order."""
    return [
        (path.name, path.read_bytes())
        for path in sorted(Path(directory).rglob("*"))
        if path.is_file()
    ]


def write_manifest(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")


def make_wav_dataset(tmp_path, f0s, duration=0.5):
    """Synthesize one WAV per f0 and return manifest entry dicts."""
    entries = []
    for i, f0 in enumerate(f0s):
        wav_path = tmp_path / f"utt{i:02d}.wav"
        write_wav(wav_path, synth_harmonic(float(f0), duration))
        entries.append({"id": f"utt{i:02d}", "audio": str(wav_path)})
    return entries


def read_text_archive(path) -> dict:
    """Parse ``export-ark`` output (``export_text_archive``) back into
    float32 arrays keyed by variant."""
    out = {}
    key = None
    rows: list = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if key is None:
                if not line.strip():
                    continue
                if not line.endswith("["):
                    raise ValueError(f"expected a '<key>  [' header, got {line!r}")
                key = line[:-1].strip()
                rows = []
                continue
            closing = line.endswith("]")
            if closing:
                line = line[:-1]
            values = [np.float32(v) for v in line.split()]
            if values:
                rows.append(values)
            if closing:
                out[key] = np.array(rows, dtype=np.float32)
                key = None
    if key is not None:
        raise ValueError("unterminated matrix block")
    return out

"""Seeded synthetic speech corpora for the benchmark.

Written with numpy/scipy only, apart from the program, so that a change to
the program cannot change the inputs it is measured on.

A voiced segment is a band-limited pulse train at the speaker's f0, tilted
by a one-pole glottal roll-off and passed through three cascaded two-pole
formant resonators.  Formants follow f0 in the Mel domain: a vowel's
reference formants, given for a 100 Hz speaker, all move by
``mel(f0) - mel(100)`` Mels, which is the premise of the method under test.
White Gaussian noise is added at ``SNR_DB`` over the whole utterance and
the result is peak-scaled and written as 16 kHz mono 16-bit PCM.

What the seed decides: durations, vowel order, pause lengths, the source's
starting phase and the noise.  What it does not decide: the speakers' f0s,
which sit on a fixed log-spaced grid, so that the set of utterances the
pitch tracker gets wrong (see README.md) is the same for every seed.
"""

from __future__ import annotations

import json
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

SAMPLE_RATE = 16000
SNR_DB = 30.0
PEAK = 0.7
REF_F0 = 100.0
BANDWIDTHS_HZ = (60.0, 90.0, 150.0)
GLOTTAL_POLE = 0.9
FADE_S = 0.01

# Reference formants (F1, F2, F3 in Hz) of five vowels for a 100 Hz
# speaker, after Peterson & Barney's adult male means.
VOWELS = {
    "a": (730.0, 1090.0, 2440.0),
    "e": (530.0, 1840.0, 2480.0),
    "i": (270.0, 2290.0, 3010.0),
    "o": (570.0, 840.0, 2410.0),
    "u": (300.0, 870.0, 2240.0),
}


def hz_to_mel(f):
    return 1127.0 * np.log1p(np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * np.expm1(np.asarray(m, dtype=np.float64) / 1127.0)


def formants_for(vowel: str, f0: float) -> tuple:
    """The vowel's formants for a speaker at ``f0``: every reference
    formant moved by the speaker's Mel distance from REF_F0."""
    offset = hz_to_mel(f0) - hz_to_mel(REF_F0)
    return tuple(float(mel_to_hz(hz_to_mel(f) + offset)) for f in VOWELS[vowel])


def pulse_train(f0: float, n: int, phase: float) -> np.ndarray:
    """Equal-amplitude cosine harmonics of f0 up to Nyquist, in closed
    form: sum_{h=1..H} cos(h p) = sin((H + 1/2) p) / (2 sin(p / 2)) - 1/2."""
    harmonics = int(np.floor((SAMPLE_RATE / 2 - 1e-9) / f0))
    p = np.mod(2.0 * np.pi * f0 * np.arange(n) / SAMPLE_RATE + phase, 2.0 * np.pi)
    half = np.sin(0.5 * p)
    near_zero = np.abs(half) < 1e-9
    safe = np.where(near_zero, 1.0, half)
    x = np.sin((harmonics + 0.5) * p) / (2.0 * safe) - 0.5
    x[near_zero] = float(harmonics)
    return x


def formant_filter(x: np.ndarray, formants) -> np.ndarray:
    """Cascade of unity-DC-gain two-pole resonators."""
    for freq, bw in zip(formants, BANDWIDTHS_HZ):
        radius = np.exp(-np.pi * bw / SAMPLE_RATE)
        a = [1.0, -2.0 * radius * np.cos(2.0 * np.pi * freq / SAMPLE_RATE), radius ** 2]
        x = lfilter([sum(a)], a, x)
    return x


@dataclass(frozen=True)
class Segment:
    vowel: str  # "" for a pause (noise only)
    samples: int


@dataclass(frozen=True)
class Utterance:
    id: str
    f0: float
    segments: tuple

    @property
    def samples(self) -> int:
        return sum(s.samples for s in self.segments)

    @property
    def seconds(self) -> float:
        return self.samples / SAMPLE_RATE


def synthesize(utt: Utterance, rng: np.random.Generator) -> np.ndarray:
    """Samples of ``utt`` as int16, drawn with ``rng`` (phase, noise)."""
    n = utt.samples
    pulses = pulse_train(utt.f0, n, rng.uniform(0, 2 * np.pi))
    source = lfilter([1.0], [1.0, -GLOTTAL_POLE], pulses)
    voiced = np.zeros(n)
    start = 0
    for seg in utt.segments:
        stop = start + seg.samples
        if seg.vowel:
            piece = formant_filter(source[start:stop], formants_for(seg.vowel, utt.f0))
            ramp = np.linspace(0.0, 1.0, min(int(FADE_S * SAMPLE_RATE), seg.samples // 2))
            piece[:ramp.shape[0]] *= ramp
            piece[piece.shape[0] - ramp.shape[0]:] *= ramp[::-1]
            voiced[start:stop] = piece
        start = stop
    voiced /= np.max(np.abs(voiced))
    signal_power = np.mean(voiced ** 2)
    noise = rng.standard_normal(n) * np.sqrt(signal_power / 10 ** (SNR_DB / 10))
    y = voiced + noise
    y *= PEAK / np.max(np.abs(y))
    return np.round(y * 32768.0).astype("<i2")


def write_wav(path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(pcm.tobytes())


def read_wav(path) -> np.ndarray:
    """16-bit PCM samples of a WAV file as float64 in [-1, 1)."""
    with wave.open(str(path), "rb") as handle:
        if (handle.getnchannels(), handle.getsampwidth(), handle.getframerate()) != (
            1, 2, SAMPLE_RATE
        ):
            raise ValueError(f"{path}: not 16 kHz mono 16-bit PCM")
        raw = handle.readframes(handle.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return lo * (hi / lo) ** (np.arange(count) / (count - 1))


def _seconds(rng, lo, hi) -> int:
    return int(round(rng.uniform(lo, hi) * SAMPLE_RATE))


def short_vowels(rng, speakers, lo_s, hi_s, prefix) -> list:
    """One steady vowel per (vowel, f0) speaker, each ``lo_s``..``hi_s``
    seconds long."""
    return [
        Utterance(f"{prefix}{i:04d}", float(f0), (Segment(vowel, _seconds(rng, lo_s, hi_s)),))
        for i, (vowel, f0) in enumerate(speakers)
    ]


def long_reading(rng, f0, seconds, prefix) -> Utterance:
    """Minutes of one speaker: vowels of 0.6-2.4 s in seeded order, each
    followed by a 0.1-0.5 s pause, until ``seconds`` is reached."""
    names = sorted(VOWELS)
    total = int(round(seconds * SAMPLE_RATE))
    segments = []
    filled = 0
    while filled < total:
        vowel = Segment(names[rng.integers(len(names))], _seconds(rng, 0.6, 2.4))
        pause = Segment("", _seconds(rng, 0.1, 0.5))
        for seg in (vowel, pause):
            take = min(seg.samples, total - filled)
            if take > 0:
                segments.append(Segment(seg.vowel, take))
                filled += take
    return Utterance(prefix, float(f0), tuple(segments))


def write_corpus(utterances, seed: int, directory) -> Path:
    """Write each utterance as ``<id>.wav``, a manifest for the program
    and ``truth.jsonl`` with the synthesized f0 and length.  Returns the
    manifest path.  Utterances are written in a seeded order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    manifest = directory / "manifest.jsonl"
    with open(manifest, "w", encoding="utf-8") as man, open(
        directory / "truth.jsonl", "w", encoding="utf-8"
    ) as truth:
        for i in rng.permutation(len(utterances)):
            utt = utterances[i]
            wav = directory / f"{utt.id}.wav"
            write_wav(wav, synthesize(utt, rng))
            man.write(json.dumps({"id": utt.id, "audio": str(wav)}) + "\n")
            truth.write(json.dumps({"id": utt.id, "f0": utt.f0, "samples": utt.samples}) + "\n")
    return manifest

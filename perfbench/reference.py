"""Output checks: a reference front end written from the method's
definition, and the archive invariants the program promises.

Nothing here imports the program.  The reference computes, for every
(utterance, shift) record of an archive: pre-emphasis 0.97, Hamming
frames of 400 samples every 160, the 512-point power spectrum, triangles
equally spaced on 1127 ln(1 + f/700) evaluated at the bins moved by
-delta_mel plus the mirror images of bins 1..255 folded back, a 1e-10
floor before the log and, for MFCC, the orthonormal DCT-II.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus import SAMPLE_RATE, hz_to_mel, mel_to_hz, read_wav

WINDOW = 400
HOP = 160
DFT_SIZE = 512
PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10
NUM_FILTERS = 23
NUM_CEPS = 13
LO_FREQ = 20.0
MAX_ABS_SHIFT_MEL = 250.0
GROSS_F0_CENTS = 50.0
# |program - reference| <= MATRIX_TOL * max(1, |reference|): the archive
# stores float32, whose rounding alone reaches 6e-8 relative.
MATRIX_TOL = 1e-6
META_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    """What one `process` call was asked to do."""

    normalize: bool
    shifts: tuple
    base_f0: float
    kind: str  # "mfcc" or "log-mel"
    hi_freq: float


@dataclass
class Verdict:
    errors: list = field(default_factory=list)
    gross_f0: dict = field(default_factory=dict)  # id -> cents off
    records: int = 0


def frame_count(samples: int) -> int:
    return 1 + (samples - WINDOW) // HOP


def _hamming(n: int) -> np.ndarray:
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def power_spectrum(x: np.ndarray) -> np.ndarray:
    emphasized = np.concatenate(([x[0]], x[1:] - PREEMPHASIS * x[:-1]))
    starts = HOP * np.arange(frame_count(x.shape[0]))
    frames = emphasized[starts[:, None] + np.arange(WINDOW)[None, :]] * _hamming(WINDOW)
    return np.abs(np.fft.rfft(frames, n=DFT_SIZE, axis=1)) ** 2


def _triangles(points: np.ndarray, mels: np.ndarray) -> np.ndarray:
    out = np.zeros((points.shape[0] - 2, mels.shape[0]))
    for i in range(out.shape[0]):
        left, center, right = points[i:i + 3]
        out[i] = np.clip(
            np.minimum((mels - left) / (center - left), (right - mels) / (right - center)),
            0.0, 1.0,
        )
    return out


def filterbank(delta_mel: float, hi_freq: float) -> np.ndarray:
    bins = hz_to_mel(np.arange(DFT_SIZE // 2 + 1) * SAMPLE_RATE / DFT_SIZE) - delta_mel
    points = np.linspace(hz_to_mel(LO_FREQ), hz_to_mel(hi_freq), NUM_FILTERS + 2)
    weights = _triangles(points, bins)
    # Negative-frequency images of bins 1..255 sit mirrored about 0 Hz.
    twins = slice(1, DFT_SIZE // 2)
    weights[:, twins] += _triangles(points, 2.0 * bins[0] - bins[twins])
    return weights


def _dct_matrix(n: int, keep: int) -> np.ndarray:
    k = np.arange(keep)[:, None]
    j = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    basis[0] /= np.sqrt(2.0)
    return basis


def features(pspec: np.ndarray, delta_mel: float, job: Job) -> np.ndarray:
    logmel = np.log(np.maximum(pspec @ filterbank(delta_mel, job.hi_freq).T, LOG_FLOOR))
    if job.kind == "mfcc":
        return logmel @ _dct_matrix(NUM_FILTERS, NUM_CEPS).T
    return logmel


def plan_f0_def(base_f0: float, shift: float) -> float:
    return base_f0 if shift == 0.0 else float(mel_to_hz(hz_to_mel(base_f0) - shift))


def expected_delta(f0_utt: float, f0_def: float) -> tuple:
    raw = float(hz_to_mel(f0_utt) - hz_to_mel(f0_def))
    return min(max(raw, -MAX_ABS_SHIFT_MEL), MAX_ABS_SHIFT_MEL), abs(raw) > MAX_ABS_SHIFT_MEL


def read_mwf(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"MWF1" or len(data) < 12:
        raise ValueError(f"{path}: no MWF1 header")
    rows, cols = struct.unpack("<II", data[4:12])
    if len(data) != 12 + 4 * rows * cols:
        raise ValueError(f"{path}: {len(data)} bytes for {rows}x{cols}")
    return np.frombuffer(data[12:], dtype="<f4").reshape(rows, cols)


def cents(f: float, ref: float) -> float:
    return 1200.0 * float(np.log2(f / ref))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= META_TOL * max(1.0, abs(b))


def check_archive(archive, corpus_dir, truth: dict, job: Job) -> Verdict:
    """Check every record and matrix of ``archive`` against the reference.

    ``truth`` maps utterance id to its synthesized f0 and sample count.
    Errors are findings that make the output wrong; an utterance whose
    detected median f0 is more than GROSS_F0_CENTS off its synthesized f0
    lands in ``gross_f0`` instead, since the archive is still consistent
    with the f0 the program found.
    """
    archive = Path(archive)
    verdict = Verdict()
    err = verdict.errors.append
    report = (archive / "report.jsonl").read_text(encoding="utf-8").strip()
    if report:
        err(f"report.jsonl lists failures: {report.splitlines()[0]}")
    lines = (archive / "index.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    verdict.records = len(records)
    shifts = sorted(job.shifts)
    keys = [(r["id"], r["shift_mel"]) for r in records]
    expected = sorted((uid, s) for uid in truth for s in shifts)
    if len(records) != len(truth) * len(shifts):
        err(f"{len(records)} records, expected {len(truth)} x {len(shifts)}")
    if keys != sorted(keys):
        err("index.jsonl is not sorted by (id, shift)")
    if sorted(keys) != expected:
        missing = sorted(set(expected) - set(keys))[:3]
        err(f"index keys differ from utterances x plan, missing e.g. {missing}")

    by_id: dict = {}
    for rec in records:
        by_id.setdefault(rec["id"], []).append(rec)
    dims = NUM_CEPS if job.kind == "mfcc" else NUM_FILTERS
    for uid, recs in sorted(by_id.items()):
        if uid not in truth:
            err(f"{uid}: not in the corpus")
            continue
        f0_utts = {r["f0_utt"] for r in recs}
        if len(f0_utts) != 1:
            err(f"{uid}: records disagree on f0_utt {sorted(f0_utts)}")
        f0_utt = recs[0]["f0_utt"]
        if not job.normalize and f0_utt != job.base_f0:
            err(f"{uid}: f0_utt {f0_utt} without normalization, expected {job.base_f0}")
        if job.normalize:
            off = cents(f0_utt, truth[uid]["f0"])
            if abs(off) > GROSS_F0_CENTS:
                verdict.gross_f0[uid] = off
        x = read_wav(Path(corpus_dir) / f"{uid}.wav")
        if x.shape[0] != truth[uid]["samples"]:
            err(f"{uid}: wav has {x.shape[0]} samples, synthesized {truth[uid]['samples']}")
        pspec = power_spectrum(x)
        for rec in recs:
            where = f"{uid} shift {rec['shift_mel']:+g}"
            f0_def = plan_f0_def(job.base_f0, rec["shift_mel"])
            delta, clamped = expected_delta(f0_utt, f0_def)
            if not _close(rec["f0_def"], f0_def):
                err(f"{where}: f0_def {rec['f0_def']} != {f0_def}")
            if not _close(rec["delta_mel"], delta) or rec["clamped"] != clamped:
                err(f"{where}: delta_mel {rec['delta_mel']} clamped {rec['clamped']}"
                    f" != {delta} {clamped}")
            if rec["fallback_used"] and f0_utt != job.base_f0:
                err(f"{where}: fallback_used with f0_utt {f0_utt}")
            frames = frame_count(x.shape[0])
            if (rec["frames"], rec["dims"]) != (frames, dims):
                err(f"{where}: shape {rec['frames']}x{rec['dims']} != {frames}x{dims}")
            try:
                got = read_mwf(archive / rec["path"])
            except (OSError, ValueError) as exc:
                err(f"{where}: {exc}")
                continue
            want = features(pspec, delta, job)
            if got.shape != want.shape:
                err(f"{where}: matrix {got.shape} != {want.shape}")
                continue
            excess = np.abs(got - want) - MATRIX_TOL * np.maximum(1.0, np.abs(want))
            if np.any(excess > 0):
                row, col = np.unravel_index(int(np.argmax(excess)), excess.shape)
                err(f"{where}: value [{row},{col}] {got[row, col]} != {want[row, col]}")
    return verdict

"""Batch processing: manifests in, feature archives with metadata out.

An archive directory holds one small binary matrix file per (utterance,
shift) variant, an ``index.jsonl`` of archive records sorted by
(id, shift) and a ``report.jsonl`` of per-utterance failures.  Output
bytes are independent of worker count and processing order.
"""

from __future__ import annotations

import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .audio_io import AudioBuffer, read_wav
from .augment import AugmentationPlan, augment_utterance, make_plan
from .melwarp import FeatureConfig
from .pitch import PitchConfig, UtteranceF0, detect_pitch, median_f0

MATRIX_MAGIC = b"MWF1"


class ParseError(ValueError):
    """Manifest line that is not valid JSON or lacks required keys."""


class DuplicateId(ValueError):
    pass


class MatrixFormatError(ValueError):
    pass


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    audio_path: str
    transcript: Optional[str] = None


def read_manifest(path) -> list:
    """Parse a JSON-lines manifest: one object with `id`, `audio` and an
    optional `text` key per line.  Blank lines are ignored."""
    entries = []
    seen = set()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if not isinstance(obj, dict) or "id" not in obj or "audio" not in obj:
                raise ParseError(
                    f"line {lineno}: expected an object with 'id' and 'audio' keys"
                )
            entry_id = str(obj["id"])
            if entry_id in seen:
                raise DuplicateId(f"line {lineno}: duplicate id {entry_id!r}")
            seen.add(entry_id)
            entries.append(
                ManifestEntry(
                    id=entry_id,
                    audio_path=str(obj["audio"]),
                    transcript=obj.get("text"),
                )
            )
    return entries


def variant_key(entry_id: str, shift_mel: float) -> str:
    return f"{entry_id}_s{shift_mel:+g}"


def write_matrix(path, values: np.ndarray) -> None:
    """Binary matrix file: magic, u32-LE rows/cols, row-major f32-LE data."""
    arr = np.ascontiguousarray(values, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    with open(path, "wb") as handle:
        handle.write(MATRIX_MAGIC)
        handle.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        handle.write(arr.tobytes())


def read_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != MATRIX_MAGIC:
        raise MatrixFormatError(f"{path}: not a {MATRIX_MAGIC.decode()} matrix file")
    rows, cols = struct.unpack("<II", data[4:12])
    expected = 12 + 4 * rows * cols
    if len(data) != expected:
        raise MatrixFormatError(
            f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(data)}"
        )
    return np.frombuffer(data[12:], dtype="<f4").reshape(rows, cols)


@dataclass(frozen=True)
class ArchiveRecord:
    id: str
    shift_mel: float
    f0_utt: float
    f0_def: float
    delta_mel: float
    clamped: bool
    fallback_used: bool
    frames: int
    dims: int
    path: str

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def utterance_variants(
    buffer: AudioBuffer,
    cfg: FeatureConfig,
    plan: AugmentationPlan,
    normalize: bool,
    pitch_cfg: PitchConfig,
) -> list:
    """One FeatureMatrix per plan entry of one utterance, warped from its
    detected median f0 when normalizing and from the plan's base (a zero
    normalization shift) otherwise."""
    if normalize:
        f0_utt = median_f0(detect_pitch(buffer, pitch_cfg), plan.base_f0_def)
    else:
        f0_utt = UtteranceF0(plan.base_f0_def, 0, False)
    return augment_utterance(buffer, cfg, plan, f0_utt)


@dataclass
class BatchResult:
    records: list
    failures: list
    out_dir: Path

    @property
    def fully_succeeded(self) -> bool:
        return not self.failures


def process_dataset(
    entries,
    out_dir,
    cfg: FeatureConfig | None = None,
    plan: AugmentationPlan | None = None,
    normalize: bool = False,
    pitch_cfg: PitchConfig | None = None,
    strict: bool = False,
    workers: Optional[int] = None,
) -> BatchResult:
    """Extract every (utterance, plan entry) variant into an archive dir.

    Each worker owns one utterance end to end: read, pitch (when
    normalizing), warp, extract, write matrix files.  The index is
    assembled afterwards from a deterministic sort, so reruns produce
    byte-identical archives for any worker count.  Failures abort the
    batch in strict mode; otherwise they land in ``report.jsonl`` and
    processing continues.
    """
    cfg = cfg if cfg is not None else FeatureConfig()
    plan = plan if plan is not None else make_plan(shifts_mel=(0.0,))
    pitch_cfg = pitch_cfg if pitch_cfg is not None else PitchConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process_one(entry: ManifestEntry) -> list:
        buffer = read_wav(entry.audio_path, source_id=entry.id)
        records = []
        for matrix in utterance_variants(buffer, cfg, plan, normalize, pitch_cfg):
            rel_path = variant_key(entry.id, matrix.shift_mel) + ".mwf"
            write_matrix(out / rel_path, matrix.values)
            records.append(
                ArchiveRecord(
                    id=entry.id,
                    shift_mel=matrix.shift_mel,
                    f0_utt=matrix.warp.f0_utt,
                    f0_def=matrix.warp.f0_def,
                    delta_mel=matrix.warp.delta_mel,
                    clamped=matrix.warp.clamped,
                    fallback_used=matrix.fallback_used,
                    frames=matrix.num_frames,
                    dims=matrix.dims,
                    path=rel_path,
                )
            )
        return records

    records: list = []
    failures: list = []
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [(entry, pool.submit(process_one, entry)) for entry in entries]
        for entry, future in futures:
            try:
                records.extend(future.result())
            except Exception as exc:
                if strict:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
                failures.append(
                    {"id": entry.id, "error": type(exc).__name__, "message": str(exc)}
                )

    records.sort(key=lambda r: (r.id, r.shift_mel))
    failures.sort(key=lambda f: f["id"])
    with open(out / "index.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")
    with open(out / "report.jsonl", "w", encoding="utf-8") as handle:
        for failure in failures:
            handle.write(json.dumps(failure) + "\n")
    return BatchResult(records=records, failures=failures, out_dir=out)


def read_archive_index(archive_dir) -> list:
    index = Path(archive_dir) / "index.jsonl"
    lines = index.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def export_text_archive(archive_dir, out_path) -> int:
    """Write an archive as a text table of matrices, one block per variant:
    ``<id_s<shift>>  [`` then rows of decimals, closed by `` ]`` on the
    last row.  Returns the number of blocks written."""
    archive = Path(archive_dir)
    entries = read_archive_index(archive)
    with open(out_path, "w", encoding="utf-8") as handle:
        for rec in entries:
            matrix = read_matrix(archive / rec["path"])
            handle.write(f"{variant_key(rec['id'], rec['shift_mel'])}  [\n")
            last = matrix.shape[0] - 1
            for i, row in enumerate(matrix):
                text = "  " + " ".join(f"{float(v):.9g}" for v in row)
                handle.write(text + (" ]\n" if i == last else "\n"))
    return len(entries)


def read_text_archive(path) -> dict:
    """Parse :func:`export_text_archive` output back into float32 arrays."""
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

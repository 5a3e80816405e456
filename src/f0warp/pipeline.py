"""Batch processing: manifests in, feature archives with metadata out.

An archive directory holds one small binary matrix file per (utterance,
shift) variant, an ``index.jsonl`` of one record per variant sorted by
(id, shift) and a ``report.jsonl`` of per-utterance failures.  A
variant's index record is its id, the facts
:func:`~f0warp.augment.augment_utterance` gives it, and its file's path.
Output bytes are independent of worker count and processing order.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .audio_io import AudioBuffer, read_wav
from .augment import AugmentationPlan, augment_utterance, shift_text
from .melwarp import FeatureConfig, filterbank_ceiling
from .pitch import PitchConfig, detect_pitch, median_f0

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


def read_manifest(path) -> list:
    """Parse a JSON-lines manifest: one object with `id` and `audio` keys
    per line (other keys, such as `text`, are ignored).  Blank lines and a
    leading UTF-8 byte-order mark are ignored.  An id names its variants'
    files in the archive, so one that holds a path separator or NUL is a
    ParseError."""
    entries = []
    seen = set()
    with open(path, "r", encoding="utf-8-sig") as handle:
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
            if any(sep and sep in entry_id for sep in (os.sep, os.altsep, "\0")):
                raise ParseError(
                    f"line {lineno}: id {entry_id!r} holds a path separator or NUL"
                )
            if entry_id in seen:
                raise DuplicateId(f"line {lineno}: duplicate id {entry_id!r}")
            seen.add(entry_id)
            entries.append(ManifestEntry(id=entry_id, audio_path=str(obj["audio"])))
    return entries


def variant_key(entry_id: str, shift_mel: float) -> str:
    return f"{entry_id}_s{shift_text(shift_mel)}"


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


def utterance_variants(
    buffer: AudioBuffer,
    cfg: FeatureConfig,
    plan: AugmentationPlan,
    normalize: bool,
    pitch_cfg: PitchConfig,
) -> list:
    """The ``(facts, values)`` pair of each plan entry of one utterance,
    warped from its detected median f0 when normalizing and from the plan's
    base (a zero normalization shift) otherwise."""
    if normalize:
        f0 = median_f0(detect_pitch(buffer, pitch_cfg), plan.base_f0_def)
        return augment_utterance(buffer, cfg, plan, f0.f0_utt, f0.fallback_used)
    return augment_utterance(buffer, cfg, plan, plan.base_f0_def, False)


@dataclass
class BatchResult:
    """``records`` are the index lines: the objects of ``index.jsonl``, in
    its order, so ``records == read_archive_index(out_dir)``.
    ``failures`` are the lines of ``report.jsonl``."""

    records: list
    failures: list
    out_dir: Path


def process_dataset(
    entries,
    out_dir,
    cfg: FeatureConfig,
    plan: AugmentationPlan,
    normalize: bool = False,
    pitch_cfg: PitchConfig | None = None,
    workers: Optional[int] = None,
) -> BatchResult:
    """Extract every (utterance, plan entry) variant into an archive dir.

    Each worker owns one utterance end to end: read, pitch (when
    normalizing), warp, extract, write matrix files.  ``entries`` is read
    as the batch goes, with at most two utterances per worker in flight;
    each one that finishes makes room for the next.  The index is assembled
    afterwards from a deterministic sort, so reruns produce byte-identical
    archives for any worker count; its lines, ``{"id", **facts, "path"}``
    with each variant's facts from :func:`utterance_variants`, are the
    result's ``records``.
    An utterance that fails lands in ``report.jsonl`` as its id, exception
    class name and message, and the batch goes on.

    Callers build ``cfg`` with :func:`filterbank_ceiling` for ``normalize``
    and the plan's shifts; a ``cfg`` whose ceiling it rejects raises
    DomainError before any audio is read.

    Each worker's products also use OpenBLAS's threads: at two workers on
    2 vCPUs, ``OPENBLAS_NUM_THREADS=1`` (set before numpy is imported) cut
    the benchmark batches' wall time by about 40% and CPU time by almost half.
    """
    filterbank_ceiling(cfg.hi_freq, normalize, plan.shifts_mel)
    pitch_cfg = pitch_cfg if pitch_cfg is not None else PitchConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process_one(entry: ManifestEntry) -> list:
        buffer = read_wav(entry.audio_path, source_id=entry.id)
        records = []
        for facts, values in utterance_variants(buffer, cfg, plan, normalize, pitch_cfg):
            rel_path = variant_key(entry.id, facts["shift_mel"]) + ".mwf"
            write_matrix(out / rel_path, values)
            records.append({"id": entry.id, **facts, "path": rel_path})
        return records

    records: list = []
    failures: list = []
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    entries = iter(entries)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: dict = {}
        while True:
            for entry in itertools.islice(entries, 2 * workers - len(pending)):
                pending[pool.submit(process_one, entry)] = entry
            if not pending:
                break
            for future in wait(pending, return_when=FIRST_COMPLETED).done:
                entry = pending.pop(future)
                try:
                    records.extend(future.result())
                except Exception as exc:
                    failures.append(
                        {"id": entry.id, "error": type(exc).__name__, "message": str(exc)}
                    )

    records.sort(key=lambda r: (r["id"], r["shift_mel"]))
    failures.sort(key=lambda f: f["id"])
    with open(out / "index.jsonl", "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
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

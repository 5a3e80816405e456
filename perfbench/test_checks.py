"""Tests of the benchmark's own corpus generator and output checks.

Run from the repository root: python3 -m pytest -q perfbench
Each check must pass a clean archive and reject a doctored one.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus
import reference
import run

sys.path.insert(0, str(run.SRC))

from f0warp.cli import main as f0warp_main  # noqa: E402

JOB = reference.Job(normalize=True, shifts=(0.0, 20.0, -20.0), base_f0=100.0,
                    kind="mfcc", hi_freq=6200.0)
SPEAKERS = (("a", 100.0), ("i", 300.0), ("u", 215.39))


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    base = tmp_path_factory.mktemp("clean")
    utterances = corpus.short_vowels(np.random.default_rng(5), SPEAKERS, 0.6, 0.9, "t")
    manifest = corpus.write_corpus(utterances, 5, base / "corpus")
    truth = {u.id: {"f0": u.f0, "samples": u.samples} for u in utterances}
    assert f0warp_main(run.cli_args(JOB, manifest, base / "archive")) == 0
    return base, truth


def doctored(clean, tmp_path):
    base, _ = clean
    shutil.copytree(base / "archive", tmp_path / "archive")
    return tmp_path / "archive"


def check(clean, archive):
    base, truth = clean
    return reference.check_archive(archive, base / "corpus", truth, JOB)


def edit_index(archive, change):
    index = archive / "index.jsonl"
    records = [json.loads(line) for line in index.read_text().splitlines()]
    records = change(records)
    index.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_clean_archive_passes(clean):
    base, _ = clean
    verdict = check(clean, base / "archive")
    assert verdict.errors == []
    assert verdict.records == len(SPEAKERS) * len(JOB.shifts)


def test_gross_f0_of_the_pitch_fault_is_counted_not_an_error(clean):
    # u at 215 Hz has F1 on its second harmonic; the tracker reports ~2 f0.
    base, _ = clean
    verdict = check(clean, base / "archive")
    assert list(verdict.gross_f0) == ["t0002"]
    assert verdict.gross_f0["t0002"] > 1100


def test_doubled_f0_is_rejected(clean, tmp_path):
    archive = doctored(clean, tmp_path)

    def double(records):
        for rec in records:
            if rec["id"] == "t0000":
                rec["f0_utt"] *= 2.0
        return records

    edit_index(archive, double)
    verdict = check(clean, archive)
    assert verdict.gross_f0["t0000"] == pytest.approx(1200.0, abs=1.0)
    assert any("t0000" in e and "delta_mel" in e for e in verdict.errors)


def test_moved_matrix_value_is_rejected(clean, tmp_path):
    archive = doctored(clean, tmp_path)
    path = archive / "t0001_s+20.mwf"
    data = bytearray(path.read_bytes())
    values = np.frombuffer(bytes(data[12:]), dtype="<f4").copy()
    values[7] += 1e-3
    data[12:] = values.tobytes()
    path.write_bytes(bytes(data))
    verdict = check(clean, archive)
    assert len(verdict.errors) == 1
    assert "t0001 shift +20: value" in verdict.errors[0]


def test_missing_matrix_file_is_rejected(clean, tmp_path):
    archive = doctored(clean, tmp_path)
    (archive / "t0000_s-20.mwf").unlink()
    errors = check(clean, archive).errors
    assert len(errors) == 1 and "t0000 shift -20" in errors[0]


def test_missing_record_is_rejected(clean, tmp_path):
    archive = doctored(clean, tmp_path)
    edit_index(archive, lambda records: records[:4] + records[5:])
    errors = check(clean, archive).errors
    assert any("records, expected" in e for e in errors)
    assert any("missing" in e for e in errors)


def test_wrong_delta_mel_is_rejected(clean, tmp_path):
    archive = doctored(clean, tmp_path)

    def nudge(records):
        records[2]["delta_mel"] += 0.01
        return records

    edit_index(archive, nudge)
    errors = check(clean, archive).errors
    assert len(errors) == 1 and "delta_mel" in errors[0]


def test_unsorted_index_is_rejected(clean, tmp_path):
    archive = doctored(clean, tmp_path)
    edit_index(archive, lambda records: records[::-1])
    assert any("not sorted" in e for e in check(clean, archive).errors)


def test_reference_rules():
    assert reference.frame_count(400) == 1
    assert reference.frame_count(559) == 1
    assert reference.frame_count(560) == 2
    assert reference.expected_delta(400.0, 100.0) == (250.0, True)
    delta, clamped = reference.expected_delta(150.0, 100.0)
    assert not clamped and delta == pytest.approx(1127 * np.log((1 + 150 / 700) / (1 + 100 / 700)))
    assert reference.plan_f0_def(100.0, 0.0) == 100.0
    assert reference.plan_f0_def(100.0, 20.0) < 100.0


def test_corpus_is_a_function_of_the_seed(tmp_path):
    def build(seed, name):
        utts = corpus.short_vowels(np.random.default_rng([seed, 0]), SPEAKERS, 0.5, 0.7, "t")
        directory = corpus.write_corpus(utts, seed, tmp_path / name).parent
        return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}

    first, again, other = build(1, "a"), build(1, "b"), build(2, "c")
    assert [first[k] for k in first if k.endswith(".wav")] == [
        again[k] for k in again if k.endswith(".wav")
    ]
    assert first["t0000.wav"] != other["t0000.wav"]
    truth = [json.loads(line) for line in first["truth.jsonl"].decode().splitlines()]
    assert sorted((t["id"], t["f0"]) for t in truth) == [
        ("t0000", 100.0), ("t0001", 300.0), ("t0002", 215.39)
    ]

import json
import threading
import wave

import numpy as np
import pytest

from f0warp import (
    AudioBuffer,
    DomainError,
    DuplicateId,
    FeatureConfig,
    ParseError,
    export_text_archive,
    make_plan,
    process_dataset,
    read_archive_index,
    read_manifest,
    read_matrix,
    write_matrix,
)
from f0warp import pipeline
from f0warp.cli import EXIT_OK, main
from f0warp.melwarp import BASELINE_HI_FREQ, WARPED_HI_FREQ
from f0warp.pipeline import ManifestEntry, MatrixFormatError, variant_key
from tests.conftest import (
    archive_contents,
    make_wav_dataset,
    read_text_archive,
    write_manifest,
)
from tests.synthkit import write_wav


class TestManifest:
    def test_two_lines(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [{"id": "a", "audio": "a.wav"},
                              {"id": "b", "audio": "b.wav", "text": "hi"}])
        entries = read_manifest(path)
        assert entries == [ManifestEntry("a", "a.wav"), ManifestEntry("b", "b.wav")]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [{"id": "a", "audio": "1.wav"},
                              {"id": "a", "audio": "2.wav"}])
        with pytest.raises(DuplicateId):
            read_manifest(path)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        assert read_manifest(path) == []

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "audio": "a.wav"}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            read_manifest(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ParseError, match="line 1"):
            read_manifest(path)

    @pytest.mark.parametrize("entry_id", ["../escaped", "sub/dir", "nul\0byte"])
    def test_id_that_is_not_a_file_name_rejected(self, tmp_path, entry_id):
        path = tmp_path / "m.jsonl"
        write_manifest(path, [{"id": "a", "audio": "a.wav"},
                              {"id": entry_id, "audio": "b.wav"}])
        with pytest.raises(ParseError, match="line 2: id .* path separator or NUL"):
            read_manifest(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('\n{"id": "a", "audio": "a.wav"}\n\n')
        assert len(read_manifest(path)) == 1


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        values = rng.standard_normal((17, 13)).astype(np.float32)
        path = tmp_path / "m.mwf"
        write_matrix(path, values)
        assert np.array_equal(read_matrix(path), values)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.mwf"
        write_matrix(path, np.zeros((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == b"MWF1"
        assert len(blob) == 12 + 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mwf"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(MatrixFormatError):
            read_matrix(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.mwf"
        write_matrix(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(MatrixFormatError):
            read_matrix(path)


class TestProcessDataset:
    def _setup(self, tmp_path, f0s=(95.0, 130.0, 220.0)):
        entries = make_wav_dataset(tmp_path, f0s)
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, entries)
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        return read_manifest(manifest), cfg, make_plan(100.0)

    def test_cardinality(self, tmp_path):
        entries, cfg, plan = self._setup(tmp_path)
        result = process_dataset(entries, tmp_path / "arch", cfg, plan, normalize=True)
        assert len(result.records) == 21
        assert not result.failures
        index = read_archive_index(tmp_path / "arch")
        assert len(index) == 21
        assert len(list((tmp_path / "arch").glob("*.mwf"))) == 21

    def test_index_sorted_and_unique(self, tmp_path):
        entries, cfg, plan = self._setup(tmp_path)
        result = process_dataset(entries, tmp_path / "arch", cfg, plan, normalize=True)
        keys = [(r["id"], r["shift_mel"]) for r in result.records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        entries, cfg, plan = self._setup(tmp_path)
        process_dataset(entries, tmp_path / "a1", cfg, plan, normalize=True, workers=1)
        process_dataset(entries, tmp_path / "a2", cfg, plan, normalize=True, workers=4)
        assert archive_contents(tmp_path / "a1") == archive_contents(tmp_path / "a2")

    @pytest.mark.parametrize("workers", [1, 3])
    def test_manifest_is_read_as_the_batch_goes(self, tmp_path, monkeypatch, workers):
        # At most two utterances per worker are in flight: when utterance i
        # starts, no more than i + 2 * workers entries have been pulled.
        entries, cfg, _ = self._setup(tmp_path, f0s=(120.0,))
        entries = [ManifestEntry(f"u{i:02d}", entries[0].audio_path) for i in range(12)]
        pulled = []
        pulled_at_start = {}

        def manifest():
            for entry in entries:
                pulled.append(entry.id)
                yield entry

        plain_read = pipeline.read_wav

        def read_wav(path, source_id):
            pulled_at_start[source_id] = len(pulled)
            return plain_read(path, source_id=source_id)

        monkeypatch.setattr(pipeline, "read_wav", read_wav)
        result = process_dataset(manifest(), tmp_path / "arch", cfg, make_plan(100.0, (0.0,)),
                                 workers=workers)
        assert len(result.records) == 12
        for i, entry in enumerate(entries):
            assert pulled_at_start[entry.id] <= i + 2 * workers, entry.id

    def test_slow_utterance_does_not_hold_back_the_rest(self, tmp_path, monkeypatch):
        # The first utterance finishes only once the last one has started:
        # each utterance that finishes must make room for the next, or the
        # window stays stuck behind the first.
        entries, cfg, _ = self._setup(tmp_path, f0s=(120.0,))
        entries = [ManifestEntry(f"u{i:02d}", entries[0].audio_path) for i in range(12)]
        last_started = threading.Event()
        plain_read = pipeline.read_wav

        def read_wav(path, source_id):
            if source_id == "u11":
                last_started.set()
            if source_id == "u00":
                assert last_started.wait(timeout=30), "u00 held back the window"
            return plain_read(path, source_id=source_id)

        monkeypatch.setattr(pipeline, "read_wav", read_wav)
        result = process_dataset(iter(entries), tmp_path / "arch", cfg,
                                 make_plan(100.0, (0.0,)), workers=2)
        assert not result.failures
        assert result.records == read_archive_index(tmp_path / "arch")
        assert [r["id"] for r in result.records] == [e.id for e in entries]

    def test_unvoiced_utterance_takes_fallback(self, tmp_path):
        wav = tmp_path / "silence.wav"
        write_wav(wav, AudioBuffer(np.zeros(16000)))
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [{"id": "sil", "audio": str(wav)}])
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        result = process_dataset(
            read_manifest(manifest), tmp_path / "arch", cfg, make_plan(100.0),
            normalize=True,
        )
        assert len(result.records) == 7
        for record in result.records:
            assert record["fallback_used"]
            assert record["delta_mel"] == pytest.approx(record["shift_mel"], abs=1e-9)

    def test_unnormalized_fan_out_uses_plan_base(self, tmp_path):
        # Without normalization the plan's base stands in for f0_utt, so a
        # 220 Hz voice gets exactly the plan's shifts.
        entries, cfg, plan = self._setup(tmp_path, f0s=(220.0,))
        result = process_dataset(entries, tmp_path / "arch", cfg, plan)
        assert len(result.records) == 7
        for record in result.records:
            assert record["f0_utt"] == 100.0
            assert record["delta_mel"] == pytest.approx(record["shift_mel"], abs=1e-9)
            assert not record["fallback_used"]

    def test_low_speaker_keeps_clamped_variant(self, tmp_path):
        # 55 Hz normalized to a 200 Hz base needs about -198 Mels; the -60
        # plan entry takes it past -250, where the lowest filter reads only
        # mirrored bins.  All seven variants must still be written.
        entries = make_wav_dataset(tmp_path, (55.0,))
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, entries)
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        result = process_dataset(
            read_manifest(manifest), tmp_path / "arch", cfg, make_plan(200.0),
            normalize=True,
        )
        assert not result.failures
        assert len(result.records) == 7
        clamped = [r for r in result.records if r["clamped"]]
        assert [(r["shift_mel"], r["delta_mel"]) for r in clamped] == [(-60.0, -250.0)]
        assert len(list((tmp_path / "arch").glob("*.mwf"))) == 7
        assert (tmp_path / "arch" / "report.jsonl").read_text() == ""

    def test_lenient_mode_records_failures(self, tmp_path):
        entries, cfg, plan = self._setup(tmp_path)
        empty = tmp_path / "empty.wav"
        with wave.open(str(empty), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(16000)
        (tmp_path / "folder").mkdir()
        entries = entries + [
            ManifestEntry(id="missing", audio_path=str(tmp_path / "nope.wav")),
            ManifestEntry(id="no-samples", audio_path=str(empty)),
            ManifestEntry(id="not-a-file", audio_path=str(tmp_path / "folder")),
        ]
        result = process_dataset(entries, tmp_path / "arch", cfg, plan, normalize=True)
        assert len(result.records) == 21
        expected = [
            ("missing", "FileNotFoundError"),
            ("no-samples", "TooShort"),
            ("not-a-file", "IsADirectoryError"),
        ]
        assert [(f["id"], f["error"]) for f in result.failures] == expected
        report = (tmp_path / "arch" / "report.jsonl").read_text().splitlines()
        assert [(json.loads(line)["id"], json.loads(line)["error"])
                for line in report] == expected

    def test_strict_mode_raises(self, tmp_path):
        entries, cfg, plan = self._setup(tmp_path)
        entries = entries + [
            type(entries[0])(id="missing", audio_path=str(tmp_path / "nope.wav"))
        ]
        with pytest.raises(Exception):
            process_dataset(
                entries, tmp_path / "arch", cfg, plan, normalize=True, strict=True
            )

    def test_default_config_takes_the_warped_ceiling(self, tmp_path):
        # Without a config the library picks the ceiling the CLI's defaults
        # pick, for every (normalize, shifts) pair.  Normalizing warps from
        # the detected f0, so the default ceiling must leave room for the
        # shift: a 300 Hz voice needs +269 Mels, which an 8 kHz top filter
        # cannot take.
        entries, _, _ = self._setup(tmp_path, f0s=(300.0, 120.0))
        pairs = [(False, (0.0,)), (True, (0.0,)), (False, (0.0, 20.0)), (True, (0.0, 20.0))]
        for i, (normalize, shifts) in enumerate(pairs):
            lib, cli = tmp_path / f"lib{i}", tmp_path / f"cli{i}"
            result = process_dataset(entries, lib, plan=make_plan(shifts_mel=shifts),
                                     normalize=normalize)
            assert not result.failures, (normalize, shifts)
            assert len(result.records) == 2 * len(shifts)
            args = ["process", "--manifest", str(tmp_path / "m.jsonl"), "--out", str(cli),
                    "--augment-shifts", ",".join(f"{s:g}" for s in shifts)]
            assert main(args + (["--normalize"] if normalize else [])) == EXIT_OK
            assert archive_contents(lib) == archive_contents(cli), (normalize, shifts)

    @pytest.mark.parametrize(
        "normalize, shifts", [(True, (0.0,)), (False, (0.0, 20.0))]
    )
    def test_warped_ceiling_too_high_rejected_before_reading(
        self, tmp_path, normalize, shifts
    ):
        missing = [ManifestEntry(id="a", audio_path=str(tmp_path / "nope.wav"))]
        with pytest.raises(DomainError, match="6269"):
            process_dataset(
                missing, tmp_path / "arch", FeatureConfig(),
                make_plan(100.0, shifts), normalize=normalize,
            )
        assert not (tmp_path / "arch").exists()

    def test_unwarped_default_keeps_the_baseline_ceiling(self, tmp_path):
        entries, _, _ = self._setup(tmp_path, f0s=(120.0,))
        process_dataset(entries, tmp_path / "lib")
        plain = FeatureConfig(hi_freq=BASELINE_HI_FREQ)
        process_dataset(entries, tmp_path / "plain", plain)
        assert archive_contents(tmp_path / "lib") == archive_contents(tmp_path / "plain")

    def test_empty_manifest(self, tmp_path):
        cfg = FeatureConfig()
        result = process_dataset([], tmp_path / "arch", cfg, make_plan(100.0, (0.0,)))
        assert result.records == []
        assert (tmp_path / "arch" / "index.jsonl").read_text() == ""

    def test_index_record_fields(self, tmp_path):
        entries, cfg, plan = self._setup(tmp_path, f0s=(130.0,))
        process_dataset(entries, tmp_path / "arch", cfg, plan, normalize=True)
        rec = read_archive_index(tmp_path / "arch")[0]
        assert list(rec) == [
            "id", "shift_mel", "f0_utt", "f0_def", "delta_mel", "clamped",
            "fallback_used", "frames", "dims", "path",
        ]


class TestTextArchive:
    def test_round_trip(self, tmp_path):
        entries = make_wav_dataset(tmp_path, (120.0,))
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, entries)
        cfg = FeatureConfig(hi_freq=WARPED_HI_FREQ)
        result = process_dataset(
            read_manifest(manifest), tmp_path / "arch", cfg, make_plan(100.0),
            normalize=True,
        )
        out = tmp_path / "feats.ark"
        assert export_text_archive(tmp_path / "arch", out) == 7
        parsed = read_text_archive(out)
        assert len(parsed) == 7
        for record in result.records:
            key = variant_key(record["id"], record["shift_mel"])
            binary = read_matrix(tmp_path / "arch" / record["path"])
            scale = np.maximum(np.abs(binary), 1e-12)
            assert np.max(np.abs(parsed[key] - binary) / scale) <= 1e-6

    def test_block_shape(self, tmp_path):
        write_matrix(tmp_path / "x.mwf", np.arange(26, dtype=np.float32).reshape(2, 13))
        (tmp_path / "index.jsonl").write_text(
            json.dumps({"id": "x", "shift_mel": 0.0, "path": "x.mwf"}) + "\n"
        )
        out = tmp_path / "out.ark"
        export_text_archive(tmp_path, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "x_s+0  ["
        assert len(lines) == 3
        assert lines[2].endswith(" ]")
        assert len(lines[1].split()) == 13

    def test_empty_archive_gives_empty_file(self, tmp_path):
        (tmp_path / "index.jsonl").write_text("")
        out = tmp_path / "out.ark"
        assert export_text_archive(tmp_path, out) == 0
        assert out.read_text() == ""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import f0warp
from f0warp import (
    AudioBuffer,
    FeatureConfig,
    PitchConfig,
    read_archive_index,
    read_matrix,
)
from f0warp.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    F0_DEF_FLAG,
    _settings,
    build_parser,
    main,
)
from tests.conftest import archive_contents, make_wav_dataset, write_manifest
from tests.synthkit import VowelSpec, synth_harmonic, synth_vowel, write_wav

TOP_LEVEL_HELP = """\
usage: f0warp [-h] COMMAND ...

Pitch-adaptive Mel features: estimate per-utterance f0, normalize or perturb
it as a Mel-domain shift, and batch datasets into feature archives.

positional arguments:
  COMMAND
    pitch     per-frame f0 as CSV plus a median summary
    extract   MFCC or log-Mel matrix for one utterance
    process   batch a manifest into a feature archive
    export-ark
              export an archive as a text table
    inspect   print a matrix file's header and stats

options:
  -h, --help  show this help message and exit
"""


@pytest.fixture
def wav(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, synth_harmonic(100.0, 1.0))
    return path


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_help_is_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == TOP_LEVEL_HELP


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


def test_flag_defaults_mirror_configs():
    parser = build_parser()
    feature_defaults = FeatureConfig()
    pitch_defaults = PitchConfig()
    # find the extract subparser and compare every shared destination
    actions = next(
        a for a in parser._actions if hasattr(a, "choices") and a.choices
    )
    sub = actions.choices["extract"]
    expectations = {
        "window": feature_defaults.window,
        "hop": feature_defaults.hop,
        "num_filters": feature_defaults.num_filters,
        "lo_freq": feature_defaults.lo_freq,
        "num_ceps": feature_defaults.num_ceps,
        "preemphasis": feature_defaults.preemphasis,
        "log_floor": feature_defaults.log_floor,
        "feature_kind": feature_defaults.feature_kind,
        "f0_min": pitch_defaults.f0_min,
        "f0_max": pitch_defaults.f0_max,
        "voicing_threshold": pitch_defaults.voicing_threshold,
        "pitch_shift": pitch_defaults.shift,
    }
    for dest, expected in expectations.items():
        assert sub.get_default(dest) == expected, dest


# Every config flag, the field it sets and a value other than the default.
# Written out here, not read from the CLI's tables, so a wrong table entry
# shows up as a failure.
CONFIG_FLAG_CASES = [
    ("--window", FeatureConfig, "window", 0.032),
    ("--hop", FeatureConfig, "hop", 0.02),
    ("--num-filters", FeatureConfig, "num_filters", 30),
    ("--lo-freq", FeatureConfig, "lo_freq", 60.0),
    ("--num-ceps", FeatureConfig, "num_ceps", 20),
    ("--preemphasis", FeatureConfig, "preemphasis", 0.9),
    ("--log-floor", FeatureConfig, "log_floor", 1e-8),
    ("--feature-kind", FeatureConfig, "feature_kind", "log-mel"),
    ("--f0-min", PitchConfig, "f0_min", 60.0),
    ("--f0-max", PitchConfig, "f0_max", 400.0),
    ("--voicing-threshold", PitchConfig, "voicing_threshold", 0.4),
    ("--pitch-shift", PitchConfig, "shift", 0.01),
]


@pytest.mark.parametrize("command", ["extract", "process"])
@pytest.mark.parametrize("flag, cls, field, value", CONFIG_FLAG_CASES)
def test_config_flag_reaches_its_field(command, flag, cls, field, value):
    required = {
        "extract": ["--in", "a.wav", "--out", "a.mwf"],
        "process": ["--manifest", "m.jsonl", "--out", "arch"],
    }[command]
    args = build_parser().parse_args([command, *required, flag, str(value)])
    _, feature_cfg, pitch_cfg = _settings(args, F0_DEF_FLAG, shifts_mel=(0.0,))
    cfg = feature_cfg if cls is FeatureConfig else pitch_cfg
    assert getattr(cfg, field) == value


@pytest.mark.parametrize("kind", ["mfcc", "log-mel"], ids=["extract", "extract-log-mel"])
@pytest.mark.parametrize("normalize", [True, False])
def test_single_utterance_commands_match_batch(tmp_path, capsys, kind, normalize):
    wav = tmp_path / "a.wav"
    write_wav(wav, synth_harmonic(160.0, 0.5))
    flags = ["--normalize"] if normalize else []
    flags += ["--feature-kind", kind]
    out = tmp_path / "a.mwf"
    assert main(["extract", "--in", str(wav), "--out", str(out)] + flags) == EXIT_OK
    single = _last_json(capsys)
    assert list(single) == ["out", "feature_kind", "hi_freq", "f0_utt", "f0_def", "delta_mel",
                            "clamped", "fallback_used", "frames", "dims"]
    assert single["feature_kind"] == kind

    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [{"id": "a", "audio": str(wav)}])
    assert main(["process", "--manifest", str(manifest), "--out", str(tmp_path / "arch")]
                + flags) == EXIT_OK
    (record,) = read_archive_index(tmp_path / "arch")
    assert record["path"] == "a_s+0.mwf"
    assert out.read_bytes() == (tmp_path / "arch" / record["path"]).read_bytes()
    for key in ("f0_utt", "f0_def", "delta_mel", "clamped", "fallback_used", "frames", "dims"):
        assert single[key] == record[key], key
    assert (single["delta_mel"] != 0.0) == normalize


def test_nonfinite_numbers_rejected(tmp_path, wav, capsys):
    out = tmp_path / "x.mwf"
    args = ["extract", "--in", str(wav), "--out", str(out)]
    assert main(args + ["--log-floor", "nan"]) == EXIT_USAGE
    assert main(args + ["--normalize", "--f0-def", "inf"]) != EXIT_OK
    assert not out.exists()
    summary = tmp_path / "s.json"
    assert main(["pitch", "--in", str(wav), "--summary", str(summary),
                 "--f0-def", "inf"]) != EXIT_OK
    assert not summary.exists()


@pytest.mark.parametrize(
    "flag, setting", [("--hop", "hop"), ("--window", "window"), ("--pitch-shift", "shift")]
)
def test_setting_under_one_sample_is_a_clean_error(tmp_path, wav, capsys, flag, setting):
    # The library names the config field; the CLI names the flag.
    cls = PitchConfig if flag == "--pitch-shift" else FeatureConfig
    with pytest.raises(ValueError, match=f"^{setting} of 1e-05 s is under one sample"):
        cls(**{setting: 0.00001})
    out = tmp_path / "x.mwf"
    code = main(["extract", "--in", str(wav), "--out", str(out), "--normalize",
                 flag, "0.00001"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"f0warp: error: {flag} of 1e-05 s is under one sample at 16000 Hz\n"
    )
    assert not out.exists()


def test_process_reports_hop_under_one_sample(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, make_wav_dataset(tmp_path, (95.0,)))
    out_dir = tmp_path / "arch"
    code = main(["process", "--manifest", str(manifest), "--out", str(out_dir),
                 "--hop", "0.00001"])
    assert code == EXIT_USAGE
    assert "--hop of 1e-05 s is under one sample" in capsys.readouterr().err
    assert not out_dir.exists()


# Settings that no 16 kHz audio can meet and plans that cannot work, the
# start of the error naming each by its flag, and the commands that take
# the flag.
UNUSABLE_SETTINGS = [
    ("--hi-freq", "9000", "--hi-freq 9000.0 Hz exceeds Nyquist", ("process", "extract")),
    ("--window", "0.05", "--window 0.05 s (800 samples) is longer than the 512-point DFT",
     ("process", "extract")),
    ("--hop", "0.00001", "--hop of 1e-05 s is under one sample", ("process", "extract")),
    ("--f0-max", "8000", "--f0-max must be below Nyquist", ("process", "extract", "pitch")),
    ("--f0-min", "20",
     "--f0-min 20 Hz needs 802 samples, more than the 0.04 s pitch window (640 samples) holds",
     ("process", "extract", "pitch")),
    ("--num-ceps", "40", "need 1 <= --num-ceps <= --num-filters", ("process", "extract")),
    ("--lo-freq", "9000", "need 0 <= --lo-freq < --hi-freq", ("process", "extract")),
    ("--f0-def", "0", "--f0-def must be positive and finite, not 0",
     ("process", "extract", "pitch")),
    ("--augment-shifts", "20", "--augment-shifts must include 0", ("process",)),
    ("--augment-shifts", "0,20,20",
     "--augment-shifts 20.0 and 20.0 are one shift to the 6 significant digits",
     ("process",)),
    ("--augment-shifts", "0,nan", "--augment-shifts must be finite: (0.0, nan)",
     ("process",)),
    ("--augment-shifts", "0,-1000000",
     "--augment-shifts -1e+06 gives --f0-def 100 Hz a target f0 too high to be a finite"
     " number", ("process",)),
    # Without --normalize every warp is known, so an empty filter is too.
    ("--num-filters", "200", "--num-filters 200: warp 0 filter rows",
     ("process", "extract")),
    ("--augment-shifts", "0,200",
     "--augment-shifts 200 must be below 150.5 Mel, the Mel value of --f0-def 100 Hz,"
     " for a positive target f0", ("process",)),
    # 20.0000001 is written "+20", so both variants would be one file.
    ("--augment-shifts", "0,20,20.0000001",
     "--augment-shifts 20.0 and 20.0000001 are one shift to the 6 significant digits",
     ("process",)),
]
# A flag with more than one row is told apart by its value.
_ROWS_OF_FLAG = collections.Counter(flag for flag, *_ in UNUSABLE_SETTINGS)


@pytest.mark.parametrize(
    "flag, value, message, commands", UNUSABLE_SETTINGS,
    ids=[flag if _ROWS_OF_FLAG[flag] == 1 else f"{flag}={value}"
         for flag, value, *_ in UNUSABLE_SETTINGS],
)
def test_unusable_setting_fails_before_any_audio(tmp_path, capsys, flag, value, message,
                                                 commands):
    # The input WAV does not exist: only a check made before any audio is
    # opened gives a usage error rather than a failed read.
    missing = str(tmp_path / "missing.wav")
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [{"id": "a", "audio": missing}])
    out = tmp_path / "out"
    inputs = {
        "process": ["--manifest", str(manifest), "--out", str(out)],
        "extract": ["--in", missing, "--out", str(out)],
        "pitch": ["--in", missing, "--csv", str(out)],
    }
    for command in commands:
        assert main([command, *inputs[command], flag, value]) == EXIT_USAGE, command
        assert capsys.readouterr().err.startswith(f"f0warp: error: {message}"), command
        assert not out.exists(), command


# Neither the DFT length nor the pitch window is settable: a flag for
# either is unknown, even with the constant's own value.
@pytest.mark.parametrize("flag, value, command", [
    ("--dft-size", "512", "extract"),
    ("--dft-size", "512", "process"),
    ("--pitch-window", "0.04", "extract"),
    ("--pitch-window", "0.04", "process"),
    ("--pitch-window", "0.04", "pitch"),
], ids=["--dft-size-extract", "--dft-size-process", "--pitch-window-extract",
        "--pitch-window-process", "--pitch-window-pitch"])
def test_removed_flag_is_a_usage_error(tmp_path, capsys, flag, value, command):
    (entry,) = make_wav_dataset(tmp_path, (120.0,))
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [entry])
    out = tmp_path / "out"
    inputs = {
        "process": ["--manifest", str(manifest), "--out", str(out)],
        "extract": ["--in", entry["audio"], "--out", str(out)],
        "pitch": ["--in", entry["audio"], "--csv", str(out)],
    }
    with pytest.raises(SystemExit) as excinfo:
        main([command, *inputs[command], flag, value])
    assert excinfo.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_is_a_clean_failure(tmp_path, capsys, monkeypatch):
    # numpy's own allocation failure (its private _ArrayMemoryError) fails
    # like any other input: it is named MemoryError, with no traceback.
    real_read_wav = f0warp.cli.read_wav

    def read_wav(path, source_id=None):
        if str(path).endswith("big.wav"):
            np.empty(1 << 60, np.uint8)
        return real_read_wav(path, source_id)

    monkeypatch.setattr(f0warp.cli, "read_wav", read_wav)
    monkeypatch.setattr(f0warp.pipeline, "read_wav", read_wav)
    (entry,) = make_wav_dataset(tmp_path, (120.0,))
    big = str(tmp_path / "big.wav")

    out = tmp_path / "big.mwf"
    assert main(["extract", "--in", big, "--out", str(out)]) == EXIT_FATAL
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("f0warp: MemoryError: Unable to allocate")
    assert not out.exists()

    # In a batch, that utterance is reported under the same name.
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [entry, {"id": "big", "audio": big}])
    arch = tmp_path / "arch"
    assert main(["process", "--manifest", str(manifest), "--out", str(arch)]) == EXIT_PARTIAL
    (failure,) = map(json.loads, (arch / "report.jsonl").read_text().splitlines())
    assert (failure["id"], failure["error"]) == ("big", "MemoryError")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth-harmonic", "synth-vowel"])
def test_synthesis_out_of_memory_is_a_clean_failure(tmp_path, capsys, monkeypatch,
                                                    command):
    # A synthesized utterance that reads cleanly but whose pitch analysis
    # runs out of memory fails like any other input: exit 1, one line
    # naming MemoryError, no traceback and no matrix.
    synthesize = {
        "synth-harmonic": lambda: synth_harmonic(100.0, 0.5),
        "synth-vowel": lambda: synth_vowel(VowelSpec(
            f0=106.0, formants=(730.0, 1090.0, 2440.0),
            bandwidths=(60.0, 90.0, 120.0), duration=0.3)),
    }
    wav = tmp_path / "in.wav"
    write_wav(wav, synthesize[command]())

    def detect_pitch(buffer, cfg):
        np.empty(1 << 60, np.uint8)

    monkeypatch.setattr(f0warp.pipeline, "detect_pitch", detect_pitch)
    out = tmp_path / "big.mwf"
    assert main(["extract", "--in", str(wav), "--out", str(out), "--normalize"]) == EXIT_FATAL
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("f0warp: MemoryError: Unable to allocate")
    assert not out.exists()


def test_pitch_outputs_csv_and_summary(tmp_path, wav, capsys):
    csv_path = tmp_path / "frames.csv"
    code = main(["pitch", "--in", str(wav), "--csv", str(csv_path), "--pitch-shift", "0.01"])
    assert code == EXIT_OK
    summary = _last_json(capsys)
    assert summary["voiced_count"] > 90
    assert abs(summary["f0_utt"] - 100.0) < 2.0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time,f0,periodicity"
    assert len(lines) == 98  # header + 97 frames


PITCH_GOLDEN_CSV = """\
time,f0,periodicity
0.0200,160.5019,0.989791
0.0300,160.0853,0.999800
0.0400,160.0101,0.999995
0.0500,160.0086,1.000000
0.0600,160.0074,1.000000
0.0700,160.0051,1.000000
0.0800,160.0070,1.000000
0.0900,160.0096,1.000000
0.1000,160.0106,1.000000
0.1100,160.0076,1.000000
0.1200,160.0051,1.000000
0.1300,160.0070,1.000000
0.1400,160.0096,1.000000
0.1500,160.0106,1.000000
0.1600,160.0076,1.000000
0.1700,160.0051,1.000000
0.1800,160.0070,1.000000
0.1900,160.0096,1.000000
0.2000,488.6929,0.819966
0.2100,489.3288,0.791630
0.2200,,0.000000
0.2300,,0.000000
"""
# The hard-cut frames at 0.20 and 0.21 s read about 3x f0; the median
# trims them, so it is the lower median of the 18 frames at 160 Hz.
PITCH_GOLDEN_SUMMARY = (
    '{"source_id": "vowel", "frames": 22, "voiced_count": 20, '
    '"f0_utt": 160.00756374871588, "fallback_used": false}\n'
)
# At the default 20 ms hop: the 10 ms golden's even-numbered rows.
PITCH_HEADER, *PITCH_ROWS = PITCH_GOLDEN_CSV.splitlines(keepends=True)
PITCH_DEFAULT_CSV = PITCH_HEADER + "".join(PITCH_ROWS[::2])
PITCH_DEFAULT_SUMMARY = (
    '{"source_id": "vowel", "frames": 11, "voiced_count": 10, '
    '"f0_utt": 160.00756374871588, "fallback_used": false}\n'
)


def test_pitch_csv_and_summary_are_golden(tmp_path, capsys):
    # A 0.2 s vowel at 160 Hz, then 50 ms of digital silence: voiced and
    # unvoiced rows.  Both outputs are pinned byte for byte, to files and
    # to stdout/stderr, for the 10 ms contour and at the default hop.
    spec = VowelSpec(f0=160.0, formants=(500.0, 1500.0, 2500.0),
                     bandwidths=(60.0, 90.0, 150.0), duration=0.2)
    wav_path = tmp_path / "vowel.wav"
    samples = np.concatenate([synth_vowel(spec).samples, np.zeros(800)])
    write_wav(wav_path, AudioBuffer(samples))
    csv_path, summary_path = tmp_path / "f.csv", tmp_path / "s.json"
    for flags, csv, summary in [
        (["--pitch-shift", "0.01"], PITCH_GOLDEN_CSV, PITCH_GOLDEN_SUMMARY),
        ([], PITCH_DEFAULT_CSV, PITCH_DEFAULT_SUMMARY),
    ]:
        assert main(["pitch", "--in", str(wav_path), "--csv", str(csv_path),
                     "--summary", str(summary_path), *flags]) == EXIT_OK
        assert csv_path.read_bytes() == csv.encode()
        assert summary_path.read_bytes() == summary.encode()
        capsys.readouterr()
        assert main(["pitch", "--in", str(wav_path), *flags]) == EXIT_OK
        out, err = capsys.readouterr()
        assert (out, err) == (csv, summary)


def test_pitch_on_silence_reports_fallback(tmp_path, capsys):
    wav_path = tmp_path / "sil.wav"
    write_wav(wav_path, AudioBuffer(np.zeros(16000)))
    code = main(["pitch", "--in", str(wav_path), "--csv", str(tmp_path / "c.csv")])
    assert code == EXIT_OK
    summary = _last_json(capsys)
    assert summary["voiced_count"] == 0
    assert summary["fallback_used"]


def test_extract_normalize_forces_warped_ceiling(tmp_path, wav, capsys):
    out = tmp_path / "a.mwf"
    code = main(["extract", "--in", str(wav), "--out", str(out), "--normalize"])
    assert code == EXIT_OK
    info = _last_json(capsys)
    assert info["hi_freq"] == 6200.0
    assert info["frames"] == 98
    assert info["dims"] == 13
    assert abs(info["delta_mel"]) < 1.0  # utterance is already near 100 Hz
    assert read_matrix(out).shape == (98, 13)


def test_extract_baseline_uses_8k(tmp_path, wav, capsys):
    out = tmp_path / "a.mwf"
    assert main(["extract", "--in", str(wav), "--out", str(out)]) == EXIT_OK
    assert _last_json(capsys)["hi_freq"] == 8000.0


def test_hi_freq_8000_with_normalize_is_usage_error(tmp_path, wav, capsys):
    code = main(["extract", "--in", str(wav), "--out", str(tmp_path / "x.mwf"),
                 "--normalize", "--hi-freq", "8000"])
    assert code == EXIT_USAGE
    assert "6200" in capsys.readouterr().err


def _warped_run(tmp_path, wav, command, hi_freq):
    if command == "extract":
        args = ["extract", "--in", str(wav), "--out", str(tmp_path / "x.mwf")]
    else:
        manifest = tmp_path / "m.jsonl"
        write_manifest(manifest, [{"id": "a", "audio": str(wav)}])
        args = ["process", "--manifest", str(manifest),
                "--out", str(tmp_path / "arch")]
    return main(args + ["--normalize", "--hi-freq", hi_freq])


@pytest.mark.parametrize("command", ["extract", "process"])
@pytest.mark.parametrize("hi_freq", ["7500", "7990"])
def test_warped_ceiling_past_shift_headroom_is_usage_error(
    tmp_path, wav, capsys, command, hi_freq
):
    # A +250 Mel shift of a ceiling above ~6269 Hz reads past Nyquist.
    assert _warped_run(tmp_path, wav, command, hi_freq) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--hi-freq {hi_freq}" in err
    assert "6269" in err


@pytest.mark.parametrize("command", ["extract", "process"])
def test_negative_warped_ceiling_is_usage_error(tmp_path, wav, capsys, command):
    assert _warped_run(tmp_path, wav, command, "-5") == EXIT_USAGE
    assert capsys.readouterr().err == "f0warp: error: need 0 <= --lo-freq < --hi-freq\n"


@pytest.mark.parametrize("command", ["extract", "process"])
def test_warped_ceiling_6200_accepted(tmp_path, wav, capsys, command):
    assert _warped_run(tmp_path, wav, command, "6200") == EXIT_OK


def test_hi_freq_8000_accepted_without_warping(tmp_path, wav, capsys):
    out = tmp_path / "a.mwf"
    assert main(["extract", "--in", str(wav), "--out", str(out),
                 "--hi-freq", "8000"]) == EXIT_OK
    assert _last_json(capsys)["hi_freq"] == 8000.0


def test_extract_log_mel_outputs_filterbank_dims(tmp_path, wav, capsys):
    out = tmp_path / "a.mwf"
    assert main(["extract", "--in", str(wav), "--out", str(out),
                 "--feature-kind", "log-mel"]) == EXIT_OK
    assert _last_json(capsys)["dims"] == 23


def test_missing_input_is_fatal(tmp_path, capsys):
    code = main(["extract", "--in", str(tmp_path / "nope.wav"),
                 "--out", str(tmp_path / "x.mwf")])
    assert code == EXIT_FATAL


def test_process_end_to_end(tmp_path, capsys):
    entries = make_wav_dataset(tmp_path, (95.0, 240.0))
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, entries)
    out_dir = tmp_path / "arch"
    code = main([
        "process", "--manifest", str(manifest), "--out", str(out_dir),
        "--normalize",
        "--augment-shifts", "0,20,-20,40,-40,60,-60",
    ])
    assert code == EXIT_OK
    info = _last_json(capsys)
    assert info["records"] == 14
    assert info["variants_per_utterance"] == 7
    assert (out_dir / "index.jsonl").exists()


def test_process_reads_a_manifest_saved_with_a_bom(tmp_path, capsys):
    # Editors on Windows often save UTF-8 with a byte-order mark; it is not
    # part of the first line's JSON.
    plain = tmp_path / "m.jsonl"
    write_manifest(plain, make_wav_dataset(tmp_path, (95.0, 240.0)))
    bom = tmp_path / "bom.jsonl"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for manifest in (plain, bom):
        code = main(["process", "--manifest", str(manifest), "--out",
                     str(tmp_path / manifest.stem), "--normalize", "--augment-shifts", "0,20"])
        assert code == EXIT_OK, manifest.name
    assert _last_json(capsys)["records"] == 4
    assert archive_contents(tmp_path / "bom") == archive_contents(tmp_path / "m")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_process_rejects_nonpositive_workers(tmp_path, capsys, workers):
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, make_wav_dataset(tmp_path, (95.0,)))
    with pytest.raises(SystemExit) as excinfo:
        main(["process", "--manifest", str(manifest), "--out", str(tmp_path / "arch"),
              "--workers", workers])
    assert excinfo.value.code == EXIT_USAGE
    assert "positive integer" in capsys.readouterr().err
    assert not (tmp_path / "arch").exists()


def test_process_partial_failure_exits_2(tmp_path, capsys):
    # A failed utterance never stops the batch: the archive is whole (every
    # matrix file is indexed, so export-ark can read it), the failure is in
    # report.jsonl, and the exit code is 2 even when nothing succeeded.
    entries = make_wav_dataset(tmp_path, (95.0,))
    entries.append({"id": "ghost", "audio": str(tmp_path / "ghost.wav")})
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, entries)
    arch = tmp_path / "arch"
    code = main(["process", "--manifest", str(manifest), "--out", str(arch),
                 "--augment-shifts", "0,20,-20"])
    assert code == EXIT_PARTIAL
    assert _last_json(capsys)["failures"] == 1
    index = read_archive_index(arch)
    assert [(r["id"], r["shift_mel"]) for r in index] == [
        ("utt00", -20.0), ("utt00", 0.0), ("utt00", 20.0)]
    assert sorted(p.name for p in arch.glob("*.mwf")) == sorted(r["path"] for r in index)
    (failure,) = [json.loads(line) for line in (arch / "report.jsonl").read_text().splitlines()]
    assert (failure["id"], failure["error"]) == ("ghost", "FileNotFoundError")

    write_manifest(manifest, [{"id": name, "audio": str(tmp_path / f"{name}.wav")}
                              for name in ("ghost", "phantom")])
    arch = tmp_path / "none"
    assert main(["process", "--manifest", str(manifest), "--out", str(arch)]) == EXIT_PARTIAL
    assert (arch / "index.jsonl").read_text() == ""
    report = [json.loads(line) for line in (arch / "report.jsonl").read_text().splitlines()]
    assert [f["id"] for f in report] == ["ghost", "phantom"]


def test_export_ark_and_inspect(tmp_path, capsys):
    entries = make_wav_dataset(tmp_path, (110.0,))
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, entries)
    out_dir = tmp_path / "arch"
    assert main(["process", "--manifest", str(manifest),
                 "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()

    ark = tmp_path / "feats.ark"
    assert main(["export-ark", "--archive", str(out_dir),
                 "--out", str(ark)]) == EXIT_OK
    assert _last_json(capsys)["utterances"] == 1
    assert ark.read_text().splitlines()[0].endswith("[")

    matrix_path = next(out_dir.glob("*.mwf"))
    assert main(["inspect", "--in", str(matrix_path)]) == EXIT_OK
    info = _last_json(capsys)
    assert info["dims"] == 13
    assert info["min"] <= info["mean"] <= info["max"]


def test_cli_imports_nothing_heavy_beyond_numpy(tmp_path):
    """Loading the CLI adds only standard-library modules to what numpy
    already loads, and running every subcommand loads no scipy module
    either: numpy is the package's only runtime dependency, and scipy
    serves only as the tests' oracle.  So a new third-party import, or a
    lazy one that start-up time would not show, cannot grow the cost of a
    run unnoticed.  Which stdlib modules appear varies with the Python and
    numpy versions, so only their origin is checked."""
    wav = tmp_path / "a.wav"
    write_wav(wav, synth_harmonic(180.0, 0.5))
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [{"id": "a", "audio": str(wav)}])
    arch = str(tmp_path / "arch")
    runs = [
        ["process", "--manifest", str(manifest), "--out", arch, "--normalize"],
        ["extract", "--in", str(wav), "--out", str(tmp_path / "a.mwf"), "--normalize"],
        ["extract", "--in", str(wav), "--out", str(tmp_path / "b.mwf"),
         "--feature-kind", "log-mel"],
        ["pitch", "--in", str(wav), "--csv", str(tmp_path / "a.csv")],
        ["inspect", "--in", str(tmp_path / "a.mwf")],
        ["export-ark", "--archive", arch, "--out", str(tmp_path / "a.ark")],
    ]
    probe = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import f0warp.cli\n"
        "added = sorted(set(sys.modules) - before)\n"
        f"codes = [f0warp.cli.main(args) for args in {runs!r}]\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([added, codes, scipy]))\n"
    )
    src = str(Path(f0warp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True,
    )
    added, codes, scipy = json.loads(done.stdout.splitlines()[-1])
    assert {name.split(".")[0] for name in added} - {"f0warp"} <= set(
        sys.stdlib_module_names
    )
    assert codes == [EXIT_OK] * len(runs)
    assert scipy == []

import json

import numpy as np
import pytest

from f0warp import (
    FeatureConfig,
    PitchConfig,
    read_matrix,
    synth_harmonic,
    write_wav,
)
from f0warp.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, build_parser, main
from tests.conftest import make_wav_dataset, write_manifest

TOP_LEVEL_HELP = """\
usage: f0warp [-h] COMMAND ...

Pitch-adaptive Mel features: estimate per-utterance f0, normalize or perturb
it as a Mel-domain shift, and batch datasets into feature archives.

positional arguments:
  COMMAND
    pitch         per-frame f0 as CSV plus a median summary
    extract       MFCC matrix for one utterance
    fbank         log-Mel matrix for one utterance
    process       batch a manifest into a feature archive
    export-ark    export an archive as a text table
    inspect       print a matrix file's header and stats
    synth-harmonic
                  write a harmonic-train WAV
    synth-vowel   write a source-filter vowel WAV
    demo-fig1     alignment demo: low/high-pitched vowel distances with and
                  without f0 normalization

options:
  -h, --help      show this help message and exit
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
        "dft_size": feature_defaults.dft_size,
        "num_filters": feature_defaults.num_filters,
        "lo_freq": feature_defaults.lo_freq,
        "num_ceps": feature_defaults.num_ceps,
        "preemphasis": feature_defaults.preemphasis,
        "log_floor": feature_defaults.log_floor,
        "f0_min": pitch_defaults.f0_min,
        "f0_max": pitch_defaults.f0_max,
        "voicing_threshold": pitch_defaults.voicing_threshold,
        "pitch_window": pitch_defaults.window,
        "pitch_shift": pitch_defaults.shift,
    }
    for dest, expected in expectations.items():
        assert sub.get_default(dest) == expected, dest


def test_synth_harmonic_writes_wav(tmp_path, capsys):
    out = tmp_path / "h.wav"
    code = main(["synth-harmonic", "--f0", "100", "--duration", "0.5",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert _last_json(capsys)["samples"] == 8000
    assert out.exists()


def test_synth_vowel_writes_wav(tmp_path, capsys):
    out = tmp_path / "v.wav"
    code = main(["synth-vowel", "--f0", "106", "--duration", "0.3",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert out.exists()


def test_pitch_outputs_csv_and_summary(tmp_path, wav, capsys):
    csv_path = tmp_path / "frames.csv"
    code = main(["pitch", "--in", str(wav), "--csv", str(csv_path)])
    assert code == EXIT_OK
    summary = _last_json(capsys)
    assert summary["voiced_count"] > 90
    assert abs(summary["f0_utt"] - 100.0) < 2.0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "time,f0,periodicity"
    assert len(lines) == 98  # header + 97 frames


def test_pitch_on_silence_reports_fallback(tmp_path, capsys):
    wav_path = tmp_path / "sil.wav"
    from f0warp import AudioBuffer

    write_wav(wav_path, AudioBuffer(np.zeros(16000), 16000))
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
def test_warped_ceiling_6200_accepted(tmp_path, wav, capsys, command):
    assert _warped_run(tmp_path, wav, command, "6200") == EXIT_OK


def test_hi_freq_8000_accepted_without_warping(tmp_path, wav, capsys):
    out = tmp_path / "a.mwf"
    assert main(["extract", "--in", str(wav), "--out", str(out),
                 "--hi-freq", "8000"]) == EXIT_OK
    assert _last_json(capsys)["hi_freq"] == 8000.0


def test_fbank_outputs_filterbank_dims(tmp_path, wav, capsys):
    out = tmp_path / "a.mwf"
    assert main(["fbank", "--in", str(wav), "--out", str(out)]) == EXIT_OK
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
    entries = make_wav_dataset(tmp_path, (95.0,))
    entries.append({"id": "ghost", "audio": str(tmp_path / "ghost.wav")})
    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, entries)
    code = main(["process", "--manifest", str(manifest),
                 "--out", str(tmp_path / "arch")])
    assert code == EXIT_PARTIAL
    assert _last_json(capsys)["failures"] == 1


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


def test_demo_fig1_reports_smaller_normalized_distance(capsys):
    code = main(["demo-fig1", "--duration", "0.5"])
    assert code == EXIT_OK
    info = _last_json(capsys)
    assert info["normalized_distance"] < info["unnormalized_distance"]
    assert 0 < info["ratio"] < 1

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import f0warp
from f0warp import (
    FeatureConfig,
    PitchConfig,
    read_archive_index,
    read_matrix,
    synth_harmonic,
    write_wav,
)
from f0warp.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    PITCH_FLAGS,
    _config,
    _feature_config,
    build_parser,
    main,
)
from f0warp.melwarp import MFCC
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


# Every config flag, the field it sets and a value other than the default.
# Written out here, not read from the CLI's tables, so a wrong table entry
# shows up as a failure.
CONFIG_FLAG_CASES = [
    ("--window", FeatureConfig, "window", 0.032),
    ("--hop", FeatureConfig, "hop", 0.02),
    ("--dft-size", FeatureConfig, "dft_size", 1024),
    ("--num-filters", FeatureConfig, "num_filters", 30),
    ("--lo-freq", FeatureConfig, "lo_freq", 60.0),
    ("--num-ceps", FeatureConfig, "num_ceps", 20),
    ("--preemphasis", FeatureConfig, "preemphasis", 0.9),
    ("--log-floor", FeatureConfig, "log_floor", 1e-8),
    ("--f0-min", PitchConfig, "f0_min", 60.0),
    ("--f0-max", PitchConfig, "f0_max", 400.0),
    ("--voicing-threshold", PitchConfig, "voicing_threshold", 0.4),
    ("--pitch-window", PitchConfig, "window", 0.05),
    ("--pitch-shift", PitchConfig, "shift", 0.02),
]


@pytest.mark.parametrize("command", ["extract", "process"])
@pytest.mark.parametrize("flag, cls, field, value", CONFIG_FLAG_CASES)
def test_config_flag_reaches_its_field(command, flag, cls, field, value):
    required = {
        "extract": ["--in", "a.wav", "--out", "a.mwf"],
        "process": ["--manifest", "m.jsonl", "--out", "arch"],
    }[command]
    args = build_parser().parse_args([command, *required, flag, str(value)])
    if cls is FeatureConfig:
        cfg = _feature_config(args, True, MFCC)
    else:
        cfg = _config(PitchConfig, PITCH_FLAGS, args)
    assert getattr(cfg, field) == value


@pytest.mark.parametrize("command", ["extract", "fbank"])
@pytest.mark.parametrize("normalize", [True, False])
def test_single_utterance_commands_match_batch(tmp_path, capsys, command, normalize):
    wav = tmp_path / "a.wav"
    write_wav(wav, synth_harmonic(160.0, 0.5))
    flags = ["--normalize"] if normalize else []
    out = tmp_path / "a.mwf"
    assert main([command, "--in", str(wav), "--out", str(out)] + flags) == EXIT_OK
    single = _last_json(capsys)

    manifest = tmp_path / "m.jsonl"
    write_manifest(manifest, [{"id": "a", "audio": str(wav)}])
    kind = "mfcc" if command == "extract" else "log-mel"
    assert main(["process", "--manifest", str(manifest), "--out", str(tmp_path / "arch"),
                 "--feature-kind", kind] + flags) == EXIT_OK
    (record,) = read_archive_index(tmp_path / "arch")
    assert record["path"] == "a_s+0.mwf"
    assert out.read_bytes() == (tmp_path / "arch" / record["path"]).read_bytes()
    for key in ("f0_utt", "f0_def", "delta_mel", "clamped", "fallback_used"):
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


def test_cli_imports_nothing_heavy_beyond_numpy(tmp_path):
    """Loading the CLI adds only standard-library modules to what numpy
    already loads, and running `process --normalize`, `extract` and `pitch`
    loads no scipy module either (scipy serves the synthesis commands
    only).  So a new third-party import, or a lazy one that start-up time
    would not show, cannot grow the cost of a run unnoticed.  Which stdlib
    modules appear varies with the Python and numpy versions, so only
    their origin is checked."""
    wav = tmp_path / "a.wav"
    write_wav(wav, synth_harmonic(180.0, 0.5))
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(manifest, [{"id": "a", "audio": str(wav)}])
    runs = [
        ["process", "--manifest", str(manifest), "--out", str(tmp_path / "arch"),
         "--normalize"],
        ["extract", "--in", str(wav), "--out", str(tmp_path / "a.mwf"), "--normalize"],
        ["pitch", "--in", str(wav), "--csv", str(tmp_path / "a.csv")],
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
    assert codes == [EXIT_OK] * 3
    assert scipy == []

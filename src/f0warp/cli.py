"""Command-line entry point: one executable, one subcommand per task."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .audio_io import REQUIRED_SAMPLE_RATE, AudioIOError, read_wav, write_wav
from .augment import DEFAULT_BASE_F0_DEF, make_plan
from .melwarp import (
    BASELINE_HI_FREQ,
    LOG_MEL,
    MAX_ABS_SHIFT_MEL,
    MFCC,
    WARPED_HI_FREQ,
    FeatureConfig,
    hz_to_mel,
    mel_to_hz,
)
from .pipeline import (
    export_text_archive,
    process_dataset,
    read_manifest,
    read_matrix,
    utterance_variants,
    write_matrix,
)
from .pitch import PitchConfig, detect_pitch, median_f0
from .synthkit import VowelSpec, shift_vowel_for_f0, synth_harmonic, synth_vowel

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


# (flag, config field, help) of each option that sets one config field; the
# type and the default come from the config class itself.
FEATURE_FLAGS = (
    ("--window", "window", "analysis window in seconds"),
    ("--hop", "hop", "frame shift in seconds"),
    ("--dft-size", "dft_size", "DFT length"),
    ("--num-filters", "num_filters", "number of Mel filters"),
    ("--lo-freq", "lo_freq", "filterbank floor in Hz"),
    ("--num-ceps", "num_ceps", "cepstral coefficients to keep"),
    ("--preemphasis", "preemphasis", "pre-emphasis coefficient"),
    ("--log-floor", "log_floor", "energy floor before the log"),
)
PITCH_FLAGS = (
    ("--f0-min", "f0_min", "lowest f0 searched in Hz"),
    ("--f0-max", "f0_max", "highest f0 searched in Hz"),
    ("--voicing-threshold", "voicing_threshold",
     "periodicity needed to call a frame voiced"),
    ("--pitch-window", "window", "pitch analysis window in seconds"),
    ("--pitch-shift", "shift", "pitch frame shift in seconds"),
)


def _add_config_flags(parser, title: str, defaults, flags):
    group = parser.add_argument_group(title)
    for flag, field, helptext in flags:
        default = getattr(defaults, field)
        group.add_argument(flag, type=type(default), default=default,
                           help=f"{helptext} (default: %(default)g)")
    return group


def _add_feature_flags(parser):
    group = _add_config_flags(parser, "feature options", FeatureConfig(), FEATURE_FLAGS)
    group.add_argument("--hi-freq", type=float, default=None,
                       help=f"filterbank ceiling in Hz (default: {BASELINE_HI_FREQ:g},"
                            f" or {WARPED_HI_FREQ:g} whenever warping is enabled)")


def _add_f0_def(parser, helptext: str):
    parser.add_argument("--f0-def", type=float, default=DEFAULT_BASE_F0_DEF,
                        help=f"{helptext} (default: %(default)g)")


def _config(cls, flags, args, **fields):
    """``cls`` built from the parsed values of ``flags`` plus ``fields``."""
    values = {field: getattr(args, flag[2:].replace("-", "_"))
              for flag, field, _ in flags}
    try:
        return cls(**values, **fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _feature_config(args, warped: bool, kind: str) -> FeatureConfig:
    hi = args.hi_freq
    nyquist_mel = hz_to_mel(REQUIRED_SAMPLE_RATE / 2)
    if hi is None:
        hi = WARPED_HI_FREQ if warped else BASELINE_HI_FREQ
    elif warped and hz_to_mel(hi) + MAX_ABS_SHIFT_MEL > nyquist_mel:
        limit = int(mel_to_hz(nyquist_mel - MAX_ABS_SHIFT_MEL))
        raise UsageError(
            f"--hi-freq {hi:g} conflicts with warped extraction: a shift of"
            f" {MAX_ABS_SHIFT_MEL:g} Mels would push the top filter past Nyquist,"
            f" so warped ceilings must be at or below {limit} Hz (leave --hi-freq"
            f" unset for {WARPED_HI_FREQ:g} Hz)"
        )
    return _config(FeatureConfig, FEATURE_FLAGS, args, hi_freq=hi, feature_kind=kind)


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_pitch(args) -> int:
    buffer = read_wav(args.infile)
    track = detect_pitch(buffer, _config(PitchConfig, PITCH_FLAGS, args))
    summary_target = median_f0(track, args.f0_def)

    lines = ["time,f0,periodicity"]
    for frame in track.frames:
        f0 = f"{frame.f0:.4f}" if frame.f0 is not None else ""
        lines.append(f"{frame.time:.4f},{f0},{frame.periodicity:.6f}")
    csv_text = "\n".join(lines) + "\n"

    summary = {
        "source_id": buffer.source_id,
        "frames": len(track.frames),
        "voiced_count": summary_target.voiced_count,
        "f0_utt": summary_target.f0_utt,
        "fallback_used": summary_target.fallback_used,
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
            handle.write("\n")
    elif args.csv:
        _emit(summary)
    else:
        print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def _extract_like(args, kind: str) -> int:
    plan = make_plan(args.f0_def, (0.0,))
    cfg = _feature_config(args, warped=args.normalize, kind=kind)
    pitch_cfg = _config(PitchConfig, PITCH_FLAGS, args)
    buffer = read_wav(args.infile)
    (matrix,) = utterance_variants(buffer, cfg, plan, args.normalize, pitch_cfg)
    write_matrix(args.out, matrix.values)
    _emit(
        {
            "out": str(args.out),
            "frames": matrix.num_frames,
            "dims": matrix.dims,
            "feature_kind": kind,
            "hi_freq": cfg.hi_freq,
            "f0_utt": matrix.warp.f0_utt,
            "f0_def": matrix.warp.f0_def,
            "delta_mel": matrix.warp.delta_mel,
            "clamped": matrix.warp.clamped,
            "fallback_used": matrix.fallback_used,
        }
    )
    return EXIT_OK


def cmd_extract(args) -> int:
    return _extract_like(args, MFCC)


def cmd_fbank(args) -> int:
    return _extract_like(args, LOG_MEL)


def cmd_process(args) -> int:
    plan = make_plan(args.f0_def, args.augment_shifts)
    warped = args.normalize or any(s != 0.0 for s in plan.shifts_mel)
    cfg = _feature_config(args, warped=warped, kind=args.feature_kind)
    entries = read_manifest(args.manifest)
    result = process_dataset(
        entries,
        args.out,
        cfg=cfg,
        plan=plan,
        normalize=args.normalize,
        pitch_cfg=_config(PitchConfig, PITCH_FLAGS, args),
        strict=args.strict,
        workers=args.workers,
    )
    _emit(
        {
            "out": str(result.out_dir),
            "utterances": len(entries),
            "variants_per_utterance": len(plan),
            "records": len(result.records),
            "failures": len(result.failures),
        }
    )
    return EXIT_OK if result.fully_succeeded else EXIT_PARTIAL


def cmd_export_ark(args) -> int:
    count = export_text_archive(args.archive, args.out)
    _emit({"out": str(args.out), "utterances": count})
    return EXIT_OK


def cmd_inspect(args) -> int:
    matrix = read_matrix(args.infile)
    _emit(
        {
            "path": str(args.infile),
            "frames": int(matrix.shape[0]),
            "dims": int(matrix.shape[1]),
            "min": float(matrix.min()) if matrix.size else None,
            "max": float(matrix.max()) if matrix.size else None,
            "mean": float(matrix.mean()) if matrix.size else None,
        }
    )
    return EXIT_OK


def cmd_synth_harmonic(args) -> int:
    buffer = synth_harmonic(args.f0, args.duration, args.amplitude)
    write_wav(args.out, buffer)
    _emit({"out": str(args.out), "samples": len(buffer), "sample_rate": buffer.sample_rate})
    return EXIT_OK


def cmd_synth_vowel(args) -> int:
    spec = VowelSpec(
        f0=args.f0,
        formants=tuple(args.formants),
        bandwidths=tuple(args.bandwidths),
        duration=args.duration,
        amplitude=args.amplitude,
    )
    buffer = synth_vowel(spec)
    write_wav(args.out, buffer)
    _emit({"out": str(args.out), "samples": len(buffer), "sample_rate": buffer.sample_rate})
    return EXIT_OK


def cmd_demo_fig1(args) -> int:
    """Alignment demo: log-Mel outputs of a low- and a high-pitched vowel
    with and without f0 normalization (15 filters, 20 Hz to 6 kHz)."""
    reference = VowelSpec(
        f0=106.0,
        formants=(300.0, 2300.0, 3000.0),
        bandwidths=(60.0, 100.0, 120.0),
        duration=args.duration,
        amplitude=0.9,
    )
    shifted = shift_vowel_for_f0(reference, 270.0)
    cfg = FeatureConfig(num_filters=15, hi_freq=6000.0, feature_kind=LOG_MEL)
    plan = make_plan(args.f0_def, (0.0,))
    pitch_cfg = _config(PitchConfig, PITCH_FLAGS, args)
    buffers = [synth_vowel(reference), synth_vowel(shifted)]
    plain = [utterance_variants(b, cfg, plan, False, pitch_cfg)[0] for b in buffers]
    warped = [utterance_variants(b, cfg, plan, True, pitch_cfg)[0] for b in buffers]

    def mean_frame_distance(a, b):
        return float(np.mean(np.linalg.norm(a.values - b.values, axis=1)))

    unnormalized = mean_frame_distance(plain[0], plain[1])
    normalized = mean_frame_distance(warped[0], warped[1])
    _emit(
        {
            "f0_detected": [m.warp.f0_utt for m in warped],
            "unnormalized_distance": unnormalized,
            "normalized_distance": normalized,
            "ratio": normalized / unnormalized if unnormalized else None,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="f0warp",
        description="Pitch-adaptive Mel features: estimate per-utterance f0, "
                    "normalize or perturb it as a Mel-domain shift, and batch "
                    "datasets into feature archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("pitch", help="per-frame f0 as CSV plus a median summary")
    p.add_argument("--in", dest="infile", required=True, help="input WAV file")
    p.add_argument("--csv", default=None, help="write the CSV here instead of stdout")
    p.add_argument("--summary", default=None, help="write the JSON summary here")
    _add_f0_def(p, "fallback f0 when no frame is voiced")
    _add_config_flags(p, "pitch options", PitchConfig(), PITCH_FLAGS)
    p.set_defaults(func=cmd_pitch)

    for name, helptext in (
        ("extract", "MFCC matrix for one utterance"),
        ("fbank", "log-Mel matrix for one utterance"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--in", dest="infile", required=True, help="input WAV file")
        p.add_argument("--out", required=True, help="output matrix file")
        p.add_argument("--normalize", action="store_true",
                       help="warp by the detected median f0")
        _add_f0_def(p, "target f0 in Hz")
        _add_feature_flags(p)
        _add_config_flags(p, "pitch options", PitchConfig(), PITCH_FLAGS)
        p.set_defaults(func=cmd_extract if name == "extract" else cmd_fbank)

    p = sub.add_parser("process", help="batch a manifest into a feature archive")
    p.add_argument("--manifest", required=True, help="JSON-lines manifest")
    p.add_argument("--out", required=True, help="archive directory")
    p.add_argument("--normalize", action="store_true",
                   help="warp each utterance by its detected median f0")
    p.add_argument("--augment-shifts", type=_float_list, default=(0.0,),
                   help="comma-separated Mel shifts, e.g. 0,20,-20,40,-40,60,-60"
                        " (default: 0, meaning no fan-out)")
    _add_f0_def(p, "base target f0 in Hz")
    p.add_argument("--feature-kind", choices=(MFCC, LOG_MEL), default=MFCC,
                   help="matrix contents (default: mfcc)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first failed utterance")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker threads (default: cpu count, at most 8)")
    _add_feature_flags(p)
    _add_config_flags(p, "pitch options", PitchConfig(), PITCH_FLAGS)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("export-ark", help="export an archive as a text table")
    p.add_argument("--archive", required=True, help="archive directory")
    p.add_argument("--out", required=True, help="output text file")
    p.set_defaults(func=cmd_export_ark)

    p = sub.add_parser("inspect", help="print a matrix file's header and stats")
    p.add_argument("--in", dest="infile", required=True, help="matrix file")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("synth-harmonic", help="write a harmonic-train WAV")
    p.add_argument("--f0", type=float, required=True, help="fundamental in Hz")
    p.add_argument("--duration", type=float, default=1.0,
                   help="length in seconds (default: 1.0)")
    p.add_argument("--amplitude", type=float, default=0.9,
                   help="peak amplitude (default: 0.9)")
    p.add_argument("--out", required=True, help="output WAV file")
    p.set_defaults(func=cmd_synth_harmonic)

    p = sub.add_parser("synth-vowel", help="write a source-filter vowel WAV")
    p.add_argument("--f0", type=float, required=True, help="fundamental in Hz")
    p.add_argument("--formants", type=_float_list, default=(300.0, 2300.0, 3000.0),
                   help="F1,F2,F3 in Hz (default: 300,2300,3000)")
    p.add_argument("--bandwidths", type=_float_list, default=(60.0, 100.0, 120.0),
                   help="B1,B2,B3 in Hz (default: 60,100,120)")
    p.add_argument("--duration", type=float, default=1.0,
                   help="length in seconds (default: 1.0)")
    p.add_argument("--amplitude", type=float, default=0.9,
                   help="peak amplitude (default: 0.9)")
    p.add_argument("--out", required=True, help="output WAV file")
    p.set_defaults(func=cmd_synth_vowel)

    p = sub.add_parser(
        "demo-fig1",
        help="alignment demo: low/high-pitched vowel distances with and"
             " without f0 normalization",
    )
    p.add_argument("--duration", type=float, default=1.0,
                   help="vowel length in seconds (default: 1.0)")
    _add_f0_def(p, "normalization target in Hz")
    _add_config_flags(p, "pitch options", PitchConfig(), PITCH_FLAGS)
    p.set_defaults(func=cmd_demo_fig1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"f0warp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioIOError, ValueError, OSError) as exc:
        print(f"f0warp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())

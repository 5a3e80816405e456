"""Command-line entry point: one executable, one subcommand per task."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .audio_io import REQUIRED_SAMPLE_RATE, AudioIOError, read_wav, write_wav
from .augment import make_plan
from .errors import DomainError, TooShort
from .melwarp import (
    BASELINE_HI_FREQ,
    LOG_MEL,
    MAX_ABS_SHIFT_MEL,
    MFCC,
    WARPED_HI_FREQ,
    EmptyFilter,
    FeatureConfig,
    compute_warp,
    extract_features,
    hz_to_mel,
    identity_warp,
    mel_to_hz,
)
from .pipeline import (
    MatrixFormatError,
    export_text_archive,
    process_dataset,
    read_manifest,
    read_matrix,
    write_matrix,
)
from .pitch import PitchConfig, UtteranceF0, detect_pitch, median_f0
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


def _add_feature_flags(parser):
    group = parser.add_argument_group("feature options")
    group.add_argument("--window", type=float, default=0.025,
                       help="analysis window in seconds (default: 0.025)")
    group.add_argument("--hop", type=float, default=0.010,
                       help="frame shift in seconds (default: 0.010)")
    group.add_argument("--dft-size", type=int, default=512,
                       help="DFT length (default: 512)")
    group.add_argument("--num-filters", type=int, default=23,
                       help="number of Mel filters (default: 23)")
    group.add_argument("--lo-freq", type=float, default=20.0,
                       help="filterbank floor in Hz (default: 20)")
    group.add_argument("--hi-freq", type=float, default=None,
                       help="filterbank ceiling in Hz (default: 8000, or 6200"
                            " whenever warping is enabled)")
    group.add_argument("--num-ceps", type=int, default=13,
                       help="cepstral coefficients to keep (default: 13)")
    group.add_argument("--preemphasis", type=float, default=0.97,
                       help="pre-emphasis coefficient (default: 0.97)")
    group.add_argument("--log-floor", type=float, default=1e-10,
                       help="energy floor before the log (default: 1e-10)")


def _add_pitch_flags(parser):
    group = parser.add_argument_group("pitch options")
    group.add_argument("--f0-min", type=float, default=50.0,
                       help="lowest f0 searched in Hz (default: 50)")
    group.add_argument("--f0-max", type=float, default=500.0,
                       help="highest f0 searched in Hz (default: 500)")
    group.add_argument("--voicing-threshold", type=float, default=0.5,
                       help="periodicity needed to call a frame voiced"
                            " (default: 0.5)")
    group.add_argument("--pitch-window", type=float, default=0.040,
                       help="pitch analysis window in seconds (default: 0.040)")
    group.add_argument("--pitch-shift", type=float, default=0.010,
                       help="pitch frame shift in seconds (default: 0.010)")


def _pitch_config(args) -> PitchConfig:
    try:
        return PitchConfig(
            f0_min=args.f0_min,
            f0_max=args.f0_max,
            voicing_threshold=args.voicing_threshold,
            window=args.pitch_window,
            shift=args.pitch_shift,
        )
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
    try:
        return FeatureConfig(
            window=args.window,
            hop=args.hop,
            dft_size=args.dft_size,
            num_filters=args.num_filters,
            lo_freq=args.lo_freq,
            hi_freq=hi,
            num_ceps=args.num_ceps,
            preemphasis=args.preemphasis,
            log_floor=args.log_floor,
            feature_kind=kind,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_pitch(args) -> int:
    buffer = read_wav(args.infile)
    track = detect_pitch(buffer, _pitch_config(args))
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
    cfg = _feature_config(args, warped=args.normalize, kind=kind)
    buffer = read_wav(args.infile)
    if args.normalize:
        f0 = median_f0(detect_pitch(buffer, _pitch_config(args)), args.f0_def)
    else:
        f0 = UtteranceF0(args.f0_def, 0, False)
    warp = compute_warp(f0.f0_utt, args.f0_def)
    matrix = extract_features(buffer, cfg, warp)
    write_matrix(args.out, matrix.values)
    _emit(
        {
            "out": str(args.out),
            "frames": matrix.num_frames,
            "dims": matrix.dims,
            "feature_kind": kind,
            "hi_freq": cfg.hi_freq,
            "f0_utt": warp.f0_utt,
            "f0_def": warp.f0_def,
            "delta_mel": warp.delta_mel,
            "clamped": warp.clamped,
            "fallback_used": f0.fallback_used,
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
        pitch_cfg=_pitch_config(args),
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
    cfg = FeatureConfig(
        num_filters=15, lo_freq=20.0, hi_freq=6000.0, num_ceps=13,
        feature_kind=LOG_MEL,
    )
    buffers = [synth_vowel(reference), synth_vowel(shifted)]
    plain = [extract_features(b, cfg, identity_warp(args.f0_def)) for b in buffers]
    detected = [
        median_f0(detect_pitch(b, _pitch_config(args)), args.f0_def) for b in buffers
    ]
    warped = [
        extract_features(b, cfg, compute_warp(d.f0_utt, args.f0_def))
        for b, d in zip(buffers, detected)
    ]

    def mean_frame_distance(a, b):
        return float(np.mean(np.linalg.norm(a.values - b.values, axis=1)))

    unnormalized = mean_frame_distance(plain[0], plain[1])
    normalized = mean_frame_distance(warped[0], warped[1])
    _emit(
        {
            "f0_detected": [d.f0_utt for d in detected],
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
    p.add_argument("--f0-def", type=float, default=100.0,
                   help="fallback f0 when no frame is voiced (default: 100)")
    _add_pitch_flags(p)
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
        p.add_argument("--f0-def", type=float, default=100.0,
                       help="target f0 in Hz (default: 100)")
        _add_feature_flags(p)
        _add_pitch_flags(p)
        p.set_defaults(func=cmd_extract if name == "extract" else cmd_fbank)

    p = sub.add_parser("process", help="batch a manifest into a feature archive")
    p.add_argument("--manifest", required=True, help="JSON-lines manifest")
    p.add_argument("--out", required=True, help="archive directory")
    p.add_argument("--normalize", action="store_true",
                   help="warp each utterance by its detected median f0")
    p.add_argument("--augment-shifts", type=_float_list, default=(0.0,),
                   help="comma-separated Mel shifts, e.g. 0,20,-20,40,-40,60,-60"
                        " (default: 0, meaning no fan-out)")
    p.add_argument("--f0-def", type=float, default=100.0,
                   help="base target f0 in Hz (default: 100)")
    p.add_argument("--feature-kind", choices=(MFCC, LOG_MEL), default=MFCC,
                   help="matrix contents (default: mfcc)")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first failed utterance")
    p.add_argument("--workers", type=_positive_int, default=None,
                   help="worker threads (default: cpu count, at most 8)")
    _add_feature_flags(p)
    _add_pitch_flags(p)
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
    p.add_argument("--f0-def", type=float, default=100.0,
                   help="normalization target in Hz (default: 100)")
    _add_pitch_flags(p)
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
    except (
        AudioIOError,
        DomainError,
        TooShort,
        EmptyFilter,
        MatrixFormatError,
        ValueError,
        OSError,
    ) as exc:
        print(f"f0warp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())

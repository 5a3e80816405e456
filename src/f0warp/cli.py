"""Command-line entry point: one executable, one subcommand per task.

Exit codes: 0 when all went well; 1 when a file or an input failed or
memory ran out; 2 when ``process`` failed some utterances but not all of the
batch; 64 when a flag value cannot work, reported before any WAV is opened
or any output made.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .audio_io import AudioIOError, read_wav
from .augment import DEFAULT_BASE_F0_DEF, make_plan
from .melwarp import (
    BASELINE_HI_FREQ,
    LOG_MEL,
    MFCC,
    WARPED_HI_FREQ,
    EmptyFilter,
    FeatureConfig,
    build_filterbank,
    compute_warp,
    filterbank_ceiling,
    warp_bin_mels,
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
    ("--pitch-shift", "shift",
     "pitch frame shift in seconds; only the median reaches the archive,"
     " so the default is 20 ms, and 0.01 gives a 10 ms contour"),
)
# (flag, make_plan argument) of the plan's flags.
F0_DEF_FLAG = (("--f0-def", "base_f0_def"),)
PLAN_FLAGS = F0_DEF_FLAG + (("--augment-shifts", "shifts_mel"),)


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
    group.add_argument("--feature-kind", choices=(MFCC, LOG_MEL), default=MFCC,
                       help="matrix contents (default: mfcc)")


def _add_f0_def(parser, helptext: str):
    parser.add_argument("--f0-def", type=float, default=DEFAULT_BASE_F0_DEF,
                        help=f"{helptext} (default: %(default)g)")


def _config(build, flags, args, **fields):
    """``build`` called with the parsed values of ``flags`` plus ``fields``.
    A ValueError becomes a usage error: the library's message names
    arguments, and each one of ``flags`` is renamed to the flag that sets it."""
    flag_of = {field: flag for flag, field, *_ in flags}
    values = {field: getattr(args, flag[2:].replace("-", "_"))
              for field, flag in flag_of.items()}
    try:
        return build(**values, **fields)
    except ValueError as exc:
        raise UsageError(re.sub(r"\w+", lambda m: flag_of.get(m[0], m[0]), str(exc))) from None


def _settings(args, plan_flags, **plan_fields):
    """(plan, feature config, pitch config) of ``extract`` and ``process``;
    the feature config's ceiling comes from :func:`filterbank_ceiling`.
    Without ``--normalize`` every variant's warp is known from the plan, so
    a filterbank with an empty filter is a usage error here."""
    plan = _config(make_plan, plan_flags, args, **plan_fields)

    def feature_config(hi_freq, **values):
        hi_freq = filterbank_ceiling(hi_freq, args.normalize, plan.shifts_mel)
        return FeatureConfig(hi_freq=hi_freq, **values)

    flags = FEATURE_FLAGS + (("--hi-freq", "hi_freq"), ("--feature-kind", "feature_kind"))
    cfg = _config(feature_config, flags, args)
    if not args.normalize:
        warps = [compute_warp(plan.base_f0_def, f0_def) for f0_def in plan.f0_def_values]
        try:
            build_filterbank(cfg, warp_bin_mels(cfg.dft_size, *warps))
        except EmptyFilter as exc:
            raise UsageError(f"--num-filters {cfg.num_filters} at --dft-size"
                             f" {cfg.dft_size}: {exc}") from None
    return plan, cfg, _config(PitchConfig, PITCH_FLAGS, args)


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_pitch(args) -> int:
    plan = _config(make_plan, F0_DEF_FLAG, args, shifts_mel=(0.0,))
    pitch_cfg = _config(PitchConfig, PITCH_FLAGS, args)
    buffer = read_wav(args.infile)
    track = detect_pitch(buffer, pitch_cfg)
    summary_target = median_f0(track, plan.base_f0_def)

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


def cmd_extract(args) -> int:
    plan, cfg, pitch_cfg = _settings(args, F0_DEF_FLAG, shifts_mel=(0.0,))
    buffer = read_wav(args.infile)
    ((facts, values),) = utterance_variants(buffer, cfg, plan, args.normalize, pitch_cfg)
    write_matrix(args.out, values)
    del facts["shift_mel"]  # always the plan's one shift, 0
    _emit({"out": str(args.out), "feature_kind": cfg.feature_kind, "hi_freq": cfg.hi_freq,
           **facts})
    return EXIT_OK


def cmd_process(args) -> int:
    plan, cfg, pitch_cfg = _settings(args, PLAN_FLAGS)
    entries = read_manifest(args.manifest)
    result = process_dataset(
        entries,
        args.out,
        cfg=cfg,
        plan=plan,
        normalize=args.normalize,
        pitch_cfg=pitch_cfg,
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

    p = sub.add_parser("extract", help="MFCC or log-Mel matrix for one utterance")
    p.add_argument("--in", dest="infile", required=True, help="input WAV file")
    p.add_argument("--out", required=True, help="output matrix file")
    p.add_argument("--normalize", action="store_true", help="warp by the detected median f0")
    _add_f0_def(p, "target f0 in Hz")
    _add_feature_flags(p)
    _add_config_flags(p, "pitch options", PitchConfig(), PITCH_FLAGS)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("process", help="batch a manifest into a feature archive")
    p.add_argument("--manifest", required=True, help="JSON-lines manifest")
    p.add_argument("--out", required=True, help="archive directory")
    p.add_argument("--normalize", action="store_true",
                   help="warp each utterance by its detected median f0")
    p.add_argument("--augment-shifts", type=_float_list, default=(0.0,),
                   help="comma-separated Mel shifts, e.g. 0,20,-20,40,-40,60,-60"
                        " (default: 0, meaning no fan-out)")
    _add_f0_def(p, "base target f0 in Hz")
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"f0warp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioIOError, ValueError, OSError, MemoryError) as exc:
        print(f"f0warp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())

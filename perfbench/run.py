"""Benchmark of the f0warp batch front end (`f0warp process`).

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory.  Each run synthesizes a seeded corpus
under ``.perfbench_work/`` (removed afterwards), then

* ``--trace 0``: runs ``f0warp.cli.main(["process", ..., "--workers",
  "1"])`` with one BLAS thread in a fresh interpreter, round after round,
  until S seconds have passed, checks every archive against
  ``reference.py`` and reports the end-to-end metrics as medians over
  rounds;
* ``--trace 1``: runs ``trace_child.py``, which replays the corpus
  through every layer with spans recorded around the public calls, and
  reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (utterances), ``failed`` (utterances whose detected median
f0 is more than 50 cents off the synthesized f0) and ``metrics``.  An
output that fails a check makes ``correct`` false; a child that fails or
times out ends the run with exit code 1 and no result line.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
from reference import Job, check_archive

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = 3

PAPER_SHIFTS = (0.0, 20.0, -20.0, 40.0, -40.0, 60.0, -60.0)

# The program runs on one thread: one batch worker and one BLAS/OpenMP
# thread.  With the defaults (two workers, each calling into OpenBLAS's own
# pool) a 2-vCPU host runs four busy threads on two CPUs, and a round's wall
# and CPU time follow whatever else the host runs rather than the program
# (README.md, "Why one thread").
WORKERS = "1"
THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)}

# Log-spaced 80-400 Hz, vowels in turn.  Slot 26 (vowel "e" at 233.9 Hz)
# is left out: 43-47% of its frames lock onto a sub-multiple of the
# period, so whether its median f0 is gross depends on the seed.
_GRID = corpus.log_grid(80.0, 400.0, 40)
_NAMES = sorted(corpus.VOWELS)
AUGMENT_SPEAKERS = tuple((_NAMES[i % 5], f) for i, f in enumerate(_GRID) if i != 26)
PLAIN_SPEAKERS = tuple(
    (_NAMES[i % 5], f) for i, f in enumerate(corpus.log_grid(80.0, 400.0, 600))
)


@dataclass(frozen=True)
class Workload:
    job: Job
    make: object  # rng -> list of corpus.Utterance


WORKLOADS = {
    "augment-batch": Workload(
        Job(normalize=True, shifts=PAPER_SHIFTS, base_f0=100.0, kind="mfcc", hi_freq=6200.0),
        lambda rng: corpus.short_vowels(rng, AUGMENT_SPEAKERS, 1.5, 3.5, "ab"),
    ),
    "normalize-longform": Workload(
        Job(normalize=True, shifts=(0.0,), base_f0=100.0, kind="mfcc", hi_freq=6200.0),
        lambda rng: [
            corpus.long_reading(rng, 110.0, 90.0, "lf-adult"),
            corpus.long_reading(rng, 350.0, 90.0, "lf-child"),
        ],
    ),
    # Not in BENCHMARK.json: its run-to-run spread on a shared 2-core host
    # is too wide for a regression bound (README.md).  Run it by hand as the
    # no-change check for pitch and fan-out changes.
    "plain-fbank": Workload(
        Job(normalize=False, shifts=(0.0,), base_f0=100.0, kind="log-mel", hi_freq=8000.0),
        lambda rng: corpus.short_vowels(rng, PLAIN_SPEAKERS, 0.5, 1.5, "pf"),
    ),
}


class BenchmarkError(RuntimeError):
    pass


def cli_args(job: Job, manifest: Path, out: Path) -> list:
    """`f0warp process` arguments for one batch on one worker."""
    args = ["process", "--manifest", str(manifest), "--out", str(out), "--workers", WORKERS]
    if job.normalize:
        args.append("--normalize")
    args += [
        "--augment-shifts=" + ",".join(f"{s:g}" for s in job.shifts),
        "--f0-def", f"{job.base_f0:g}",
        "--feature-kind", job.kind,
    ]
    return args


def run_child(argv: list) -> tuple:
    """Run ``argv`` under this interpreter with THREAD_ENV; return (start,
    last stdout line as JSON).  The child is killed and reaped on timeout."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, env={**os.environ, **THREAD_ENV},
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{argv[0]} did not finish in {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{argv[0]} printed nothing")
    return start, json.loads(lines[-1])


def make_corpus(workload: Workload, seed: int, directory: Path) -> tuple:
    utterances = workload.make(np.random.default_rng([seed, 0]))
    manifest = corpus.write_corpus(utterances, seed, directory)
    truth = {}
    with open(directory / "truth.jsonl", encoding="utf-8") as handle:
        for line in handle:
            rec = json.loads(line)
            truth[rec["id"]] = rec
    audio_s = sum(u.seconds for u in utterances)
    return manifest, truth, audio_s


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def untraced(workload: Workload, manifest, truth, audio_s, seconds, work) -> tuple:
    """Whole rounds of one `process` call each, while the next round is
    expected to end within ``seconds``; at least MIN_ROUNDS."""
    job = workload.job
    setups, rounds = [], []
    failed = 0
    correct = True
    deadline = time.monotonic() + seconds
    last = 0.0
    while len(rounds) < MIN_ROUNDS or time.monotonic() + last < deadline:
        began = time.monotonic()
        out = work / "archive"
        start, res = run_child([str(HERE / "child.py"), str(SRC), *cli_args(job, manifest, out)])
        if res["exit"] != 0:
            raise BenchmarkError(f"f0warp process exited {res['exit']}")
        setups.append(res["ready"] - start)
        rounds.append(res)
        verdict = check_archive(out, manifest.parent, truth, job)
        if verdict.errors:
            correct = False
            print("\n".join(verdict.errors[:20]), file=sys.stderr)
        failed += len(verdict.gross_f0)
        shutil.rmtree(out)
        last = time.monotonic() - began
    metrics = {
        "audio_s_per_s": metric(statistics.median(audio_s / r["wall_s"] for r in rounds), "audio_s/s"),
        "cpu_s_per_audio_s": metric(
            statistics.median(r["cpu_s"] / audio_s for r in rounds), "cpu_s/audio_s"
        ),
        "peak_rss_mib": metric(statistics.median(r["maxrss_mib"] for r in rounds), "MiB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    return correct, len(rounds) * len(truth), failed, metrics


def traced(workload: Workload, manifest, truth, audio_s, seconds, work) -> tuple:
    job = workload.job
    spec = {
        "src": str(SRC),
        "manifest": str(manifest),
        "work": str(work),
        "job": job.__dict__,
        "audio_s": audio_s,
        "seconds": seconds,
    }
    _, res = run_child([str(HERE / "trace_child.py"), json.dumps(spec)])
    archives = res.pop("archives")
    verdict = check_archive(archives[0], manifest.parent, truth, job)
    correct = not verdict.errors
    if verdict.errors:
        print("\n".join(verdict.errors[:20]), file=sys.stderr)
    first = _archive_bytes(archives[0])
    for other in archives[1:]:
        if _archive_bytes(other) != first:
            correct = False
            print(f"{other} differs from {archives[0]}", file=sys.stderr)
    metrics = res["metrics"]
    metrics["pitch.gross_f0_errors"] = metric(len(verdict.gross_f0), "count")
    metrics["pipeline.bytes_written"] = metric(sum(len(b) for b in first.values()), "bytes")
    return correct, len(truth), len(verdict.gross_f0), metrics


def _archive_bytes(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "f0warp" / "cli.py").is_file():
        print(f"no f0warp sources under {SRC}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest, truth, audio_s = make_corpus(workload, args.seed, work / "corpus")
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(
            workload, manifest, truth, audio_s, args.seconds, work
        )
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's directory is still there
            pass
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

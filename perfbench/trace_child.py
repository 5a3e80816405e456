"""Per-layer measurements of one corpus, in a fresh interpreter.

Usage: python3 perfbench/trace_child.py SPEC_JSON   (see run.py `traced`)

Spans are recorded by wrapping, for the length of one run, the module
attributes through which each layer calls the next: ``pipeline.read_wav``,
``pipeline.detect_pitch``, ``_kernels.cumulative_mean_difference``,
``pitch._band_limit``, ``pipeline.augment_utterance``,
``augment.extract_features``, ``melwarp.frame_and_window``,
``melwarp.power_spectrum``, ``melwarp.warp_bin_mels``,
``melwarp.build_filterbank`` and ``pipeline.write_matrix``.  The program's
files are not changed.

The batch is processed three times through ``pipeline.process_dataset``:
untraced with the default worker count, untraced with one worker, and
traced with one worker, so that spans never overlap.  ``run.py`` starts
this interpreter with one BLAS/OpenMP thread, as it starts the untraced
rounds.  The last line of
standard output is a JSON object with the metrics and the three archive
directories, which must be byte-identical.
"""

import sys
import time

spec_text = sys.argv[1]

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

spec = json.loads(spec_text)
src = spec["src"]
IMPORT_PROBES = 3


def import_times() -> tuple:
    """(cumulative import of f0warp.pitch, whole import of f0warp.cli), in
    seconds, from ``python -X importtime`` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {src!r}); import f0warp.cli"
    pitch, total = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        cumulative = {}
        top_level = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cum, name = line.split("|")
            if not cum.strip().isdigit():
                continue
            cumulative[name.strip()] = int(cum) / 1e6
            if not name.startswith("  ") and name.strip().startswith("f0warp"):
                top_level += int(cum) / 1e6
        pitch.append(cumulative["f0warp.pitch"])
        total.append(top_level)
    return statistics.median(pitch), statistics.median(total)


setup_pitch_s, setup_total_s = import_times()

sys.path.insert(0, src)

from f0warp import _kernels, augment, melwarp, pipeline, pitch  # noqa: E402
from f0warp.augment import make_plan  # noqa: E402
from f0warp.melwarp import FeatureConfig, compute_warp, identity_warp  # noqa: E402
from f0warp.pitch import PitchConfig  # noqa: E402


class Tracer:
    """Spans (name, start, end, CPU seconds, parent index) kept in memory.

    Used from one thread at a time, so a plain stack gives each span its
    parent.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.frames = 0
        self.voiced_frames = 0
        self._patched = []

    def wrap(self, module, attr, name, on_result=None):
        inner = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans[index][1:4] = [start, end, time.process_time() - cpu0]
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, inner))

    def unwrap(self):
        for module, attr, inner in reversed(self._patched):
            setattr(module, attr, inner)
        self._patched.clear()

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def cpu(self, name) -> float:
        return sum(s[3] for s in self.spans if s[0] == name)

    def count(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def count_track(self, track):
        self.frames += len(track.frames)
        self.voiced_frames += sum(1 for f in track.frames if f.f0 is not None)


TOP_LEVEL = (
    "audio_io.read_wav",
    "pitch.detect_pitch",
    "pitch.median_f0",
    "augment.augment_utterance",
    "pipeline.write_matrix",
)


def install(tracer: Tracer):
    tracer.wrap(pipeline, "read_wav", "audio_io.read_wav")
    tracer.wrap(pipeline, "detect_pitch", "pitch.detect_pitch", tracer.count_track)
    tracer.wrap(pipeline, "median_f0", "pitch.median_f0")
    tracer.wrap(pitch, "_band_limit", "pitch.band_limit")
    tracer.wrap(_kernels, "cumulative_mean_difference", "pitch.kernel")
    tracer.wrap(pipeline, "augment_utterance", "augment.augment_utterance")
    tracer.wrap(augment, "extract_features", "melwarp.extract_features")
    tracer.wrap(melwarp, "frame_and_window", "melwarp.frame_and_window")
    tracer.wrap(melwarp, "power_spectrum", "melwarp.power_spectrum")
    tracer.wrap(melwarp, "warp_bin_mels", "melwarp.warp_bin_mels")
    tracer.wrap(melwarp, "build_filterbank", "melwarp.build_filterbank")
    tracer.wrap(pipeline, "write_matrix", "pipeline.write_matrix")


def peak_alloc_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


job = spec["job"]
audio_s = spec["audio_s"]
work = Path(spec["work"])
entries = pipeline.read_manifest(spec["manifest"])
cfg = FeatureConfig(hi_freq=job["hi_freq"], feature_kind=job["kind"])
plan = make_plan(job["base_f0"], job["shifts"])
pitch_cfg = PitchConfig()


UNITS = {
    "pitch.detect_pitch_ms": "ms/audio_s",
    "pitch.kernel_ms": "ms/audio_s",
    "pitch.band_limit_ms": "ms/audio_s",
    "pitch.lag_pick_ms": "ms/audio_s",
    "pitch.kernel_share": "ratio",
    "pitch.peak_alloc_mib": "MiB",
    "augment.augment_utterance_ms": "ms/audio_s",
    "augment.fanout_over_single": "ratio",
    "melwarp.extract_features_ms": "ms/audio_s",
    "melwarp.frame_and_window_ms": "ms/audio_s",
    "melwarp.power_spectrum_ms": "ms/audio_s",
    "melwarp.project_log_dct_ms": "ms/audio_s",
    "melwarp.build_filterbank_ms": "ms/call",
    "melwarp.extract_cpu_per_wall": "ratio",
    "melwarp.peak_alloc_mib": "MiB",
    "audio_io.read_wav_ms": "ms/audio_s",
    "pipeline.write_matrix_ms": "ms/audio_s",
    "pipeline.unaccounted_ms": "ms/audio_s",
    "pipeline.worker_speedup": "ratio",
    "pipeline.worker_threads": "count",
    "trace.overhead_ratio": "ratio",
    "setup.import_pitch_s": "s",
    "setup.import_total_s": "s",
    "pitch.frames": "count",
    "pitch.voiced_frames": "count",
    "augment.variants": "count",
    "augment.clamped_variants": "count",
}


def batch(out, workers) -> float:
    start = time.perf_counter()
    pipeline.process_dataset(
        entries, out, cfg=cfg, plan=plan, normalize=job["normalize"],
        pitch_cfg=pitch_cfg, workers=workers,
    )
    return time.perf_counter() - start


def one_round() -> dict:
    """Default-worker and one-worker batches untraced, then one traced."""
    # The only hook on the untraced runs: which threads read an utterance.
    threads = set()
    plain_read = pipeline.read_wav
    pipeline.read_wav = lambda *a, **k: threads.add(threading.get_ident()) or plain_read(*a, **k)
    try:
        default_wall = batch(work / "archive-default", None)
    finally:
        pipeline.read_wav = plain_read
    single_wall = batch(work / "archive-1", 1)
    tracer = Tracer()
    install(tracer)
    try:
        traced_wall = batch(work / "archive-traced", 1)
    finally:
        tracer.unwrap()

    # One plain extraction per utterance, the unit the fan-out multiplies.
    single_extract = 0.0
    for entry in entries:
        buffer = pipeline.read_wav(entry.audio_path, source_id=entry.id)
        start = time.perf_counter()
        melwarp.extract_features(buffer, cfg, identity_warp(plan.base_f0_def))
        single_extract += time.perf_counter() - start

    def ms(name) -> float:
        return 1000.0 * tracer.total(name) / audio_s

    detect = ms("pitch.detect_pitch")
    extract = ms("melwarp.extract_features")
    filterbanks = tracer.count("melwarp.build_filterbank")
    return {
        "pitch.detect_pitch_ms": detect,
        "pitch.kernel_ms": ms("pitch.kernel"),
        "pitch.band_limit_ms": ms("pitch.band_limit"),
        "pitch.lag_pick_ms": detect - ms("pitch.kernel") - ms("pitch.band_limit"),
        "pitch.kernel_share": ratio(ms("pitch.kernel"), detect),
        "augment.augment_utterance_ms": ms("augment.augment_utterance"),
        "augment.fanout_over_single": ratio(
            tracer.total("augment.augment_utterance"), single_extract
        ),
        "melwarp.extract_features_ms": extract,
        "melwarp.frame_and_window_ms": ms("melwarp.frame_and_window"),
        "melwarp.power_spectrum_ms": ms("melwarp.power_spectrum"),
        "melwarp.project_log_dct_ms": extract - sum(ms(n) for n in (
            "melwarp.frame_and_window", "melwarp.power_spectrum",
            "melwarp.warp_bin_mels", "melwarp.build_filterbank",
        )),
        "melwarp.build_filterbank_ms": ratio(
            1000.0 * (tracer.total("melwarp.build_filterbank")
                      + tracer.total("melwarp.warp_bin_mels")),
            filterbanks,
        ),
        "melwarp.extract_cpu_per_wall": ratio(
            tracer.cpu("melwarp.extract_features"), tracer.total("melwarp.extract_features")
        ),
        "audio_io.read_wav_ms": ms("audio_io.read_wav"),
        "pipeline.write_matrix_ms": ms("pipeline.write_matrix"),
        "pipeline.unaccounted_ms": 1000.0 * traced_wall / audio_s - sum(ms(n) for n in TOP_LEVEL),
        "pipeline.worker_speedup": single_wall / default_wall,
        "pipeline.worker_threads": len(threads),
        "trace.overhead_ratio": traced_wall / single_wall,
        "pitch.frames": tracer.frames,
        "pitch.voiced_frames": tracer.voiced_frames,
    }


def ratio(a, b) -> float:
    return a / b if b > 0 else 0.0


# Whole rounds while the next one is expected to end within the run length.
rounds = []
deadline = time.monotonic() + spec["seconds"]
last = 0.0
while not rounds or time.monotonic() + last < deadline:
    began = time.monotonic()
    rounds.append(one_round())
    last = time.monotonic() - began
values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}

longest = max(entries, key=lambda e: Path(e.audio_path).stat().st_size)
buffer = pipeline.read_wav(longest.audio_path, source_id=longest.id)
warp = identity_warp(plan.base_f0_def)
values["pitch.peak_alloc_mib"] = 0.0
if job["normalize"]:
    values["pitch.peak_alloc_mib"] = peak_alloc_mib(pitch.detect_pitch, buffer, pitch_cfg)
    f0 = pitch.median_f0(pitch.detect_pitch(buffer, pitch_cfg), plan.base_f0_def).f0_utt
    warp = compute_warp(f0, plan.base_f0_def)
values["melwarp.peak_alloc_mib"] = peak_alloc_mib(melwarp.extract_features, buffer, cfg, warp)
values["setup.import_pitch_s"] = setup_pitch_s
values["setup.import_total_s"] = setup_total_s
records = pipeline.read_archive_index(work / "archive-traced")
values["augment.variants"] = len(records)
values["augment.clamped_variants"] = sum(1 for r in records if r["clamped"])

metrics = {name: {"value": float(v), "unit": UNITS[name]} for name, v in values.items()}
archives = [str(work / name) for name in ("archive-traced", "archive-default", "archive-1")]
print(json.dumps({"metrics": metrics, "rounds": len(rounds), "archives": archives}))

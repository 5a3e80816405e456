"""Compare the archives two revisions write on the benchmark's corpora.

Usage:
    python tools/archdiff.py --base REV [--head REV]

Writes the augment-batch, normalize-longform and plain-fbank corpora of
``perfbench/run.py`` once, at seed 7.  Runs each workload's ``process``
arguments at ``--workers`` 1 and 2 through ``perfbench/child.py``, with the
benchmark's one BLAS thread, once with the ``src`` of a ``git archive`` of
``--base`` and once with that of ``--head`` (default: this work tree).

Prints one JSON object.  For each corpus and worker count it gives the
number of archive files whose sha256 is the same, and the names of the
files that changed, are missing from head or are extra in head.  For each
index record that changed it gives |delta f0_utt| in cents and ``clamped``
as ``[base, head]``.  Exit status 0 when every file is the same, 1 when
any differs, as with ``diff``, and 2 when a revision or a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, BenchmarkError, cli_args, make_corpus, run_child  # noqa: E402

CORPORA = ("augment-batch", "normalize-longform", "plain-fbank")
SEED = 7
WORKERS = (1, 2)
CHILD = ROOT / "perfbench" / "child.py"


def checkout(rev: str, into: Path) -> tuple:
    """(commit id, src directory) of ``rev`` unpacked under ``into``."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit, "src"], check=True, stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit, into / "src"


def digests(directory: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def index_records(directory: Path) -> dict:
    lines = (directory / "index.jsonl").read_text(encoding="utf-8").splitlines()
    records = (json.loads(line) for line in lines if line.strip())
    return {(r["id"], r["shift_mel"]): r for r in records}


def changed_records(base: Path, head: Path) -> list:
    """A row per (id, shift_mel) whose index record differs or is on one
    side only; cents is None for the latter."""
    old, new = index_records(base), index_records(head)
    rows = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        cents = (abs(1200.0 * math.log2(b["f0_utt"] / a["f0_utt"]))
                 if a is not None and b is not None else None)
        rows.append({
            "id": key[0], "shift_mel": key[1], "f0_utt_cents": cents,
            "clamped": [r["clamped"] if r is not None else None for r in (a, b)],
        })
    return rows


def compare(base: Path, head: Path) -> dict:
    old, new = digests(base), digests(head)
    return {
        "same": sum(1 for name in old if new.get(name) == old[name]),
        "changed": sorted(n for n in old.keys() & new.keys() if old[n] != new[n]),
        "missing": sorted(old.keys() - new.keys()),
        "extra": sorted(new.keys() - old.keys()),
        "records": changed_records(base, head),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--head", default=None,
                        help="revision to compare (default: this work tree)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="archdiff-") as tmp:
        try:
            result = compare_revisions(args.base, args.head, Path(tmp))
        except (subprocess.CalledProcessError, BenchmarkError) as exc:
            print(f"archdiff: {exc}", file=sys.stderr)
            return 2
    print(json.dumps(result, indent=1))
    return 0 if result["identical"] else 1


def compare_revisions(base: str, head, work: Path) -> dict:
    base_commit, base_src = checkout(base, work / "base")
    if head is None:
        head_commit, head_src = "work tree", ROOT / "src"
    else:
        head_commit, head_src = checkout(head, work / "head")
    result = {"base": base_commit, "head": head_commit, "seed": SEED, "corpora": {}}
    identical = True
    for name in CORPORA:
        workload = WORKLOADS[name]
        manifest, _, _ = make_corpus(workload, SEED, work / name / "corpus")
        per_workers = result["corpora"][name] = {}
        for workers in WORKERS:
            outs = {}
            for side, src in (("base", base_src), ("head", head_src)):
                out = work / name / f"{side}-{workers}"
                argv = cli_args(workload.job, manifest, out)
                argv[argv.index("--workers") + 1] = str(workers)
                _, res = run_child([str(CHILD), str(src), *argv])
                outs[side] = (out, res["exit"])
            diff = compare(outs["base"][0], outs["head"][0])
            diff["exit"] = [outs["base"][1], outs["head"][1]]
            identical &= not (diff["changed"] or diff["missing"] or diff["extra"])
            per_workers[str(workers)] = diff
    result["identical"] = identical
    return result


if __name__ == "__main__":
    sys.exit(main())

"""One `f0warp process` call in a fresh interpreter.

Usage: python3 perfbench/child.py SRC_DIR [CLI_ARG ...]

Imports ``f0warp.cli`` from SRC_DIR, notes the CLOCK_MONOTONIC time at
which it is ready, then runs ``f0warp.cli.main`` on the remaining
arguments (no arguments: stop after the import).  The last line of
standard output is a JSON object with the ready time, the exit code, the
wall and CPU seconds (user + sys, all threads) of the main call, and the
process's peak resident set.
"""

import sys
import time

src = sys.argv[1]
sys.path.insert(0, src)

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import f0warp.cli  # noqa: E402

ready = time.monotonic()
if not os.path.realpath(f0warp.cli.__file__).startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"f0warp was imported from {f0warp.cli.__file__}, not from {src}")


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


result = {"ready": ready, "exit": 0, "wall_s": 0.0, "cpu_s": 0.0}
if len(sys.argv) > 2:
    cpu0 = _cpu()
    wall0 = time.perf_counter()
    result["exit"] = f0warp.cli.main(sys.argv[2:])
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = _cpu() - cpu0
result["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps(result))

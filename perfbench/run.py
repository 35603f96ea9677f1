#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_exact --seed 1 --seconds 10 --trace 0

The engine (the repository's ps3_lib) and the benchmark (perfbench/src/)
are built with CMake into .bench_build/ on first use; later runs only
rebuild what changed. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. Spilled stores
live in a new directory under .bench_build/work/ that is removed when the
run ends; traced runs write their spans to .bench_out/.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures (once) and builds; returns False if either step fails."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: the engine's build (CMakeLists.txt) not found",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench",
           "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "work"))
    cmd = [BINARY] + sys.argv[1:] + [
        "--work-dir", work, "--trace-dir", os.path.join(ROOT, ".bench_out")]
    stopped = []
    child = None

    # The handler only forwards the signal: the main thread's wait() then
    # returns once the driver has ended. Waiting inside the handler would
    # block on the lock that the interrupted wait() holds.
    def stop(signum, _frame):
        stopped.append(signum)
        if child is not None:
            child.terminate()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        if stopped:
            return 128 + stopped[0]
        child = subprocess.Popen(cmd, cwd=ROOT)
        if stopped:
            child.terminate()
        code = child.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 128 + stopped[0] if stopped else code


if __name__ == "__main__":
    sys.exit(main())

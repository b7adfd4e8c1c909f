#!/usr/bin/env python3
"""Build and run the MemorIES benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload replay-hot|live-oltp|serve-ingest \\
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt stream|expect]

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench-build
with CMake in Release mode, then runs it. The binary's last stdout
line is the result object {"correct", "attempted", "failed", "metrics"};
build output goes to stderr. See perfbench/README.md for the workloads,
metrics and seeds.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-build")
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: %s failed (exit %d)\n"
                         % (" ".join(cmd[:2]), proc.returncode))
        sys.exit(proc.returncode or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no emulator sources at %s/src\n" % ROOT)
        sys.exit(1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench_bin",
               "-j", jobs])
    return os.path.join(BUILD_DIR, "perfbench_bin")


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return "%s; sources sha256:%s" % (sha, digest.hexdigest()[:16])


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:] + ["--git-sha", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: benchmark exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

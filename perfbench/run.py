#!/usr/bin/env python3
"""Build and run the randsync repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Configures and builds this directory's CMake package (the benchmark
binary over the repository's src/) in Release mode under
.bench_build/perfbench, then replaces itself with that binary, passing
every argument through; the binary parses them strictly.  Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
Traced runs write their spans to .bench_build/traces.  See README.md
next to this file.
"""
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def build():
    """Configure and build the benchmark; concurrent runs share one build."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--parallel",
                        str(min(4, os.cpu_count() or 1))],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "randsync_perfbench")


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    os.makedirs(TRACES, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=git_describe(),
               PERFBENCH_TRACE_DIR=TRACES)
    sys.stdout.flush()
    os.execve(binary, [binary, *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dse --seed 1 --seconds 10 --trace 0

The first call configures and builds the repository's libraries and the
benchmark (CMake, Release) under .bench_build/ (or $CARGO_TARGET_DIR);
later calls rebuild incrementally. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. Every argument
is passed on to the benchmark binary (see perfbench/README.md).
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def source_fingerprint():
    """SHA-256 over src/ (paths and bytes): identifies the build when
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    # Configure once; the build step re-runs CMake when a list changes.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: no src/CMakeLists.txt here")
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, base, "perfbench")
    build(build_dir)

    env = dict(os.environ)
    env.pop("ACS_TRACE", None)
    env.pop("ACS_THREADS", None)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA256"] = source_fingerprint()
    args = sys.argv[1:]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(base, "out")]
    result = subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                            cwd=ROOT, env=env)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library from src/ plus the perfbench driver (RelWithDebInfo, 4 jobs) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of stdout
is the driver's JSON result. Scratch inputs and traces go under
.bench_build/perfbench-work. The exit code is the driver's: 0 when every
output check passed.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    steps = [["cmake", "--build", out, "--target", "perfbench", "-j", "4"]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", out] + generator + [
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def _have(program):
    return any(
        os.access(os.path.join(d, program), os.X_OK)
        for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under " + ROOT + "/src",
              file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        return 2
    work = os.path.join(os.path.dirname(out), "perfbench-work")
    command = [os.path.join(out, "perfbench")] + sys.argv[1:] + [
        "--work-dir", work]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

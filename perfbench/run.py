#!/usr/bin/env python3
"""Build the senids benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/CMakeLists.txt (the repository's libraries plus the
benchmark harness, Release) into .bench_build/perfbench at the repository
root, then runs the harness with the given arguments. Build output goes to
stderr, so the result line stays the last line of stdout. With
--trace 1 the spans are written to .bench_build/traces/<workload>-seed<n>.json.
Exits non-zero, without a result line, if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configure once, then build incrementally. Returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def trace_path(args):
    """The span file for a --trace 1 run, or None."""
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") != "1":
        return None
    name = "%s-seed%s.json" % (opts.get("--workload", "x"), opts.get("--seed", "x"))
    return os.path.join(ROOT, ".bench_build", "traces", name)


def main(args):
    if not build():
        return 1
    cmd = [BINARY] + args
    out = trace_path(args)
    if out:
        os.makedirs(os.path.dirname(out), exist_ok=True)
        cmd += ["--trace-out", out]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

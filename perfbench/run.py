#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The package is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). An untraced run (--trace 0) executes `perfbench`, which
keeps the system allocator; a traced run executes `perfbench-traced`,
which counts allocations. The binary's stdout passes through unchanged:
its last line is the JSON result. Exits non-zero, without a result, if
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = any(a == "--trace" and b == "1" for a, b in zip(argv, argv[1:]))
    binary = os.path.join(target, "release",
                          "perfbench-traced" if traced else "perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Build and run the whole-experiment benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper-das --seed 1 --seconds 40 --trace 0

Configures and builds the driver (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs it with
the given arguments. The driver's standard output is passed through
unchanged; its last line is the JSON result. Build output goes to standard
error. Exits non-zero without a result when the simulator sources are missing,
the build fails or the driver rejects its arguments.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cluster.hpp")):
        sys.exit("perfbench: simulator sources (src/) not found; nothing to build")
    commands = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        commands.append(["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", build_dir, "-j", "4"])
    for command in commands:
        if subprocess.run(command, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the statement-level benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ppi_flwr --seed 1 --seconds 10 --trace 0

The binary is built with cargo into $CARGO_TARGET_DIR (default
perfbench/target); data directories and span files go under
<target>/perfbench-work. Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    child = subprocess.Popen([exe, *sys.argv[1:], "--work-dir", work])

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())

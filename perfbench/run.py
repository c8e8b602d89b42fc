#!/usr/bin/env python3
"""Build the DRX benchmark from source and run one workload.

    python3 perfbench/run.py --workload <scan|serve_hot|grow> --seed N \
        --seconds S --trace <0|1>

Run from the repository root. The benchmark is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target); traced runs write their
spans under <target dir>/perfbench-out. Standard output ends with the
one-line result object; the exit code is the benchmark's (0 only when every
operation succeeded and passed its correctness check).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    exe = os.path.join(target, "release", "drx-perfbench")
    args = sys.argv[1:] + [
        "--out", os.path.join(target, "perfbench-out"),
        "--rustc", rustc.stdout.strip() or "unknown",
    ]
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())

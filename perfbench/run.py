#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

The binary, the Go build cache and the go command's own config and
telemetry files go under $CARGO_TARGET_DIR (default .bench_build), so a
run reads and writes only inside the checkout. The
exit code is the build's when it fails, else the benchmark's.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(out, "perfbench-bin")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())

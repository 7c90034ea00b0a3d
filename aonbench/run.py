#!/usr/bin/env python3
"""Build the gateway and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 aonbench/run.py --workload soap_mix|secure_mix \
        --seed N --seconds S --trace 0|1

Both builds are release builds, offline, into $CARGO_TARGET_DIR
(default: .bench_build). `aon-serve` is built from the repository's
workspace; the benchmark is its own workspace under aonbench/. The last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr so the result stays the last stdout line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    cargo_build(["-p", "aon-serve", "--bin", "aon-serve"], target_dir)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "aonbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "aon-serve")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

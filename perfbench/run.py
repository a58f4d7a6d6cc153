#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper_day|dead_peer_day|searched_day> \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of the repository.  The benchmark is the Rust package
next to this file; it links the repository's crates by path, so it cannot
build (and this script exits non-zero without a result) when they are
absent.  Build output goes to $CARGO_TARGET_DIR, or `.bench_build` at the
repository root when that is unset.  Cargo's own output goes to standard
error; the last line of standard output is the benchmark's result object.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(command, **kwargs) -> int:
    """Runs `command` to completion; a SIGTERM or SIGINT sent to this script
    is passed on to it, and the script still waits for it to end."""
    child = subprocess.Popen(command, **kwargs)
    forward = lambda signum, _frame: child.send_signal(signum)
    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    code = run(build, env=env, stdout=sys.stderr)
    if code != 0:
        print("perfbench: the benchmark did not build", file=sys.stderr)
        return code if code > 0 else 1
    code = run([os.path.join(target, "release", "perfbench"), *sys.argv[1:]])
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the causal-bus benchmark and runs one workload.

    python3 causalbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark package is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the root),
then the `causalbench` binary runs the workload in its own process. Its
standard output is passed through: the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The traced run's span
dump goes to .bench_out.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary's own limit; the first run in a checkout also builds.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark; returns the binary's path, or None."""
    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"causalbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("causalbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "causalbench")


def run(exe, args, capture=False):
    """Runs the binary with `args`; returns (exit code, stdout or None)."""
    cmd = [exe] + list(args) + ["--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
        return done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        print(f"causalbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None


def main():
    exe = build()
    if exe is None:
        return 1
    code, _ = run(exe, sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())

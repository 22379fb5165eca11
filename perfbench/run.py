#!/usr/bin/env python3
"""Builds and runs the Phoenix simulator benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload yahoo-5k-busy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The first form runs one workload and prints its metrics, one per line,
then a JSON result as the last line of stdout. `--workload all` runs every
workload, untraced and then traced. The benchmark is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def build(env):
    """Builds the benchmark binary and returns its path, or None."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"perfbench: build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "phoenix-perfbench")


def run(binary, args):
    """Runs the binary with `args`, passing its output through."""
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    opts = parser.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        return 1
    common = ["--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    if opts.workload != "all":
        return run(binary, ["--workload", opts.workload, "--trace", opts.trace] + common)
    names = subprocess.run([binary, "--list"], capture_output=True, text=True,
                           check=True, timeout=RUN_TIMEOUT_S).stdout.split()
    for name in names:
        for trace in ("0", "1"):
            print(f"== {name} (trace {trace})", flush=True)
            code = run(binary, ["--workload", name, "--trace", trace] + common)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload counting|served \
        --seed N --seconds S --trace 0|1

Run from the root of a repository checkout. Builds `perfbench/` (a cargo
package of its own, against the repository's crates) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), fills the warm cache
the `served` workload needs, then runs one measurement. The last line
of standard output is the JSON result; the exit status is 0 only when
every output check passed.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("counting", "served")
# Every run must end within 180 s; the no-op build check takes about 1 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    for needed in ("Cargo.toml", os.path.join("crates", "runplan", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail(f"not a repository checkout: {needed} is missing", 2)

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if built.returncode != 0:
        return fail(f"build failed with status {built.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    root = ["--root", ROOT]
    steps = []
    if args.workload == "served":
        steps.append([binary, "warm"] + root)
    steps.append([binary, "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", args.trace] + root)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for step in steps:
        remaining = max(1.0, deadline - time.monotonic())
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, timeout=remaining, check=False)
        except subprocess.TimeoutExpired:
            return fail(f"`{' '.join(step[1:])}` timed out")
        if done.returncode != 0:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())

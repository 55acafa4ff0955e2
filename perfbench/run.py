#!/usr/bin/env python3
"""Builds and runs the host-speed benchmark of the publishing simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) against the crates in
`crates/`, then runs one workload and relays its output; the last line
of standard output is the JSON result. Build output goes to standard
error. The build directory is `CARGO_TARGET_DIR` when set, otherwise
`.bench_build` at the checkout root.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        print("perfbench: crates/ not found next to perfbench/; "
              "run from a full checkout of the repository", file=sys.stderr)
        return 2
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    run = subprocess.run(
        [exe] + sys.argv[1:] + ["--pins", os.path.join(BENCH, "pins.json")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Writes perfbench/pins.json: the virtual results of every workload for
a range of seeds.

Usage, from the root of a checkout, after `perfbench/run.py` has built
the benchmark once:

    python3 perfbench/make_pins.py FIRST_SEED LAST_SEED [WORKLOAD...]

With workload names, only their pins are rewritten; the rest of the
file is kept.

Pins record what the simulator computes (fingerprints, event counts,
oracle verdicts, knees), never host timings, so they change only when a
change to the simulator changes its virtual behaviour. A speed change
must leave them as they are.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["steady_sharded", "quorum_steady", "chaos_soak", "knee_ethernet"]


def main():
    if len(sys.argv) < 3 or any(w not in WORKLOADS for w in sys.argv[3:]):
        print(__doc__, file=sys.stderr)
        return 2
    first, last = int(sys.argv[1]), int(sys.argv[2])
    chosen = sys.argv[3:] or WORKLOADS
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = os.path.join(target, "release", "perfbench")
    path = os.path.join(ROOT, "perfbench", "pins.json")
    with open(path) as f:
        pins = json.load(f)
    for w in chosen:
        pins[w] = {}
        for seed in range(first, last + 1):
            out = subprocess.run(
                [exe, "--virtual-only", "--workload", w, "--seed", str(seed)],
                check=True, capture_output=True, text=True).stdout
            pins[w][str(seed)] = json.loads(out.strip().splitlines()[-1])
            print(f"{w} seed {seed}", file=sys.stderr)
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``pins.json``: the sha256 of every document the batch
workloads emit, per seed, at their fixed scales.

    python3 perfbench/pin.py [--seeds 20]

Pins come from the public, untraced path.  Run this only when a change
is meant to alter the documents; the benchmark's gate fails any run
whose documents differ from a pinned digest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from common import SRC  # noqa: E402

sys.path.insert(0, SRC)

import batch  # noqa: E402


def pins_for(workload: str, seed: int):
    scale = batch.SCALES[workload]
    out = {}
    for name in batch.PROGRAMS:
        if workload == "profile-both":
            __, __, docs = batch.both_untraced(name, scale, seed)
        else:
            __, __, docs = batch.leap_untraced(name, scale, seed)
        out[name] = {kind: batch.sha256(data) for kind, data in docs.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20, help="pin seeds 0..N-1")
    args = parser.parse_args(argv)
    pins = {}
    for workload in ("profile-both", "profile-leap"):
        pins[workload] = {
            "scale": batch.SCALES[workload],
            "seeds": {str(seed): pins_for(workload, seed) for seed in range(args.seeds)},
        }
    with open(os.path.join(BENCH, "pins.json"), "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""FDMOPIN: the profile-consuming optimizations pinned by one sha256.

Over the seven SPEC stand-ins (scale 0.04, seed 3) this digests, per
benchmark: the hot object streams (references and occurrences), the
clustered layout :class:`ObjectClusterer` proposes (order, bases and
total bytes) and both cache simulations of its evaluation, and the
offset remaps :class:`FieldReorderer` proposes and both simulations of
its evaluation.  A change to the pin is a change to what the consumers
compute: say why in CHANGES.md.

    PYTHONPATH=src python tests/test_fdmo_pin.py

prints the digest and its wall time.
"""

import dataclasses
import hashlib
import sys
import time

from repro.core.cdc import translate_trace_list
from repro.postprocess.clustering import ObjectClusterer
from repro.postprocess.field_reorder import FieldReorderer
from repro.postprocess.hot_streams import extract_hot_streams
from repro.workloads.registry import SPEC_BENCHMARKS, create

SCALE = 0.04
SEED = 3
PIN = "5c07648a0dfb048952d8d6039251aa27a69d18f45dc38916008c4f247ce802e4"


def _comparison(comparison):
    return (
        dataclasses.astuple(comparison.baseline),
        dataclasses.astuple(comparison.optimized),
        sorted(comparison.extra.items()),
    )


def consumer_outputs(name):
    """Everything the FDMO consumers compute for one stand-in."""
    trace = create(name, scale=SCALE, seed=SEED).trace()
    hot = extract_hot_streams(translate_trace_list(trace))
    clusterer = ObjectClusterer()
    layout, __ = clusterer.propose(trace)
    reorderer = FieldReorderer()
    orders = reorderer.propose(trace)
    return (
        name,
        [(stream.references, stream.occurrences) for stream in hot],
        (layout.order, sorted(layout.bases.items()), layout.total_bytes),
        _comparison(clusterer.evaluate(trace)),
        sorted((group, sorted(order.remap.items())) for group, order in orders.items()),
        _comparison(reorderer.evaluate(trace)),
    )


def fdmo_digest() -> str:
    outputs = [consumer_outputs(name) for name in SPEC_BENCHMARKS]
    return hashlib.sha256(repr(outputs).encode()).hexdigest()


def test_fdmo_consumers_pinned():
    assert fdmo_digest() == PIN


if __name__ == "__main__":
    began = time.perf_counter()
    got = fdmo_digest()
    print(f"{got}  ({time.perf_counter() - began:.1f} s)")
    if got != PIN:
        print(f"MISS: pinned {PIN}", file=sys.stderr)
        sys.exit(1)

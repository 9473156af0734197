"""Micro-benchmarks of the core computational kernels.

Not a paper figure: these track the throughput of the pieces everything
else is built on (Sequitur, the LMAD compressor, the OMC's live-object
index, the omega-test solver), so performance regressions
are visible independently of the workload suite.
"""

import random

from repro.analysis.omega import intersect_lmads
from repro.compression.lmad import LMAD, LMADCompressor
from repro.compression.sequitur import SequiturGrammar
from repro.core.omc import ObjectManager


def test_sequitur_periodic_throughput(benchmark):
    tokens = [0, 4, 8, 12, 16] * 8000  # 40k tokens, heavily compressible

    def run():
        grammar = SequiturGrammar()
        grammar.feed_all(tokens)
        return grammar

    grammar = benchmark.pedantic(run, rounds=3, iterations=1)
    assert grammar.size() < 100


def test_sequitur_random_throughput(benchmark):
    rng = random.Random(0)
    tokens = [rng.randint(0, 30) for __ in range(40_000)]

    def run():
        grammar = SequiturGrammar()
        grammar.feed_all(tokens)
        return grammar

    grammar = benchmark.pedantic(run, rounds=3, iterations=1)
    assert grammar.expand() == tokens


def test_lmad_compressor_throughput(benchmark):
    symbols = [(0, i * 8, i * 4) for i in range(50_000)]

    def run():
        compressor = LMADCompressor(dims=3)
        compressor.feed_all(symbols)
        return compressor.finish()

    entry = benchmark.pedantic(run, rounds=3, iterations=1)
    assert entry.complete


def test_omc_translation_throughput(benchmark):
    """Allocate 2000 objects, translate 50k addresses through the
    live-object index."""
    rng = random.Random(1)
    omc = ObjectManager()
    bases = []
    for index in range(2000):
        base = 0x100000 + index * 128
        omc.on_alloc(base, 96, f"site{index % 7}", None, index)
        bases.append(base)
    probes = [rng.choice(bases) + rng.randrange(96) for __ in range(50_000)]

    def run():
        hits = 0
        for address in probes:
            if omc.translate(address) is not None:
                hits += 1
        return hits

    hits = benchmark.pedantic(run, rounds=3, iterations=1)
    assert hits == len(probes)


def test_omc_churn_throughput(benchmark):
    """Alloc/free churn mimicking malloc/free traffic."""

    def run():
        omc = ObjectManager()
        live = []
        rng = random.Random(2)
        for step in range(20_000):
            if live and rng.random() < 0.5:
                start = live.pop(rng.randrange(len(live)))
                omc.on_free(start, step)
            else:
                start = step * 64
                omc.on_alloc(start, 48, "churn", None, step)
                live.append(start)
        return omc.live_count()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_omega_solver_throughput(benchmark):
    """10k LMAD-pair intersections (the MDF inner loop)."""
    rng = random.Random(3)
    pairs = []
    for __ in range(10_000):
        writer = LMAD(
            (rng.randrange(4), rng.randrange(0, 512, 8), 100),
            (0, 8, rng.randrange(1, 5)),
            rng.randrange(1, 200),
        )
        reader = LMAD(
            (rng.randrange(4), rng.randrange(0, 512, 8), 150),
            (0, 8, rng.randrange(1, 5)),
            rng.randrange(1, 200),
        )
        pairs.append((writer, reader))

    def run():
        total = 0
        for writer, reader in pairs:
            solution = intersect_lmads(writer, reader, (0, 1), time_dim=2)
            total += solution.distinct_k2()
        return total

    benchmark.pedantic(run, rounds=3, iterations=1)

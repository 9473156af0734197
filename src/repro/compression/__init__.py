"""Stream compressors: lossless Sequitur (WHOMP) and lossy bounded-budget
LMAD linear compression (LEAP)."""

from repro.compression.lmad import (
    DEFAULT_BUDGET,
    LMAD,
    LMADCompressor,
    LMADProfileEntry,
    OverflowSummary,
)
from repro.compression.rle import DeltaRleCodec, Run
from repro.compression.rle import compress as rle_compress
from repro.compression.sequitur import FrozenGrammar, Ref, SequiturGrammar
from repro.compression.sequitur import compress as sequitur_compress

__all__ = [
    "DEFAULT_BUDGET", "DeltaRleCodec", "FrozenGrammar", "LMAD",
    "LMADCompressor", "LMADProfileEntry", "OverflowSummary", "Ref", "Run",
    "SequiturGrammar", "rle_compress", "sequitur_compress",
]

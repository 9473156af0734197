"""Stream compressors: lossless Sequitur (WHOMP) and lossy bounded-budget
LMAD linear compression (LEAP)."""

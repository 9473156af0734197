"""Tests for the LMAD linear compressor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lmad import (
    DEFAULT_BUDGET,
    LMAD,
    LMADCompressor,
    OverflowSummary,
    compress,
)


class TestLMAD:
    def test_paper_example(self):
        """Offsets 0 4 8 12 44 40 36 -> [0,4,4] and [44,-4,3]."""
        entry = compress([(v,) for v in (0, 4, 8, 12, 44, 40, 36)], dims=1)
        assert [repr(l) for l in entry.lmads] == ["[0, 4, 4]", "[44, -4, 3]"]
        assert entry.complete

    def test_element_and_last(self):
        lmad = LMAD((0, 100), (8, -1), 5)
        assert lmad.element(0) == (0, 100)
        assert lmad.element(4) == (32, 96)
        assert lmad.last == (32, 96)
        with pytest.raises(IndexError):
            lmad.element(5)

    def test_expand(self):
        lmad = LMAD((0,), (4,), 3)
        assert list(lmad.expand()) == [(0,), (4,), (8,)]

    def test_component_projection(self):
        lmad = LMAD((1, 2, 3), (4, 5, 6), 7)
        assert lmad.component(1) == LMAD((2,), (5,), 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            LMAD((0,), (1, 2), 3)
        with pytest.raises(ValueError):
            LMAD((0,), (1,), 0)

    def test_repr_multidim(self):
        assert repr(LMAD((1, 2), (3, 4), 5)) == "[[1, 2], [3, 4], 5]"


class TestCompressor:
    def test_single_element(self):
        entry = compress([(5,)], dims=1)
        assert entry.lmads == (LMAD((5,), (0,), 1),)

    def test_two_elements_fix_stride(self):
        entry = compress([(5,), (9,)], dims=1)
        assert entry.lmads == (LMAD((5,), (4,), 2),)

    def test_constant_stream_is_one_descriptor(self):
        entry = compress([(7,)] * 1000, dims=1)
        assert entry.lmads == (LMAD((7,), (0,), 1000),)
        assert entry.sample_quality == 1.0

    def test_multidimensional_pattern(self):
        triples = [(0, i * 8, i * 3) for i in range(50)]
        entry = compress(triples, dims=3)
        assert entry.lmads == (LMAD((0, 0, 0), (0, 8, 3), 50),)

    def test_stride_change_splits(self):
        entry = compress([(0,), (8,), (16,), (17,), (18,)], dims=1)
        assert entry.lmads == (LMAD((0,), (8,), 3), LMAD((17,), (1,), 2))

    def test_dimension_mismatch_rejected(self):
        compressor = LMADCompressor(dims=2)
        with pytest.raises(ValueError):
            compressor.feed((1,))

    def test_feed_after_finish_rejected(self):
        compressor = LMADCompressor(dims=1)
        compressor.finish()
        with pytest.raises(RuntimeError):
            compressor.feed((1,))

    def test_finish_idempotent(self):
        compressor = LMADCompressor(dims=1)
        compressor.feed((1,))
        first = compressor.finish()
        second = compressor.finish()
        assert first.lmads == second.lmads

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LMADCompressor(dims=0)
        with pytest.raises(ValueError):
            LMADCompressor(dims=1, budget=0)


class TestBudgetAndOverflow:
    def test_budget_exhaustion_discards(self):
        # alternating pattern that can never chain: every pair is new
        symbols = []
        for i in range(100):
            symbols.extend([(i * 97 % 31,), (i * 89 % 29 + 1000,)])
        entry = compress(symbols, dims=1, budget=5)
        assert len(entry.lmads) == 5
        assert entry.overflow.count > 0
        assert entry.captured_symbols + entry.overflow.count == 200

    def test_default_budget_is_papers_30(self):
        assert DEFAULT_BUDGET == 30

    def test_overflow_summary_min_max(self):
        entry = compress(
            [(0,), (100,), (3,), (77,), (50,), (2,), (99,)], dims=1, budget=1
        )
        # first LMAD captures (0,100); the rest are discarded
        assert entry.overflow.count == 5
        assert entry.overflow.minimum == (2,)
        assert entry.overflow.maximum == (99,)

    def test_overflow_granularity(self):
        summary = OverflowSummary(dims=1)
        for value in (10, 18, 26, 42):
            summary.add((value,))
        assert summary.granularity == (8,)

    def test_sample_quality_fraction(self):
        symbols = [(i * i,) for i in range(40)]  # quadratic: nothing linear
        entry = compress(symbols, dims=1, budget=3)
        assert 0.0 < entry.sample_quality < 1.0
        assert entry.sample_quality == entry.captured_symbols / 40

    def test_empty_stream_quality(self):
        entry = compress([], dims=1)
        assert entry.sample_quality == 1.0
        assert entry.complete
        assert entry.size_records() == 0

    def test_size_records(self):
        entry = compress([(0,), (1,), (5,), (100,), (2,)], dims=1, budget=2)
        assert entry.size_records() == 2 + 1  # two LMADs + overflow summary


class TestExpansion:
    def test_expand_matches_captured_prefix(self):
        symbols = [(v,) for v in (0, 4, 8, 12, 44, 40, 36)]
        entry = compress(symbols, dims=1)
        assert entry.expand() == [(0,), (4,), (8,), (12,), (44,), (40,), (36,)]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)), max_size=80
    )
)
def test_lmad_lossless_when_budget_unbounded(symbols):
    """With a budget bigger than the stream, expansion is exact."""
    entry = compress(symbols, dims=2, budget=max(len(symbols), 1))
    assert entry.expand() == [tuple(s) for s in symbols]
    assert entry.complete


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), max_size=120),
    st.integers(1, 8),
)
def test_lmad_counts_always_consistent(values, budget):
    entry = compress([(v,) for v in values], dims=1, budget=budget)
    assert entry.captured_symbols + entry.overflow.count == len(values)
    assert len(entry.lmads) <= budget
    assert sum(l.count for l in entry.lmads) == entry.captured_symbols
    # captured prefix is exact
    assert entry.expand() == [(v,) for v in values[: entry.captured_symbols]]


@st.composite
def kernel_case(draw):
    """A stream of linear runs and noise, fed in several batches, with
    a budget and an overflow cap small enough to be crossed."""
    dims = draw(st.integers(1, 3))
    budget = draw(st.integers(1, 40))
    cap = draw(st.one_of(st.none(), st.integers(1, 50)))
    coordinate = st.integers(-30, 30)
    vector = st.tuples(*[coordinate] * dims)
    symbols = []
    for __ in range(draw(st.integers(0, 12))):
        start, stride = draw(vector), draw(vector)
        for index in range(draw(st.integers(1, 15))):
            symbols.append(tuple(s + index * d for s, d in zip(start, stride)))
    cuts = sorted(draw(st.lists(st.integers(0, len(symbols)), max_size=4)))
    return dims, budget, cap, symbols, cuts


def _entry_fields(entry):
    overflow = entry.overflow
    return (
        entry.lmads, entry.total_symbols, entry.summarized, overflow.count,
        overflow.minimum, overflow.maximum, overflow.granularity,
    )


@settings(max_examples=300, deadline=None)
@given(kernel_case())
def test_feed_all_equals_a_feed_loop(case):
    dims, budget, cap, symbols, cuts = case
    one_by_one = LMADCompressor(dims, budget, overflow_cap=cap)
    for symbol in symbols:
        one_by_one.feed(symbol)
    batched = LMADCompressor(dims, budget, overflow_cap=cap)
    for low, high in zip([0, *cuts], [*cuts, len(symbols)]):
        batched.feed_all(symbols[low:high])
    expected, got = one_by_one.finish(), batched.finish()
    assert _entry_fields(got) == _entry_fields(expected)
    assert got == expected


def test_feed_all_crosses_the_overflow_cap():
    symbols = [(i * i,) for i in range(200)]  # quadratic: nothing chains
    one_by_one = LMADCompressor(1, budget=3, overflow_cap=20)
    for symbol in symbols:
        one_by_one.feed(symbol)
    batched = LMADCompressor(1, budget=3, overflow_cap=20)
    batched.feed_all(symbols)
    entry = batched.finish()
    assert entry.summarized and entry.lmads == ()
    assert entry == one_by_one.finish()
    assert entry.overflow.count == 200
    assert (entry.overflow.minimum, entry.overflow.maximum) == ((0,), (199 * 199,))


def test_feed_all_after_finish_rejected():
    compressor = LMADCompressor(dims=1)
    compressor.finish()
    with pytest.raises(RuntimeError):
        compressor.feed_all([(1,)])


def test_wrong_dimension_in_the_spilled_tail_rejected():
    head = [(0, 0), (5, 1), (9, 9), (2, 7)]  # budget 1: all but two spill
    symbols = head + [(3,), (4, 4)]
    one_by_one = LMADCompressor(dims=2, budget=1)
    with pytest.raises(ValueError):
        for symbol in symbols:
            one_by_one.feed(symbol)
    batched = LMADCompressor(dims=2, budget=1)
    with pytest.raises(ValueError):
        batched.feed_all(symbols)
    # the symbols before the bad one were taken, as a feed loop takes them
    assert batched.finish() == one_by_one.finish()
    assert batched.symbols_fed == len(head)

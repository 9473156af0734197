"""Deeper tests of hot-stream grammar accounting."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.sequitur import compress
from repro.core.binformat import rule_sizes
from repro.core.cdc import translate_trace_list
from repro.core.events import AccessKind
from repro.core.tuples import ObjectRelativeAccess
from repro.postprocess.hot_streams import (
    HotStream,
    _rule_occurrences,
    extract_hot_streams,
)
from repro.workloads.registry import create


def access(group, serial, time):
    return ObjectRelativeAccess(0, group, serial, 0, time, 8, AccessKind.LOAD)


def frozen_accounting(tokens):
    """A frozen grammar of ``tokens``: its tagged productions, each
    rule's expanded length and each rule's occurrence count."""
    frozen = compress(tokens).freeze()
    start, productions = frozen.tagged()
    sizes = rule_sizes(start, productions, frozen.tokens_fed)
    return start, productions, sizes, _rule_occurrences(start, productions, sizes)


class TestRuleOccurrences:
    def test_paper_grammar(self):
        # "abcbcabcbc": S -> AA, A -> aBB, B -> bc
        __, __, sizes, counts = frozen_accounting([0, 1, 2, 1, 2, 0, 1, 2, 1, 2])
        # every rule's occurrences * length summed over terminals equals
        # the input length when weighted by expansion containment; the
        # direct check: occurrences of A is 2 and of B is 4
        by_length = {sizes[rid]: counts[rid] for rid in counts}
        assert by_length[10] == 1  # start rule
        assert by_length[5] == 2  # A expands to abcbc
        assert by_length[2] == 4  # B expands to bc

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=200))
    def test_occurrence_times_length_bounded_by_input(self, tokens):
        start, productions, sizes, counts = frozen_accounting(tokens)
        for rule_id in productions:
            if rule_id == start:
                continue
            heat = counts[rule_id] * sizes[rule_id]
            # a rule's expansions are disjoint substrings of the input
            assert heat <= len(tokens)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 4), max_size=200))
    def test_occurrences_reconstruct_terminal_counts(self, tokens):
        """Summing (rule occurrences x terminal multiplicity in the
        rule's direct RHS) over all rules equals the input length."""
        __, productions, __, counts = frozen_accounting(tokens)
        total = 0
        for rule_id, rhs in productions.items():
            direct_terminals = sum(1 for tagged in rhs if not tagged & 1)
            total += counts[rule_id] * direct_terminals
        assert total == len(tokens)


class TestExtraction:
    def test_duplicate_collapse(self):
        # three field accesses to each object = one visit each
        stream = []
        time = 0
        for __ in range(6):
            for serial in (0, 1, 2):
                for __field in range(3):
                    stream.append(access(0, serial, time))
                    time += 1
        hot = extract_hot_streams(stream, top=3)
        assert hot
        assert hot[0].references == ((0, 0), (0, 1), (0, 2))
        assert hot[0].occurrences >= 5

    def test_length_filters(self):
        stream = [access(0, s % 4, t) for t, s in enumerate(range(400))]
        short_only = extract_hot_streams(stream, min_length=2, max_length=2)
        for hs in short_only:
            assert hs.length == 2

    def test_hotstream_dataclass(self):
        hs = HotStream(((0, 1), (0, 2)), 10)
        assert hs.length == 2
        assert hs.heat == 20

    def test_empty_stream(self):
        assert extract_hot_streams([]) == []

    def test_leaves_no_cyclic_garbage(self):
        """The visit grammar is frozen before ranking, so once the call
        returns reference counting has freed it and the cyclic collector
        finds nothing."""
        stream = translate_trace_list(create("gzip", scale=0.04, seed=3).trace())
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            hot = extract_hot_streams(stream)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
        assert hot

"""Tests for the Sequitur grammar compressor."""

import gc
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.sequitur import Ref, SequiturGrammar, compress
from repro.core import binformat
from repro.core.profile_io import dumps, dumps_bytes
from repro.core.tuples import DIMENSIONS
from repro.profilers.whomp import WhompProfile


class TestPaperExample:
    def test_abcbcabcbc(self):
        """The paper's Section 3.1 example: S -> AA; A -> aBB; B -> bc."""
        grammar = compress("abcbcabcbc")
        assert grammar.expand() == list("abcbcabcbc")
        rules = grammar.rules()
        assert len(rules) == 3  # S, A, B
        # the start rule is two references to one rule
        start_rhs = grammar.to_productions()[grammar.start.id]
        assert len(start_rhs) == 2
        assert start_rhs[0] == start_rhs[1]
        assert isinstance(start_rhs[0], Ref)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "sequence",
        [
            [],
            [1],
            [1, 2],
            [1, 1],
            [1, 1, 1],
            [1, 1, 1, 1],
            [0, 8] * 50,
            list(range(100)),
            [5] * 300,
            [0, 4, 8, 12] * 40 + [1, 2] * 15,
            [1, 4, 3, 1, 4, 3, 4, 3],
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0],
        ],
    )
    def test_expand_inverts_feed(self, sequence):
        grammar = compress(sequence)
        assert grammar.expand() == list(sequence)
        grammar.check_invariants()

    def test_random_streams(self):
        rng = random.Random(1234)
        for trial in range(200):
            n = rng.randint(0, 300)
            alphabet = rng.randint(1, 6)
            sequence = [rng.randint(0, alphabet) for __ in range(n)]
            grammar = compress(sequence)
            assert grammar.expand() == sequence, trial
            grammar.check_invariants()

    def test_incremental_feeding_equals_batch(self):
        sequence = [1, 2, 3, 1, 2, 3, 4, 1, 2]
        incremental = SequiturGrammar()
        for token in sequence:
            incremental.feed(token)
        batch = compress(sequence)
        assert incremental.expand() == batch.expand()
        assert incremental.to_productions() == batch.to_productions()

    def test_hashable_nonint_terminals(self):
        sequence = [("I", 1), ("A", 0x100)] * 20
        grammar = compress(sequence)
        assert grammar.expand() == sequence


class TestRestoreThenFeed:
    """A restored grammar must go on exactly as the original would: the
    index :meth:`SequiturGrammar.from_productions` re-derives has to use
    the same key shape as :meth:`SequiturGrammar.feed`, and the rule-id
    counter has to survive the pickle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_feed_after_pickle_round_trip(self, seed):
        rng = random.Random(seed)
        alphabet = [rng.randint(-3, 3) for __ in range(3)] + [("x", 1), ("x", 2)]
        motif = [rng.choice(alphabet) for __ in range(5)]
        sequence = []
        while len(sequence) < 600:
            sequence.extend(motif if rng.random() < 0.5 else [rng.choice(alphabet)])
        split = rng.randint(0, len(sequence))
        grammar = compress(sequence[:split])
        restored = pickle.loads(pickle.dumps(grammar))
        assert restored.to_productions() == grammar.to_productions()
        restored.feed_all(sequence[split:])
        assert restored.expand() == sequence
        assert restored.tokens_fed == len(sequence)
        assert restored.to_productions() == compress(sequence).to_productions()
        restored.check_invariants()

    def test_restore_keeps_rule_numbering(self):
        # the highest-numbered rule is inlined before some of these
        # splits: a counter re-derived from the live ids would reuse it
        sequence = [1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0]
        continuous = compress(sequence).to_productions()
        for split in range(len(sequence) + 1):
            restored = pickle.loads(pickle.dumps(compress(sequence[:split])))
            restored.feed_all(sequence[split:])
            assert restored.to_productions() == continuous, split

    def test_from_productions_rejects_a_used_rule_id(self):
        productions = compress([1, 2, 1, 2]).to_productions()
        with pytest.raises(ValueError, match="not above"):
            SequiturGrammar.from_productions(productions, next_rule_id=1)

    def test_restored_index_recognizes_repeats(self):
        grammar = compress([1, 2, 3, 9])
        restored = pickle.loads(pickle.dumps(grammar))
        restored.feed_all([1, 2, 3])
        # (1, 2) and (2, 3) repeat: a restored index that missed them
        # would leave the start rule at seven terminals
        assert restored.rule_count() == 2
        assert len(restored.to_productions()[restored.start.id]) == 3
        restored.check_invariants()


class TestCompression:
    def test_repetitive_stream_compresses(self):
        grammar = compress([1, 2, 3, 4] * 100)
        assert grammar.size() < 40

    def test_constant_stream_compresses_heavily(self):
        grammar = compress([7] * 1024)
        assert grammar.size() <= 24

    def test_random_stream_does_not_compress(self):
        rng = random.Random(0)
        sequence = [rng.randint(0, 10**9) for __ in range(500)]
        grammar = compress(sequence)
        assert grammar.size() >= 500  # all-unique terminals: no rules

    def test_tokens_fed_counter(self):
        grammar = compress([1, 2] * 10)
        assert grammar.tokens_fed == 20

    def test_size_bytes_fixed_width(self):
        grammar = compress([1, 2, 3])
        assert grammar.size_bytes(4) == (grammar.size() + grammar.rule_count()) * 4

    def test_varint_small_terminals_cheaper_than_large(self):
        small = compress(list(range(100)))
        large = compress([v + (1 << 40) for v in range(100)])
        assert small.size() == large.size()
        assert small.size_bytes_varint() < large.size_bytes_varint()

    def test_varint_handles_negative_terminals(self):
        grammar = compress([-1, -100, 5] * 10)
        assert grammar.expand() == [-1, -100, 5] * 10
        assert grammar.size_bytes_varint() > 0


class TestInvariants:
    def test_rule_utility_holds_on_structured_input(self):
        rng = random.Random(7)
        motif = [rng.randint(0, 20) for __ in range(9)]
        sequence = []
        for __ in range(40):
            sequence.extend(motif if rng.random() < 0.8 else [rng.randint(0, 20)])
        grammar = compress(sequence)
        grammar.check_invariants()
        for rule in grammar.rules():
            if rule is not grammar.start:
                assert rule.refcount >= 2

    def test_rules_have_at_least_two_symbols_or_are_start(self):
        rng = random.Random(9)
        sequence = [rng.randint(0, 4) for __ in range(400)]
        grammar = compress(sequence)
        for rule in grammar.rules():
            if rule is not grammar.start:
                assert rule.length() >= 2


class TestProductions:
    def test_productions_expand_consistently(self):
        sequence = [1, 2, 1, 2, 3, 1, 2, 1, 2, 3]
        grammar = compress(sequence)
        productions = grammar.to_productions()

        def expand(rule_id):
            out = []
            for symbol in productions[rule_id]:
                if isinstance(symbol, Ref):
                    out.extend(expand(symbol.rule_id))
                else:
                    out.append(symbol)
            return out

        assert expand(grammar.start.id) == sequence

    def test_ref_equality_and_hash(self):
        assert Ref(3) == Ref(3)
        assert Ref(3) != Ref(4)
        assert len({Ref(3), Ref(3), Ref(4)}) == 2
        assert repr(Ref(3)) == "Ref(3)"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=300))
def test_sequitur_property_roundtrip_and_invariants(sequence):
    grammar = compress(sequence)
    assert grammar.expand() == sequence
    grammar.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=50, max_size=400))
def test_sequitur_low_alphabet_stress(sequence):
    """Tiny alphabets maximize digram collisions and restructuring."""
    grammar = compress(sequence)
    assert grammar.expand() == sequence
    grammar.check_invariants()


def test_dead_rules_leave_no_cyclic_garbage():
    """Unlinked nodes and inlined rules keep no reference cycle, so
    reference counting frees them and the cyclic collector finds
    nothing to do while the grammar itself is still alive."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        grammar = compress([0] * 5000 + [1, 2, 3] * 3000)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert grammar.tokens_fed == 14000


def _whomp_of(grammar, length):
    """A WHOMP profile carrying ``grammar`` in every dimension."""
    return WhompProfile(
        grammars=dict.fromkeys(DIMENSIONS, grammar),
        base_addresses={},
        lifetimes=[],
        group_labels={},
        access_count=length,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(-4, 4), st.integers(-(1 << 40), 1 << 40)),
        max_size=300,
    )
)
def test_frozen_grammar_answers_as_the_live_one_did(sequence):
    """A frozen grammar reads as the live grammar did just before it
    froze, and equals what a BINCAP or JSON load of its profile yields,
    so a loaded grammar equals the produced one."""
    live = compress(sequence)
    before = (
        live.expand(), live.size(), live.size_bytes(), live.size_bytes_varint(),
        live.rule_count(), live.to_productions(), live.tokens_fed,
    )
    frozen = live.freeze()
    after = (
        frozen.expand(), frozen.size(), frozen.size_bytes(),
        frozen.size_bytes_varint(), frozen.rule_count(),
        frozen.to_productions(), frozen.tokens_fed,
    )
    assert after == before
    assert list(frozen.to_productions()) == list(before[5])  # id order
    assert frozen.expand() == sequence
    profile = _whomp_of(frozen, len(sequence))
    loaded = binformat.decode_tagged(dumps_bytes(profile, "binary"))
    checked = binformat.check_document(json.loads(dumps(profile)))
    for document in (loaded, checked):
        for grammar in document["grammars"].values():
            assert grammar == frozen.tagged()


def test_frozen_grammar_leaves_no_cyclic_garbage():
    """Freezing releases the live graph: once the spent live grammar is
    dropped, reference counting has freed every node and rule, and the
    cyclic collector finds nothing."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        live = compress([0] * 5000 + [1, 2, 3] * 3000 + [4, 5, 6, 7] * 500)
        frozen = live.freeze()
        del live
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert frozen.tokens_fed == 16000
    assert frozen.rule_count() > 2


def test_linked_symbols_stay_inside_the_compressor():
    """Code outside the compressor reads grammars in the frozen tagged
    form, never through the linked ``_Symbol`` nodes or the ``Ref``
    view of ``to_productions()``, so the node representation can change
    freely."""
    import re
    from pathlib import Path

    import repro

    package = Path(repro.__file__).parent
    linked = re.compile(r"_Symbol|is_nonterminal|\.symbols\(\)")
    ref_view = re.compile(r"\bRef\b|to_productions\(")
    compression = package / "compression"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if (path != compression / "sequitur.py" and linked.search(text)) or (
            path.parent != compression and ref_view.search(text)
        ):
            offenders.append(str(path.relative_to(package)))
    assert offenders == []

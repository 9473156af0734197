"""Online Sequitur compression (Nevill-Manning & Witten, 1997).

WHOMP compresses each decomposed dimension stream with Sequitur, which
"encodes input data stream as a context-free grammar based on its
repeating patterns" (Section 3.1).  The paper's example:

    "abcbcabcbc"  ->  S -> AA;  A -> aBB;  B -> bc

The implementation enforces the two Sequitur invariants after every
appended token:

* **digram uniqueness** -- no pair of adjacent symbols appears more than
  once in the grammar without overlap (a repeated digram becomes a rule);
* **rule utility** -- every rule other than S is referenced at least
  twice (a rule used once is inlined and deleted).

Enforcement is organized around a *work queue*: every structural edit
(substitution, inlining) records the boundary symbols whose digrams may
have changed, and a drain loop re-checks them until the grammar is
stable.  Queue entries are validated against symbol liveness and the
digram index before acting, which keeps the cascade logic simple and
verifiable; the classic recursive formulation is notoriously easy to get
subtly wrong.

The order of those edits is part of the output: rule ids are allocated
as rules are created, and WHOMP serializes ids and right-hand sides, so
any rewrite of the hot path must replay exactly the same edits.

Node cost is the hot path's cost.  The nodes an edit makes (the
appended terminal, a substitution's reference, a new rule's guard and
body) are built with ``object.__new__`` and plain slot stores, so no
constructor frame runs per node; one ``inert`` flag marks both guards
and unlinked nodes, and an inlined rule drops its guard's back
reference, so neither an unlinked node nor a dead rule is left in a
reference cycle: reference counting frees them.

A grammar lives in two forms.  While it is fed it is the live node
graph above: a guard ring per rule, a ``refs`` set per rule and the
digram index, all in reference cycles.  Once it is finished,
:meth:`SequiturGrammar.freeze` turns it into a :class:`FrozenGrammar`,
each rule's right-hand side as tagged integers (the form BINCAP writes
and loads), and in the same walk unlinks the graph so that reference
counting frees it at once.  The profilers, the RASG baseline and the
hot-stream miner keep only frozen grammars.

Terminals may be any hashable value, but only a grammar of integer
terminals freezes, so every grammar the package builds is fed
integers (the hot-stream miner interns its object references first).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

Terminal = Hashable


class _Symbol:
    """A node in a rule's doubly linked symbol list.

    ``value`` is a terminal or a :class:`Rule` (a non-terminal, flagged
    by ``is_nonterminal``).  Guard nodes -- the circular sentinels
    heading each rule -- carry the rule itself as value.  ``inert`` is
    True for a guard and for a node an edit has unlinked: neither starts
    a digram, so the one flag serves both queued work (is this stale?)
    and list walks (is this the end?).

    The hot path skips this constructor: it builds a node with
    ``object.__new__(_Symbol)`` and stores all five slots itself (an
    unstored slot raises on read).
    """

    __slots__ = ("value", "prev", "next", "inert", "is_nonterminal")

    def __init__(
        self,
        value: Union[Terminal, "Rule"],
        is_nonterminal: bool = False,
        inert: bool = False,
    ) -> None:
        self.value = value
        self.prev: Optional["_Symbol"] = None
        self.next: Optional["_Symbol"] = None
        self.inert = inert
        self.is_nonterminal = is_nonterminal


class Rule:
    """One grammar rule: a guard node heading a circular symbol list.

    ``refs`` tracks the live non-terminal symbols referencing this rule,
    so rule utility (refcount) and the single remaining reference are
    both O(1) lookups.
    """

    __slots__ = ("id", "guard", "refs")

    def __init__(self, rule_id: int) -> None:
        self.id = rule_id
        self.guard = _Symbol(self, inert=True)
        self.guard.prev = self.guard
        self.guard.next = self.guard
        self.refs: "set[_Symbol]" = set()

    @property
    def refcount(self) -> int:
        return len(self.refs)

    @property
    def first(self) -> _Symbol:
        return self.guard.next  # type: ignore[return-value]

    def symbols(self) -> Iterable[_Symbol]:
        node = self.first
        while not node.inert:
            yield node
            node = node.next  # type: ignore[assignment]

    def length(self) -> int:
        return sum(1 for __ in self.symbols())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [
            f"R{s.value.id}" if s.is_nonterminal else repr(s.value)
            for s in self.symbols()
        ]
        return f"R{self.id} -> {' '.join(parts)}"


def _varint_len(value: int) -> int:
    """Bytes to encode ``value`` as a zigzag LEB128-style varint."""
    encoded = value * 2 if value >= 0 else -value * 2 - 1
    length = 1
    while encoded >= 0x80:
        encoded >>= 7
        length += 1
    return length


def _encoded_terminal_len(value: Terminal) -> int:
    """Serialized size of one terminal: varint for integers, a flat
    8-byte record for anything else (tuples etc.)."""
    if isinstance(value, bool) or not isinstance(value, int):
        return 8
    return _varint_len(value)


Digram = Tuple[Hashable, Hashable]


def _digram_key(left: _Symbol) -> Digram:
    """Hashable identity of the digram starting at ``left``: the pair of
    symbol values.  A :class:`Rule` hashes and compares by identity, so
    it never collides with a terminal or another rule (a key holds its
    rule alive).  :meth:`SequiturGrammar.feed_all` inlines this
    expression."""
    return (left.value, left.next.value)  # type: ignore[union-attr]


class SequiturGrammar:
    """An incrementally built Sequitur grammar.

    >>> g = SequiturGrammar()
    >>> g.feed_all("abcbcabcbc")
    >>> g.expand() == list("abcbcabcbc")
    True
    """

    def __init__(self) -> None:
        self.start = Rule(0)
        self._next_rule_id = 1
        # digram key -> the left symbol of its registered occurrence
        self._digrams: Dict[Digram, _Symbol] = {}
        self._pending: List[_Symbol] = []
        self._tokens_fed = 0

    # -- public API ----------------------------------------------------

    def feed(self, token: Terminal) -> None:
        """Append one terminal (see :meth:`feed_all`)."""
        self.feed_all((token,))

    def feed_all(self, tokens: Iterable[Terminal]) -> None:
        """Append each terminal in turn, and after each one process
        queued digram positions until the grammar is stable.

        This is the hot path, so it runs in one frame with the
        digram-uniqueness check inlined; only a real repeat leaves the
        loop (:meth:`_handle_match`).  A registered occurrence is
        trusted only while it is still a live occurrence of its key.
        """
        new_node = object.__new__
        Symbol = _Symbol
        guard = self.start.guard
        digrams = self._digrams
        pending = self._pending
        pop = pending.pop
        push = pending.append
        handle_match = self._handle_match
        fed = 0
        for token in tokens:
            fed += 1
            last = guard.prev
            new = new_node(Symbol)
            new.value = token
            new.prev = last
            new.next = guard
            new.inert = new.is_nonterminal = False
            last.next = new  # type: ignore[union-attr]
            guard.prev = new
            push(last)  # type: ignore[arg-type]
            while pending:
                left = pop()
                if left.inert:
                    continue
                right = left.next
                if right.inert:
                    continue
                key = (left.value, right.value)  # _digram_key(left)
                match = digrams.get(key)
                if match is left:
                    continue
                if match is None or match.inert:
                    digrams[key] = left
                    continue
                match_right = match.next
                if match_right.inert or (match.value, match_right.value) != key:
                    digrams[key] = left
                elif match_right is not left and right is not match:
                    handle_match(left, match)  # not overlapping ("aaa")
        self._tokens_fed += fed

    @property
    def tokens_fed(self) -> int:
        return self._tokens_fed

    def rules(self) -> List[Rule]:
        """All rules reachable from the start rule, in id order."""
        seen: Dict[int, Rule] = {}
        stack = [self.start]
        while stack:
            rule = stack.pop()
            if rule.id in seen:
                continue
            seen[rule.id] = rule
            for symbol in rule.symbols():
                if symbol.is_nonterminal:
                    stack.append(symbol.value)
        return [seen[rid] for rid in sorted(seen)]

    def size(self) -> int:
        """Grammar size: total symbols on all right-hand sides.

        The standard measure of a Sequitur grammar's size, and what the
        OMSG-vs-RASG compression comparison counts.
        """
        return sum(rule.length() for rule in self.rules())

    def rule_count(self) -> int:
        return len(self.rules())

    def size_bytes(self, bytes_per_symbol: int = 4) -> int:
        """Approximate serialized size: one fixed-width code per RHS
        symbol plus one header code per rule."""
        return (self.size() + self.rule_count()) * bytes_per_symbol

    def size_bytes_varint(self) -> int:
        """Serialized size with variable-length integer coding.

        This is the size a real grammar file would have: every RHS
        symbol is one tag bit plus a zigzag varint (terminal value or
        rule id), and each rule costs a varint length header.  The
        metric is what makes the byte-level OMSG/RASG comparison honest:
        object-relative streams carry small integers (offsets, serials,
        group ids) where the raw address stream carries 64-bit pointers.
        """
        total = 0
        for rule in self.rules():
            length = 0
            for symbol in rule.symbols():
                if symbol.is_nonterminal:
                    total += _varint_len(symbol.value.id)
                else:
                    total += _encoded_terminal_len(symbol.value)
                length += 1
            total += _varint_len(length)
        return total

    def expand(self) -> List[Terminal]:
        """Decompress: expand the start rule back to the input sequence."""
        out: List[Terminal] = []
        stack: List[_Symbol] = list(reversed(list(self.start.symbols())))
        while stack:
            symbol = stack.pop()
            if symbol.is_nonterminal:
                stack.extend(reversed(list(symbol.value.symbols())))
            else:
                out.append(symbol.value)
        return out

    def to_productions(self) -> Dict[int, List[Union[Terminal, "Ref"]]]:
        """Plain-data view: rule id -> RHS list; non-terminal references
        appear as :class:`Ref` instances, terminals verbatim."""
        productions: Dict[int, List[Union[Terminal, Ref]]] = {}
        for rule in self.rules():
            rhs: List[Union[Terminal, Ref]] = []
            for symbol in rule.symbols():
                if symbol.is_nonterminal:
                    rhs.append(Ref(symbol.value.id))
                else:
                    rhs.append(symbol.value)
            productions[rule.id] = rhs
        return productions

    def freeze(self) -> "FrozenGrammar":
        """The finished grammar as a :class:`FrozenGrammar`; the live
        graph is released in the same walk.

        Each rule reachable from the start is read once.  Reading it
        unlinks it: every node drops ``prev``, the guard its links and
        ``value``, the rule its ``refs``, and the digram index is
        emptied first, so no reference cycle is left and reference
        counting frees the nodes without the cyclic collector.  The
        live grammar is spent afterwards: it cannot be fed or read.
        Terminals must be integers (a tuple raises ``TypeError``).
        """
        self._digrams.clear()
        start = self.start
        self.start = None  # type: ignore[assignment]
        productions: Dict[int, List[int]] = {}
        stack = [start]
        seen = {start.id}
        while stack:
            rule = stack.pop()
            guard = rule.guard
            rhs: List[int] = []
            append = rhs.append
            node = guard.next
            while node is not guard:
                node.prev = None
                value = node.value
                if node.is_nonterminal:
                    rule_id = value.id
                    append(rule_id << 1 | 1)
                    if rule_id not in seen:
                        seen.add(rule_id)
                        stack.append(value)
                elif value >= 0:  # zigzag(value) << 1
                    append(value << 2)
                else:
                    append((-value << 2) - 2)
                node = node.next
            guard.next = guard.prev = guard.value = None
            rule.refs.clear()
            productions[rule.id] = rhs
        return FrozenGrammar(
            start.id,
            {rule_id: productions[rule_id] for rule_id in sorted(productions)},
            self._tokens_fed,
            self._next_rule_id - 1,
        )

    @classmethod
    def from_productions(
        cls,
        productions: Dict[int, List[Union[Terminal, "Ref"]]],
        start: int = 0,
        tokens_fed: int = 0,
        next_rule_id: Optional[int] = None,
    ) -> "SequiturGrammar":
        """Rebuild a grammar from its :meth:`to_productions` view.

        The reconstruction is structurally exact -- same rules, same
        right-hand sides -- so every size metric, :meth:`expand`, and a
        further :meth:`to_productions` round-trip match the original.
        The digram index is re-derived (first occurrence per key), so
        the grammar remains feedable.  This is also the pickle path:
        the linked-symbol structure defeats naive pickling, but the
        production view crosses process boundaries as plain data.

        ``next_rule_id`` is the id the next new rule takes (default: one
        past the highest id present).  Ids of inlined rules are never
        reused, so a grammar restored to go on feeding must carry its
        counter to number its next rules as the original would.
        """
        grammar = cls.__new__(cls)
        grammar._digrams = {}
        grammar._pending = []
        grammar._tokens_fed = tokens_fed
        rules: Dict[int, Rule] = {rid: Rule(rid) for rid in productions}
        if start not in rules:
            rules[start] = Rule(start)
        if next_rule_id is None:
            next_rule_id = max(rules) + 1
        elif next_rule_id <= max(rules):
            raise ValueError(
                f"next rule id {next_rule_id} is not above R{max(rules)}"
            )
        grammar._next_rule_id = next_rule_id
        grammar.start = rules[start]
        for rule_id, rhs in productions.items():
            rule = rules[rule_id]
            for symbol in rhs:
                if isinstance(symbol, Ref):
                    try:
                        node = _Symbol(rules[symbol.rule_id], is_nonterminal=True)
                    except KeyError:
                        raise ValueError(
                            f"R{rule_id} references undefined R{symbol.rule_id}"
                        ) from None
                else:
                    node = _Symbol(symbol)
                grammar._insert_after(rule.guard.prev, node)
        for rule_id in sorted(rules):
            node = rules[rule_id].first
            while not node.inert and not node.next.inert:
                grammar._digrams.setdefault(_digram_key(node), node)
                node = node.next
        return grammar

    def __reduce__(self):
        return (
            _grammar_from_state,
            (
                self.to_productions(),
                self.start.id,
                self._tokens_fed,
                self._next_rule_id,
            ),
        )

    def check_invariants(self) -> None:
        """Assert the grammar's invariants and bookkeeping (used by tests).

        Sequitur's two invariants: digram uniqueness, which permits
        *overlapping* repeats (``aaa``) because the algorithm
        deliberately leaves those alone, and rule utility.  Then the
        bookkeeping the edits keep, which a slip can break without
        changing any output yet: on every reachable rule, ``prev`` and
        ``next`` are mutual, only the guard is ``inert``, and ``refs``
        is exactly the set of linked nodes that reference the rule.
        """
        rules = self.rules()
        pointing: Dict[Rule, "set[_Symbol]"] = {rule: set() for rule in rules}
        for rule in rules:
            guard = rule.guard
            assert guard.inert and guard.value is rule, f"bad guard on R{rule.id}"
            node = guard
            while True:
                assert node.next.prev is node, f"prev/next not mutual in R{rule.id}"
                node = node.next
                if node is guard:
                    break
                assert not node.inert, f"inert non-guard node in R{rule.id}"
                if node.is_nonterminal:
                    pointing[node.value].add(node)
        for rule in rules:
            assert rule.refs == pointing[rule], f"stale refs on R{rule.id}"
        seen: Dict[Digram, _Symbol] = {}
        for rule in rules:
            node = rule.first
            while not node.inert and not node.next.inert:
                key = _digram_key(node)
                first = seen.get(key)
                if first is None:
                    seen[key] = node
                else:
                    assert first.next is node, (
                        f"digram uniqueness violated for {key} in R{rule.id}"
                    )
                node = node.next
            if rule is not self.start:
                assert rule.refcount >= 2, f"rule utility violated for R{rule.id}"

    # -- structural edits ------------------------------------------------

    def _insert_after(self, node: _Symbol, new: _Symbol) -> None:
        new.prev = node
        new.next = node.next
        node.next.prev = new  # type: ignore[union-attr]
        node.next = new
        if new.is_nonterminal:
            new.value.refs.add(new)

    # -- invariant enforcement -------------------------------------------
    #
    # Every edit forgets the digrams it destroys: a forgotten digram
    # drops out of the index if its registered occurrence is the one
    # destroyed, and then its neighbours are queued, because an
    # *overlapping* second occurrence of the same key (the ``aaa`` case)
    # may sit unregistered in its shadow.  Symbols that the edit unlinks
    # are not queued; the drain loop would skip them anyway.

    def _handle_match(self, new_left: _Symbol, old_left: _Symbol) -> None:
        """Rewrite two non-overlapping occurrences of one digram."""
        digrams = self._digrams
        pending = self._pending
        new_node = object.__new__
        old_right: _Symbol = old_left.next  # type: ignore[assignment]
        if old_left.prev.inert and old_right.next.inert:  # type: ignore[union-attr]
            # The registered occurrence is exactly an existing rule's
            # whole body: reuse that rule.
            rule: Rule = old_left.prev.value  # type: ignore[union-attr]
            targets: Tuple[_Symbol, ...] = (new_left,)
        else:
            # A new rule: guard <-> body_left <-> body_right <-> guard,
            # built without a constructor frame (as Rule.__init__ and
            # _insert_after would build it).
            rule = new_node(Rule)
            rule.id = self._next_rule_id
            self._next_rule_id += 1
            rule.refs = set()
            rule.guard = guard = new_node(_Symbol)
            body_left = new_node(_Symbol)
            body_right = new_node(_Symbol)
            guard.value = rule
            guard.inert = True
            guard.is_nonterminal = body_left.inert = body_right.inert = False
            guard.next = body_right.prev = body_left
            guard.prev = body_left.next = body_right
            body_left.prev = body_right.next = guard
            body_left.value = old_left.value
            body_left.is_nonterminal = old_left.is_nonterminal
            body_right.value = old_right.value
            body_right.is_nonterminal = old_right.is_nonterminal
            if body_left.is_nonterminal:
                body_left.value.refs.add(body_left)
            if body_right.is_nonterminal:
                body_right.value.refs.add(body_right)
            digrams[(body_left.value, body_right.value)] = body_left
            # Replace the old occurrence first, then the new one.
            # Inlining triggered by the first substitution can consume
            # the second occurrence (when it was the sole reference to
            # an inlined rule); its ``inert`` flag detects that.
            targets = (old_left, new_left)
        for left in targets:
            if left.inert:
                continue
            # Substitute a reference to ``rule`` for the digram
            # (left, right), forgetting the three digrams it destroys.
            right: _Symbol = left.next  # type: ignore[assignment]
            prev: _Symbol = left.prev  # type: ignore[assignment]
            after: _Symbol = right.next  # type: ignore[assignment]
            if not prev.inert:
                key = (prev.value, left.value)
                if digrams.get(key) is prev:
                    del digrams[key]
                    pending.append(prev.prev)  # type: ignore[arg-type]
            key = (left.value, right.value)
            if digrams.get(key) is left:
                del digrams[key]
                pending.append(prev)
            if not after.inert:
                key = (right.value, after.value)
                if digrams.get(key) is right:
                    del digrams[key]
                    pending.append(after)
            left.inert = right.inert = True
            right.prev = prev  # no dead cycle left for the collector
            ref = new_node(_Symbol)
            ref.value = rule
            ref.prev = prev
            ref.next = after
            ref.inert = False
            ref.is_nonterminal = True
            prev.next = after.prev = ref
            rule.refs.add(ref)
            pending.append(prev)
            pending.append(ref)
            # Rule utility: the two removed symbols may have dropped
            # some rule's reference count to one.
            if left.is_nonterminal:
                left.value.refs.discard(left)
            if right.is_nonterminal:
                right.value.refs.discard(right)
            if left.is_nonterminal and len(left.value.refs) == 1:
                self._inline(left.value)
            if right.is_nonterminal and len(right.value.refs) == 1:
                self._inline(right.value)
        # So may the rule's two body symbols.
        first: _Symbol = rule.guard.next  # type: ignore[assignment]
        last: _Symbol = rule.guard.prev  # type: ignore[assignment]
        if not first.inert and first.is_nonterminal and len(first.value.refs) == 1:
            self._inline(first.value)
        if not last.inert and last.is_nonterminal and len(last.value.refs) == 1:
            self._inline(last.value)

    def _inline(self, rule: Rule) -> None:
        """Rule utility: splice a rule referenced once into its sole
        referencing position; the rule is dead afterwards.

        The body's symbol nodes move wholesale, so their digram
        registrations stay valid.  Only the two boundary digrams around
        the reference change; they are queued.
        """
        digrams = self._digrams
        pending = self._pending
        (ref,) = rule.refs
        prev: _Symbol = ref.prev  # type: ignore[assignment]
        next_node: _Symbol = ref.next  # type: ignore[assignment]
        if not prev.inert:
            key = (prev.value, rule)
            if digrams.get(key) is prev:
                del digrams[key]
                pending.append(prev.prev)  # type: ignore[arg-type]
        if not next_node.inert:
            key = (rule, next_node.value)
            if digrams.get(key) is ref:
                del digrams[key]
                pending.append(prev)
                pending.append(next_node)
        ref.inert = True
        rule.refs.clear()
        guard = rule.guard
        guard.value = None  # no Rule <-> guard cycle left for the collector
        first, last = guard.next, guard.prev
        if first is guard:
            prev.next = next_node
            next_node.prev = prev
            pending.append(prev)
            return
        prev.next = first
        first.prev = prev  # type: ignore[union-attr]
        last.next = next_node  # type: ignore[union-attr]
        next_node.prev = last
        pending.append(prev)
        pending.append(last)  # type: ignore[arg-type]


class Ref:
    """A non-terminal reference in :meth:`SequiturGrammar.to_productions`."""

    __slots__ = ("rule_id",)

    def __init__(self, rule_id: int) -> None:
        self.rule_id = rule_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ref) and other.rule_id == self.rule_id

    def __hash__(self) -> int:
        return hash(("Ref", self.rule_id))

    def __repr__(self) -> str:
        return f"Ref({self.rule_id})"


class FrozenGrammar:
    """A finished grammar: read-only, compact, and free of reference
    cycles (see :meth:`SequiturGrammar.freeze`).

    ``productions`` maps each rule id, in id order, to its right-hand
    side as tagged integers: a rule reference is ``rule_id << 1 | 1``
    and a terminal ``zigzag(value) << 1``.  That is the form
    :func:`repro.core.binformat.tag_grammar` gives and
    :func:`repro.core.binformat.decode_tagged` yields, so BINCAP writes
    it as it stands, a loaded grammar compares equal to the produced
    one, and both expand through one expander.  The size metrics equal
    the live grammar's.  ``rules_made`` counts every rule the live
    grammar ever made, the inlined ones too.
    """

    __slots__ = ("start", "productions", "tokens_fed", "rules_made")

    def __init__(
        self, start: int, productions: Dict[int, List[int]], tokens_fed: int,
        rules_made: int,
    ) -> None:
        self.start = start
        self.productions = productions
        self.tokens_fed = tokens_fed
        self.rules_made = rules_made

    def tagged(self) -> Tuple[int, Dict[int, List[int]]]:
        """``(start, productions)``: a grammar in
        :func:`repro.core.binformat.decode_tagged`'s form."""
        return self.start, self.productions

    def size(self) -> int:
        """Total symbols on all right-hand sides."""
        return sum(map(len, self.productions.values()))

    def rule_count(self) -> int:
        return len(self.productions)

    def size_bytes(self, bytes_per_symbol: int = 4) -> int:
        return (self.size() + self.rule_count()) * bytes_per_symbol

    def size_bytes_varint(self) -> int:
        """:meth:`SequiturGrammar.size_bytes_varint`, from the tags: a
        reference costs ``_varint_len(rule_id)``, the varint of
        ``2 * rule_id`` (the tag less its flag bit), and a terminal the
        varint of its zigzag (the tag shifted right once)."""
        total = 0
        for rhs in self.productions.values():
            total += _varint_len(len(rhs))
            for tagged in rhs:
                coded = tagged - 1 if tagged & 1 else tagged >> 1
                total += (coded.bit_length() + 6) // 7 or 1
        return total

    def expand(self) -> List[int]:
        """Decompress, through the expander loaded grammars use."""
        # imported here: importing repro.core imports this module
        from repro.core.binformat import _expand_tagged

        return _expand_tagged(self.start, self.productions, self.tokens_fed)

    def to_productions(self) -> Dict[int, List[Union[int, "Ref"]]]:
        """:meth:`SequiturGrammar.to_productions` of the live grammar."""
        return {
            rule_id: [
                Ref(tagged >> 1)
                if tagged & 1
                else ~(tagged >> 2) if tagged & 2 else tagged >> 2
                for tagged in rhs
            ]
            for rule_id, rhs in self.productions.items()
        }


def _grammar_from_state(
    productions, start, tokens_fed, next_rule_id
) -> SequiturGrammar:
    """Module-level unpickle hook for :meth:`SequiturGrammar.__reduce__`
    (subclass-agnostic pickling would lose the production round-trip)."""
    return SequiturGrammar.from_productions(
        productions, start=start, tokens_fed=tokens_fed, next_rule_id=next_rule_id
    )


def compress(tokens: Iterable[Terminal]) -> SequiturGrammar:
    """One-shot convenience: build a grammar over ``tokens``."""
    grammar = SequiturGrammar()
    grammar.feed_all(tokens)
    return grammar

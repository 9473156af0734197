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

Terminals may be any hashable value; the profilers feed integers.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

Terminal = Hashable


class _Symbol:
    """A node in a rule's doubly linked symbol list.

    ``value`` is a terminal or a :class:`Rule` (a non-terminal, flagged
    by ``is_nonterminal``).  Guard nodes -- the circular sentinels
    heading each rule -- carry the rule itself as value and are
    recognized via ``is_guard``.  ``alive`` turns False when the node is
    unlinked, letting queued work detect stale references.
    """

    __slots__ = ("value", "prev", "next", "is_guard", "is_nonterminal", "alive")

    def __init__(
        self,
        value: Union[Terminal, "Rule"],
        is_nonterminal: bool = False,
        is_guard: bool = False,
    ) -> None:
        self.value = value
        self.prev: Optional["_Symbol"] = None
        self.next: Optional["_Symbol"] = None
        self.is_guard = is_guard
        self.is_nonterminal = is_nonterminal
        self.alive = True


class Rule:
    """One grammar rule: a guard node heading a circular symbol list.

    ``refs`` tracks the live non-terminal symbols referencing this rule,
    so rule utility (refcount) and the single remaining reference are
    both O(1) lookups.
    """

    __slots__ = ("id", "guard", "refs")

    def __init__(self, rule_id: int) -> None:
        self.id = rule_id
        self.guard = _Symbol(self, is_guard=True)
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
        while not node.is_guard:
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
    rule alive).  :meth:`SequiturGrammar.feed` inlines this expression."""
    return (left.value, left.next.value)  # type: ignore[union-attr]


class SequiturGrammar:
    """An incrementally built Sequitur grammar.

    >>> g = SequiturGrammar()
    >>> g.feed_all("abcbcabcbc")
    >>> g.expand() == list("abcbcabcbc")
    True
    """

    def __init__(self) -> None:
        self._next_rule_id = 0
        self.start = self._new_rule()
        # digram key -> the left symbol of its registered occurrence
        self._digrams: Dict[Digram, _Symbol] = {}
        self._pending: List[_Symbol] = []
        self._tokens_fed = 0

    # -- public API ----------------------------------------------------

    def feed(self, token: Terminal) -> None:
        """Append one terminal to the input sequence, then process
        queued digram positions until the grammar is stable.

        This is the hot path, so the digram-uniqueness check is inlined
        here; only a real repeat leaves the loop (:meth:`_handle_match`).
        A registered occurrence is trusted only while it is still a live
        occurrence of its key.
        """
        self._tokens_fed += 1
        guard = self.start.guard
        last = guard.prev
        new = _Symbol(token)
        new.prev = last
        new.next = guard
        last.next = new  # type: ignore[union-attr]
        guard.prev = new
        digrams = self._digrams
        pending = self._pending
        pending.append(last)  # type: ignore[arg-type]
        while pending:
            left = pending.pop()
            if not left.alive or left.is_guard:
                continue
            right = left.next
            if right.is_guard:
                continue
            key = (left.value, right.value)  # _digram_key(left)
            match = digrams.get(key)
            if match is left:
                continue
            if match is None or not match.alive:
                digrams[key] = left
                continue
            match_right = match.next
            if match_right.is_guard or (match.value, match_right.value) != key:
                digrams[key] = left
            elif match_right is not left and right is not match:
                self._handle_match(left, match)  # not overlapping ("aaa")

    def feed_all(self, tokens: Iterable[Terminal]) -> None:
        for token in tokens:
            self.feed(token)

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

    @classmethod
    def from_productions(
        cls,
        productions: Dict[int, List[Union[Terminal, "Ref"]]],
        start: int = 0,
        tokens_fed: int = 0,
    ) -> "SequiturGrammar":
        """Rebuild a grammar from its :meth:`to_productions` view.

        The reconstruction is structurally exact -- same rules, same
        right-hand sides -- so every size metric, :meth:`expand`, and a
        further :meth:`to_productions` round-trip match the original.
        The digram index is re-derived (first occurrence per key), so
        the grammar remains feedable.  This is also the pickle path:
        the linked-symbol structure defeats naive pickling, but the
        production view crosses process boundaries as plain data.
        """
        grammar = cls.__new__(cls)
        grammar._digrams = {}
        grammar._pending = []
        grammar._tokens_fed = tokens_fed
        rules: Dict[int, Rule] = {rid: Rule(rid) for rid in productions}
        if start not in rules:
            rules[start] = Rule(start)
        grammar._next_rule_id = max(rules) + 1
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
            while not node.is_guard and not node.next.is_guard:
                grammar._digrams.setdefault(_digram_key(node), node)
                node = node.next
        return grammar

    def __reduce__(self):
        return (
            _grammar_from_state,
            (self.to_productions(), self.start.id, self._tokens_fed),
        )

    def check_invariants(self) -> None:
        """Assert digram uniqueness and rule utility (used by tests).

        Digram uniqueness permits *overlapping* repeats (``aaa``): the
        algorithm deliberately leaves those alone.
        """
        seen: Dict[Digram, _Symbol] = {}
        for rule in self.rules():
            node = rule.first
            while not node.is_guard and not node.next.is_guard:
                key = _digram_key(node)
                first = seen.get(key)
                if first is None:
                    seen[key] = node
                else:
                    assert first.next is node, (
                        f"digram uniqueness violated for {key} in R{rule.id}"
                    )
                node = node.next
        for rule in self.rules():
            if rule is not self.start:
                assert rule.refcount >= 2, f"rule utility violated for R{rule.id}"

    # -- structural edits ------------------------------------------------

    def _new_rule(self) -> Rule:
        rule = Rule(self._next_rule_id)
        self._next_rule_id += 1
        return rule

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
        old_right: _Symbol = old_left.next  # type: ignore[assignment]
        if old_left.prev.is_guard and old_right.next.is_guard:  # type: ignore[union-attr]
            # The registered occurrence is exactly an existing rule's
            # whole body: reuse that rule.
            rule: Rule = old_left.prev.value  # type: ignore[union-attr]
            targets: Tuple[_Symbol, ...] = (new_left,)
        else:
            rule = self._new_rule()
            body_left = _Symbol(old_left.value, old_left.is_nonterminal)
            body_right = _Symbol(old_right.value, old_right.is_nonterminal)
            self._insert_after(rule.guard, body_left)
            self._insert_after(body_left, body_right)
            digrams[(body_left.value, body_right.value)] = body_left
            # Replace the old occurrence first, then the new one.
            # Inlining triggered by the first substitution can consume
            # the second occurrence (when it was the sole reference to
            # an inlined rule); the liveness flag detects that.
            targets = (old_left, new_left)
        for left in targets:
            if not left.alive:
                continue
            # Substitute a reference to ``rule`` for the digram
            # (left, right), forgetting the three digrams it destroys.
            right: _Symbol = left.next  # type: ignore[assignment]
            prev: _Symbol = left.prev  # type: ignore[assignment]
            after: _Symbol = right.next  # type: ignore[assignment]
            if not prev.is_guard:
                key = (prev.value, left.value)
                if digrams.get(key) is prev:
                    del digrams[key]
                    pending.append(prev.prev)  # type: ignore[arg-type]
            key = (left.value, right.value)
            if digrams.get(key) is left:
                del digrams[key]
                pending.append(prev)
            if not after.is_guard:
                key = (right.value, after.value)
                if digrams.get(key) is right:
                    del digrams[key]
                    pending.append(after)
            left.alive = right.alive = False
            right.prev = prev  # no dead cycle left for the collector
            ref = _Symbol(rule, True)
            ref.prev = prev
            ref.next = after
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
        if first.alive and first.is_nonterminal and len(first.value.refs) == 1:
            self._inline(first.value)
        if last.alive and last.is_nonterminal and len(last.value.refs) == 1:
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
        if not prev.is_guard:
            key = (prev.value, rule)
            if digrams.get(key) is prev:
                del digrams[key]
                pending.append(prev.prev)  # type: ignore[arg-type]
        if not next_node.is_guard:
            key = (rule, next_node.value)
            if digrams.get(key) is ref:
                del digrams[key]
                pending.append(prev)
                pending.append(next_node)
        ref.alive = False
        rule.refs.clear()
        guard = rule.guard
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


def _grammar_from_state(productions, start, tokens_fed) -> SequiturGrammar:
    """Module-level unpickle hook for :meth:`SequiturGrammar.__reduce__`
    (subclass-agnostic pickling would lose the production round-trip)."""
    return SequiturGrammar.from_productions(
        productions, start=start, tokens_fed=tokens_fed
    )


def compress(tokens: Iterable[Terminal]) -> SequiturGrammar:
    """One-shot convenience: build a grammar over ``tokens``."""
    grammar = SequiturGrammar()
    grammar.feed_all(tokens)
    return grammar

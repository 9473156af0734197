"""Hot data stream extraction from object-relative grammars.

The paper positions the OMSG as input to "a class of correlation-based
memory optimizations including clustering, custom heap allocation, and
hot data stream prefetching" (Section 3.2, citing Chilimbi & Hirzel).
A *hot data stream* is a sequence of object references that repeats
frequently; in a Sequitur grammar those are precisely the rules --
every rule exists because its expansion occurred repeatedly.

This module builds a grammar over the ``(group, object)`` reference
stream and ranks its rules by *heat* = occurrences x expanded length,
the standard hot-stream magnitude metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.compression.sequitur import Ref, SequiturGrammar
from repro.core.tuples import ObjectRelativeAccess

ObjectRef = Tuple[int, int]  # (group, object serial)


@dataclass(frozen=True)
class HotStream:
    """One frequently repeated object reference sequence."""

    references: Tuple[ObjectRef, ...]
    occurrences: int

    @property
    def length(self) -> int:
        return len(self.references)

    @property
    def heat(self) -> int:
        """Total accesses the stream accounts for."""
        return self.occurrences * self.length


Productions = Dict[int, List[object]]


def _rule_occurrences(
    grammar: SequiturGrammar, productions: Optional[Productions] = None
) -> Dict[int, int]:
    """How many times each rule's expansion occurs in the full input.

    Computed top-down: the start rule occurs once; each reference to a
    rule inside rule R contributes R's own occurrence count.  Sequitur
    grammars are acyclic, so a memoized traversal suffices.
    """
    if productions is None:
        productions = grammar.to_productions()
    start = grammar.start.id
    counts: Dict[int, int] = {start: 1}
    order: List[int] = []
    seen = set()

    def visit(rule_id: int) -> None:
        if rule_id in seen:
            return
        seen.add(rule_id)
        for symbol in productions[rule_id]:
            if isinstance(symbol, Ref):
                visit(symbol.rule_id)
        order.append(rule_id)

    visit(start)
    # Process parents before children: reverse postorder.
    for rule_id in reversed(order):
        parent_count = counts.get(rule_id, 0)
        for symbol in productions[rule_id]:
            if isinstance(symbol, Ref):
                counts[symbol.rule_id] = counts.get(symbol.rule_id, 0) + parent_count
    return counts


def _expansions(
    grammar: SequiturGrammar, productions: Optional[Productions] = None
) -> Dict[int, List]:
    """Memoized full expansion of every rule."""
    if productions is None:
        productions = grammar.to_productions()
    expansions: Dict[int, List] = {}

    def expand(rule_id: int) -> List:
        cached = expansions.get(rule_id)
        if cached is not None:
            return cached
        out: List = []
        for symbol in productions[rule_id]:
            if isinstance(symbol, Ref):
                out.extend(expand(symbol.rule_id))
            else:
                out.append(symbol)
        expansions[rule_id] = out
        return out

    expand(grammar.start.id)
    return expansions


def extract_hot_streams(
    stream: Iterable[ObjectRelativeAccess],
    min_length: int = 2,
    max_length: int = 256,
    min_occurrences: int = 2,
    top: int = 10,
) -> List[HotStream]:
    """Mine the hot object-reference streams of a translated trace.

    Consecutive duplicate references are collapsed first (several field
    accesses to one object are one visit), then the visit stream is
    grammar-compressed and the rules ranked by heat.
    """
    grammar = SequiturGrammar()
    previous: ObjectRef = None  # type: ignore[assignment]
    for access in stream:
        if access.wild:
            continue
        reference = (access.group, access.object_serial)
        if reference != previous:
            grammar.feed(reference)
            previous = reference
    productions = grammar.to_productions()
    counts = _rule_occurrences(grammar, productions)
    expansions = _expansions(grammar, productions)
    streams = []
    for rule_id in productions:
        if rule_id == grammar.start.id:
            continue
        expansion = expansions[rule_id]
        occurrences = counts.get(rule_id, 0)
        if (
            min_length <= len(expansion) <= max_length
            and occurrences >= min_occurrences
        ):
            streams.append(HotStream(tuple(expansion), occurrences))
    streams.sort(key=lambda s: s.heat, reverse=True)
    return streams[:top]


def coverage(streams: Iterable[HotStream], total_accesses: int) -> float:
    """Fraction of the (collapsed) reference stream the hot streams
    account for -- an upper-bound usefulness estimate."""
    if not total_accesses:
        return 0.0
    return min(1.0, sum(s.heat for s in streams) / total_accesses)

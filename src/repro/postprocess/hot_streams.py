"""Hot data stream extraction from object-relative grammars.

The paper positions the OMSG as input to "a class of correlation-based
memory optimizations including clustering, custom heap allocation, and
hot data stream prefetching" (Section 3.2, citing Chilimbi & Hirzel).
A *hot data stream* is a sequence of object references that repeats
frequently; in a Sequitur grammar those are precisely the rules --
every rule exists because its expansion occurred repeatedly.

This module interns each ``(group, object)`` reference to a dense
integer, builds a grammar over that stream, freezes it, and ranks the
frozen grammar's rules by *heat* = occurrences x expanded length, the
standard hot-stream magnitude metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.compression.sequitur import compress
from repro.core.binformat import _expand_tagged, rule_sizes
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


def _rule_occurrences(
    start: int, productions: Dict[int, List[int]], sizes: Dict[int, int]
) -> Dict[int, int]:
    """How many times each rule's expansion occurs in the full input.

    Computed top-down: the start rule occurs once; each reference to a
    rule inside rule R contributes R's own occurrence count.  ``sizes``,
    :func:`~repro.core.binformat.rule_sizes` of the tagged grammar, is
    in children-first order, so its reverse puts parents first.
    """
    counts: Dict[int, int] = dict.fromkeys(sizes, 0)
    counts[start] = 1
    for rule_id in reversed(sizes):
        parent_count = counts[rule_id]
        for tagged in productions[rule_id]:
            if tagged & 1:
                counts[tagged >> 1] += parent_count
    return counts


def _visits(
    stream: Iterable[ObjectRelativeAccess], references: List[ObjectRef]
) -> Iterator[int]:
    """The object references of ``stream``'s non-wild accesses, with
    consecutive duplicates collapsed, each as its index in
    ``references``, which grows in first-seen order."""
    interned: Dict[ObjectRef, int] = {}
    previous = -1
    for access in stream:
        if access.wild:
            continue
        reference = (access.group, access.object_serial)
        code = interned.get(reference)
        if code is None:
            code = interned[reference] = len(references)
            references.append(reference)
        if code != previous:
            yield code
            previous = code


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
    grammar-compressed and the rules ranked by heat.  Only the rules
    that pass the length and occurrence filters are expanded.
    """
    references: List[ObjectRef] = []
    frozen = compress(_visits(stream, references)).freeze()
    start, productions = frozen.tagged()
    sizes = rule_sizes(start, productions, frozen.tokens_fed)
    counts = _rule_occurrences(start, productions, sizes)
    streams = []
    for rule_id in productions:
        length = sizes[rule_id]
        if (
            rule_id != start
            and min_length <= length <= max_length
            and counts[rule_id] >= min_occurrences
        ):
            codes = _expand_tagged(rule_id, productions, length)
            streams.append(
                HotStream(tuple(map(references.__getitem__, codes)), counts[rule_id])
            )
    streams.sort(key=lambda s: s.heat, reverse=True)
    return streams[:top]


def coverage(streams: Iterable[HotStream], total_accesses: int) -> float:
    """Fraction of the (collapsed) reference stream the hot streams
    account for -- an upper-bound usefulness estimate."""
    if not total_accesses:
        return 0.0
    return min(1.0, sum(s.heat for s in streams) / total_accesses)

"""``validate_bytes`` refuses exactly what ``loads_bytes`` refuses.

The store validates each ingested document with
:func:`repro.core.profile_io.validate_bytes`, which checks a WHOMP
grammar from its rule sizes instead of expanding it and builds no LEAP
or dependence object.  The property below drives both functions over
mutated BINCAP and JSON bytes of the WHOMP, LEAP and dependence
documents of the seven SPEC stand-ins (scale 0.04, seed 0) and asserts
they agree on every input.
"""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binformat import encode_document
from repro.core.profile_io import (
    ProfileFormatError,
    document_from_bytes,
    dumps_bytes,
    loads_bytes,
    validate_bytes,
)
from repro.postprocess.dependence import analyze_dependences
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import SPEC_BENCHMARKS, create


@functools.lru_cache(maxsize=None)
def _documents():
    """``{(program, kind): JSON-shape document}`` of the 21 documents."""
    documents = {}
    for name in SPEC_BENCHMARKS:
        trace = create(name, scale=0.04, seed=0).trace()
        leap = LeapProfiler().profile(trace)
        for kind, profile in (
            ("whomp", WhompProfiler().profile(trace)),
            ("leap", leap),
            ("dependence", analyze_dependences(leap)),
        ):
            documents[(name, kind)] = json.loads(dumps_bytes(profile, "json"))
    return documents


def _decodes(func, data):
    try:
        func(data)
    except ProfileFormatError:
        return False
    return True


# -- document mutations ------------------------------------------------------
#
# Each edits a document copy in place; ``pick(options)`` chooses one of a
# sequence (drawn by hypothesis in the property, the first otherwise).


def _shift_access_count(document, pick):
    delta = pick([1, 3, -1, -2])  # too many symbols, or too few
    document["access_count"] = max(0, document["access_count"] + delta)


def _grammar(document, pick):
    return document["grammars"][pick(sorted(document["grammars"]))]


def _undefined_rule(document, pick):
    rules = _grammar(document, pick)["productions"]
    rhs = rules[pick(sorted(rules))]
    rhs[pick(range(len(rhs)))] = ["R", max(map(int, rules)) + 1]


def _rule_cycle(document, pick):
    # every rule of a Sequitur grammar is reachable from the start rule,
    # so a reference back to the start closes a cycle
    grammar = _grammar(document, pick)
    rules = grammar["productions"]
    rules[pick(sorted(rules))].append(["R", grammar["start"]])


def _doubling_bomb(document, pick):
    # 40 rules that each double the next describe 2**40 symbols
    grammar = _grammar(document, pick)
    rules = grammar["productions"]
    first = max(map(int, rules)) + 1
    for rule in range(first, first + 39):
        rules[str(rule)] = [["R", rule + 1], ["R", rule + 1]]
    rules[str(first + 39)] = [["T", 0], ["T", 0]]
    rules[str(grammar["start"])].append(["R", first])


def _leap_total(document, pick):
    pick(document["entries"])["total"] += pick([-1, 1])


#: kind -> the document mutations that apply to it
_MUTATIONS = {
    "whomp": [_shift_access_count, _undefined_rule, _rule_cycle, _doubling_bomb],
    "leap": [_shift_access_count, _leap_total],
    "dependence": [],
}


@st.composite
def _mutated_bytes(draw):
    """Bytes of one of the 21 documents in either encoding, after a
    document mutation, a byte flip or a truncation (or none)."""
    program, kind = draw(st.sampled_from(sorted(_documents())))
    document = json.loads(json.dumps(_documents()[(program, kind)]))
    edit = draw(st.sampled_from(_MUTATIONS[kind] + ["flip", "truncate", "none"]))
    if callable(edit):
        edit(document, lambda options: draw(st.sampled_from(options)))
    if draw(st.booleans()):
        data = encode_document(document)
    else:
        data = json.dumps(document).encode("utf-8")
    if edit == "flip":
        data = bytearray(data)
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        data = bytes(data)
    elif edit == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    return data


@given(_mutated_bytes())
@settings(max_examples=150, deadline=None)
def test_validate_accepts_exactly_what_loads_decodes(data):
    valid = _decodes(validate_bytes, data)
    assert valid == _decodes(loads_bytes, data)
    if valid:
        assert validate_bytes(data) == document_from_bytes(data)["format"]


def test_corpus_validates_in_both_encodings():
    for (__, kind), document in sorted(_documents().items()):
        for data in (encode_document(document), json.dumps(document).encode()):
            assert validate_bytes(data) == kind


@pytest.mark.parametrize(
    "mutation, match",
    [
        (_shift_access_count, "symbols, expected"),
        (_undefined_rule, "undefined"),
        (_rule_cycle, "cycle"),
        (_doubling_bomb, "expands past"),
        (_leap_total, "describes"),
    ],
)
def test_defects_refused_by_both(mutation, match):
    kind = "leap" if mutation is _leap_total else "whomp"
    document = json.loads(json.dumps(_documents()[("gzip", kind)]))
    mutation(document, lambda options: options[0])
    for data in (encode_document(document), json.dumps(document).encode()):
        with pytest.raises(ProfileFormatError, match=match):
            validate_bytes(data)
        with pytest.raises(ProfileFormatError):
            loads_bytes(data)

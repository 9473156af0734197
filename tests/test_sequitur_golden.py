"""Golden Sequitur grammars: rule numbering and right-hand sides pinned.

WHOMP serializes every grammar's rule ids and right-hand sides into its
JSON and BINCAP documents, so the exact sequence of structural edits --
not just losslessness -- is part of the output format.  Each digest
below is the sha256 of the canonical ``(start.id, tokens_fed,
to_productions())`` of one grammar; any change to edit order or rule-id
allocation changes it.

Corpus:

* the four WHOMP dimension streams of each SPEC stand-in (scale 0.04,
  seed 0, translated with a fresh :class:`ObjectManager`);
* a seeded random corpus with negative integers, long constant runs,
  tuple terminals and the paper's ``"abcbcabcbc"``.

Run this file as a script to print the digests of the current code.
"""

import hashlib
import random

import pytest

from repro.compression.sequitur import Ref, compress
from repro.core.cdc import translate_trace
from repro.core.omc import ObjectManager
from repro.core.tuples import DIMENSIONS
from repro.workloads.registry import SPEC_BENCHMARKS, create

SCALE = 0.04
SEED = 0


def canonical_digest(grammar) -> str:
    productions = grammar.to_productions()
    canonical = (
        grammar.start.id,
        grammar.tokens_fed,
        [
            (rule_id, [("R", s.rule_id) if isinstance(s, Ref) else ("T", s) for s in rhs])
            for rule_id, rhs in sorted(productions.items())
        ],
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


def dimension_streams(name):
    trace = create(name, scale=SCALE, seed=SEED).trace()
    streams = {dim: [] for dim in DIMENSIONS}
    for access in translate_trace(trace, ObjectManager()):
        streams["instruction"].append(access.instruction_id)
        streams["group"].append(access.group)
        streams["object"].append(access.object_serial)
        streams["offset"].append(access.offset)
    return streams


def random_corpus():
    rng = random.Random(20040321)
    corpus = {"paper": list("abcbcabcbc")}
    corpus["negatives"] = [rng.randint(-6, 3) for __ in range(2000)]
    runs = []
    for __ in range(60):
        runs.extend([rng.randint(-2, 2)] * rng.choice((1, 2, 3, 50, 257)))
    corpus["constant_runs"] = runs
    motif = [("x", rng.randint(0, 5)) for __ in range(7)]
    tuples = []
    for __ in range(300):
        tuples.extend(motif if rng.random() < 0.6 else [("x", rng.randint(-3, 9))])
    corpus["tuple_terminals"] = tuples
    mixed = []
    for __ in range(1500):
        roll = rng.random()
        if roll < 0.3:
            mixed.append(("x", rng.randint(0, 3)))
        elif roll < 0.5:
            mixed.extend([-1] * rng.randint(2, 9))
        else:
            mixed.append(rng.randint(-40, 40) // 8)
    corpus["mixed"] = mixed
    for i in range(6):
        alphabet = rng.randint(1, 5)
        corpus[f"small_alphabet_{i}"] = [
            rng.randint(-alphabet, alphabet) for __ in range(rng.randint(50, 1500))
        ]
    return corpus


SPEC_GOLDEN = {
    "gzip": {
        "instruction": "60d5789f4ffdf632a8626408a86cc881ff22612054b44de689e64ed8ad73f303",
        "group": "668e1dc22e14cce237d765a27654895975ff2cd39b75dabb399342adfed3a94b",
        "object": "09452dd1ca5c189c0687571f5917d22140bc0f98dce45c4a966e29ecf4b9f27d",
        "offset": "9aa2dc1b7b754c536ab938a2f76dd14865d685a3bf2ddef62f92fb5fe4de0dca",
    },
    "vpr": {
        "instruction": "71354c77b5baac3cc90a0c60cafdaf1027f81e6db987d9b3690bc2c84862a9ac",
        "group": "de74338cbd0a89ab48428157f8eab4e778668188a76041b1182497dade89e1d1",
        "object": "df1777125e66dfe3e669a7116d368e2da4a6b7a05a24ee343fbb1f7408f16396",
        "offset": "18684df0ae25844025d2ac170ad33d5e39de96525e126d8a2be9a8991aaceed2",
    },
    "mcf": {
        "instruction": "e14b95ea27e98fc4975440159f322983cdfefc71afc60811c50001ed00a4d83a",
        "group": "4c6e47673f7936895f5924a0cbf3a86f69376b527015ea6021fe45819a26efc5",
        "object": "e881b7133e565d7ec7a74ff7478ca0ff2fd14f98209b69bcf5feabb9d1794c9e",
        "offset": "8a3131ec46fcf74c72ea44477e2cc0df7c6d9214f7176729bf041272589fa55b",
    },
    "crafty": {
        "instruction": "aa214b9a27c6c889e0edcd82a32fb6f7754137576a5b4efedf212ea0547d975d",
        "group": "5b4bf3010fdc4d75c65f83951979af11d31197bdeb16f97faebe02ad598de533",
        "object": "b4366e7b15df8b9c9281f63ea9a59f52e7326bfe286c9c8425f3013a152398a1",
        "offset": "9f670525ebcae14019a09601899db3e6e3b96f12ba1614560df92f877c7413dd",
    },
    "parser": {
        "instruction": "f87688fa93b6bfa1fa19ce84dd29fbd61b509a2cf72ec28c852afb032144fdbf",
        "group": "69ba96d44a09cca278c8acc903666ee278c3b98453477f1d2beb41c468f9a0b3",
        "object": "bdefa292a24a319e4312620348eeb3aa4fdd56b89b6bb118ba5d8ffc6502c39d",
        "offset": "f0200b5889bac6c1f163e02c51c66db4eea270f1282c417867dc919f0ff06ca2",
    },
    "bzip2": {
        "instruction": "577a1ef0b3281a09d2a8a998f8147b34a35661d8f2638eb9d6abd22a0e604386",
        "group": "f7981700bb8c85e2ac7f1705f506f4f902c57cc5d2453b5621df8f542d76cd44",
        "object": "1ca1697da19599e9d71c90f61f8fcf168fc4f47d5a05241837223e6db6b75315",
        "offset": "e6ed6120705f921ac860b330d4104562696bcd634ffc652cbfbc2df7e6e47b45",
    },
    "twolf": {
        "instruction": "27cff56917181c4a0471f6d63d420d1a9ae2966c7dbe7ef45e447045a9f056a2",
        "group": "17dcb51bba96e47274aec33268d23ef60cd45ab0ca8174f224627a269ede65a5",
        "object": "f9befff6af9c93d493f02f98ff072de73c881abab11e3db5f9401d89098e82ff",
        "offset": "0b93eccb802f99768cf274dde60a9accf25fe457b28ef2fa9692896a6da402b9",
    },
}

RANDOM_GOLDEN = {
    "paper": "4f80675afa5264ecd4dd980f5c7a2b9644e70fd48ff563eaa8f39cdeac2cd7de",
    "negatives": "82a7f993b87a5aca28299f0a7a45a88b8167827e96a653061dbdafcc145725f1",
    "constant_runs": "23e82c5e14948e1d41da0ee885680776419ba4095cd7b410c271e8895230fe19",
    "tuple_terminals": "40d72aa624db1f715ff8c0e96b490bcb80d6720b213c49a23bec3bfde610b500",
    "mixed": "b352944f900a53a79c3b6dc0a49f352b110cf98f350c9797837f224f6f6ada91",
    "small_alphabet_0": "a94f3f1f003e5c773342a96a633b93d225e15ec2b12ef8e9a9692ab437f37483",
    "small_alphabet_1": "5308421e94b12578248bbafbd08b5cbc778496bdebb1c2f153141c79260dffd2",
    "small_alphabet_2": "c3e5c65685df7048a08819d9e1c2f1011d89b75586a5c9f7345e015c8d348450",
    "small_alphabet_3": "9ef5a853113441d4d62f68e3aaf4b8b1ff1b2a84b75b55a684f95a4f5538c4c4",
    "small_alphabet_4": "a6e02048b466b67024ccb43a8a4b704958c7d0ff80d1a63b176c57c3f59f1160",
    "small_alphabet_5": "0210fea2355349e72830f41e190c0d199175c812ed6528d2d687a784f867b3e8",
}


@pytest.mark.parametrize("name", SPEC_BENCHMARKS)
def test_spec_dimension_grammars(name):
    streams = dimension_streams(name)
    for dim in DIMENSIONS:
        grammar = compress(streams[dim])
        grammar.check_invariants()
        assert grammar.expand() == streams[dim], (name, dim)
        assert canonical_digest(grammar) == SPEC_GOLDEN[name][dim], (name, dim)


def test_random_corpus_grammars():
    corpus = random_corpus()
    assert sorted(corpus) == sorted(RANDOM_GOLDEN)
    for case, stream in corpus.items():
        grammar = compress(stream)
        grammar.check_invariants()
        assert grammar.expand() == stream, case
        assert canonical_digest(grammar) == RANDOM_GOLDEN[case], case


if __name__ == "__main__":
    print("SPEC_GOLDEN = {")
    for name in SPEC_BENCHMARKS:
        streams = dimension_streams(name)
        print(f"    {name!r}: {{")
        for dim in DIMENSIONS:
            print(f"        {dim!r}: {canonical_digest(compress(streams[dim]))!r},")
        print("    },")
    print("}\n\nRANDOM_GOLDEN = {")
    for case, stream in random_corpus().items():
        print(f"    {case!r}: {canonical_digest(compress(stream))!r},")
    print("}")

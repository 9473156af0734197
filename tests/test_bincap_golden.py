"""Golden BINCAP bytes: every encoded profile document pinned by sha256.

The BINCAP layout of a document -- frame order, row order, delta and
zigzag choices -- is part of the output format, so a change to the codec
must leave these bytes alone.  Each digest below is the sha256 of one
encoded document.

Corpus:

* the WHOMP, LEAP and dependence documents of each SPEC stand-in
  (scale 0.04, seed 0), in both encodings (BINCAP and canonical JSON);
* hand-built documents that between them reach every row shape a table
  frame carries: a never-freed lifetime, decreasing group, serial and
  address deltas, a negative group, an overflow with bounds, a
  summarized entry, LMADs of two dimensionalities in one entry, and
  empty kinds, exec-count and conflict tables.

Run this file as a script to print the digests of the current code.
"""

import hashlib
import json

import pytest

from repro.core.binformat import decode_document, encode_document
from repro.core.profile_io import dumps, dumps_bytes, loads_bytes
from repro.postprocess.dependence import analyze_dependences
from repro.profilers.leap import LeapProfiler
from repro.profilers.whomp import WhompProfiler
from repro.workloads.registry import SPEC_BENCHMARKS, create

SCALE = 0.04
SEED = 0


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec_profiles(name):
    trace = create(name, scale=SCALE, seed=SEED).trace()
    leap = LeapProfiler().profile(trace)
    return {
        "whomp": WhompProfiler().profile(trace),
        "leap": leap,
        "dependence": analyze_dependences(leap),
    }


def spec_digests(name):
    """``{kind: {"binary": sha256, "json": sha256}}`` of one program."""
    return {
        kind: {
            fmt: digest(dumps_bytes(profile, fmt)) for fmt in ("binary", "json")
        }
        for kind, profile in spec_profiles(name).items()
    }


_LINEAR = {"start": 0, "productions": {"0": [["T", 3], ["T", -1], ["R", 1]],
                                       "1": [["T", 0]]}}

HAND_BUILT = {
    "whomp": {
        "format": "whomp",
        "version": 1,
        "access_count": 3,
        "capture_completeness": 0.75,
        "quarantined": 2,
        "grammars": {
            name: _LINEAR for name in ("instruction", "group", "object", "offset")
        },
        # group, serial and address each step down somewhere
        "base_addresses": [
            [-1, 0, 4096],
            [2, 7, 8192],
            [2, 3, 640],
            [0, 1, 1 << 40],
        ],
        "lifetimes": [
            [-1, 0, 100, None, 16],  # never freed
            [2, 7, 90, 400, 24],  # alloc steps back
            [2, 3, 300, 300, 0],  # freed at once
        ],
        "group_labels": {"-1": "static", "2": "node", "0": "heap"},
    },
    "leap": {
        "format": "leap",
        "version": 1,
        "budget": 3,
        "access_count": 40,
        "capture_completeness": 1.0,
        "quarantined": 0,
        "entries": [
            {
                "instruction": 4,
                "group": -1,
                "total": 17,
                "summarized": True,
                # one-dimensional, then three-dimensional, then 1-D again
                "lmads": [
                    [[10], [4], 5],
                    [[0, 2, 64], [1, 0, 8], 3],
                    [[6], [-2], 2],
                ],
                "overflow": {
                    "count": 7,
                    "min": [-5, 0, 8],
                    "max": [9, 0, 4096],
                    "granularity": [1, 0, 8],
                },
            },
            {
                "instruction": 2,
                "group": 3,
                "total": 4,
                "summarized": False,
                "lmads": [],
                "overflow": {"count": 4, "min": None, "max": None,
                             "granularity": None},
            },
        ],
        "kinds": {"4": "store", "2": "load", "9": "load"},
        "exec_counts": {"4": 17, "2": 4, "9": 0},
        "group_labels": {"-1": "static", "3": "node"},
        "lifetimes": [[3, 0, 5, None, 32], [3, 1, 2, 11, 32]],
    },
    "leap-empty": {
        "format": "leap",
        "version": 1,
        "budget": 0,
        "access_count": 0,
        "capture_completeness": 0.0,
        "quarantined": 0,
        "entries": [],
        "kinds": {},
        "exec_counts": {},
        "group_labels": {},
        "lifetimes": [],
    },
    "dependence": {
        "format": "dependence",
        "version": 1,
        "conflicts": [[3, 1, 5], [3, 9, 2], [8, 0, 1 << 33]],
        "load_counts": {"9": 12, "1": 5, "0": 1},
        "store_counts": {"3": 7, "8": 1 << 33},
    },
    "dependence-empty": {
        "format": "dependence",
        "version": 1,
        "conflicts": [],
        "load_counts": {},
        "store_counts": {},
    },
}

SPEC_GOLDEN = {
    "gzip": {
        "whomp": {
            "binary": "595082522a23d23bbd11fca9780461b7f19306f2f576d8611f6f6f3c56de9364",
            "json": "a940451447603b53c7d47ab680f6b922217fe63aba707c6e1418d01060c9ef0b",
        },
        "leap": {
            "binary": "b1a2710e4322dee669f259477648f285f141ce31b9d949b7b91a07aafe77649a",
            "json": "8be9bfa0e9111675ecc11646740cb0ce6c6459e26551150aaed0024059d75bc4",
        },
        "dependence": {
            "binary": "27ad26009fa68c789d894529884af48a1be31e7dbb918766634967efe37380e9",
            "json": "c7bc94a3d3d136837a3559c95b31d29d19af3c08dd350e84df49763b0e34e392",
        },
    },
    "vpr": {
        "whomp": {
            "binary": "3428e9b3d02a43efd0f490105f4583d496a61ad9924e3369da0edfa85fb681ee",
            "json": "179d28ec8a501ced162af3c6659e9febe64d7abb3d952e1cabc926919f80b40b",
        },
        "leap": {
            "binary": "7a5faaa574598cbd84a17303d2c086f199b523c71aea7979f00936da87e331af",
            "json": "e7164c0cb21d65ae9418c0e6a02a9a62992ef793b5f8fabeb169373e045e2e93",
        },
        "dependence": {
            "binary": "ddb780d0039242d568602354f65d8df41f8f399c93bce34eaf8fe8477256f65a",
            "json": "3ad6b3739399a2dd8956b86c822ad8985e2c5703bf6f2cfe3b7453d3cb97efc0",
        },
    },
    "mcf": {
        "whomp": {
            "binary": "4b24c77f27e2c2b84e1d02663906c47b83b656eb1d522085b6e74dff39d8fdf1",
            "json": "c8e503a88cdf9806e53c1c43c6bd9701db3ff3bb5d9f000d8a37b9e92bbb970d",
        },
        "leap": {
            "binary": "0f0c4ba871fde642448f227caa60fce955b6d3b7b2671d52945d6cf0bec65e44",
            "json": "56839a412071884eb06b0c110cbb2ace7eeddc932a613ace74ec945e2d2fa28e",
        },
        "dependence": {
            "binary": "e1ac6e448965edece14a04fe6dd06128b5b84e8476d0ceb764b84b6300e15161",
            "json": "f64128d336534c8b70db0b0f63ab07992ad2328f8f32d4f650ebe740dea3dd2e",
        },
    },
    "crafty": {
        "whomp": {
            "binary": "ef25ff4edb8afe80e86269cb5219fbe99876ce326acb368504608e2fb6a52923",
            "json": "41b93c6c128223010610a7188043dd35ce24af5c41220dd2c079edbd7b57612e",
        },
        "leap": {
            "binary": "cc8f5910028f418b65b4bf44e88aea3509e490b81657eb072d8300217704f452",
            "json": "0f05328f093c5b8dff299ba9eee0db86eb1cae4361b678129d6c7c93625eb4ab",
        },
        "dependence": {
            "binary": "ed66dac1ffa1ae514d5a7e881ae8d97e2cc587a5a8557f9df03f5e68bc10fbbf",
            "json": "b7328526b3b187cf2b53d1e9da4fd7da5293acbce027dfc0be28e012b1059d31",
        },
    },
    "parser": {
        "whomp": {
            "binary": "97ca5af6b802dd0799937058ff911e58784e480edee7ad86b3f3663d8a4f52db",
            "json": "9b688367e60397b3980d982cb48634bbc0ad7175aa5e95e2f28285133b4d07e0",
        },
        "leap": {
            "binary": "ab74952d62a66289a0bf549f64fe45c85f0ac527412c0320ca9e11c984541b87",
            "json": "a46de0de2a81301226c41da44e856e724a58e7894c6a250eefef37f10e1d5aaa",
        },
        "dependence": {
            "binary": "e71fe8acd1c10f6b47f02de7e35369148a0616084a287443a9b5ec4d370ef0ad",
            "json": "8d235ad78df9c22e3a34d188c29c9793147c46f08f136dbcb6b1b6ece618332c",
        },
    },
    "bzip2": {
        "whomp": {
            "binary": "9bc63dac4f3c562c235f6b520208eef4d10c09644ecd9f2f34dbb006ca104124",
            "json": "c80b45b628f62a4ed94dd2952d0e2b74cf2b9d8ba7801dac06b419f5e1dcb5b7",
        },
        "leap": {
            "binary": "45d4683db52811a65c75944633681e7361e71668a4f77d7cc9565ce9cba3ab59",
            "json": "bd858cc887076628eb884032b7241a025f9fed2c7008c6c00e4408b353958571",
        },
        "dependence": {
            "binary": "b722ee11dd7137c3f11cbe6007645f25e84f2c279f3313f02a02e7dd35dcce40",
            "json": "5c52bc3bd03dec12eae2c48ea44c2ccdfa6ab6dfa5eb8dab0d0037f8eb02f83e",
        },
    },
    "twolf": {
        "whomp": {
            "binary": "de9a5f78a6218cd6f54ac5db8571856baa535c8d88e7d7dc7d55dc902301ba23",
            "json": "bdfec3922ca15b3d3b77c7eca125339125da00fd5685ca49e87ee6693e725d03",
        },
        "leap": {
            "binary": "0e4036185230bac6e8c6438791f4c3e7b4edbd279f8ea128d2861fc1b1caefb3",
            "json": "3b03c8e388ccfbc478003a3709407656c0af24f464fde48d46ea3b4cb1ad7add",
        },
        "dependence": {
            "binary": "bca4201cc9ed4f5169b233926d3f66f76d103ac0be5e4baafca27b3c0f08f03a",
            "json": "d338dce4c8a18bbca5de1c99a46f1010dee720b8db35e99962f2b3fd8b10855d",
        },
    },
}

HAND_BUILT_GOLDEN = {
    "dependence": "67db3380b2952e90b51f3d0756faf688672a25938987b0d836e1a3acfcf750fe",
    "dependence-empty": "eb0174ce1e747653d5e3b2801ee36496704b7cf9190fbf318bdaa8b64ce182c7",
    "leap": "c5ca0785c969e7921848e76b06534506fe3398b98368c5dfa5ea1f7842a99dfe",
    "leap-empty": "67ab4738d9196a7a0a76e23928fed2375a52b38a5fa2251a049544850d8bba37",
    "whomp": "759cf965b2a52101107fa21c2df78f5178fbbf7674a75f1af0a62fee27695b34",
}


@pytest.mark.parametrize("name", SPEC_BENCHMARKS)
def test_spec_documents(name):
    assert spec_digests(name) == SPEC_GOLDEN[name]


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_documents(case):
    document = HAND_BUILT[case]
    encoded = encode_document(document)
    assert digest(encoded) == HAND_BUILT_GOLDEN[case]
    # both encodings load, and to the same profile
    via_json = loads_bytes(json.dumps(document).encode("utf-8"))
    via_binary = loads_bytes(encoded)
    if document["format"] != "whomp":
        via_json = json.loads(dumps(via_json))
        via_binary = json.loads(dumps(via_binary))
    assert via_binary == via_json
    assert decode_document(encoded) == json.loads(json.dumps(document))


if __name__ == "__main__":
    print("SPEC_GOLDEN = {")
    for name in SPEC_BENCHMARKS:
        print(f'    "{name}": {{')
        for kind, pair in spec_digests(name).items():
            print(f'        "{kind}": {{')
            for fmt, value in pair.items():
                print(f'            "{fmt}": "{value}",')
            print("        },")
        print("    },")
    print("}\n\nHAND_BUILT_GOLDEN = {")
    for case in sorted(HAND_BUILT):
        print(f'    "{case}": "{digest(encode_document(HAND_BUILT[case]))}",')
    print("}")

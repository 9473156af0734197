"""FIGPIN: the paper's figure suite pinned by the sha256 of its results.

The figures and Table 1 must stay byte-identical through any speed-up,
so this pins the canonical ``--json`` of::

    repro-experiments fig5 fig6 fig7 fig8 fig9 table1 --no-speed --seed 0

with every ``elapsed_seconds`` (wall clock, the only field that varies
between runs) dropped, keys sorted and no whitespace.  Scale 0.25 runs
in the unit suite; scale 1.0 (about four times longer) runs from the
command line::

    PYTHONPATH=src python tests/test_figpin.py 1.0

which prints the digest, then each experiment's ``elapsed_seconds`` (so
a log of these runs tracks the suite's wall time), and exits 1 if the
digest misses its pin.  Figure 3's table, which takes no scale or
seed, is pinned the same way from ``repro-experiments fig3 --json``.  A
change to a pin is a change to a figure: say why in CHANGES.md and
EXPERIMENTS.md.
"""

import hashlib
import json
import os
import sys
import tempfile

from repro.experiments.runner import main as runner_main

EXPERIMENTS = ("fig5", "fig6", "fig7", "fig8", "fig9", "table1")
SEED = 0

FIG_PINS = {
    0.25: "39485884377aa6d43d03159a2763ff4b3682cb10635ee70ef3070e6daf2ccbd5",
    1.0: "a098ab9e045625ce8bd4385f9a767459d160e0b6c9b0a2215933538de4a2accc",
}
FIG3_PIN = "3ea48d9dc1e7e2755adde100f0e84ad14e83cac3aee78cf65eea2d4d7910db8b"


def _drop_elapsed(value):
    if isinstance(value, dict):
        return {
            key: _drop_elapsed(item)
            for key, item in value.items()
            if key != "elapsed_seconds"
        }
    if isinstance(value, list):
        return [_drop_elapsed(item) for item in value]
    return value


def run_json(args) -> dict:
    """``repro-experiments ARGS --json``'s records, keyed by experiment."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "figures.json")
        status = runner_main([*args, "--json", path])
        assert status == 0, f"repro-experiments {' '.join(args)} exited {status}"
        with open(path) as handle:
            return json.load(handle)


def run_suite(scale: float) -> dict:
    """The suite's ``--json`` records at ``scale``, keyed by experiment."""
    return run_json(
        [*EXPERIMENTS, "--no-speed", "--seed", str(SEED), "--scale", str(scale)]
    )


def records_digest(records: dict) -> str:
    """sha256 of the canonical form of the suite's records."""
    canonical = json.dumps(
        _drop_elapsed(records), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_figures_at_quarter_scale():
    assert records_digest(run_suite(0.25)) == FIG_PINS[0.25]


def test_figure3_table():
    assert records_digest(run_json(["fig3"])) == FIG3_PIN


if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    records = run_suite(scale)
    got = records_digest(records)
    print(f"scale {scale}: {got}")
    for name in EXPERIMENTS:
        print(f"{name}: {records[name]['elapsed_seconds']:.2f} s")
    if scale in FIG_PINS and got != FIG_PINS[scale]:
        print(f"MISS: pinned {FIG_PINS[scale]}", file=sys.stderr)
        sys.exit(1)

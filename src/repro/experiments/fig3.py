"""Figure 3: the linked-list representation table, regenerated.

The paper's Figure 3 shows one table with several representations of
the same traversal: the raw address stream, the object-relative tuple
stream, the horizontally decomposed dimension streams, and the vertical
decomposition by instruction.  This experiment executes the linked-list
program of Figures 1/3 in the mini-IR (through a real allocator, with
clutter allocations scattering the nodes) and renders the same table
from the recorded trace.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict

from repro.core.cdc import translate_columns
from repro.core.scc import HorizontalSequiturSCC, VerticalLMADSCC
from repro.core.tuples import DIMENSIONS
from repro.lang.interp import run_source

#: the traversal program; 6 nodes keeps the table figure-sized
SOURCE = """
struct node { int data; int pad; node* next; }

fn main(): int {
  var head: node* = null;
  for (var i: int = 0; i < 6; i = i + 1) {
    var fresh: node* = new node;
    var clutter: int* = new int[2 + i % 3];
    fresh->data = i;
    fresh->next = head;
    head = fresh;
  }
  var total: int = 0;
  var p: node* = head;
  while (p != null) {
    total = total + p->data;
    p = p->next;
  }
  return total;
}
"""


def run(context=None) -> Dict[str, object]:
    result, interpreter = run_source(SOURCE)
    trace = interpreter.process.trace
    names = {
        i.instruction_id: n for n, i in interpreter.process.instructions.items()
    }
    *columns, kinds = translate_columns(trace)
    __, addresses, __, __ = trace.access_columns()
    # the traversal is the final 12 accesses (2 per node, 6 nodes)
    start = len(addresses) - 12
    traversal = [list(column[start:]) for column in columns]
    traversal.append(islice(kinds, start, None))
    instructions, groups, serials, offsets, times, __, __ = traversal
    rows = [
        {
            "instruction": names[instruction],
            "raw_address": address,
            "tuple": (instruction, group, serial, offset),
            "time": time,
        }
        for instruction, address, group, serial, offset, time in zip(
            instructions, addresses[start:], groups, serials, offsets, times
        )
    ]
    # every traversal instruction touches one group (the nodes'), so the
    # SCC's (instruction, group) sub-streams are per instruction
    substreams = VerticalLMADSCC().decompose(traversal)
    return {
        "figure": "3",
        "program_result": result,
        "rows": rows,
        "horizontal": HorizontalSequiturSCC().decompose(traversal),
        "vertical": {
            instruction: triples
            for (instruction, __), triples in substreams.items()
        },
        "instruction_names": names,
    }


def render(results: Dict[str, object]) -> str:
    lines = [
        "Figure 3: representations of the linked-list traversal",
        "",
        f"{'instruction':<24} {'raw address':>12}  (instr, group, object, offset)",
    ]
    for row in results["rows"]:
        lines.append(
            f"{row['instruction'].split(':')[-2] + ':' + row['instruction'].split(':')[-1]:<24} "
            f"{row['raw_address']:>#12x}  {row['tuple']}"
        )
    lines.append("")
    lines.append("horizontal decomposition (one stream per dimension):")
    for name in DIMENSIONS:
        values = " ".join(str(v) for v in results["horizontal"][name])
        lines.append(f"  {name:<12} {values}")
    lines.append("")
    lines.append("vertical decomposition by instruction -> (object, offset, time):")
    names = results["instruction_names"]
    for instruction, triples in sorted(results["vertical"].items()):
        label = names.get(instruction, instruction)
        shown = " ".join(str(t) for t in triples[:6])
        lines.append(f"  {label}: {shown} ...")
    return "\n".join(lines)


def main() -> None:
    print(render(run()))


if __name__ == "__main__":
    main()

"""Diagnostic records and suppression comments for the mini-IR linter.

Every finding carries a stable code (``MIR101``...), a severity, and an
exact source position.  Codes are stable API: tools and CI scripts match
on them, so they are never renumbered.

Suppression: a trailing ``// mir: allow(MIR104)`` comment on a line
silences the listed codes (comma-separated; ``allow(all)`` silences
everything) for diagnostics reported *on that line*.  Trailing comments
are used -- rather than pragmas on their own line -- so annotating a
program never shifts line numbers, which would rename its profiled
instruction sites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

#: severity levels, ordered
ERROR = "error"
WARNING = "warning"

#: code -> (severity, short title)
CODES: Dict[str, tuple] = {
    "MIR101": (ERROR, "possibly uninitialized variable"),
    "MIR102": (ERROR, "use after delete"),
    "MIR103": (ERROR, "double delete"),
    "MIR104": (WARNING, "leaked allocation"),
    "MIR105": (ERROR, "constant index out of bounds"),
    "MIR106": (WARNING, "dead store"),
    "MIR107": (WARNING, "unreachable code"),
    "MIR108": (ERROR, "missing return on some path"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, pointing at an exact source position."""

    code: str
    line: int
    column: int
    message: str
    function: str = ""

    @property
    def severity(self) -> str:
        return CODES.get(self.code, (ERROR, ""))[0]

    def render(self, path: str = "<source>") -> str:
        return (
            f"{path}:{self.line}:{self.column}: "
            f"{self.severity}: {self.message} [{self.code}]"
        )

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "line": self.line,
            "column": self.column,
            "function": self.function,
            "message": self.message,
        }


_ALLOW_RE = re.compile(r"//\s*mir:\s*allow\(([^)]*)\)")


def suppressed_lines(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> set of codes allowed on that line.

    The special entry ``"all"`` allows every code.
    """
    table: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if not match:
            continue
        codes = frozenset(
            item.strip() for item in match.group(1).split(",") if item.strip()
        )
        if codes:
            table[number] = codes
    return table


@dataclass
class DiagnosticSink:
    """Collects diagnostics, applying per-line suppressions."""

    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def report(
        self,
        code: str,
        line: int,
        column: int,
        message: str,
        function: str = "",
    ) -> None:
        allowed = self.suppressions.get(line, frozenset())
        if code in allowed or "all" in allowed:
            return
        diagnostic = Diagnostic(code, line, column, message, function)
        if diagnostic not in self.diagnostics:
            self.diagnostics.append(diagnostic)

    def sorted(self) -> List[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.line, d.column, d.code),
        )

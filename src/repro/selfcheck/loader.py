"""Source discovery, parsing, and ``# repro:`` directive scanning.

The analyzer never imports the code it checks: every module is parsed
with :mod:`ast` and analyzed structurally, so a seeded-defect fixture
(or a module whose import would start a daemon) is as safe to check as
a pure library.

Directives are trailing (or whole-line) comments:

``# repro: shared``
    on a ``class`` line -- instances are reachable from several threads
    and participate in lockset checking.
``# repro: synchronized-externally``
    on a ``class`` line -- the class is documented as guarded by its
    owner's lock; its internals are exempt from RL101/RL102/RL105, and
    call sites inside shared classes are checked instead (RL104).
``# repro: allow(RL101[, RL103])``
    suppress the listed codes (or ``all``) on this line only.
``# repro: expect(RL101)``
    fixture annotation: the fixtures self-test asserts the code fires
    exactly here.
``# repro: fixture`` / ``# repro: workers`` / ``# repro:
durable-primitive`` / ``# repro: capture-path``
    module markers (any line): seeded-defect module excluded from
    normal sweeps; module of pool worker functions; module that *is*
    the atomic-write implementation; module on the seed-deterministic
    capture path regardless of its package.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

# the negative lookbehind keeps backtick-quoted mentions in docstrings
# (``# repro: fixture``) from acting as live directives
_ALLOW_RE = re.compile(r"(?<!`)#\s*repro:\s*allow\(([^)]*)\)")
_EXPECT_RE = re.compile(r"(?<!`)#\s*repro:\s*expect\(([^)]*)\)")
_MARKER_RE = re.compile(
    r"(?<!`)#\s*repro:\s*(fixture|workers|durable-primitive|capture-path)\b"
)
_CLASS_RE = re.compile(
    r"(?<!`)#\s*repro:\s*(shared|synchronized-externally)\b"
)


class SelfCheckError(Exception):
    """A file the analyzer was pointed at cannot be analyzed."""


@dataclass
class SourceModule:
    """One parsed source file plus its scanned directives."""

    path: str
    name: str
    source: str
    tree: ast.Module
    #: line -> codes allowed on that line (or {"all"})
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: line -> codes a fixture expects to fire on that line
    expects: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    #: module-level markers: fixture / workers / durable-primitive / ...
    markers: Set[str] = field(default_factory=set)
    #: line -> class-level directives (shared / synchronized-externally)
    class_marks: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def is_fixture(self) -> bool:
        return "fixture" in self.markers


def _codes_of(group: str) -> FrozenSet[str]:
    return frozenset(
        item.strip() for item in group.split(",") if item.strip()
    )


def module_name_for(path: str) -> str:
    """Dotted module name, anchored at the deepest ``repro`` segment."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            dotted = parts[index:-1] + ([] if stem == "__init__" else [stem])
            return ".".join(dotted)
    return stem


def scan_source(path: str, source: str) -> SourceModule:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise SelfCheckError(
            f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
        ) from exc
    module = SourceModule(
        path=path, name=module_name_for(path), source=source, tree=tree
    )
    for number, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match:
            codes = _codes_of(match.group(1))
            if codes:
                module.suppressions[number] = codes
        match = _EXPECT_RE.search(text)
        if match:
            codes = _codes_of(match.group(1))
            if codes:
                module.expects[number] = codes
        for marker in _MARKER_RE.findall(text):
            module.markers.add(marker)
        match = _CLASS_RE.search(text)
        if match:
            module.class_marks.setdefault(number, set()).add(match.group(1))
    return module


def load_file(path: str) -> SourceModule:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise SelfCheckError(f"cannot read {path!r}: {exc}") from exc
    return scan_source(path, source)


def discover(paths: List[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    seen: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in ("__pycache__", ".git", ".hypothesis")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        full = os.path.join(dirpath, filename)
                        if full not in seen:
                            seen.add(full)
                            out.append(full)
        elif path.endswith(".py"):
            if path not in seen:
                seen.add(path)
                out.append(path)
        else:
            raise SelfCheckError(
                f"{path!r} is neither a directory nor a .py file"
            )
    return out


def load_tree(
    paths: List[str], include_fixtures: bool = False
) -> List[SourceModule]:
    """Load every analyzable module under ``paths``.

    Seeded-defect fixture modules (``# repro: fixture``) are skipped
    unless ``include_fixtures`` -- they exist to *fail* the checkers,
    like the ``defects_*.mir`` programs MIRCHECK ships.
    """
    modules: List[SourceModule] = []
    for path in discover(paths):
        module = load_file(path)
        if module.is_fixture and not include_fixtures:
            continue
        modules.append(module)
    return modules


def class_directives(
    module: SourceModule, node: ast.ClassDef
) -> Set[str]:
    """Class-level directives attached to a ``class`` statement.

    The directive comment may trail any line of the class signature
    (decorators included), so multi-line signatures still annotate.
    """
    first = min(
        [node.lineno] + [d.lineno for d in node.decorator_list]
    )
    last = max(node.lineno, getattr(node, "end_lineno", node.lineno))
    body_start = min(child.lineno for child in node.body)
    out: Set[str] = set()
    for line in range(first, min(last, body_start - 1) + 1):
        out |= module.class_marks.get(line, set())
    # also accept the directive on the signature line itself when the
    # body starts on the same line (one-liner classes in fixtures)
    out |= module.class_marks.get(node.lineno, set())
    return out


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

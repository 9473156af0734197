"""Lockset race detection over thread-shared classes (RL101-RL105).

The model is deliberately lockset-lite: within a thread-shared class
(see :mod:`repro.selfcheck.classmodel`), every attribute mutation
outside ``__init__`` context must execute under *some* held lock, a
method reading two or more lock-guarded attributes without the lock is
a torn snapshot, and blocking I/O must not run while a state lock is
held (a dedicated ``*_sink_lock`` / ``*_io_lock`` exists to serialize
I/O and is exempt -- holding one is the fix, not the bug).

Classes annotated ``# repro: synchronized-externally`` declare the
@GuardedBy-style contract that their owner's lock protects them; their
internals are exempt, but calls *into* them from a shared class are
checked instead (RL104).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional, Set

from repro.selfcheck.classmodel import (
    ClassIndex,
    ClassInfo,
    _init_like_methods,
    is_io_lock_name,
    mutated_self_attr,
)
from repro.selfcheck.findings import FindingSink
from repro.selfcheck.loader import SourceModule, dotted_name
from repro.selfcheck.locks import EMPTY, LockTracker, inherited_locksets

#: calls that block on the filesystem, the network, or the clock --
#: matched on the full dotted name or its final segment for the
#: project's own atomic-write primitives
_IO_CALL_NAMES = frozenset(
    {
        "open",
        "os.fdopen",
        "os.replace",
        "os.rename",
        "os.unlink",
        "os.remove",
        "os.fsync",
        "os.makedirs",
        "time.sleep",
        "socket.socket",
        "urllib.request.urlopen",
    }
)
_IO_CALL_SUFFIXES = frozenset({"atomic_write_text", "atomic_write_bytes"})


def _is_io_call(node: ast.Call) -> Optional[str]:
    name = dotted_name(node.func)
    if name is None:
        return None
    if name in _IO_CALL_NAMES:
        return name
    tail = name.rsplit(".", 1)[-1]
    if tail in _IO_CALL_SUFFIXES:
        return name
    return None


def _state_locks(held: FrozenSet[str]) -> FrozenSet[str]:
    """Held locks that guard in-memory state (io-serialization locks
    are exempt from the I/O-under-lock rule)."""
    return frozenset(
        key for key in held if not is_io_lock_name(key.rsplit(".", 1)[-1])
    )


def _walk_method(
    tracker: LockTracker, method: ast.FunctionDef, start: FrozenSet[str]
):
    for node, held in tracker.walk(method, start):
        if isinstance(node, ast.ClassDef):
            continue  # a nested class has its own, unrelated ``self``
        yield node, held


def check_module_races(
    module: SourceModule,
    index: ClassIndex,
    shared: Set[str],
    sink: FindingSink,
) -> None:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            info = index.get(f"{module.name}.{node.name}") or index.get(
                node.name
            )
            if info is None or info.module is not module:
                continue
            _check_class(info, index, shared, sink)
    _check_io_in_functions(module, index, sink)


def _check_class(
    info: ClassInfo,
    index: ClassIndex,
    shared: Set[str],
    sink: FindingSink,
) -> None:
    is_shared = info.name in shared
    if info.synchronized_externally:
        return  # contract: the owner's lock guards it (RL104 at call sites)
    inherited = inherited_locksets(info, index)
    init_like = _init_like_methods(info)
    guarded = {
        name
        for name in info.guarded_attrs()
        if not index.self_guarded(info.attrs[name])
    }
    tracker = LockTracker(info, index)

    if is_shared and not index.lock_attrs(info) and guarded:
        sink.report(
            "RL105",
            info.node.lineno,
            info.node.col_offset,
            f"thread-shared class {info.name!r} mutates "
            f"{_attrs_text(guarded)} but owns no lock; add one or annotate "
            f"'# repro: synchronized-externally' with the owning lock",
            symbol=info.name,
            detail=",".join(sorted(guarded)),
        )
        return  # per-site reports would repeat the same story

    for method_name, method in info.methods.items():
        start = inherited.get(method_name, EMPTY)
        in_init = method_name in init_like
        unguarded_reads: Dict[str, ast.Attribute] = {}
        for node, held in _walk_method(tracker, method, start):
            if is_shared and not in_init:
                found = mutated_self_attr(node)
                if found is not None:
                    attr_name, site = found
                    if not held and attr_name in guarded:
                        sink.report(
                            "RL101",
                            site.lineno,
                            site.col_offset,
                            f"attribute 'self.{attr_name}' of thread-shared "
                            f"{info.name!r} is mutated outside any lock-held "
                            f"region",
                            symbol=f"{info.name}.{method_name}",
                            detail=attr_name,
                        )
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                    and not held
                ):
                    unguarded_reads.setdefault(node.attr, node)
            if isinstance(node, ast.Call):
                # RL103 everywhere a lock is held, shared or not
                io_name = _is_io_call(node)
                state_locks = _state_locks(held)
                if io_name is not None and state_locks:
                    sink.report(
                        "RL103",
                        node.lineno,
                        node.col_offset,
                        f"blocking call {io_name}() while holding "
                        f"{_locks_text(state_locks)}; move the I/O outside "
                        f"the lock or serialize it on a dedicated "
                        f"'*_sink_lock'",
                        symbol=f"{info.name}.{method_name}",
                        detail=io_name,
                    )
                if is_shared and not in_init and not held:
                    _check_external_call(node, info, index, sink, method_name)
        if is_shared and not in_init and len(unguarded_reads) >= 2:
            attrs = sorted(unguarded_reads)
            first = min(
                unguarded_reads.values(), key=lambda n: (n.lineno, n.col_offset)
            )
            sink.report(
                "RL102",
                first.lineno,
                first.col_offset,
                f"{info.name}.{method_name} reads {_attrs_text(attrs)} "
                f"outside the lock: the snapshot can tear mid-update",
                symbol=f"{info.name}.{method_name}",
                detail=",".join(attrs),
            )


def _check_external_call(
    node: ast.Call,
    info: ClassInfo,
    index: ClassIndex,
    sink: FindingSink,
    method_name: str,
) -> None:
    """RL104: ``self.attr.method()`` on an externally-guarded object
    without holding any lock."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    receiver = func.value
    if not (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
    ):
        return
    attr = info.attrs.get(receiver.attr)
    if attr is None:
        return
    held_class = index.get(attr.value_class)
    if held_class is None or not held_class.synchronized_externally:
        return
    sink.report(
        "RL104",
        node.lineno,
        node.col_offset,
        f"call into externally-guarded {held_class.name!r} via "
        f"'self.{receiver.attr}.{func.attr}()' without holding a lock",
        symbol=f"{info.name}.{method_name}",
        detail=f"{receiver.attr}.{func.attr}",
    )


def _check_io_in_functions(
    module: SourceModule, index: ClassIndex, sink: FindingSink
) -> None:
    """RL103 for module-level functions (no class context)."""
    tracker = LockTracker(None, index)
    for node in module.tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for inner, held in tracker.walk(node, EMPTY):
            if isinstance(inner, ast.ClassDef):
                continue
            if isinstance(inner, ast.Call):
                io_name = _is_io_call(inner)
                state_locks = _state_locks(held)
                if io_name is not None and state_locks:
                    sink.report(
                        "RL103",
                        inner.lineno,
                        inner.col_offset,
                        f"blocking call {io_name}() while holding "
                        f"{_locks_text(state_locks)}; move the I/O outside "
                        f"the lock or serialize it on a dedicated "
                        f"'*_sink_lock'",
                        symbol=node.name,
                        detail=io_name,
                    )


def _attrs_text(attrs) -> str:
    return ", ".join(f"'self.{name}'" for name in sorted(attrs))


def _locks_text(locks: FrozenSet[str]) -> str:
    return ", ".join(f"'{name}'" for name in sorted(locks))

"""Fork-safety checking for pool worker functions (RL121-RL125).

The parallel layer runs workers in fork-based process pools: the
worker function is pickled *by reference* (module + qualname), so it
must be a module-level function, and everything it touches in the
child is a copy-on-write snapshot of the parent.  A captured
``threading.Lock`` may be snapshotted in the locked state and deadlock
the child forever; a captured socket or open file shares an fd and
interleaves writes; a mutated module-global silently diverges between
parent and children; a :class:`TraceContext` activation left open in
the child corrupts the parent's thread-local stack expectations.

Workers are found two ways: every module-level function of a module
marked ``# repro: workers``, and any same-module function passed by
name into a pool-style dispatch (``pool.map(worker, ...)``) or as a
``Process`` target (``context.Process(target=worker, ...)``).  Lambdas
and nested functions at a dispatch site are convicted outright
(RL121): they do not survive pickling-by-reference.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.selfcheck.findings import FindingSink
from repro.selfcheck.loader import SourceModule, dotted_name

#: pool-style dispatch methods whose first argument crosses the fork
_DISPATCH_METHODS = frozenset(
    {
        "map",
        "imap",
        "imap_unordered",
        "starmap",
        "map_outcomes",
        "apply_async",
        "submit",
    }
)

#: constructors whose product must not cross a fork boundary
_UNSHARABLE_CONSTRUCTORS = {
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "socket.socket": "a socket",
    "open": "an open file",
    "os.fdopen": "an open file",
}


def _unsharable_kind(value: ast.AST) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    name = dotted_name(value.func)
    if name is None:
        return None
    return _UNSHARABLE_CONSTRUCTORS.get(name)


def _module_globals(module: SourceModule) -> Dict[str, str]:
    """Module-level name -> unsharable kind, for globals a worker must
    not capture."""
    out: Dict[str, str] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            kind = _unsharable_kind(node.value)
            if kind is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = kind
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            kind = _unsharable_kind(node.value)
            if kind is not None and isinstance(node.target, ast.Name):
                out[node.target.id] = kind
    return out


def _dispatch_first_arg(node: ast.Call) -> Optional[ast.AST]:
    """The function a dispatch call sends across the fork: the first
    argument of a pool-style method, or a ``Process``'s ``target``."""
    if (dotted_name(node.func) or "").rpartition(".")[2] == "Process":
        for keyword in node.keywords:
            if keyword.arg == "target":
                return keyword.value
        return None
    if not isinstance(node.func, ast.Attribute):
        return None
    if node.func.attr not in _DISPATCH_METHODS:
        return None
    if not node.args:
        return None
    return node.args[0]


def _worker_functions(module: SourceModule) -> Dict[str, ast.FunctionDef]:
    """Module-level functions that execute on the far side of a fork."""
    top_level: Dict[str, ast.FunctionDef] = {
        node.name: node
        for node in module.tree.body
        if isinstance(node, ast.FunctionDef)
    }
    if "workers" in module.markers:
        return top_level
    dispatched: Dict[str, ast.FunctionDef] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            first = _dispatch_first_arg(node)
            if isinstance(first, ast.Name) and first.id in top_level:
                dispatched[first.id] = top_level[first.id]
    return dispatched


def check_module_forksafety(
    module: SourceModule, sink: FindingSink
) -> None:
    _check_dispatch_sites(module, sink)
    globals_at_risk = _module_globals(module)
    for name, function in sorted(_worker_functions(module).items()):
        _check_worker(module, function, globals_at_risk, sink)


def _check_dispatch_sites(module: SourceModule, sink: FindingSink) -> None:
    """RL121: lambdas and nested defs handed to a pool dispatch."""

    def handle_call(node: ast.Call, scope: str, nested: Set[str]) -> None:
        first = _dispatch_first_arg(node)
        if first is None:
            return
        if isinstance(first, ast.Lambda):
            sink.report(
                "RL121",
                first.lineno,
                first.col_offset,
                "lambda passed across the fork boundary: workers are "
                "pickled by reference and must be module-level functions",
                symbol=scope,
                detail="lambda",
            )
        elif isinstance(first, ast.Name) and first.id in nested:
            sink.report(
                "RL121",
                first.lineno,
                first.col_offset,
                f"nested function {first.id!r} passed across the fork "
                f"boundary: workers are pickled by reference and must be "
                f"module-level functions",
                symbol=scope,
                detail=first.id,
            )

    def visit(node: ast.AST, scope: str, nested: Set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_nested = {
                    inner.name
                    for inner in ast.walk(child)
                    if isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    and inner is not child
                }
                visit(child, child.name, child_nested)
                continue
            if isinstance(child, ast.Call):
                handle_call(child, scope, nested)
            visit(child, scope, nested)

    visit(module.tree, "<module>", set())


def _check_worker(
    module: SourceModule,
    function: ast.FunctionDef,
    globals_at_risk: Dict[str, str],
    sink: FindingSink,
) -> None:
    # RL123: unsharable state constructed in a default argument is
    # evaluated once in the parent and snapshotted into every child
    defaults: List[ast.AST] = list(function.args.defaults) + [
        d for d in function.args.kw_defaults if d is not None
    ]
    for default in defaults:
        kind = _unsharable_kind(default)
        if kind is not None:
            sink.report(
                "RL123",
                default.lineno,
                default.col_offset,
                f"worker {function.name!r} default argument constructs "
                f"{kind} in the parent process; create it inside the "
                f"worker body instead",
                symbol=function.name,
                detail=dotted_name(default.func) or "default",
            )

    local_names = _assigned_names(function)
    reported_globals: Set[str] = set()
    # activations scoped by `with activate(...)` or registered on an
    # ExitStack via `stack.enter_context(activate(...))` are exempt:
    # both guarantee the pop on error
    with_items: Set[int] = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                with_items.add(id(item.context_expr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "enter_context"
            and node.args
        ):
            with_items.add(id(node.args[0]))
    for node in ast.walk(function):
        # RL124: explicit global mutation diverges parent and children
        if isinstance(node, ast.Global):
            sink.report(
                "RL124",
                node.lineno,
                node.col_offset,
                f"worker {function.name!r} declares "
                f"'global {', '.join(node.names)}': mutations made after "
                f"the fork never reach the parent or sibling workers",
                symbol=function.name,
                detail=",".join(node.names),
            )
        # RL122: references to module globals holding locks/files/sockets
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in globals_at_risk
            and node.id not in local_names
            and node.id not in reported_globals
        ):
            reported_globals.add(node.id)
            sink.report(
                "RL122",
                node.lineno,
                node.col_offset,
                f"worker {function.name!r} captures module-global "
                f"{node.id!r} ({globals_at_risk[node.id]}): the fork "
                f"snapshots it in an unknown state",
                symbol=function.name,
                detail=node.id,
            )
        # RL125: a trace activation opened without `with` never pops the
        # thread-local stack if the worker raises
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if (
                name is not None
                and name.rsplit(".", 1)[-1] == "activate"
                and id(node) not in with_items
            ):
                sink.report(
                    "RL125",
                    node.lineno,
                    node.col_offset,
                    f"worker {function.name!r} opens a trace activation "
                    f"outside a 'with' block: the child leaks a live "
                    f"context stack on error",
                    symbol=function.name,
                    detail=name,
                )


def _assigned_names(function: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for arg in (
        function.args.args
        + function.args.posonlyargs
        + function.args.kwonlyargs
    ):
        names.add(arg.arg)
    if function.args.vararg is not None:
        names.add(function.args.vararg.arg)
    if function.args.kwarg is not None:
        names.add(function.args.kwarg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return names

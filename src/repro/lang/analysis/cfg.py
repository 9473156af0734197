"""Control-flow graph construction for mini-IR functions.

The mini-IR is fully structured (no goto), so the CFG is built by a
single walk over a function body.  Each :class:`BasicBlock` holds a
run of straight-line :class:`CFGNode` items; branching statements
(``if``, ``while``/``for``) contribute *condition* nodes whose
successors are the taken/not-taken blocks, and ``break`` / ``continue``
/ ``return`` terminate their block with an edge to the loop exit, the
loop step, or the function exit.

Two properties the linter relies on:

* statements that can never execute live in blocks unreachable from
  the entry block (``CFG.unreachable_nodes``);
* a function "falls off the end" exactly when the synthetic exit block
  has an incoming *fall-through* edge from a reachable block
  (``CFG.falls_through``) -- the ``fn`` missing ``return`` check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple, Union

from repro.lang import ast
from repro.lang.parser import _ForWrapper


@dataclass(frozen=True)
class CFGNode:
    """One straight-line item inside a basic block.

    ``element`` is either a simple statement (``VarDecl``, ``Assign``,
    ``ExprStmt``, ``Delete``, ``Return``) or, when ``is_condition`` is
    true, the controlling expression of an ``if`` or loop.
    """

    element: Union[ast.Stmt, ast.Expr]
    is_condition: bool = False

    @property
    def line(self) -> int:
        return self.element.line

    @property
    def column(self) -> int:
        return self.element.column


@dataclass
class BasicBlock:
    bid: int
    nodes: List[CFGNode] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    def add_succ(self, other: "BasicBlock") -> None:
        if other.bid not in self.succs:
            self.succs.append(other.bid)
        if self.bid not in other.preds:
            other.preds.append(self.bid)


class CFG:
    """The graph for one function: blocks, entry, and a synthetic exit."""

    def __init__(self, function: ast.FunctionDecl) -> None:
        self.function = function
        self.blocks: List[BasicBlock] = []
        self.entry = self._new_block()
        self.exit = self._new_block()
        #: blocks whose flow reaches ``exit`` by falling off the end of
        #: the function body rather than through a ``return``
        self.fallthrough_blocks: Set[int] = set()

    # -- construction helpers (used by the builder) ---------------------

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def block(self, bid: int) -> BasicBlock:
        return self.blocks[bid]

    # -- queries ---------------------------------------------------------

    def reachable(self) -> Set[int]:
        """Block ids reachable from the entry block."""
        seen: Set[int] = set()
        stack = [self.entry.bid]
        while stack:
            bid = stack.pop()
            if bid in seen:
                continue
            seen.add(bid)
            stack.extend(self.blocks[bid].succs)
        return seen

    def unreachable_nodes(self) -> List[CFGNode]:
        """Nodes in blocks no execution can reach, in source order."""
        reachable = self.reachable()
        nodes = [
            node
            for block in self.blocks
            if block.bid not in reachable
            for node in block.nodes
        ]
        nodes.sort(key=lambda node: (node.line, node.column))
        return nodes

    def falls_through(self) -> bool:
        """True when some reachable path exits without a ``return``."""
        reachable = self.reachable()
        return any(bid in reachable for bid in self.fallthrough_blocks)

    def rpo(self) -> List[int]:
        """Reverse post-order over reachable blocks (good forward
        iteration order)."""
        seen: Set[int] = set()
        order: List[int] = []

        def visit(bid: int) -> None:
            stack: List[Tuple[int, int]] = [(bid, 0)]
            seen.add(bid)
            while stack:
                current, index = stack.pop()
                succs = self.blocks[current].succs
                if index < len(succs):
                    stack.append((current, index + 1))
                    nxt = succs[index]
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(current)

        visit(self.entry.bid)
        order.reverse()
        return order


class _LoopFrame:
    """Targets for break/continue inside one loop."""

    def __init__(self, step_block: BasicBlock, after_block: BasicBlock) -> None:
        self.step_block = step_block  # continue target (runs the step)
        self.after_block = after_block  # break target


class CFGBuilder:
    """Build a :class:`CFG` per function.

    >>> from repro.lang.parser import parse
    >>> program = parse("fn main(): int { return 1; }")
    >>> cfg = CFGBuilder().build(program.function("main"))
    >>> cfg.falls_through()
    False
    """

    def build(self, function: ast.FunctionDecl) -> CFG:
        cfg = CFG(function)
        self._cfg = cfg
        self._loops: List[_LoopFrame] = []
        last = self._walk_body(function.body, cfg.entry)
        if last is not None:
            last.add_succ(cfg.exit)
            cfg.fallthrough_blocks.add(last.bid)
        return cfg

    # -- walking ----------------------------------------------------------

    def _walk_body(
        self, body: Tuple[ast.Stmt, ...], current: Optional[BasicBlock]
    ) -> Optional[BasicBlock]:
        """Append ``body`` after ``current``; return the open block flow
        falls out of, or ``None`` when every path terminated."""
        for statement in body:
            if current is None:
                # Dead statements after return/break/continue: keep them
                # in a fresh unreachable block so lint can report them.
                current = self._cfg._new_block()
            current = self._walk_statement(statement, current)
        return current

    def _walk_statement(
        self, statement: ast.Stmt, current: BasicBlock
    ) -> Optional[BasicBlock]:
        if isinstance(statement, _ForWrapper):
            current = self._walk_statement(statement.init, current)
            if current is None:  # pragma: no cover - init never terminates
                return None
            return self._walk_statement(statement.loop, current)
        if isinstance(statement, ast.If):
            return self._walk_if(statement, current)
        if isinstance(statement, ast.While):
            return self._walk_while(statement, current)
        if isinstance(statement, ast.Return):
            current.nodes.append(CFGNode(statement))
            current.add_succ(self._cfg.exit)
            return None
        if isinstance(statement, ast.Break):
            current.nodes.append(CFGNode(statement))
            if self._loops:
                current.add_succ(self._loops[-1].after_block)
            return None
        if isinstance(statement, ast.Continue):
            current.nodes.append(CFGNode(statement))
            if self._loops:
                current.add_succ(self._loops[-1].step_block)
            return None
        current.nodes.append(CFGNode(statement))
        return current

    def _walk_if(self, statement: ast.If, current: BasicBlock) -> Optional[BasicBlock]:
        current.nodes.append(CFGNode(statement.condition, is_condition=True))
        after: Optional[BasicBlock] = None

        then_entry = self._cfg._new_block()
        current.add_succ(then_entry)
        then_exit = self._walk_body(statement.then_body, then_entry)

        if statement.else_body:
            else_entry = self._cfg._new_block()
            current.add_succ(else_entry)
            else_exit = self._walk_body(statement.else_body, else_entry)
        else:
            else_exit = current  # condition false falls straight through

        if then_exit is None and else_exit is None:
            return None
        after = self._cfg._new_block()
        if then_exit is not None:
            then_exit.add_succ(after)
        if else_exit is not None:
            else_exit.add_succ(after)
        return after

    def _walk_while(
        self, statement: ast.While, current: BasicBlock
    ) -> BasicBlock:
        cond_block = self._cfg._new_block()
        current.add_succ(cond_block)
        cond_block.nodes.append(CFGNode(statement.condition, is_condition=True))

        after = self._cfg._new_block()
        cond_block.add_succ(after)

        # The step statement gets its own block: it is the continue
        # target and runs even when the body ends with ``continue``.
        step_block = self._cfg._new_block()
        if statement.step is not None:
            step_block.nodes.append(CFGNode(statement.step))
        step_block.add_succ(cond_block)

        self._loops.append(_LoopFrame(step_block, after))
        body_entry = self._cfg._new_block()
        cond_block.add_succ(body_entry)
        body_exit = self._walk_body(statement.body, body_entry)
        self._loops.pop()
        if body_exit is not None:
            body_exit.add_succ(step_block)
        return after


def build_cfg(function: ast.FunctionDecl) -> CFG:
    """Convenience wrapper around :class:`CFGBuilder`."""
    return CFGBuilder().build(function)

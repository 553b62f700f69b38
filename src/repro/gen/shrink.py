"""Delta-debugging reducer for failing generated circuits.

Given a :class:`~repro.gen.generator.GeneratedCircuit` whose oracle
fails, :func:`shrink` searches for a smaller program whose *same*
oracle still fails, by structural edits on the program tree:

* drop statements (ddmin-style: halves, then quarters, then singles —
  applied to every block, including branch arms and loop bodies);
* collapse an ``if`` to its then-arm, its else-arm, or nothing;
* unroll a loop to a single body copy, or halve its trip count;
* replace expressions by their operands and narrow constants toward 0.

Every candidate edit is validated end-to-end: the reduced program must
still render, parse, lower and validate (otherwise the edit is
reverted), and the target oracle must still report a divergence.  The
result is therefore always a well-formed failing circuit — never a
parse error masquerading as a reproduction.

Determinism: edits are enumerated in a fixed order and the oracle stack
is seeded from the circuit, so shrinking the same finding twice gives
the same minimal circuit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

from ..errors import ReproError
from .generator import (GAssign, GBinary, GConst, GExpr, GFor, GIf,
                        GLoad, GProgram, GStmt, GStore, GUnary, GWhile,
                        GeneratedCircuit)
from .oracles import context_for, run_oracle

#: Default cap on oracle re-checks per shrink (each check compiles and
#: re-runs the failing oracle, so this bounds total shrink cost).
MAX_CHECKS = 400


@dataclass
class ShrinkResult:
    """Outcome of one reduction."""

    circuit: GeneratedCircuit
    oracle: str
    #: Whether the input circuit failed its oracle at all (when False
    #: the input is returned untouched).
    reproduced: bool
    #: Oracle re-checks spent.
    checks: int
    #: Successful edits applied.
    edits: int

    @property
    def lines(self) -> int:
        return len(self.circuit.source.splitlines())


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def take(self) -> bool:
        if self.spent >= self.limit:
            return False
        self.spent += 1
        return True


def _blocks(program: GProgram) -> Iterator[List[GStmt]]:
    """Every mutable statement list in the tree, outermost first."""
    yield program.body
    stack: List[GStmt] = list(program.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, GIf):
            yield stmt.then_body
            yield stmt.else_body
            stack.extend(stmt.then_body)
            stack.extend(stmt.else_body)
        elif isinstance(stmt, (GFor, GWhile)):
            yield stmt.body
            stack.extend(stmt.body)


Slot = Tuple[Callable[[], GExpr], Callable[[GExpr], None]]


def _expr_slots(program: GProgram) -> List[Slot]:
    """(getter, setter) for every expression position in the tree."""
    slots: List[Slot] = []

    def descend(get: Callable[[], GExpr],
                set_: Callable[[GExpr], None]) -> None:
        slots.append((get, set_))
        expr = get()
        if isinstance(expr, GBinary):
            descend(lambda e=expr: e.left,
                    lambda v, e=expr: setattr(e, "left", v))
            descend(lambda e=expr: e.right,
                    lambda v, e=expr: setattr(e, "right", v))
        elif isinstance(expr, GUnary):
            descend(lambda e=expr: e.operand,
                    lambda v, e=expr: setattr(e, "operand", v))
        elif isinstance(expr, GLoad):
            descend(lambda e=expr: e.index,
                    lambda v, e=expr: setattr(e, "index", v))

    def tuple_slot(seq: list, k: int) -> None:
        descend(lambda: seq[k][1],
                lambda v: seq.__setitem__(k, (seq[k][0], v)))

    for k in range(len(program.decls)):
        tuple_slot(program.decls, k)
    for stmt in _stmts(program):
        if isinstance(stmt, GAssign):
            descend(lambda s=stmt: s.expr,
                    lambda v, s=stmt: setattr(s, "expr", v))
        elif isinstance(stmt, GStore):
            descend(lambda s=stmt: s.index,
                    lambda v, s=stmt: setattr(s, "index", v))
            descend(lambda s=stmt: s.expr,
                    lambda v, s=stmt: setattr(s, "expr", v))
        elif isinstance(stmt, GIf):
            descend(lambda s=stmt: s.cond,
                    lambda v, s=stmt: setattr(s, "cond", v))
    for k in range(len(program.tail)):
        tuple_slot(program.tail, k)
    return slots


def _stmts(program: GProgram) -> Iterator[GStmt]:
    stack: List[GStmt] = list(program.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, GIf):
            stack.extend(stmt.then_body)
            stack.extend(stmt.else_body)
        elif isinstance(stmt, (GFor, GWhile)):
            stack.extend(stmt.body)


def _simpler(expr: GExpr) -> List[GExpr]:
    """Strictly smaller replacement candidates, best first."""
    if isinstance(expr, GBinary):
        return [expr.left, expr.right, GConst(0)]
    if isinstance(expr, GUnary):
        return [expr.operand, GConst(0)]
    if isinstance(expr, GLoad):
        return [expr.index, GConst(0)]
    if isinstance(expr, GConst):
        out = []
        if expr.value not in (0,):
            out.append(GConst(0))
        if abs(expr.value) > 1:
            out.append(GConst(expr.value // 2))
        return out
    return []  # GVar: already minimal (a const rewrite rarely helps)


def shrink(circuit: GeneratedCircuit, oracle: str,
           max_checks: int = MAX_CHECKS) -> ShrinkResult:
    """Reduce ``circuit`` while ``oracle`` keeps failing on it.

    The reducer never raises on a non-reproducing input: if the oracle
    passes on the given circuit, the circuit is returned unchanged with
    ``reproduced=False``.
    """
    program = copy.deepcopy(circuit.program)
    budget = _Budget(max_checks)
    edits = 0

    def rebuilt(prog: GProgram) -> GeneratedCircuit:
        return GeneratedCircuit(
            seed=circuit.seed, config=circuit.config,
            schema_version=circuit.schema_version, program=prog,
            source=prog.render())

    def fails() -> bool:
        try:
            ctx = context_for(rebuilt(program))
        except ReproError:
            return False  # edit broke validity: revert
        try:
            return run_oracle(oracle, ctx) is not None
        except ReproError:
            return True
        except RecursionError:
            return True
        except Exception:
            # The harness records unexpected exceptions as findings,
            # so the reducer must keep chasing them too.
            return True

    if not fails():
        return ShrinkResult(circuit=circuit, oracle=oracle,
                            reproduced=False, checks=budget.spent,
                            edits=0)

    def attempt(apply: Callable[[], Callable[[], None]]) -> bool:
        """Run one edit; keep it if the oracle still fails."""
        nonlocal edits
        if not budget.take():
            return False
        revert = apply()
        if fails():
            edits += 1
            return True
        revert()
        return False

    progress = True
    while progress and budget.spent < budget.limit:
        progress = False
        # 1. ddmin statement removal over every block.
        for block in list(_blocks(program)):
            chunk = len(block)
            while chunk >= 1:
                i = 0
                while i < len(block):
                    j = min(len(block), i + chunk)
                    removed = block[i:j]

                    def apply(b=block, i=i, j=j, r=removed):
                        del b[i:j]
                        return lambda: b.__setitem__(slice(i, i), r)

                    if attempt(apply):
                        progress = True
                    else:
                        i = j
                chunk //= 2
        # 2. Structure collapse: ifs to one arm, loops to one body copy
        #    or a smaller trip.
        for block in list(_blocks(program)):
            for i, stmt in enumerate(list(block)):
                if i >= len(block) or block[i] is not stmt:
                    continue  # an earlier edit shifted this block
                replacements: List[List[GStmt]] = []
                if isinstance(stmt, GIf):
                    replacements = [list(stmt.then_body),
                                    list(stmt.else_body)]
                elif isinstance(stmt, (GFor, GWhile)):
                    replacements = [
                        [GAssign(stmt.var, GConst(0))] + list(stmt.body)]
                    if stmt.trip > 1:
                        def halve(s=stmt):
                            old = s.trip
                            s.trip = max(1, s.trip // 2)
                            return lambda: setattr(s, "trip", old)
                        if attempt(halve):
                            progress = True
                for repl in replacements:
                    def apply(b=block, i=i, s=stmt, r=repl):
                        b[i:i + 1] = r
                        return lambda: b.__setitem__(
                            slice(i, i + len(r)), [s])
                    if attempt(apply):
                        progress = True
                        break
        # 3. Expression simplification + constant narrowing.
        for get, set_ in _expr_slots(program):
            current = get()
            for candidate in _simpler(current):
                def apply(g=get, s=set_, old=current, new=candidate):
                    s(new)
                    return lambda: s(old)
                if attempt(apply):
                    progress = True
                    break

    return ShrinkResult(circuit=rebuilt(program), oracle=oracle,
                        reproduced=True, checks=budget.spent,
                        edits=edits)


__all__ = ["MAX_CHECKS", "ShrinkResult", "shrink"]

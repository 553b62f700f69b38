"""Abstract syntax tree for BDL.

Plain dataclasses; every node carries its source position for
diagnostics.  :func:`assigned_vars` and :func:`used_vars` provide the
simple dataflow facts the lowering pass needs for loop-carried variable
detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    line: int = 0
    column: int = 0


@dataclass
class IntLit(Expr):
    """Integer literal."""

    value: int = 0


@dataclass
class VarRef(Expr):
    """Scalar variable reference."""

    name: str = ""


@dataclass
class ArrayRef(Expr):
    """Array element read ``name[index]``."""

    name: str = ""
    index: Optional[Expr] = None


@dataclass
class Unary(Expr):
    """Unary operation: ``-``, ``!``, ``~``."""

    op: str = ""
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    """Binary operation with a C-style operator string."""

    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements."""

    line: int = 0
    column: int = 0


@dataclass
class VarDecl(Stmt):
    """``var x = e;`` (``e`` defaults to 0)."""

    name: str = ""
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    """``x = e;``"""

    name: str = ""
    value: Optional[Expr] = None


@dataclass
class ArrayAssign(Stmt):
    """``x[i] = e;``"""

    name: str = ""
    index: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class If(Stmt):
    """``if (cond) { ... } else { ... }``"""

    cond: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    """``while (cond) { ... }``"""

    cond: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)
    label: str = ""


@dataclass
class For(Stmt):
    """``for (x = e0; cond; x = e1) { ... }``"""

    var: str = ""
    init: Optional[Expr] = None
    cond: Optional[Expr] = None
    update: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)
    label: str = ""


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """Procedure parameter: ``in x``, ``out y``, or ``array a[N]``."""

    direction: str  # "in" | "out" | "array"
    name: str
    size: int = 0  # arrays only
    line: int = 0
    column: int = 0


@dataclass
class Proc:
    """A complete BDL procedure."""

    name: str
    params: List[Param]
    body: List[Stmt]
    line: int = 0
    column: int = 0


# ---------------------------------------------------------------------------
# Dataflow facts
# ---------------------------------------------------------------------------

def assigned_vars(stmts: List[Stmt]) -> Set[str]:
    """Scalar variables assigned anywhere in ``stmts`` (recursively)."""
    out: Set[str] = set()
    for s in stmts:
        if isinstance(s, (VarDecl, Assign)):
            out.add(s.name)
        elif isinstance(s, If):
            out |= assigned_vars(s.then_body)
            out |= assigned_vars(s.else_body)
        elif isinstance(s, While):
            out |= assigned_vars(s.body)
        elif isinstance(s, For):
            out.add(s.var)
            out |= assigned_vars(s.body)
    return out


def used_vars(node: Union[Expr, Stmt, List[Stmt], None]) -> Set[str]:
    """Scalar variables read anywhere in an expression/statement tree."""
    out: Set[str] = set()
    if node is None:
        return out
    if isinstance(node, list):
        for item in node:
            out |= used_vars(item)
        return out
    if isinstance(node, VarRef):
        out.add(node.name)
    elif isinstance(node, ArrayRef):
        out |= used_vars(node.index)
    elif isinstance(node, Unary):
        out |= used_vars(node.operand)
    elif isinstance(node, Binary):
        out |= used_vars(node.left)
        out |= used_vars(node.right)
    elif isinstance(node, VarDecl):
        out |= used_vars(node.init)
    elif isinstance(node, Assign):
        out |= used_vars(node.value)
    elif isinstance(node, ArrayAssign):
        out |= used_vars(node.index)
        out |= used_vars(node.value)
    elif isinstance(node, If):
        out |= used_vars(node.cond)
        out |= used_vars(node.then_body)
        out |= used_vars(node.else_body)
    elif isinstance(node, While):
        out |= used_vars(node.cond)
        out |= used_vars(node.body)
    elif isinstance(node, For):
        out |= used_vars(node.init)
        out |= used_vars(node.cond)
        out |= used_vars(node.update)
        out |= used_vars(node.body)
    return out

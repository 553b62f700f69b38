"""Seeded random behavioral-circuit generator.

The fixed six-benchmark suite exercises a sliver of the CDFG /
scheduler / rewrite space; this module manufactures arbitrarily many
control-flow-intensive BDL programs from a seed, so the differential
oracles (:mod:`repro.gen.oracles`) can sweep loop/branch shapes the
reconstructed paper circuits never reach.

Design contract — every emitted circuit is **valid by construction**:

* it parses (the program is rendered from a statement tree, never by
  string mutation);
* it lowers and validates (all locals are pre-declared and
  unconditionally defined, so no read-before-assignment; outputs are
  always assigned in the tail);
* it terminates under the interpreter (every loop is a bounded counter
  loop whose induction variable is owned by the loop and stepped by a
  positive constant);
* it is free of runtime traps (division and modulo only by non-zero
  constants; array indices masked onto a power-of-two size; shift
  amounts are small constants).

Reproducibility: a circuit is a pure function of
``(GEN_SCHEMA_VERSION, seed, GenConfig)``.  The program *tree* is kept
on the returned :class:`GeneratedCircuit` so the shrinker
(:mod:`repro.gen.shrink`) can reduce failing circuits structurally.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cdfg.regions import Behavior
from ..cdfg.validate import validate_behavior
from ..errors import ConfigError
from ..lang import compile_source

#: Bump whenever generated output changes for the same (seed, config):
#: recorded in every finding so old replay recipes fail loudly instead
#: of replaying a different circuit.
GEN_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

#: Operator pools per mix (BDL surface syntax).
OP_MIXES: Dict[str, Tuple[str, ...]] = {
    "arith": ("+", "-", "*", "+", "-"),
    "logic": ("&", "|", "^", "<<", ">>"),
    "mixed": ("+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"),
}

COMPARISONS: Tuple[str, ...] = ("<", ">", "<=", ">=", "==", "!=")


@dataclass(frozen=True)
class GenConfig:
    """Shape parameters of the random circuit family.

    Every field participates in the reproducibility key: findings
    record the full config, and :func:`config_from_dict` round-trips
    it.  Fields are validated eagerly so a bad CLI override fails as a
    :class:`~repro.errors.ConfigError` before any circuit is emitted.
    """

    #: Maximum loop-nesting depth (0 = straight-line).
    loop_depth: int = 2
    #: Probability a statement slot becomes an ``if``.
    branch_density: float = 0.3
    #: Probability a statement slot becomes a loop (depth permitting).
    loop_density: float = 0.25
    #: Probability an ``if`` grows an ``else`` arm.
    else_density: float = 0.5
    #: Statements per block (top level gets ``block_stmts`` per region).
    block_stmts: int = 4
    #: Independent top-level statement groups (adjacent regions).
    regions: int = 2
    #: Operator mix: one of :data:`OP_MIXES`.
    op_mix: str = "mixed"
    #: Maximum expression tree depth.
    expr_depth: int = 3
    #: Scalar input count.
    n_inputs: int = 3
    #: Scalar output count.
    n_outputs: int = 2
    #: Pre-declared local variables (assignment targets).
    n_locals: int = 4
    #: Arrays declared (0 disables memory traffic).
    n_arrays: int = 1
    #: Array length — must be a power of two (indices are masked).
    array_size: int = 8
    #: Probability an expression leaf is an array load (arrays present).
    array_ratio: float = 0.25
    #: Probability a statement is an array store (arrays present).
    store_density: float = 0.15
    #: Maximum loop trip count (keeps interpretation bounded).
    max_trip: int = 5
    #: Generate bounded ``while`` loops in addition to ``for`` loops.
    while_loops: bool = True

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on bad parameters."""
        if self.op_mix not in OP_MIXES:
            raise ConfigError(
                f"unknown op_mix {self.op_mix!r}; expected one of "
                f"{sorted(OP_MIXES)}")
        if self.loop_depth < 0 or self.expr_depth < 1:
            raise ConfigError("loop_depth must be >= 0 and expr_depth >= 1")
        if self.n_inputs < 1 or self.n_outputs < 1 or self.n_locals < 1:
            raise ConfigError("need at least one input, output and local")
        if self.block_stmts < 1 or self.regions < 1:
            raise ConfigError("block_stmts and regions must be >= 1")
        if self.max_trip < 1:
            raise ConfigError("max_trip must be >= 1")
        if self.n_arrays < 0:
            raise ConfigError("n_arrays must be >= 0")
        if self.n_arrays and self.array_size & (self.array_size - 1):
            raise ConfigError(
                f"array_size must be a power of two, got {self.array_size}")
        for name in ("branch_density", "loop_density", "else_density",
                     "array_ratio", "store_density"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


def config_from_dict(doc: Dict[str, object]) -> GenConfig:
    """Rebuild a :class:`GenConfig` from a finding's recorded dict."""
    known = {f for f in GenConfig.__dataclass_fields__}
    extra = set(doc) - known
    if extra:
        raise ConfigError(
            f"unknown GenConfig fields {sorted(extra)} (schema drift? "
            f"this build is gen schema v{GEN_SCHEMA_VERSION})")
    cfg = GenConfig(**doc)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


#: The default campaign grid: one axis per structural regime.  The
#: harness cycles through it by circuit index, so any N-circuit run
#: covers every regime and ``seed + index`` pins each circuit exactly.
DEFAULT_GRID: Tuple[GenConfig, ...] = (
    GenConfig(),                                              # mixed/looped
    GenConfig(loop_depth=0, branch_density=0.45,
              block_stmts=3, regions=2),                      # branchy, flat
    GenConfig(loop_depth=3, loop_density=0.45, block_stmts=3,
              op_mix="arith", n_arrays=0),                    # deep loops
    GenConfig(op_mix="logic", branch_density=0.2,
              array_ratio=0.4, store_density=0.3),            # memory/logic
    GenConfig(loop_depth=1, while_loops=True, loop_density=0.5,
              n_locals=5, op_mix="arith"),                    # wide whiles
    GenConfig(loop_depth=2, branch_density=0.35, block_stmts=3,
              else_density=0.2, n_arrays=2, array_size=4),    # sparse elses
)


# ---------------------------------------------------------------------------
# Program tree
# ---------------------------------------------------------------------------

class GExpr:
    """Expression tree node (rendered to BDL surface syntax)."""

    __slots__ = ()

    def render(self) -> str:
        raise NotImplementedError


class GConst(GExpr):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def render(self) -> str:
        return str(self.value) if self.value >= 0 else f"(-{-self.value})"


class GVar(GExpr):
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def render(self) -> str:
        return self.name


class GLoad(GExpr):
    """``arr[index & mask]`` — mask keeps any index in bounds."""

    __slots__ = ("array", "index", "mask")

    def __init__(self, array: str, index: GExpr, mask: int) -> None:
        self.array = array
        self.index = index
        self.mask = mask

    def render(self) -> str:
        return f"{self.array}[({self.index.render()}) & {self.mask}]"


class GUnary(GExpr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: GExpr) -> None:
        self.op = op
        self.operand = operand

    def render(self) -> str:
        return f"({self.op}{self.operand.render()})"


class GBinary(GExpr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: GExpr, right: GExpr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"


class GStmt:
    """Statement tree node."""

    __slots__ = ()

    def render(self, indent: int) -> List[str]:
        raise NotImplementedError


def _pad(indent: int) -> str:
    return "    " * indent


class GAssign(GStmt):
    __slots__ = ("name", "expr")

    def __init__(self, name: str, expr: GExpr) -> None:
        self.name = name
        self.expr = expr

    def render(self, indent: int) -> List[str]:
        return [f"{_pad(indent)}{self.name} = {self.expr.render()};"]


class GStore(GStmt):
    __slots__ = ("array", "index", "mask", "expr")

    def __init__(self, array: str, index: GExpr, mask: int,
                 expr: GExpr) -> None:
        self.array = array
        self.index = index
        self.mask = mask
        self.expr = expr

    def render(self, indent: int) -> List[str]:
        return [f"{_pad(indent)}{self.array}[({self.index.render()}) & "
                f"{self.mask}] = {self.expr.render()};"]


class GIf(GStmt):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: GExpr, then_body: List[GStmt],
                 else_body: Optional[List[GStmt]] = None) -> None:
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body or []

    def render(self, indent: int) -> List[str]:
        lines = [f"{_pad(indent)}if ({self.cond.render()}) {{"]
        for stmt in self.then_body:
            lines.extend(stmt.render(indent + 1))
        if self.else_body:
            lines.append(f"{_pad(indent)}}} else {{")
            for stmt in self.else_body:
                lines.extend(stmt.render(indent + 1))
        lines.append(f"{_pad(indent)}}}")
        return lines


class GFor(GStmt):
    """``for (v = 0; v < trip * step; v = v + step)`` — always bounded."""

    __slots__ = ("var", "trip", "step", "body")

    def __init__(self, var: str, trip: int, step: int,
                 body: List[GStmt]) -> None:
        self.var = var
        self.trip = trip
        self.step = step
        self.body = body

    def render(self, indent: int) -> List[str]:
        bound = self.trip * self.step
        lines = [f"{_pad(indent)}for ({self.var} = 0; "
                 f"{self.var} < {bound}; "
                 f"{self.var} = {self.var} + {self.step}) {{"]
        for stmt in self.body:
            lines.extend(stmt.render(indent + 1))
        lines.append(f"{_pad(indent)}}}")
        return lines


class GWhile(GStmt):
    """Counter-bounded ``while`` — the induction variable is reserved
    for the loop, so termination is structural, not probabilistic."""

    __slots__ = ("var", "trip", "body")

    def __init__(self, var: str, trip: int, body: List[GStmt]) -> None:
        self.var = var
        self.trip = trip
        self.body = body

    def render(self, indent: int) -> List[str]:
        lines = [f"{_pad(indent)}{self.var} = 0;",
                 f"{_pad(indent)}while ({self.var} < {self.trip}) {{"]
        for stmt in self.body:
            lines.extend(stmt.render(indent + 1))
        lines.append(f"{_pad(indent + 1)}{self.var} = {self.var} + 1;")
        lines.append(f"{_pad(indent)}}}")
        return lines


@dataclass
class GProgram:
    """A complete procedure: interface + pre-declared locals + body."""

    name: str
    inputs: List[str]
    outputs: List[str]
    arrays: List[Tuple[str, int]]
    #: Pre-declared locals with their initializing expressions.
    decls: List[Tuple[str, GExpr]]
    body: List[GStmt]
    #: Output name -> expression for the tail assignments.
    tail: List[Tuple[str, GExpr]] = field(default_factory=list)

    def render(self) -> str:
        params = [f"in {name}" for name in self.inputs]
        params += [f"out {name}" for name in self.outputs]
        params += [f"array {name}[{size}]" for name, size in self.arrays]
        lines = [f"proc {self.name}({', '.join(params)}) {{"]
        for name, expr in self.decls:
            lines.append(f"    var {name} = {expr.render()};")
        for stmt in self.body:
            lines.extend(stmt.render(1))
        for name, expr in self.tail:
            lines.append(f"    {name} = {expr.render()};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass
class GeneratedCircuit:
    """One generated circuit plus everything needed to reproduce it."""

    seed: int
    config: GenConfig
    schema_version: int
    program: GProgram
    source: str

    def behavior(self) -> Behavior:
        """Compile (and re-validate) the circuit."""
        beh = compile_source(self.source)
        validate_behavior(beh)
        return beh


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

class _Gen:
    """One generation run (all randomness from one seeded stream)."""

    def __init__(self, seed: int, config: GenConfig) -> None:
        self.rng = random.Random(
            f"repro.gen/v{GEN_SCHEMA_VERSION}/{seed}")
        self.cfg = config
        self.inputs = [f"in{i}" for i in range(config.n_inputs)]
        self.outputs = [f"out{i}" for i in range(config.n_outputs)]
        self.locals = [f"t{i}" for i in range(config.n_locals)]
        self.arrays = [(f"mem{i}", config.array_size)
                       for i in range(config.n_arrays)]
        self._loop_counter = 0

    # -- expressions ----------------------------------------------------
    def _readable(self, loop_vars: Sequence[str]) -> List[str]:
        return self.inputs + self.locals + list(loop_vars)

    def expr(self, depth: int, loop_vars: Sequence[str]) -> GExpr:
        rng, cfg = self.rng, self.cfg
        if depth <= 0 or rng.random() < 0.3:
            return self._leaf(loop_vars)
        op = rng.choice(OP_MIXES[cfg.op_mix])
        left = self.expr(depth - 1, loop_vars)
        if op in ("/", "%"):
            # Non-zero constant divisor: no runtime trap possible.
            return GBinary(op, left, GConst(rng.randint(1, 7)))
        if op in ("<<", ">>"):
            # Small constant shift: values stay in the datapath width.
            return GBinary(op, left, GConst(rng.randint(0, 4)))
        right = self.expr(depth - 1, loop_vars)
        if rng.random() < 0.15:
            un = rng.choice(("-", "~", "!"))
            left = GUnary(un, left)
        return GBinary(op, left, right)

    def _leaf(self, loop_vars: Sequence[str]) -> GExpr:
        rng, cfg = self.rng, self.cfg
        if self.arrays and rng.random() < cfg.array_ratio:
            name, size = rng.choice(self.arrays)
            return GLoad(name, self._leaf_scalar(loop_vars), size - 1)
        return self._leaf_scalar(loop_vars)

    def _leaf_scalar(self, loop_vars: Sequence[str]) -> GExpr:
        rng = self.rng
        pick = rng.random()
        if pick < 0.25:
            return GConst(rng.choice((0, 1, 2, 3, 5, 7, 13, 255)))
        return GVar(rng.choice(self._readable(loop_vars)))

    def cond(self, loop_vars: Sequence[str]) -> GExpr:
        rng, cfg = self.rng, self.cfg
        op = rng.choice(COMPARISONS)
        left = self.expr(min(2, cfg.expr_depth), loop_vars)
        right = self.expr(min(2, cfg.expr_depth), loop_vars)
        out: GExpr = GBinary(op, left, right)
        if rng.random() < 0.2:
            other = GBinary(rng.choice(COMPARISONS),
                            self._leaf_scalar(loop_vars),
                            self._leaf_scalar(loop_vars))
            out = GBinary(rng.choice(("&&", "||")), out, other)
        return out

    # -- statements -----------------------------------------------------
    def block(self, n_stmts: int, depth: int, loop_vars: Tuple[str, ...],
              in_branch: bool = False) -> List[GStmt]:
        out: List[GStmt] = []
        for _ in range(n_stmts):
            out.append(self.stmt(depth, loop_vars, in_branch))
        return out

    def stmt(self, depth: int, loop_vars: Tuple[str, ...],
             in_branch: bool = False) -> GStmt:
        rng, cfg = self.rng, self.cfg
        roll = rng.random()
        # The if-converted IR cannot host loops under branch guards
        # (BehaviorBuilder rejects them), so branches stay loop-free.
        if not in_branch and depth < cfg.loop_depth \
                and roll < cfg.loop_density:
            return self._loop(depth, loop_vars)
        # Hard structural cap: branch nesting stops two levels past the
        # loop-depth budget so the recursion terminates for any config.
        if depth < cfg.loop_depth + 2 \
                and roll < cfg.loop_density + cfg.branch_density:
            return self._if(depth, loop_vars)
        if self.arrays and rng.random() < cfg.store_density:
            name, size = rng.choice(self.arrays)
            return GStore(name, self.expr(2, loop_vars), size - 1,
                          self.expr(cfg.expr_depth, loop_vars))
        target = rng.choice(self.locals)
        return GAssign(target, self.expr(cfg.expr_depth, loop_vars))

    def _if(self, depth: int, loop_vars: Tuple[str, ...]) -> GIf:
        rng, cfg = self.rng, self.cfg
        n = rng.randint(1, max(1, cfg.block_stmts - 2))
        then_body = self.block(n, depth + 1, loop_vars, in_branch=True)
        else_body: Optional[List[GStmt]] = None
        if rng.random() < cfg.else_density:
            else_body = self.block(
                rng.randint(1, max(1, cfg.block_stmts - 2)),
                depth + 1, loop_vars, in_branch=True)
        return GIf(self.cond(loop_vars), then_body, else_body)

    def _loop(self, depth: int, loop_vars: Tuple[str, ...]) -> GStmt:
        rng, cfg = self.rng, self.cfg
        self._loop_counter += 1
        var = f"i{self._loop_counter}"
        inner = loop_vars + (var,)
        n = rng.randint(1, max(1, cfg.block_stmts - 1))
        body = self.block(n, depth + 1, inner)
        trip = rng.randint(1, cfg.max_trip)
        if cfg.while_loops and rng.random() < 0.4:
            return GWhile(var, trip, body)
        return GFor(var, trip, rng.choice((1, 1, 2)), body)

    # -- whole program --------------------------------------------------
    def program(self, name: str) -> GProgram:
        cfg = self.cfg
        # Declarations may only read inputs and already-declared locals
        # (the frontend rejects read-before-assignment), so the visible
        # local pool grows as the decl list is emitted.
        all_locals = list(self.locals)
        decls = []
        for k, local in enumerate(all_locals):
            self.locals = all_locals[:k]
            decls.append((local, self.expr(1, ())))
        self.locals = all_locals
        body: List[GStmt] = []
        for _ in range(cfg.regions):
            body.extend(self.block(cfg.block_stmts, 0, ()))
        tail = [(out, self.expr(cfg.expr_depth, ()))
                for out in self.outputs]
        return GProgram(name=name, inputs=list(self.inputs),
                        outputs=list(self.outputs),
                        arrays=list(self.arrays), decls=decls,
                        body=body, tail=tail)


def generate(seed: int, config: Optional[GenConfig] = None,
             name: Optional[str] = None) -> GeneratedCircuit:
    """Generate one circuit, deterministically from ``(seed, config)``.

    The emitted source is compiled and validated before being returned,
    so callers never see a circuit that fails the frontend — if one is
    ever produced it is a generator bug and raises immediately.
    """
    cfg = config or GenConfig()
    cfg.validate()
    gen = _Gen(seed, cfg)
    program = gen.program(name or f"fuzz_{seed}")
    source = program.render()
    circuit = GeneratedCircuit(seed=seed, config=cfg,
                               schema_version=GEN_SCHEMA_VERSION,
                               program=program, source=source)
    circuit.behavior()  # parse + lower + validate, or raise
    return circuit


def grid_config(index: int,
                grid: Sequence[GenConfig] = DEFAULT_GRID) -> GenConfig:
    """The grid entry a campaign uses for circuit ``index``."""
    return grid[index % len(grid)]


__all__ = [
    "COMPARISONS", "DEFAULT_GRID", "GAssign", "GBinary", "GConst",
    "GEN_SCHEMA_VERSION", "GExpr", "GFor", "GIf", "GLoad", "GProgram",
    "GStmt", "GStore", "GUnary", "GVar", "GWhile", "GenConfig",
    "GeneratedCircuit", "OP_MIXES", "config_from_dict", "generate",
    "grid_config",
]

"""Hardware component library and allocation model.

The paper characterizes functional units, registers and memories for
delay, area and energy (Table 1 for the TEST1 example, Section 5 for the
main experiments).  Both the scheduler (delays, allocation counts) and
the power model (energy constants) read from this shared model.

Energy constants are the paper's ``C_type`` in
``E = C_type × Vdd² × N_ops`` (Section 2.2).  The Section-5 library does
not publish energy constants; the values here are chosen to be
consistent with Table 1's ratios (multiplier ≈ 2× adder, incrementer
≈ 0.5× adder, ...) and are documented as a substitution in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .cdfg.ops import OpKind
from .errors import PowerError

#: Pseudo FU-type prefix for per-array memories.  An array ``x`` occupies
#: resource ``mem:x``; its port count comes from the array declaration.
MEMORY_PREFIX = "mem:"


@dataclass(frozen=True)
class FuType:
    """A library component characterized for delay, energy and area.

    Delay is in nanoseconds; energy is the dimensionless ``C_type``
    constant of the paper's model (multiplied by ``Vdd²`` per operation);
    area is in normalized units.
    """

    name: str
    delay: float
    energy: float
    area: float


@dataclass
class Library:
    """A component library plus functional-unit selection.

    Attributes:
        name: library identifier.
        fu_types: component characterizations by name.
        selection: which FU type implements each operation kind.
        register: the register component (read/write energy, setup delay).
        memory: the memory component (access delay/energy for arrays).
        overhead_factor: interconnect + controller energy, as a fraction
            of datapath (FU + register + memory) energy.  Calibrated so
            Example 1's total (665.58 Vdd² from a 440.8 Vdd² datapath)
            is reproduced; see DESIGN.md.
    """

    name: str
    fu_types: Dict[str, FuType]
    selection: Dict[OpKind, str]
    register: FuType
    memory: FuType
    overhead_factor: float = 0.51

    def fu_for(self, kind: OpKind) -> Optional[FuType]:
        """The FU type implementing ``kind``; ``None`` if cost-free."""
        name = self.selection.get(kind)
        if name is None:
            return None
        try:
            return self.fu_types[name]
        except KeyError:
            raise PowerError(
                f"library {self.name}: selection maps {kind.value} to "
                f"unknown FU type {name!r}") from None

    def delay_of(self, kind: OpKind) -> float:
        """Propagation delay in ns of ``kind`` (0 for cost-free kinds)."""
        if kind in (OpKind.LOAD, OpKind.STORE):
            return self.memory.delay
        fu = self.fu_for(kind)
        return fu.delay if fu is not None else 0.0

    def scaled(self, vdd: float, vt: float = 1.0,
               vdd_nominal: float = 5.0) -> "Library":
        """A copy of the library with delays rescaled for supply ``vdd``.

        Uses the paper's first-order model
        ``delay = k × Vdd / (Vdd − Vt)²`` (Section 2.2, footnote 1).
        """
        if vdd <= vt:
            raise PowerError(f"Vdd {vdd} must exceed Vt {vt}")
        factor = ((vdd / (vdd - vt) ** 2)
                  / (vdd_nominal / (vdd_nominal - vt) ** 2))

        def scale(fu: FuType) -> FuType:
            return replace(fu, delay=fu.delay * factor)

        return Library(
            name=f"{self.name}@{vdd:.2f}V",
            fu_types={k: scale(v) for k, v in self.fu_types.items()},
            selection=dict(self.selection),
            register=scale(self.register),
            memory=scale(self.memory),
            overhead_factor=self.overhead_factor,
        )


@dataclass
class Allocation:
    """How many instances of each FU type the design may use.

    ``counts`` maps FU type name → instance count.  Memories are
    implicit: every declared array gets its own memory (paper: "arrays
    ... are assumed to be mapped to separate memories").
    """

    counts: Dict[str, int] = field(default_factory=dict)

    def count(self, fu_name: str) -> int:
        """Available instances of ``fu_name`` (0 if not allocated)."""
        return self.counts.get(fu_name, 0)

    def copy(self) -> "Allocation":
        return Allocation(dict(self.counts))


# ---------------------------------------------------------------------------
# Paper libraries
# ---------------------------------------------------------------------------

def table1_library() -> Library:
    """The TEST1 / Example 1 library (paper Table 1).

    ``comp1`` implements the comparisons, ``cla1`` the additions,
    ``incr1`` the increment, ``w_mult1`` the multiply; ``reg1`` and
    ``mem1`` characterize storage.
    """
    fu_types = {
        "comp1": FuType("comp1", delay=12.0, energy=1.1, area=1.3),
        "cla1": FuType("cla1", delay=10.0, energy=1.3, area=1.5),
        "incr1": FuType("incr1", delay=13.0, energy=0.7, area=1.1),
        "w_mult1": FuType("w_mult1", delay=23.0, energy=2.3, area=3.9),
    }
    selection = {
        OpKind.LT: "comp1", OpKind.GT: "comp1", OpKind.LE: "comp1",
        OpKind.GE: "comp1", OpKind.EQ: "comp1", OpKind.NE: "comp1",
        OpKind.ADD: "cla1", OpKind.SUB: "cla1",
        OpKind.INC: "incr1", OpKind.DEC: "incr1",
        OpKind.MUL: "w_mult1",
        OpKind.NEG: "cla1",
    }
    return Library(
        name="table1",
        fu_types=fu_types,
        selection=selection,
        register=FuType("reg1", delay=3.0, energy=0.3, area=1.0),
        memory=FuType("mem1", delay=15.0, energy=1.9, area=8.1),
    )


def table1_allocation() -> Allocation:
    """Allocation used in Example 1 (Table 1's ``#`` column)."""
    return Allocation({"comp1": 2, "cla1": 2, "incr1": 1, "w_mult1": 1})


def dac98_library() -> Library:
    """The Section-5 experimental library (a1, sb1, mt1, cp1, e1, i1, n1, s1).

    Delays are the paper's; energy constants are our calibrated
    substitution (see module docstring and DESIGN.md).
    """
    fu_types = {
        "a1": FuType("a1", delay=10.0, energy=1.3, area=1.5),
        "sb1": FuType("sb1", delay=10.0, energy=1.3, area=1.5),
        "mt1": FuType("mt1", delay=23.0, energy=2.3, area=3.9),
        "cp1": FuType("cp1", delay=10.0, energy=1.1, area=1.3),
        "e1": FuType("e1", delay=5.0, energy=0.6, area=0.9),
        "i1": FuType("i1", delay=5.0, energy=0.7, area=1.1),
        "n1": FuType("n1", delay=2.0, energy=0.2, area=0.4),
        "s1": FuType("s1", delay=10.0, energy=0.9, area=1.2),
    }
    selection = {
        OpKind.ADD: "a1",
        OpKind.SUB: "sb1", OpKind.NEG: "sb1",
        OpKind.MUL: "mt1",
        OpKind.LT: "cp1", OpKind.GT: "cp1", OpKind.LE: "cp1",
        OpKind.GE: "cp1",
        OpKind.EQ: "e1", OpKind.NE: "e1",
        OpKind.INC: "i1", OpKind.DEC: "i1",
        OpKind.BNOT: "n1", OpKind.LNOT: "n1",
        OpKind.BAND: "n1", OpKind.BOR: "n1", OpKind.BXOR: "n1",
        OpKind.LAND: "n1", OpKind.LOR: "n1",
        OpKind.SHL: "s1", OpKind.SHR: "s1",
        OpKind.DIV: "mt1", OpKind.MOD: "mt1",
    }
    return Library(
        name="dac98",
        fu_types=fu_types,
        selection=selection,
        register=FuType("reg1", delay=3.0, energy=0.3, area=1.0),
        memory=FuType("mem1", delay=15.0, energy=1.9, area=8.1),
    )


def memory_resource_name(array: str) -> str:
    """Resource name for the memory holding ``array``."""
    return MEMORY_PREFIX + array

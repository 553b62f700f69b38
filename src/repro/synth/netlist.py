"""Structural netlist export.

Renders a :class:`~repro.synth.area.SynthesizedDesign` as a readable
structural description (Verilog-flavoured pseudo-RTL): functional-unit
instances with their operand multiplexers, the register file, the
memories, and the controller FSM's state/transition summary.  This is
the artifact a downstream user would hand to a real RTL flow; it also
makes binding results inspectable in tests.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .area import SynthesizedDesign
from .binding import FuInstance


def netlist_text(design: SynthesizedDesign) -> str:
    """Render the synthesized design as structural pseudo-RTL."""
    result = design.result
    graph = result.behavior.graph
    lines: List[str] = []
    name = result.behavior.name
    ports = []
    for var in result.behavior.inputs:
        ports.append(f"input [31:0] {var}")
    for var in result.behavior.outputs:
        ports.append(f"output [31:0] {var}")
    lines.append(f"module {name} (")
    lines.append("    clk, rst" + ("," if ports else ""))
    lines.append(",\n".join(f"    {p}" for p in ports))
    lines.append(");")
    lines.append("")

    lines.append("  // ---- registers "
                 f"({design.registers.count} x 32b) ----")
    for reg, lifetimes in enumerate(design.registers.registers):
        holds = ", ".join(f"n{lt.node}[{lt.start}:{lt.end}]"
                          for lt in lifetimes)
        lines.append(f"  reg [31:0] r{reg};  // holds {holds}")
    lines.append("")

    lines.append("  // ---- memories ----")
    for arr in sorted(result.behavior.arrays.values(),
                      key=lambda d: d.name):
        lines.append(f"  ram #(.DEPTH({arr.size}), .PORTS({arr.ports})) "
                     f"mem_{arr.name} (.clk(clk));")
    lines.append("")

    lines.append("  // ---- functional units ----")
    for fu_type in sorted(design.binding.instances):
        for inst in design.binding.instances[fu_type]:
            ops = design.binding.ops_on(inst)
            labels = ", ".join(graph.nodes[o].label() for o in ops[:6])
            if len(ops) > 6:
                labels += ", ..."
            safe = inst.name.replace("[", "_").replace("]", "") \
                .replace(":", "_")
            lines.append(f"  {fu_type.split(':')[0]} u_{safe} "
                         f"(.clk(clk));  // executes: {labels}")
            for port, sources in sorted(
                    _port_sources(design, inst).items()):
                if len(sources) > 1:
                    lines.append(
                        f"  //   port {port}: mux"
                        f"{len(sources)} <- {', '.join(sorted(sources))}")
    lines.append("")

    stg = result.stg
    lines.append(f"  // ---- controller: {len(stg)} states, "
                 f"{design.controller.state_bits} state bits, "
                 f"{len(stg.transitions)} transitions ----")
    for sid in stg.state_ids():
        state = stg.states[sid]
        ops = " ".join(f"n{op.node}" for op in state.ops) or "(idle)"
        nexts = ", ".join(
            f"S{t.dst}" + (f" if {t.label}" if t.label else "")
            for t in stg.out_edges(sid))
        lines.append(f"  // S{sid}: {ops} -> {nexts or 'DONE'}")
    lines.append("")
    lines.append(f"  // area: {design.area.total:.1f} "
                 f"(fu {sum(design.area.fu_area.values()):.1f}, "
                 f"reg {design.area.register_area:.1f}, "
                 f"mem {design.area.memory_area:.1f}, "
                 f"mux {design.area.mux_area:.1f}, "
                 f"ctrl {design.area.controller_area:.1f})")
    lines.append("endmodule")
    return "\n".join(lines)


def _port_sources(design: SynthesizedDesign,
                  inst: FuInstance) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    for (instance, port), sources in \
            design.interconnect.port_sources.items():
        if instance == inst:
            out[port] = sources
    return out

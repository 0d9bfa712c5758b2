"""Netlist rendering and the emit -> re-import -> compare loop.

`resolve` freezes a solved sketch into a structural netlist, `print_verilog`
renders it deterministically, and `check_equivalence` closes the loop by
re-importing the printed text and comparing it against the original design.
The checker deliberately shares no binding logic with `resolve`: it goes
through the Verilog importer and semantic inlining, so a bug in emission
cannot vouch for itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import synthesis, templates, verilog
from .errors import MissingHole, SignatureMismatch, ValidationError


@dataclass(frozen=True)
class NetInstance:
    name: str
    primitive: str
    params: tuple  # of (param name, width, value)
    pins: tuple  # of (port, tuple of bit refs, LSB first)


@dataclass(frozen=True)
class Netlist:
    """Structural instance graph with resolved parameters.

    Bit references are tagged tuples: ("const", v), ("in", name, bit),
    ("wire", name, bit), ("out", name, bit).
    """

    name: str
    inputs: tuple  # of (name, width)
    outputs: tuple  # of (name, width)
    wires: tuple  # of (name, width)
    instances: tuple  # of NetInstance, topologically ordered
    assigns: tuple  # of (output name, hi, lo, tuple of bit refs LSB first)


def _resolve_binding(binding, assignment):
    if isinstance(binding, templates.BindingHole):
        cands = binding.candidates
        if len(cands) == 1:
            return cands[0]
        if binding.hole not in assignment:
            raise MissingHole(binding.hole)
        sel = assignment[binding.hole]
        return cands[min(sel, len(cands) - 1)]
    return binding


def resolve(sketch, solution):
    """Apply a solution's hole values to a sketch, yielding a Netlist."""
    assignment = solution.assignment if isinstance(solution, synthesis.Solution) else solution
    output_widths = dict(sketch.outputs)

    resolved_pins = {}  # (inst, port) -> list of SignalBit/ConstBit/NetBit
    net_consumers = {}  # (inst, port) -> count of instance-pin consumers
    for inst in sketch.instances:
        for port, bindings in inst.pins:
            sources = [_resolve_binding(b, assignment) for b in bindings]
            resolved_pins[(inst.name, port)] = sources
            for src in sources:
                if isinstance(src, templates.NetBit):
                    key = (src.instance, src.port)
                    net_consumers[key] = net_consumers.get(key, 0) + 1

    # Decide each instance output port's sink: a design output when the
    # mapping covers it exactly and nobody else consumes it, else a wire.
    out_sources = {}  # output name -> list of NetBit/ConstBit
    for name, sources in sketch.output_map:
        out_sources[name] = list(sources)
    port_direct = {}  # (inst, port) -> ("out", name) | ("outbit", name, bit)
    claimed_bits = {}  # output name -> {bit: (inst, port)}
    for inst in sketch.instances:
        for port, width in inst.outputs:
            key = (inst.name, port)
            refs = [
                (oname, bit)
                for oname, sources in out_sources.items()
                for bit, src in enumerate(sources)
                if isinstance(src, templates.NetBit)
                and (src.instance, src.port) == key
            ]
            if net_consumers.get(key):
                continue
            if width == 1 and len(refs) == 1:
                oname, bit = refs[0]
                port_direct[key] = ("outbit", oname, bit)
                claimed_bits.setdefault(oname, {})[bit] = key
            elif width > 1 and len(refs) == width:
                oname = refs[0][0]
                if all(
                    o == oname and out_sources[oname][b].bit == b for o, b in refs
                ) and output_widths.get(oname) == width and sorted(b for _, b in refs) == list(range(width)):
                    port_direct[key] = ("out", oname)
                    claimed_bits.setdefault(oname, {}).update({b: key for _, b in refs})

    # Wires for everything not directly tied to an output.
    net_names = dict(sketch.net_names)
    wires = []
    wire_of = {}
    for inst in sketch.instances:
        for port, width in inst.outputs:
            key = (inst.name, port)
            if key in port_direct:
                continue
            wname = net_names.get(key, f"{inst.name}_{port}")
            wire_of[key] = wname
            wires.append((wname, width))

    def bit_ref(src):
        if isinstance(src, templates.ConstBit):
            return ("const", src.value)
        if isinstance(src, templates.SignalBit):
            return ("in", src.name, src.bit)
        key = (src.instance, src.port)
        return ("wire", wire_of[key], src.bit)

    instances = []
    for inst in sketch.instances:
        params = []
        for pname, pwidth, value in inst.params:
            if isinstance(value, templates.ParamHole):
                if value.hole not in assignment:
                    raise MissingHole(value.hole)
                params.append((pname, pwidth, assignment[value.hole]))
            else:
                params.append((pname, pwidth, value))
        pins = []
        for port, _ in inst.pins:
            pins.append((port, tuple(bit_ref(s) for s in resolved_pins[(inst.name, port)])))
        for port, width in inst.outputs:
            key = (inst.name, port)
            direct = port_direct.get(key)
            if direct is None:
                pins.append((port, tuple(("wire", wire_of[key], b) for b in range(width))))
            elif direct[0] == "out":
                oname = direct[1]
                pins.append((port, tuple(("out", oname, b) for b in range(width))))
            else:
                _, oname, bit = direct
                pins.append((port, (("out", oname, bit),)))
        instances.append(NetInstance(inst.name, inst.primitive, tuple(params), tuple(pins)))

    assigns = []
    for oname, owidth in sketch.outputs:
        claimed = claimed_bits.get(oname, {})
        pending = [b for b in range(owidth) if b not in claimed]
        run = []
        for b in pending + [None]:
            if run and (b is None or b != run[-1] + 1):
                refs = tuple(bit_ref(out_sources[oname][k]) for k in run)
                assigns.append((oname, run[-1], run[0], refs))
                run = []
            if b is not None:
                run.append(b)
    return Netlist(
        sketch.module_name,
        tuple(sketch.inputs),
        tuple(sketch.outputs),
        tuple(sorted(wires)),
        tuple(instances),
        tuple(assigns),
    )


def _render_bit(ref, widths):
    tag = ref[0]
    if tag == "const":
        return f"1'b{ref[1]}"
    _, name, bit = ref
    if widths[name] == 1:
        return name
    return f"{name}[{bit}]"


def _render_bus(refs, widths):
    """Render LSB-first bit refs as a Verilog expression, merging runs."""
    parts = []  # collected MSB first
    i = len(refs) - 1
    while i >= 0:
        ref = refs[i]
        if ref[0] == "const":
            parts.append(f"1'b{ref[1]}")
            i -= 1
            continue
        _, name, hi = ref
        lo = hi
        j = i - 1
        while j >= 0 and refs[j][:2] == (ref[0], name) and refs[j][2] == lo - 1:
            lo = refs[j][2]
            j -= 1
        if lo == 0 and hi == widths[name] - 1:
            parts.append(name)
        elif hi == lo:
            parts.append(_render_bit(ref, widths))
        else:
            parts.append(f"{name}[{hi}:{lo}]")
        i = j
    if len(parts) == 1:
        return parts[0]
    return "{" + ", ".join(parts) + "}"


def print_verilog(netlist):
    """Render a netlist as re-importable structural Verilog, byte-stably."""
    widths = dict(netlist.inputs)
    widths.update(dict(netlist.outputs))
    widths.update(dict(netlist.wires))

    lines = [f"module {netlist.name} ("]
    ports = [("input", n, w) for n, w in netlist.inputs]
    ports += [("output", n, w) for n, w in netlist.outputs]
    for k, (direction, name, width) in enumerate(ports):
        rng = "" if width == 1 else f"[{width - 1}:0] "
        comma = "," if k < len(ports) - 1 else ""
        lines.append(f"  {direction} {rng}{name}{comma}")
    lines.append(");")
    for name, width in netlist.wires:
        rng = "" if width == 1 else f"[{width - 1}:0] "
        lines.append(f"  wire {rng}{name};")
    for inst in netlist.instances:
        params = ""
        if inst.params:
            rendered = ", ".join(
                f".{p}({w}'h{v:0{(w + 3) // 4}X})" for p, w, v in inst.params
            )
            params = f"#({rendered}) "
        pins = ", ".join(
            f".{port}({_render_bus(refs, widths)})" for port, refs in inst.pins
        )
        lines.append(f"  {inst.primitive} {params}{inst.name} ({pins});")
    for oname, hi, lo, refs in netlist.assigns:
        owidth = widths[oname]
        if hi == owidth - 1 and lo == 0:
            target = oname
        elif hi == lo:
            target = f"{oname}[{hi}]" if owidth > 1 else oname
        else:
            target = f"{oname}[{hi}:{lo}]"
        lines.append(f"  assign {target} = {_render_bus(refs, widths)};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    counterexample: object = None  # env dict when inequivalent


def _import_netlist(netlist_source, library, filename=None):
    ast = verilog.parse(netlist_source, filename=filename, allow_instances=True)
    return verilog.elaborate(ast, params={}, library=library)


def check_equivalence(design, netlist_source, library, mode="exhaustive", solver=None):
    """Re-import a printed netlist and compare it against the design.

    The re-imported netlist is the sketch of a problem without holes.
    Exhaustive mode walks every input row with `synthesis.exhaustive_counterexample`
    (at most `semantics.EXHAUSTIVE_INPUT_BITS` input bits, else TooManyInputBits);
    solver mode asks `synthesis.solver_counterexample`. Either way an
    inequivalence comes back with a concrete distinguishing input.
    """
    imported = _import_netlist(netlist_source, library)
    if dict(design.inputs) != dict(imported.inputs):
        raise SignatureMismatch(
            f"netlist inputs {imported.inputs} do not match design inputs {design.inputs}"
        )
    if design.output_widths != imported.output_widths:
        raise SignatureMismatch(
            f"netlist outputs differ from design outputs: "
            f"{imported.output_widths} vs {design.output_widths}"
        )
    imported_by_name = dict(imported.outputs)
    aligned = tuple((name, imported_by_name[name]) for name, _ in design.outputs)
    problem = synthesis.SynthesisProblem(design, aligned, (), design.inputs)
    if mode == "exhaustive":
        cex = synthesis.exhaustive_counterexample(problem, {})
    elif mode == "solver":
        if solver is None:
            raise ValidationError("solver mode needs a SolverConfig")
        cex = synthesis.solver_counterexample(problem, {}, solver)
    else:
        raise ValidationError(f"mode must be 'exhaustive' or 'solver', not {mode!r}")
    return EquivReport(cex is None, cex)

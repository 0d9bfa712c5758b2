"""Netlist rendering and the emit -> re-import -> compare loop.

`resolve` freezes a solved sketch into a structural netlist, `print_verilog`
renders it deterministically, and `check_equivalence` closes the loop by
re-importing the printed text and comparing it against the original design.
The checker deliberately shares no binding logic with `resolve`: it goes
through the Verilog importer and semantic inlining, so a bug in emission
cannot vouch for itself.

`resolve` ties an instance output port straight to the design output when
no instance pin reads the port and the port either is a whole output, bit
for bit, or is one bit wide and feeds exactly one output bit. Every other
output port drives a wire, and output bits that no port drives get an
`assign` per run of consecutive bits. Instances and wires keep the names
the sketch gives them unless a design port, or a name chosen before, uses
that name; then the first free suffix `_1`, `_2`, ... is appended. Hole
names, which name sketch instances, are not changed.
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


def _hole_value(hole, assignment):
    if hole not in assignment:
        raise MissingHole(hole)
    return assignment[hole]


def _resolve_binding(binding, assignment):
    if isinstance(binding, templates.BindingHole):
        cands = binding.candidates
        if len(cands) == 1:
            return cands[0]
        return cands[min(_hole_value(binding.hole, assignment), len(cands) - 1)]
    return binding


def resolve(sketch, solution):
    """Apply a solution's hole values to a sketch, yielding a Netlist."""
    assignment = solution.assignment if isinstance(solution, synthesis.Solution) else solution
    pins = {
        inst.name: [
            (port, [_resolve_binding(b, assignment) for b in bindings]) for port, bindings in inst.pins
        ]
        for inst in sketch.instances
    }
    read = {
        (src.instance, src.port)
        for inst_pins in pins.values()
        for _, sources in inst_pins
        for src in sources
        if isinstance(src, templates.NetBit)
    }
    feeds = {}  # (instance, port) -> [(port bit, output, output bit)]
    for oname, sources in sketch.output_map:
        for obit, src in enumerate(sources):
            if isinstance(src, templates.NetBit):
                feeds.setdefault((src.instance, src.port), []).append((src.bit, oname, obit))

    output_widths = dict(sketch.outputs)
    taken = set(dict(sketch.inputs)) | set(output_widths)

    def fresh(name):
        unique, k = name, 0
        while unique in taken:
            k += 1
            unique = f"{name}_{k}"
        taken.add(unique)
        return unique

    names = {inst.name: fresh(inst.name) for inst in sketch.instances}
    net_names = dict(sketch.net_names)
    wires = []
    port_refs = {}  # (instance, port) -> the bit refs its pin connects, LSB first
    for inst in sketch.instances:
        for port, width in inst.outputs:
            key = (inst.name, port)
            fed = sorted(feeds.get(key, ()))
            if key not in read and len(fed) == width and (
                width == 1
                or fed == [(b, fed[0][1], b) for b in range(width)]
                and output_widths[fed[0][1]] == width
            ):
                port_refs[key] = tuple(("out", oname, obit) for _, oname, obit in fed)
            else:
                wire = fresh(net_names.get(key, f"{inst.name}_{port}"))
                wires.append((wire, width))
                port_refs[key] = tuple(("wire", wire, b) for b in range(width))

    def bit_ref(src):
        if isinstance(src, templates.ConstBit):
            return ("const", src.value)
        if isinstance(src, templates.SignalBit):
            return ("in", src.name, src.bit)
        return port_refs[(src.instance, src.port)][src.bit]

    instances = []
    for inst in sketch.instances:
        params = tuple(
            (pname, pwidth, _hole_value(value.hole, assignment)
             if isinstance(value, templates.ParamHole) else value)
            for pname, pwidth, value in inst.params
        )
        inst_pins = [(port, tuple(map(bit_ref, sources))) for port, sources in pins[inst.name]]
        inst_pins += [(port, port_refs[(inst.name, port)]) for port, _ in inst.outputs]
        instances.append(NetInstance(names[inst.name], inst.primitive, params, tuple(inst_pins)))

    driven = {ref[1:] for refs in port_refs.values() for ref in refs if ref[0] == "out"}
    out_sources = dict(sketch.output_map)
    assigns = []
    for oname, owidth in sketch.outputs:
        run = []
        for b in range(owidth + 1):
            if b < owidth and (oname, b) not in driven:
                run.append(b)
            elif run:
                refs = tuple(bit_ref(out_sources[oname][k]) for k in run)
                assigns.append((oname, run[-1], run[0], refs))
                run = []
    return Netlist(
        sketch.module_name,
        tuple(sketch.inputs),
        tuple(sketch.outputs),
        tuple(sorted(wires)),
        tuple(instances),
        tuple(assigns),
    )


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
            parts.append(f"{name}[{hi}]")
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
        target = _render_bus(tuple(("out", oname, b) for b in range(lo, hi + 1)), widths)
        lines.append(f"  assign {target} = {_render_bus(refs, widths)};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    counterexample: object = None  # env dict when inequivalent


def _import_netlist(netlist_source, library, filename=None):
    ast = verilog.parse(netlist_source, filename=filename, allow_instances=True)
    return verilog.elaborate(ast, library).bind({})


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
    problem = synthesis.SynthesisProblem(design, aligned, ())
    if mode == "exhaustive":
        cex = synthesis.exhaustive_counterexample(problem, {})
    elif mode == "solver":
        if solver is None:
            raise ValidationError("solver mode needs a SolverConfig")
        cex = synthesis.solver_counterexample(problem, {}, solver)
    else:
        raise ValidationError(f"mode must be 'exhaustive' or 'solver', not {mode!r}")
    return EquivReport(cex is None, cex)

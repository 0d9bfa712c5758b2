"""Platform-independent sketch construction.

A sketch is a pattern of primitive instances with two kinds of unknowns:
parameter holes (e.g. a LUT INIT) and pin-binding holes, which pick one of
a finite candidate list of 1-bit sources for an instance input pin. Pin
freedom is encoded uniformly as a selector hole driving a mux chain, with
out-of-range selector values clamping to the last candidate, so both kinds
of unknowns are solved by the same machinery.

Four template families are provided: a single LUT, one LUT per output bit,
a ripple carry chain, and a wide multiplier. Carry and multiplier cells
declare their pin roles in a descriptor shipped next to the primitive,
since roles cannot be inferred from port names alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import ir
from .errors import NoCompatiblePrimitive, SignatureMismatch, ValidationError


class TemplateKind(enum.Enum):
    LUT_SINGLE = "lut_single"
    BITWISE_PER_BIT = "bitwise_per_bit"
    CARRY_CHAIN = "carry_chain"
    MULTIPLIER = "multiplier"


@dataclass(frozen=True)
class SignalBit:
    """Bit `bit` of a design input."""

    name: str
    bit: int = 0


@dataclass(frozen=True)
class ConstBit:
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValidationError(f"ConstBit must be 0 or 1, not {self.value}")


@dataclass(frozen=True)
class NetBit:
    """Bit `bit` of output port `port` of an earlier instance."""

    instance: str
    port: str
    bit: int = 0


@dataclass(frozen=True)
class BindingHole:
    hole: str
    candidates: tuple

    def __post_init__(self):
        if not self.candidates:
            raise ValidationError(f"binding hole '{self.hole}' has no candidates")

    @property
    def selector_width(self):
        return max((len(self.candidates) - 1).bit_length(), 1)


@dataclass(frozen=True)
class ParamHole:
    hole: str


@dataclass(frozen=True)
class SketchInstance:
    name: str
    primitive: str
    params: tuple  # of (param name, width, ParamHole | int)
    pins: tuple  # of (port name, tuple of one binding per bit)
    outputs: tuple  # of (port name, width)


@dataclass(frozen=True)
class Sketch:
    """A template instantiated for one concrete design signature."""

    inputs: tuple  # of (name, width) — the design signature
    outputs: tuple  # of (name, width)
    instances: tuple  # of SketchInstance
    output_map: tuple  # of (output name, tuple of NetBit | ConstBit per bit)
    net_names: tuple = ()  # of ((instance, port), wire name) naming hints
    module_name: str = "mapped"

    def __post_init__(self):
        input_widths = dict(self.inputs)
        seen_instances = {}
        holes = set()

        def note_hole(name):
            if name in holes:
                raise ValidationError(f"duplicate hole id '{name}'")
            holes.add(name)

        def check_source(src, position):
            if isinstance(src, SignalBit):
                if src.name not in input_widths or not 0 <= src.bit < input_widths[src.name]:
                    raise ValidationError(f"{position}: no input bit {src.name}[{src.bit}]")
            elif isinstance(src, NetBit):
                ports = seen_instances.get(src.instance)
                if ports is None:
                    raise ValidationError(
                        f"{position}: net {src.instance}.{src.port} does not refer to an"
                        " earlier instance"
                    )
                if src.port not in ports or not 0 <= src.bit < ports[src.port]:
                    raise ValidationError(f"{position}: no net bit {src.instance}.{src.port}[{src.bit}]")
            elif not isinstance(src, ConstBit):
                raise ValidationError(f"{position}: bad pin source {src!r}")

        for inst in self.instances:
            if inst.name in seen_instances:
                raise ValidationError(f"duplicate instance '{inst.name}'")
            for pname, pwidth, value in inst.params:
                if isinstance(value, ParamHole):
                    note_hole(value.hole)
                elif not 0 <= value < (1 << pwidth):
                    raise ValidationError(f"{inst.name}.{pname}={value} does not fit width {pwidth}")
            for port, bindings in inst.pins:
                for b, binding in enumerate(bindings):
                    position = f"{inst.name}.{port}[{b}]"
                    if isinstance(binding, BindingHole):
                        note_hole(binding.hole)
                        for cand in binding.candidates:
                            check_source(cand, position)
                    else:
                        check_source(binding, position)
            seen_instances[inst.name] = dict(inst.outputs)

        mapped = {}
        for name, sources in self.output_map:
            for b, src in enumerate(sources):
                if not isinstance(src, (NetBit, ConstBit)):
                    raise ValidationError(f"output {name}[{b}] must map to a net or constant")
                check_source(src, f"output {name}[{b}]")
            mapped[name] = len(sources)
        for name, width in self.outputs:
            if mapped.get(name) != width:
                raise ValidationError(f"output '{name}' is not fully mapped")


@dataclass(frozen=True)
class TemplateOptions:
    """Construction choices.

    pin_mode 'holes' leaves pin bindings to the solver; 'pinned' binds
    design input bits to pins positionally (padding with constant 0),
    which shrinks the search to parameter holes only. `primitive` forces
    a specific library cell instead of the deterministic default.
    """

    pin_mode: str = "holes"
    primitive: str = None

    def __post_init__(self):
        if self.pin_mode not in ("holes", "pinned"):
            raise ValidationError(f"pin_mode must be 'holes' or 'pinned', not {self.pin_mode!r}")


def _flat_input_bits(design):
    return [SignalBit(name, bit) for name, width in design.inputs for bit in range(width)]


def _lut_shape(sem):
    """Return (k, param name) when `sem` looks like a k-input LUT."""
    if len(sem.outputs) != 1 or sem.outputs[0][1].width != 1:
        return None
    if any(w != 1 for _, w in sem.inputs):
        return None
    k = len(sem.inputs)
    if k < 1 or len(sem.params) != 1:
        return None
    pname, pwidth, _ = sem.params[0]
    if pwidth != 1 << k:
        return None
    return k, pname


def _pick_lut(library, kind, options, needed_bits):
    if options.primitive is not None:
        sem = library.primitives.get(options.primitive)
        shape = _lut_shape(sem) if sem is not None else None
        if shape is None:
            raise NoCompatiblePrimitive(kind.value, f"'{options.primitive}' is not a LUT-shaped cell")
        return sem, shape
    luts = []
    for name in sorted(library.primitives):
        shape = _lut_shape(library.primitives[name])
        if shape is not None:
            luts.append((shape[0], name, shape))
    if not luts:
        raise NoCompatiblePrimitive(kind.value, "library has no k-input/1-output cell with a 2^k parameter")
    luts.sort()
    for k, name, shape in luts:
        if k >= needed_bits:
            return library.primitives[name], shape
    k, name, shape = luts[-1]
    return library.primitives[name], shape


def _descriptor_cell(library, kind, options, required_roles):
    names = [options.primitive] if options.primitive is not None else sorted(library.descriptors)
    for name in names:
        desc = library.descriptors.get(name)
        if desc is None or name not in library.primitives:
            continue
        if all(role in desc for role in required_roles):
            return library.primitives[name], desc
    raise NoCompatiblePrimitive(
        kind.value, f"no primitive with a descriptor declaring roles {sorted(required_roles)}"
    )


def _lut_pins(inst_name, sem, k, design, options, bit=None):
    """Bindings for a LUT's pins over the design's input bits.

    `bit` restricts candidates to that bit of each (wide enough) input, as
    the per-bit template requires; None offers every input bit.
    """
    if bit is None:
        signals = _flat_input_bits(design)
    else:
        signals = [SignalBit(n, bit) for n, w in design.inputs if w > bit]
    pins = []
    if options.pin_mode == "pinned":
        if len(signals) > k:
            raise SignatureMismatch(
                f"{len(signals)} candidate bits do not fit the {k} pins of {sem.name}"
            )
        for j, (pin, _) in enumerate(sem.inputs):
            src = signals[j] if j < len(signals) else ConstBit(0)
            pins.append((pin, (src,)))
    else:
        candidates = tuple(signals) + (ConstBit(0), ConstBit(1))
        for pin, _ in sem.inputs:
            hole = BindingHole(f"{inst_name}.{pin}.sel", candidates)
            pins.append((pin, (hole,)))
    return tuple(pins)


def _param_holes(inst_name, sem):
    return tuple(
        (pname, pwidth, ParamHole(f"{inst_name}.{pname}")) for pname, pwidth, _ in sem.params
    )


def instantiate(kind, design, library, options=None):
    """Build a sketch of the given kind for a design signature."""
    options = options or TemplateOptions()
    if kind is TemplateKind.LUT_SINGLE:
        return _instantiate_lut_single(design, library, options)
    if kind is TemplateKind.BITWISE_PER_BIT:
        return _instantiate_bitwise(design, library, options)
    if kind is TemplateKind.CARRY_CHAIN:
        return _instantiate_carry(design, library, options)
    if kind is TemplateKind.MULTIPLIER:
        return _instantiate_multiplier(design, library, options)
    raise ValueError(f"unknown template kind {kind!r}")


def _signature(design):
    return tuple(design.inputs), tuple((n, e.width) for n, e in design.outputs)


def _instantiate_lut_single(design, library, options):
    inputs, outputs = _signature(design)
    if len(outputs) != 1 or outputs[0][1] != 1:
        raise SignatureMismatch("lut_single needs exactly one 1-bit design output")
    sem, (k, _) = _pick_lut(library, TemplateKind.LUT_SINGLE, options, sum(w for _, w in inputs))
    inst = SketchInstance(
        "inst_0",
        sem.name,
        _param_holes("inst_0", sem),
        _lut_pins("inst_0", sem, k, design, options),
        tuple((n, e.width) for n, e in sem.outputs),
    )
    out_port = sem.outputs[0][0]
    return Sketch(
        inputs, outputs, (inst,), ((outputs[0][0], (NetBit("inst_0", out_port, 0),)),),
        module_name=design.name,
    )


def _instantiate_bitwise(design, library, options):
    inputs, outputs = _signature(design)
    if len(outputs) != 1:
        raise SignatureMismatch("bitwise_per_bit needs exactly one design output")
    out_name, n = outputs[0]
    sem, (k, _) = _pick_lut(
        library, TemplateKind.BITWISE_PER_BIT, options, len(inputs)
    )
    instances = []
    sources = []
    for i in range(n):
        name = f"inst_{i}"
        instances.append(
            SketchInstance(
                name,
                sem.name,
                _param_holes(name, sem),
                _lut_pins(name, sem, k, design, options, bit=i),
                tuple((p, e.width) for p, e in sem.outputs),
            )
        )
        sources.append(NetBit(name, sem.outputs[0][0], 0))
    return Sketch(
        inputs, outputs, tuple(instances), ((out_name, tuple(sources)),),
        module_name=design.name,
    )


def _instantiate_carry(design, library, options):
    inputs, outputs = _signature(design)
    sem, desc = _descriptor_cell(
        library, TemplateKind.CARRY_CHAIN, options, {"sum", "cout", "cin", "operands"}
    )
    sum_port, cout_port, cin_port = desc["sum"], desc["cout"], desc["cin"]
    op_ports = tuple(desc["operands"])

    if len(inputs) not in (2, 3) or inputs[0][1] != inputs[1][1]:
        raise SignatureMismatch("carry_chain needs two equal-width operand inputs")
    n = inputs[0][1]
    cin_name = None
    if len(inputs) == 3:
        if inputs[2][1] != 1:
            raise SignatureMismatch("a carry-in input must be 1 bit wide")
        cin_name = inputs[2][0]
    if not outputs or outputs[0][1] != n or len(outputs) > 2:
        raise SignatureMismatch("carry_chain needs an n-bit sum output first, optional 1-bit carry-out")
    sum_name = outputs[0][0]
    cout_name = None
    if len(outputs) == 2:
        if outputs[1][1] != 1:
            raise SignatureMismatch("a carry-out output must be 1 bit wide")
        cout_name = outputs[1][0]

    instances = []
    net_names = []
    for i in range(n):
        name = f"inst_{i}"
        pins = []
        for port, operand in zip(op_ports, (inputs[0][0], inputs[1][0])):
            if options.pin_mode == "pinned":
                pins.append((port, (SignalBit(operand, i),)))
            else:
                candidates = (
                    SignalBit(inputs[0][0], i),
                    SignalBit(inputs[1][0], i),
                    ConstBit(0),
                    ConstBit(1),
                )
                pins.append((port, (BindingHole(f"{name}.{port}.sel", candidates),)))
        if i == 0:
            if options.pin_mode == "pinned":
                cin_src = SignalBit(cin_name, 0) if cin_name else ConstBit(0)
                pins.append((cin_port, (cin_src,)))
            else:
                candidates = (ConstBit(0), ConstBit(1))
                if cin_name:
                    candidates = (SignalBit(cin_name, 0),) + candidates
                pins.append((cin_port, (BindingHole(f"{name}.{cin_port}.sel", candidates),)))
        else:
            pins.append((cin_port, (NetBit(f"inst_{i - 1}", cout_port, 0),)))
            net_names.append(((f"inst_{i - 1}", cout_port), f"c{i - 1}"))
        instances.append(
            SketchInstance(
                name,
                sem.name,
                _param_holes(name, sem),
                tuple(pins),
                tuple((p, e.width) for p, e in sem.outputs),
            )
        )

    output_map = [(sum_name, tuple(NetBit(f"inst_{i}", sum_port, 0) for i in range(n)))]
    if cout_name:
        output_map.append((cout_name, (NetBit(f"inst_{n - 1}", cout_port, 0),)))
    return Sketch(
        inputs, outputs, tuple(instances), tuple(output_map), tuple(net_names),
        module_name=design.name,
    )


def _instantiate_multiplier(design, library, options):
    inputs, outputs = _signature(design)
    sem, desc = _descriptor_cell(
        library, TemplateKind.MULTIPLIER, options, {"operands", "product"}
    )
    op_ports = tuple(desc["operands"])
    product_port = desc["product"]
    if len(inputs) != 2:
        raise SignatureMismatch("multiplier needs exactly two operand inputs")
    if len(outputs) != 1:
        raise SignatureMismatch("multiplier needs exactly one product output")
    in_widths = dict(sem.inputs)
    out_widths = dict((p, e.width) for p, e in sem.outputs)
    pins = []
    for port, (op_name, op_width) in zip(op_ports, inputs):
        bus = in_widths[port]
        if op_width > bus:
            raise SignatureMismatch(f"operand '{op_name}' ({op_width} bits) exceeds pin {port} ({bus} bits)")
        bindings = tuple(
            SignalBit(op_name, b) if b < op_width else ConstBit(0) for b in range(bus)
        )
        pins.append((port, bindings))
    out_name, out_width = outputs[0]
    if out_width > out_widths[product_port]:
        raise SignatureMismatch(
            f"output '{out_name}' ({out_width} bits) exceeds product bus ({out_widths[product_port]} bits)"
        )
    inst = SketchInstance(
        "inst_0",
        sem.name,
        _param_holes("inst_0", sem),
        tuple(pins),
        tuple((p, e.width) for p, e in sem.outputs),
    )
    sources = tuple(NetBit("inst_0", product_port, b) for b in range(out_width))
    return Sketch(
        inputs, outputs, (inst,), ((out_name, sources),), module_name=design.name,
    )


def sketch_holes(sketch):
    """The sketch's holes as an ordered (name, width) list.

    Instance order, then parameter holes before pin selector holes within
    an instance. Binding holes with a single candidate need no selector
    and contribute nothing.
    """
    holes = []
    for inst in sketch.instances:
        for _, pwidth, value in inst.params:
            if isinstance(value, ParamHole):
                holes.append((value.hole, pwidth))
        for _, bindings in inst.pins:
            for binding in bindings:
                if isinstance(binding, BindingHole) and len(binding.candidates) > 1:
                    holes.append((binding.hole, binding.selector_width))
    return holes


def _source_expr(src, input_widths, net_exprs):
    if isinstance(src, ConstBit):
        return ir.Const(1, src.value)
    if isinstance(src, SignalBit):
        width = input_widths[src.name]
        var = ir.Var(src.name, width)
        return var if width == 1 else ir.Extract(src.bit, src.bit, var)
    if isinstance(src, NetBit):
        expr = net_exprs[(src.instance, src.port)]
        return expr if expr.width == 1 else ir.Extract(src.bit, src.bit, expr)
    raise ValidationError(f"bad pin source {src!r}")


def _binding_expr(binding, input_widths, net_exprs):
    if not isinstance(binding, BindingHole):
        return _source_expr(binding, input_widths, net_exprs)
    cands = binding.candidates
    if len(cands) == 1:
        return _source_expr(cands[0], input_widths, net_exprs)
    width = binding.selector_width
    sel = ir.Hole(binding.hole, width)
    # Mux chain: selector i picks candidate i; anything past the end
    # falls through to the last candidate.
    acc = _source_expr(cands[-1], input_widths, net_exprs)
    for i in range(len(cands) - 2, -1, -1):
        acc = ir.Mux(ir.Eq(sel, ir.Const(width, i)), _source_expr(cands[i], input_widths, net_exprs), acc)
    return acc


def sketch_to_exprs(sketch, library):
    """Inline primitive semantics through the sketch.

    Returns [(design output name, hole-bearing expression)] in signature
    order; the expressions' free Vars are exactly design inputs, and their
    Holes are the sketch's parameter and selector holes.
    """
    input_widths = dict(sketch.inputs)
    net_exprs = {}
    for inst in sketch.instances:
        prim = library.primitives.get(inst.primitive)
        if prim is None:
            raise ValidationError(f"sketch references unknown primitive '{inst.primitive}'")
        binding = {}
        for pname, pwidth, value in inst.params:
            if isinstance(value, ParamHole):
                binding[pname] = ir.Hole(value.hole, pwidth)
            else:
                binding[pname] = ir.Const(pwidth, value)
        for port, bindings in inst.pins:
            bits = [_binding_expr(b, input_widths, net_exprs) for b in bindings]
            binding[port] = ir.concat(reversed(bits))
        for port, expr in prim.outputs:
            net_exprs[(inst.name, port)] = ir.substitute(expr, binding)

    results = []
    for name, sources in sketch.output_map:
        bits = [_source_expr(s, input_widths, net_exprs) for s in sources]
        results.append((name, ir.concat(reversed(bits))))
    return results

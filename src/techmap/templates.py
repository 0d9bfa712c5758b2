"""Platform-independent sketch construction.

A sketch is a pattern of primitive instances with two kinds of unknowns:
parameter holes (e.g. a LUT INIT) and pin-binding holes, which pick one of
a finite candidate list of 1-bit sources for an instance input pin. Pin
freedom is encoded uniformly as a selector hole driving a mux chain, so
both kinds of unknowns are solved by the same machinery. A binding hole has
two or more candidates, and `BindingHole.pick` is its one selector rule:
value i picks candidate i, and a value past the end picks the last.

A group of pins is bound over a list of candidate signals, as the pin mode
argument of `instantiate` says. With 'holes', the default, each pin gets a
selector hole over the signals, then constant 0, then constant 1. With
'pinned' pin j gets signal j and spare pins get constant 0; more signals
than pins is a signature mismatch.

`Sketch.holes` is the one list of a sketch's holes, as (name, width) pairs:
instance order, then parameter holes before pin selector holes within an
instance, pins and bits in order.

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
        if len(self.candidates) < 2:
            raise ValidationError(f"binding hole '{self.hole}' needs two or more candidates")

    @property
    def selector_width(self):
        return (len(self.candidates) - 1).bit_length()

    def pick(self, value):
        """The candidate that selector `value` picks; past the end, the last."""
        return self.candidates[min(value, len(self.candidates) - 1)]


@dataclass(frozen=True)
class ParamHole:
    hole: str


@dataclass(frozen=True)
class SketchInstance:
    name: str
    primitive: str
    params: tuple  # of (param name, width, ParamHole)
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
    holes: tuple = field(init=False, repr=False, compare=False)  # of (name, width)

    def __post_init__(self):
        input_widths = dict(self.inputs)
        seen_instances = {}
        holes = {}

        def note_hole(name, width):
            if name in holes:
                raise ValidationError(f"duplicate hole id '{name}'")
            holes[name] = width

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
                if not isinstance(value, ParamHole):
                    raise ValidationError(f"{inst.name}.{pname} must be a parameter hole")
                note_hole(value.hole, pwidth)
            for port, bindings in inst.pins:
                for b, binding in enumerate(bindings):
                    position = f"{inst.name}.{port}[{b}]"
                    if isinstance(binding, BindingHole):
                        note_hole(binding.hole, binding.selector_width)
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
        object.__setattr__(self, "holes", tuple(holes.items()))


def _lut_width(sem):
    """k when `sem` looks like a k-input LUT, else None."""
    if len(sem.outputs) != 1 or sem.outputs[0][1].width != 1:
        return None
    if any(w != 1 for _, w in sem.inputs):
        return None
    k = len(sem.inputs)
    if k < 1 or len(sem.params) != 1 or sem.params[0][1] != 1 << k:
        return None
    return k


def _pick_lut(library, kind, needed_bits):
    luts = sorted(
        (k, name) for name, sem in library.primitives.items() if (k := _lut_width(sem)) is not None
    )
    if not luts:
        raise NoCompatiblePrimitive(kind.value, "library has no k-input/1-output cell with a 2^k parameter")
    _, name = next((lut for lut in luts if lut[0] >= needed_bits), luts[-1])
    return library.primitives[name]


def _descriptor_cell(library, kind, required_roles):
    for name, desc in sorted(library.descriptors.items()):
        if required_roles <= desc.keys():
            return library.primitives[name], desc
    raise NoCompatiblePrimitive(
        kind.value, f"no primitive with a descriptor declaring roles {sorted(required_roles)}"
    )


def _bind(inst, cell, ports, signals, pin_mode):
    """Pins of `ports` of instance `inst` (a `cell`) over candidate `signals`."""
    if pin_mode == "pinned":
        if len(signals) > len(ports):
            raise SignatureMismatch(
                f"{len(signals)} candidate bits do not fit the {len(ports)} pins of {cell}"
            )
        padded = list(signals) + [ConstBit(0)] * (len(ports) - len(signals))
        return [(port, (src,)) for port, src in zip(ports, padded)]
    candidates = tuple(signals) + (ConstBit(0), ConstBit(1))
    return [(port, (BindingHole(f"{inst}.{port}.sel", candidates),)) for port in ports]


def _instance(name, sem, pins):
    """An instance of `sem` with a hole for every parameter."""
    params = tuple((p, width, ParamHole(f"{name}.{p}")) for p, width, _ in sem.params)
    outputs = tuple((p, e.width) for p, e in sem.outputs)
    return SketchInstance(name, sem.name, params, tuple(pins), outputs)


def _lut_single(design, library, pin_mode):
    outputs = tuple(design.output_widths.items())
    if len(outputs) != 1 or outputs[0][1] != 1:
        raise SignatureMismatch("lut_single needs exactly one 1-bit design output")
    signals = [SignalBit(name, bit) for name, width in design.inputs for bit in range(width)]
    return _lut_row(TemplateKind.LUT_SINGLE, design, library, pin_mode, len(signals), [signals])


def _bitwise(design, library, pin_mode):
    if len(design.outputs) != 1:
        raise SignatureMismatch("bitwise_per_bit needs exactly one design output")
    signal_sets = [
        [SignalBit(name, i) for name, width in design.inputs if width > i]
        for i in range(design.outputs[0][1].width)
    ]
    return _lut_row(
        TemplateKind.BITWISE_PER_BIT, design, library, pin_mode, len(design.inputs), signal_sets
    )


def _lut_row(kind, design, library, pin_mode, needed_bits, signal_sets):
    """One LUT per bit of the design's one output; bit i's pins bind over signal_sets[i]."""
    sem = _pick_lut(library, kind, needed_bits)
    ports = [p for p, _ in sem.inputs]
    instances = tuple(
        _instance(f"inst_{i}", sem, _bind(f"inst_{i}", sem.name, ports, signals, pin_mode))
        for i, signals in enumerate(signal_sets)
    )
    sources = tuple(NetBit(inst.name, sem.outputs[0][0]) for inst in instances)
    return Sketch(
        design.inputs, tuple(design.output_widths.items()), instances,
        ((design.outputs[0][0], sources),), module_name=design.name,
    )


def _carry_chain(design, library, pin_mode):
    inputs, outputs = design.inputs, tuple(design.output_widths.items())
    sem, desc = _descriptor_cell(
        library, TemplateKind.CARRY_CHAIN, {"sum", "cout", "cin", "operands"}
    )
    sum_port, cout_port, cin_port = desc["sum"], desc["cout"], desc["cin"]

    if len(inputs) not in (2, 3) or inputs[0][1] != inputs[1][1]:
        raise SignatureMismatch("carry_chain needs two equal-width operand inputs")
    n = inputs[0][1]
    carry_in = []
    if len(inputs) == 3:
        if inputs[2][1] != 1:
            raise SignatureMismatch("a carry-in input must be 1 bit wide")
        carry_in = [SignalBit(inputs[2][0])]
    if not outputs or outputs[0][1] != n or len(outputs) > 2:
        raise SignatureMismatch("carry_chain needs an n-bit sum output first, optional 1-bit carry-out")
    if len(outputs) == 2 and outputs[1][1] != 1:
        raise SignatureMismatch("a carry-out output must be 1 bit wide")

    instances = []
    net_names = []
    for i in range(n):
        name = f"inst_{i}"
        operands = [SignalBit(inputs[0][0], i), SignalBit(inputs[1][0], i)]
        pins = _bind(name, sem.name, desc["operands"][:2], operands, pin_mode)
        if i == 0:
            pins += _bind(name, sem.name, [cin_port], carry_in, pin_mode)
        else:
            pins.append((cin_port, (NetBit(f"inst_{i - 1}", cout_port),)))
            net_names.append(((f"inst_{i - 1}", cout_port), f"c{i - 1}"))
        instances.append(_instance(name, sem, pins))

    output_map = [(outputs[0][0], tuple(NetBit(f"inst_{i}", sum_port) for i in range(n)))]
    if len(outputs) == 2:
        output_map.append((outputs[1][0], (NetBit(f"inst_{n - 1}", cout_port),)))
    return Sketch(
        inputs, outputs, tuple(instances), tuple(output_map), tuple(net_names),
        module_name=design.name,
    )


def _multiplier(design, library, pin_mode):
    inputs, outputs = design.inputs, tuple(design.output_widths.items())
    sem, desc = _descriptor_cell(library, TemplateKind.MULTIPLIER, {"operands", "product"})
    product_port = desc["product"]
    if len(inputs) != 2:
        raise SignatureMismatch("multiplier needs exactly two operand inputs")
    if len(outputs) != 1:
        raise SignatureMismatch("multiplier needs exactly one product output")
    in_widths = dict(sem.inputs)
    pins = []
    for port, (op_name, op_width) in zip(desc["operands"], inputs):
        bus = in_widths[port]
        if op_width > bus:
            raise SignatureMismatch(f"operand '{op_name}' ({op_width} bits) exceeds pin {port} ({bus} bits)")
        bindings = tuple(
            SignalBit(op_name, b) if b < op_width else ConstBit(0) for b in range(bus)
        )
        pins.append((port, bindings))
    out_name, out_width = outputs[0]
    product_width = sem.output_widths[product_port]
    if out_width > product_width:
        raise SignatureMismatch(
            f"output '{out_name}' ({out_width} bits) exceeds product bus ({product_width} bits)"
        )
    sources = tuple(NetBit("inst_0", product_port, b) for b in range(out_width))
    return Sketch(
        inputs, outputs, (_instance("inst_0", sem, pins),), ((out_name, sources),),
        module_name=design.name,
    )


_BUILDERS = {
    TemplateKind.LUT_SINGLE: _lut_single,
    TemplateKind.BITWISE_PER_BIT: _bitwise,
    TemplateKind.CARRY_CHAIN: _carry_chain,
    TemplateKind.MULTIPLIER: _multiplier,
}


def instantiate(kind, design, library, pin_mode="holes"):
    """Build a sketch of the given kind for a design signature.

    pin_mode 'holes' leaves pin bindings to the solver; 'pinned' binds
    design input bits to pins positionally, which leaves only parameter
    holes to search.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown template kind {kind!r}")
    if pin_mode not in ("holes", "pinned"):
        raise ValidationError(f"pin_mode must be 'holes' or 'pinned', not {pin_mode!r}")
    return _BUILDERS[kind](design, library, pin_mode)


def _source_expr(src, input_widths, net_exprs):
    if isinstance(src, ConstBit):
        return ir.Const(1, src.value)
    if isinstance(src, SignalBit):
        width = input_widths[src.name]
        var = ir.Var(src.name, width)
        return var if width == 1 else ir.Extract(src.bit, src.bit, var)
    expr = net_exprs[(src.instance, src.port)]
    return expr if expr.width == 1 else ir.Extract(src.bit, src.bit, expr)


def _binding_expr(binding, input_widths, net_exprs):
    if not isinstance(binding, BindingHole):
        return _source_expr(binding, input_widths, net_exprs)
    cands = binding.candidates
    width = binding.selector_width
    sel = ir.Hole(binding.hole, width)
    # Mux chain, the rule of `BindingHole.pick`: selector i picks
    # candidate i; anything past the end falls through to the last.
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
        binding = {pname: ir.Hole(value.hole, pwidth) for pname, pwidth, value in inst.params}
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

"""Width-annotated bitvector expression DAG.

This is the exchange format between every stage of the pipeline: hardware
designs, library primitives, and synthesis sketches are all expressions over
this node set. Nodes are immutable; width constraints are enforced at
construction time, so any expression you can hold is locally well-formed.
`validate` adds the context-dependent checks (variable resolution, hole
policy, per-name width consistency).

Every module is one `Design`, whether a design to map or a library
primitive: a primitive is a Design with parameters. `design_to_dict` and
`design_from_dict` are the one JSON codec for both.

Width rules, and next to them `OPERATORS`, the one table of what each node
class is called in JSON and how the pretty printer, the SMT-LIB lowering
and the Python evaluator compiler spell it:
  Var/Const/Hole      carry their width; every width is in 1..MAX_WIDTH
  Not/Neg             width of the operand
  ReduceAnd/Or/Xor    1
  And/Or/Xor/Add/Sub/Mul   operands must agree; result keeps that width,
                           arithmetic is modulo 2^width
  Shl/LShr            width of the shifted operand; the amount may have any
                      width and is read as an unsigned integer; amounts >=
                      width yield 0
  Eq/Ult              operands must agree; result width 1
  Mux                 cond width 1 (1 selects the first branch); branches agree
  Extract             hi/lo bit indices, result width hi-lo+1
  Concat              sum of widths, first operand is the high part
  ZeroExt/SignExt     explicit new width >= operand width
"""

from __future__ import annotations

import functools
import json
from dataclasses import InitVar, dataclass, field, fields, replace
from operator import is_not

from .errors import (
    HoleNotAllowed,
    ParseError,
    UnknownVar,
    ValidationError,
    WidthMismatch,
)
from .minismt import MAX_WIDTH, decimal, decimal_text


class BitVecExpr:
    """Base class for all expression nodes."""

    __slots__ = ()

    width: int

    def __str__(self):
        """Verilog-like text: each node's `pretty` template, and a constant as value'width."""
        text = {}  # id(node) -> its text
        for node in postorder((self,)):
            row = OPERATORS[type(node)]
            if row.pretty is None:
                out = f"{decimal_text(node.value)}'{node.width}"
            else:
                kids = [text[id(k)] for k in _children(node)]
                out = row.pretty % (*kids, *(getattr(node, name) for name in row.indices))
            text[id(node)] = out
        return text[id(self)]


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _check_width(width, what):
    if not 1 <= width <= MAX_WIDTH:
        raise ValidationError(f"{what} width {decimal_text(width)} is not in 1..{MAX_WIDTH}")


@dataclass(frozen=True, slots=True)
class Var(BitVecExpr):
    name: str
    width: int

    def __post_init__(self):
        _require(self.name != "", "Var name must be nonempty")
        _check_width(self.width, f"Var '{self.name}'")


@dataclass(frozen=True, slots=True)
class Const(BitVecExpr):
    width: int
    value: int

    def __post_init__(self):
        _check_width(self.width, "Const")
        if not 0 <= self.value < (1 << self.width):
            value = decimal_text(self.value)
            raise ValidationError(f"Const value {value} out of range for width {self.width}")


@dataclass(frozen=True, slots=True)
class Hole(BitVecExpr):
    """A synthesis unknown. Only legal inside sketches."""

    name: str
    width: int

    def __post_init__(self):
        _require(self.name != "", "Hole name must be nonempty")
        _check_width(self.width, f"Hole '{self.name}'")


@dataclass(frozen=True, slots=True)
class _Unary(BitVecExpr):
    a: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "width", self.a.width)


class Not(_Unary):
    pass


class Neg(_Unary):
    pass


class _Reduce(_Unary):
    def __post_init__(self):
        object.__setattr__(self, "width", 1)


class ReduceAnd(_Reduce):
    pass


class ReduceOr(_Reduce):
    pass


class ReduceXor(_Reduce):
    pass


@dataclass(frozen=True, slots=True)
class _Binary(BitVecExpr):
    """Binary op whose operands must share a width (which the result keeps);
    `_Shift` and `_Compare` change that rule."""

    a: BitVecExpr
    b: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a.width != self.b.width:
            raise WidthMismatch(type(self).__name__, self.a.width, self.b.width)
        object.__setattr__(self, "width", self.a.width)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Xor(_Binary):
    pass


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class _Shift(_Binary):
    def __post_init__(self):  # the amount may have any width
        object.__setattr__(self, "width", self.a.width)


class Shl(_Shift):
    pass


class LShr(_Shift):
    pass


class _Compare(_Binary):
    def __post_init__(self):
        _Binary.__post_init__(self)
        object.__setattr__(self, "width", 1)


class Eq(_Compare):
    pass


class Ult(_Compare):
    pass


@dataclass(frozen=True, slots=True)
class Mux(BitVecExpr):
    cond: BitVecExpr
    a: BitVecExpr
    b: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.cond.width != 1:
            raise WidthMismatch("Mux condition", 1, self.cond.width)
        if self.a.width != self.b.width:
            raise WidthMismatch("Mux branches", self.a.width, self.b.width)
        object.__setattr__(self, "width", self.a.width)


@dataclass(frozen=True, slots=True)
class Extract(BitVecExpr):
    hi: int
    lo: int
    a: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi < self.a.width:
            raise ValidationError(
                f"Extract range [{self.hi}:{self.lo}] invalid for width {self.a.width}"
            )
        object.__setattr__(self, "width", self.hi - self.lo + 1)


@dataclass(frozen=True, slots=True)
class Concat(BitVecExpr):
    """hi occupies the most-significant bits of the result."""

    hi: BitVecExpr
    lo: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "width", self.hi.width + self.lo.width)
        _check_width(self.width, "Concat")


@dataclass(frozen=True, slots=True)
class _Extend(BitVecExpr):
    a: BitVecExpr
    width: int

    def __post_init__(self):
        if self.width < self.a.width:
            raise WidthMismatch(type(self).__name__, f">= {self.a.width}", self.width)
        _check_width(self.width, type(self).__name__)


class ZeroExt(_Extend):
    pass


class SignExt(_Extend):
    pass


@dataclass(frozen=True)
class Operator:
    """A row of OPERATORS. A template is a %-format string, or None where that
    notation's writer spells the node itself. `operands` names the node
    class's BitVecExpr fields and `indices` its other init fields."""

    node: InitVar[type]
    json: str
    pretty: str | None = None  # over the operands' text, then the indices
    smt: str | None = None  # over terms, see `semantics.lower_to_smt`
    python: str | None = None  # over named texts, see `semantics._operation`
    operands: tuple = field(init=False)
    indices: tuple = field(init=False)

    def __post_init__(self, node):
        init = [f for f in fields(node) if f.init]
        object.__setattr__(self, "operands", tuple(f.name for f in init if f.type == "BitVecExpr"))
        object.__setattr__(self, "indices", tuple(f.name for f in init if f.type != "BitVecExpr"))


OPERATORS = {
    cls: Operator(cls, *texts)
    for cls, texts in {
        # class: (JSON name, pretty, SMT-LIB and Python templates)
        Var: ("var", "%s:%s"),
        Const: ("const",),
        Hole: ("hole", "?%s:%s"),
        Not: ("not", "~(%s)", "(bvnot %s)", "%(a)s ^ %(mask)s"),
        Neg: ("neg", "-(%s)", "(bvneg %s)", "-%(a)s & %(mask)s"),
        ReduceAnd: ("redand", "&(%s)", "(bvand %s %s)"),
        ReduceOr: ("redor", "|(%s)", "(bvor %s %s)", "1 if %(a)s else 0"),
        ReduceXor: ("redxor", "^(%s)", "(bvxor %s %s)", "(%(a)s).bit_count() & 1"),
        And: ("and", "(%s & %s)", "(bvand %s %s)", "%(a)s & %(b)s"),
        Or: ("or", "(%s | %s)", "(bvor %s %s)", "%(a)s | %(b)s"),
        Xor: ("xor", "(%s ^ %s)", "(bvxor %s %s)", "%(a)s ^ %(b)s"),
        Add: ("add", "(%s + %s)", "(bvadd %s %s)", "(%(a)s + %(b)s) & %(mask)s"),
        Sub: ("sub", "(%s - %s)", "(bvsub %s %s)", "(%(a)s - %(b)s) & %(mask)s"),
        Mul: ("mul", "(%s * %s)", "(bvmul %s %s)", "%(a)s * %(b)s & %(mask)s"),
        Shl: ("shl", "(%s << %s)", "(bvshl %s %s)", "%(a)s << %(b)s & %(mask)s if %(b)s < %(width)s else 0"),
        # In Python the operands are in range, so big shifts give 0.
        LShr: ("lshr", "(%s >> %s)", "(bvlshr %s %s)", "%(a)s >> %(b)s"),
        Eq: ("eq", "(%s == %s)", "(ite (= %s %s) #b1 #b0)", "1 if %(a)s == %(b)s else 0"),
        Ult: ("ult", "(%s < %s)", "(ite (bvult %s %s) #b1 #b0)", "1 if %(a)s < %(b)s else 0"),
        Mux: ("mux", "(%s ? %s : %s)", "(ite (= %s #b1) %s %s)", "%(a)s if %(cond)s else %(b)s"),
        Extract: ("extract", "%s[%s:%s]"),
        Concat: ("concat", "{%s, %s}", "(concat %s %s)"),
        ZeroExt: ("zext", "zext(%s, %s)"),
        SignExt: ("sext", "sext(%s, %s)"),
    }.items()
}

# Node type -> its operands, in field order. Every DAG walk asks this once
# per node, so it is a table lookup and a generated attribute read each.
_OPERANDS = {
    cls: eval(f"lambda e: ({''.join(f'e.{name}, ' for name in row.operands)})")
    for cls, row in OPERATORS.items()
}


def _children(expr):
    try:
        return _OPERANDS[type(expr)](expr)
    except KeyError:
        raise TypeError(f"not a BitVecExpr: {expr!r}") from None


def postorder(exprs):
    """The distinct nodes under `exprs`, each after its operands.

    This is the one DAG walk: nodes are told apart by identity, so a node
    reached through several paths is listed once, and no recursion limit
    applies however deep the expression is.
    """
    order = []
    seen = set()
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            for kid in reversed(_children(node)):
                if id(kid) not in seen:
                    stack.append((kid, False))
    return order


def validate(expr, env, allow_holes=False):
    """Check `expr` against a name->width environment; return its width.

    Every Var must resolve in `env` with the annotated width, every Hole
    must be permitted by `allow_holes`, and repeated symbols must agree on
    width. A name may not be used both as a Var and as a Hole.
    """
    vars_seen = {}
    holes_seen = {}
    for node in postorder((expr,)):
        if isinstance(node, Var):
            if node.name not in env:
                raise UnknownVar(node.name)
            if env[node.name] != node.width:
                raise WidthMismatch(f"Var '{node.name}'", env[node.name], node.width)
            vars_seen[node.name] = node.width
        elif isinstance(node, Hole):
            if not allow_holes:
                raise HoleNotAllowed(node.name)
            prior = holes_seen.get(node.name)
            if prior is not None and prior != node.width:
                raise WidthMismatch(f"Hole '{node.name}'", prior, node.width)
            holes_seen[node.name] = node.width
    clash = vars_seen.keys() & holes_seen.keys()
    if clash:
        raise ValidationError(f"names used both as Var and Hole: {sorted(clash)}")
    return expr.width


def free_symbols(expr):
    """Return ({var name: width}, {hole name: width}) for every symbol in expr."""
    nodes = postorder((expr,))
    return (
        {n.name: n.width for n in nodes if isinstance(n, Var)},
        {n.name: n.width for n in nodes if isinstance(n, Hole)},
    )


def substitute(expr, bindings):
    """Replace Vars by expressions: `bindings` maps a Var name to its replacement.

    Only Vars are replaced; Holes, and Vars absent from `bindings`, stay in
    place. DAG sharing is preserved: a node reached through several paths is
    rewritten once, and a node is rebuilt only when one of its operands
    changed.
    """
    for name, replacement in bindings.items():
        if not isinstance(replacement, BitVecExpr):
            raise TypeError(f"binding for '{name}' is not a BitVecExpr")
    memo = {}  # id(node) -> its rewrite
    for node in postorder((expr,)):
        if isinstance(node, Var) and node.name in bindings:
            new = bindings[node.name]
            if new.width != node.width:
                raise WidthMismatch(f"binding for '{node.name}'", node.width, new.width)
        else:
            kids = _children(node)
            new_kids = [memo[id(k)] for k in kids]
            new = node
            if any(map(is_not, kids, new_kids)):
                new = replace(node, **dict(zip(OPERATORS[type(node)].operands, new_kids)))
        memo[id(node)] = new
    return memo[id(expr)]


def concat(parts):
    """Concatenate MSB-first `parts` into one left-nested Concat tree.

    concat([a, b, c]) is Concat(Concat(a, b), c). The shape is fixed because
    the SMT-LIB text of an expression, and so the solver's answers, follow it.
    """
    return functools.reduce(Concat, parts)


@dataclass(frozen=True)
class Design:
    """A hardware module: named input ports, parameters, and output
    expressions over both.

    A design to map has no parameters. A library primitive keeps its
    parameters as Vars that its outputs read, each with a default that is
    a plain unsigned integer; `bind` configures it into a module without
    parameters.
    """

    name: str
    inputs: tuple  # of (name, width)
    outputs: tuple  # of (name, BitVecExpr)
    params: tuple = ()  # of (name, width, default)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple((str(n), int(w)) for n, w in self.inputs))
        object.__setattr__(self, "outputs", tuple((str(n), e) for n, e in self.outputs))
        object.__setattr__(
            self, "params", tuple((str(n), int(w), int(d)) for n, w, d in self.params)
        )
        _require(self.name != "", "Design name must be nonempty")
        names = [n for n, _ in self.inputs] + [n for n, _, _ in self.params]
        names += [n for n, _ in self.outputs]
        _require(len(set(names)) == len(names), f"duplicate name in design '{self.name}'")
        env = {n: w for n, w in self.inputs}
        for n, w in self.inputs:
            _check_width(w, f"input {n}")
        for n, w, default in self.params:
            _check_width(w, f"parameter {n}")
            if not 0 <= default < (1 << w):
                value = decimal_text(default)
                raise ValidationError(f"default {value} for parameter {n} exceeds width {w}")
            env[n] = w
        for n, e in self.outputs:
            validate(e, env, allow_holes=False)

    def bind(self, values):
        """This module without parameters: each parameter reads as a Const of
        its value in `values`, else of its default. A name that is not a
        parameter raises UnknownVar, and a value too wide ValidationError."""
        consts = {}
        for n, w, default in self.params:
            value = values.get(n, default)
            if not 0 <= value < (1 << w):
                raise ValidationError(f"parameter {n}={decimal_text(value)} does not fit width {w}")
            consts[n] = Const(w, value)
        unknown = sorted(values.keys() - consts.keys())
        if unknown:
            raise UnknownVar(unknown[0])
        if not consts:
            return self
        return Design(self.name, self.inputs, [(n, substitute(e, consts)) for n, e in self.outputs])

    @property
    def input_widths(self):
        return dict(self.inputs)

    @property
    def output_widths(self):
        return {n: e.width for n, e in self.outputs}


_JSON_CLASSES = {row.json: cls for cls, row in OPERATORS.items()}


def expr_to_dict(expr):
    obj = {}  # id(node) -> its JSON object
    for node in postorder((expr,)):
        row = OPERATORS[type(node)]
        out = {"op": row.json}
        if row.operands:
            out["args"] = [obj[id(k)] for k in _children(node)]
        for name in row.indices:  # a Const's value is a decimal string, for any JSON reader
            out[name] = decimal_text(node.value) if name == "value" else getattr(node, name)
        obj[id(node)] = out
    return obj[id(expr)]


def expr_from_dict(obj, where="$"):
    """Inverse of expr_to_dict. Malformed input raises a ParseError, and a
    node that breaks a width rule a ValidationError, located by its JSON path."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    op = obj.get("op")
    if not isinstance(op, str) or op not in _JSON_CLASSES:
        raise ParseError(f"unknown op {op!r}", where)
    cls = _JSON_CLASSES[op]
    row = OPERATORS[cls]
    values = {}
    if row.operands:
        args = [expr_from_dict(a, path) for a, path in _entries(obj, "args", where)]
        if len(args) != len(row.operands):
            raise ParseError(f"op {op!r} expects {len(row.operands)} args, got {len(args)}", where)
        values.update(zip(row.operands, args))
    for name in row.indices:  # a symbol's name is a str, a Const's value a decimal string
        typ = str if name == "name" else int
        values[name] = _decimal(obj, name, where) if name == "value" else _field(obj, name, typ, where)
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _field(obj, key, typ, where):
    val = obj.get(key)
    if typ is int and isinstance(val, bool):
        raise ParseError(f"field '{key}' must be {typ.__name__}", where)
    if not isinstance(val, typ):
        raise ParseError(f"missing or malformed field '{key}'", where)
    return val


def _decimal(obj, key, where):
    """The integer that the decimal string obj[key] holds."""
    raw = _field(obj, key, str, where)
    try:
        return decimal(raw)
    except ValueError:
        raise ParseError(f"{key} {raw!r} is not a decimal string", where) from None


def design_to_dict(design):
    return {
        "name": design.name,
        "inputs": [{"name": n, "width": w} for n, w in design.inputs],
        "params": [{"name": n, "width": w, "default": decimal_text(d)} for n, w, d in design.params],
        "outputs": [{"name": n, "expr": expr_to_dict(e)} for n, e in design.outputs],
    }


def design_from_dict(obj, where="$"):
    """Inverse of design_to_dict. A missing "params" array reads as no
    parameters; malformed input raises a ParseError, and a design that breaks
    a rule of `Design` a ValidationError, located by its JSON path."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    inputs = tuple(
        (_field(i, "name", str, w), _field(i, "width", int, w))
        for i, w in _entries(obj, "inputs", where)
    )
    params = tuple(
        (_field(p, "name", str, w), _field(p, "width", int, w), _decimal(p, "default", w))
        for p, w in _entries(obj, "params", where, [])
    )
    outputs = tuple(
        (_field(o, "name", str, w), expr_from_dict(o.get("expr"), f"{w}.expr"))
        for o, w in _entries(obj, "outputs", where)
    )
    name = _field(obj, "name", str, where)
    try:
        return Design(name, inputs, outputs, params)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _entries(obj, key, where, missing=None):
    """(object, JSON path) for each item of the array obj[key], which is
    `missing` when absent."""
    items = obj.get(key, missing)
    if not isinstance(items, list):
        raise ParseError(f"missing or non-array field '{key}'", where)
    for i, item in enumerate(items):
        path = f"{where}.{key}[{i}]"
        if not isinstance(item, dict):
            raise ParseError("expected an object", path)
        yield item, path


def to_json(obj):
    """Serialize an expression or a Design to canonical JSON text."""
    if isinstance(obj, Design):
        payload = design_to_dict(obj)
    elif isinstance(obj, BitVecExpr):
        payload = expr_to_dict(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(payload, indent=2) + "\n"


def from_json(text):
    """Parse JSON text into an expression (object with 'op') or a Design."""
    return read_json(text, "$", _expr_or_design)


def _expr_or_design(obj):
    if isinstance(obj, dict) and "op" in obj:
        return expr_from_dict(obj)
    return design_from_dict(obj)


def read_json(text, where, decode=lambda obj: obj):
    """`decode` of the value of JSON `text`.

    Malformed text, a number too long for Python's int conversion, and
    nesting too deep to read or to decode raise a ParseError at `where`.
    """
    try:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, f"{where}:{exc.lineno}:{exc.colno}") from None
        except ValueError:  # json reads an integer with int(), which caps its digits
            raise ParseError("number has too many digits", where) from None
        return decode(obj)
    except RecursionError:
        raise ParseError("nested too deeply", where) from None

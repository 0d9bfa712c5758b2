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

Width rules:
  Var/Const/Hole      carry their width (>= 1)
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
from dataclasses import dataclass, field
from operator import is_not

from .errors import (
    HoleNotAllowed,
    ParseError,
    UnknownVar,
    ValidationError,
    WidthMismatch,
)


class BitVecExpr:
    """Base class for all expression nodes."""

    __slots__ = ()

    width: int

    def __str__(self):
        return _pretty(self)


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


@dataclass(frozen=True, slots=True)
class Var(BitVecExpr):
    name: str
    width: int

    def __post_init__(self):
        _require(self.name != "", "Var name must be nonempty")
        _require(self.width >= 1, f"Var '{self.name}' width must be >= 1")


@dataclass(frozen=True, slots=True)
class Const(BitVecExpr):
    width: int
    value: int

    def __post_init__(self):
        _require(self.width >= 1, "Const width must be >= 1")
        if not 0 <= self.value < (1 << self.width):
            raise ValidationError(f"Const value {self.value} out of range for width {self.width}")


@dataclass(frozen=True, slots=True)
class Hole(BitVecExpr):
    """A synthesis unknown. Only legal inside sketches."""

    name: str
    width: int

    def __post_init__(self):
        _require(self.name != "", "Hole name must be nonempty")
        _require(self.width >= 1, f"Hole '{self.name}' width must be >= 1")


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


@dataclass(frozen=True, slots=True)
class _Reduce(BitVecExpr):
    a: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

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
    """Binary op whose operands must share a width (which the result keeps)."""

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


@dataclass(frozen=True, slots=True)
class _Shift(BitVecExpr):
    a: BitVecExpr
    b: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "width", self.a.width)


class Shl(_Shift):
    pass


class LShr(_Shift):
    pass


@dataclass(frozen=True, slots=True)
class _Compare(BitVecExpr):
    a: BitVecExpr
    b: BitVecExpr
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.a.width != self.b.width:
            raise WidthMismatch(type(self).__name__, self.a.width, self.b.width)
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


@dataclass(frozen=True, slots=True)
class ZeroExt(BitVecExpr):
    a: BitVecExpr
    width: int

    def __post_init__(self):
        if self.width < self.a.width:
            raise WidthMismatch("ZeroExt", f">= {self.a.width}", self.width)


@dataclass(frozen=True, slots=True)
class SignExt(BitVecExpr):
    a: BitVecExpr
    width: int

    def __post_init__(self):
        if self.width < self.a.width:
            raise WidthMismatch("SignExt", f">= {self.a.width}", self.width)


# Node type -> its operands, in field order. Every DAG walk asks this once
# per node, so it is a table lookup rather than a chain of isinstance tests.
_OPERANDS = {
    Mux: lambda e: (e.cond, e.a, e.b),
    Concat: lambda e: (e.hi, e.lo),
}
for _cls in (Var, Const, Hole):
    _OPERANDS[_cls] = lambda e: ()
for _cls in (Not, Neg, ReduceAnd, ReduceOr, ReduceXor, Extract, ZeroExt, SignExt):
    _OPERANDS[_cls] = lambda e: (e.a,)
for _cls in (And, Or, Xor, Add, Sub, Mul, Shl, LShr, Eq, Ult):
    _OPERANDS[_cls] = lambda e: (e.a, e.b)


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
        elif isinstance(node, (Var, Const, Hole)):
            new = node
        else:
            kids = _children(node)
            new_kids = [memo[id(k)] for k in kids]
            new = _rebuild(node, new_kids) if any(map(is_not, kids, new_kids)) else node
        memo[id(node)] = new
    return memo[id(expr)]


def _rebuild(node, kids):
    if isinstance(node, Extract):
        return Extract(node.hi, node.lo, kids[0])
    if isinstance(node, (ZeroExt, SignExt)):
        return type(node)(kids[0], node.width)
    return type(node)(*kids)


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
    a plain unsigned integer.
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
        for _, w in self.inputs:
            _require(w >= 1, "input width must be >= 1")
        for n, w, default in self.params:
            _require(w >= 1, f"parameter {n} width must be >= 1")
            if not 0 <= default < (1 << w):
                raise ValidationError(f"default {default} for parameter {n} exceeds width {w}")
            env[n] = w
        for n, e in self.outputs:
            validate(e, env, allow_holes=False)

    @property
    def input_widths(self):
        return dict(self.inputs)

    @property
    def output_widths(self):
        return {n: e.width for n, e in self.outputs}


_OP_NAMES = {
    Var: "var",
    Const: "const",
    Not: "not",
    Neg: "neg",
    ReduceAnd: "redand",
    ReduceOr: "redor",
    ReduceXor: "redxor",
    And: "and",
    Or: "or",
    Xor: "xor",
    Add: "add",
    Sub: "sub",
    Mul: "mul",
    Shl: "shl",
    LShr: "lshr",
    Eq: "eq",
    Ult: "ult",
    Mux: "mux",
    Extract: "extract",
    Concat: "concat",
    ZeroExt: "zext",
    SignExt: "sext",
    Hole: "hole",
}
_OP_TYPES = {v: k for k, v in _OP_NAMES.items()}


def expr_to_dict(expr):
    op = _OP_NAMES[type(expr)]
    if isinstance(expr, Var) or isinstance(expr, Hole):
        return {"op": op, "name": expr.name, "width": expr.width}
    if isinstance(expr, Const):
        # Decimal strings sidestep integer-size limits of JSON consumers.
        return {"op": op, "width": expr.width, "value": str(expr.value)}
    out = {"op": op, "args": [expr_to_dict(c) for c in _children(expr)]}
    if isinstance(expr, Extract):
        out["hi"] = expr.hi
        out["lo"] = expr.lo
    elif isinstance(expr, (ZeroExt, SignExt)):
        out["width"] = expr.width
    return out


def expr_from_dict(obj, where="$"):
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    op = obj.get("op")
    if not isinstance(op, str) or op not in _OP_TYPES:
        raise ParseError(f"unknown op {op!r}", where)
    cls = _OP_TYPES[op]
    if cls in (Var, Hole):
        return cls(_field(obj, "name", str, where), _field(obj, "width", int, where))
    if cls is Const:
        return Const(_field(obj, "width", int, where), _decimal(obj, "value", where))
    args = [expr_from_dict(a, path) for a, path in _entries(obj, "args", where)]
    arity = {Extract: 1, ZeroExt: 1, SignExt: 1, Mux: 3, Concat: 2}.get(
        cls, 2 if issubclass(cls, (_Binary, _Shift, _Compare)) else 1
    )
    if len(args) != arity:
        raise ParseError(f"op {op!r} expects {arity} args, got {len(args)}", where)
    if cls is Extract:
        return Extract(_field(obj, "hi", int, where), _field(obj, "lo", int, where), args[0])
    if cls in (ZeroExt, SignExt):
        return cls(args[0], _field(obj, "width", int, where))
    return cls(*args)


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
        return int(raw, 10)
    except ValueError:
        raise ParseError(f"{key} {raw!r} is not a decimal string", where) from None


def design_to_dict(design):
    return {
        "name": design.name,
        "inputs": [{"name": n, "width": w} for n, w in design.inputs],
        "params": [{"name": n, "width": w, "default": str(d)} for n, w, d in design.params],
        "outputs": [{"name": n, "expr": expr_to_dict(e)} for n, e in design.outputs],
    }


def design_from_dict(obj, where="$"):
    """Inverse of design_to_dict. A missing "params" array reads as no
    parameters; malformed input raises a ParseError located by its JSON path."""
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
    return Design(_field(obj, "name", str, where), inputs, outputs, params)


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
    try:
        obj = json.loads(text)
        if isinstance(obj, dict) and "op" in obj:
            return expr_from_dict(obj)
        return design_from_dict(obj)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} col {exc.colno}")
    except RecursionError:
        raise ParseError("expression nested too deeply", "$") from None


_PRETTY_OPS = {
    Not: "~", Neg: "-", ReduceAnd: "&", ReduceOr: "|", ReduceXor: "^",
    And: "&", Or: "|", Xor: "^", Add: "+", Sub: "-", Mul: "*",
    Shl: "<<", LShr: ">>", Eq: "==", Ult: "<",
}


def _pretty(expr):
    text = {}  # id(node) -> its text
    for node in postorder((expr,)):
        t = type(node)
        kids = [text[id(k)] for k in _children(node)]
        if t is Var or t is Hole:
            out = f"{'?' if t is Hole else ''}{node.name}:{node.width}"
        elif t is Const:
            out = f"{node.value}'{node.width}"
        elif issubclass(t, (_Unary, _Reduce)):
            out = f"{_PRETTY_OPS[t]}({kids[0]})"
        elif issubclass(t, (_Binary, _Shift, _Compare)):
            out = f"({kids[0]} {_PRETTY_OPS[t]} {kids[1]})"
        elif t is Mux:
            out = f"({kids[0]} ? {kids[1]} : {kids[2]})"
        elif t is Extract:
            out = f"{kids[0]}[{node.hi}:{node.lo}]"
        elif t is Concat:
            out = f"{{{kids[0]}, {kids[1]}}}"
        else:
            out = f"{'zext' if t is ZeroExt else 'sext'}({kids[0]}, {node.width})"
        text[id(node)] = out
    return text[id(expr)]

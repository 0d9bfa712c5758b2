"""Combinational Verilog subset: parser and elaborator.

Reads primitive models (and small designs) written with `assign` only and
extracts their bitvector semantics. Parameters stay symbolic so a model
elaborates once into PrimitiveSemantics usable for every configuration;
binding parameters instead yields a plain Design.

Accepted constructs: module/endmodule, ANSI or non-ANSI port lists,
input/output/wire with [msb:0] ranges, `parameter NAME = sized_literal`,
continuous assigns, operators ~ & | ^ + - * << >> == != < ?: (plus unary
reductions & | ^), concatenation {a,b}, replication {n{x}}, bit/part
selects, sized literals w'b/w'h/w'd, unsized decimals, // and /* */
comments. Anything else raises UnsupportedConstruct.

Expression sizing and values are deliberately simpler than Verilog-2005.
The divergences:
  - Values are 2-state and unsigned: there is no x or z and no signed
    arithmetic.
  - Operands of binary operators are zero-extended to the assignment's LHS
    width. An operand wider than its context is an error, not truncated.
  - An unsized literal has the width of its value, not 32 bits. A literal
    is an error only when its value does not fit its context.
  - A dynamic bit select past the top bit reads 0, not x.
As in Verilog, comparison operands extend to their mutual maximum, and
reduction, shift-amount and index operands keep their self-determined
width.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import ir
from .errors import (
    CombinationalCycle,
    ParseError,
    UndeclaredIdentifier,
    UnsupportedConstruct,
    ValidationError,
    VerilogSyntaxError,
    WidthMismatch,
)


@dataclass(frozen=True)
class PrimitiveSemantics:
    """One primitive's interface and per-output bitvector semantics.

    Output expressions range over input Vars and parameter Vars; parameter
    defaults are plain unsigned integers.
    """

    name: str
    inputs: tuple  # of (name, width)
    params: tuple  # of (name, width, default)
    outputs: tuple  # of (name, BitVecExpr)

    def __post_init__(self):
        env = {n: w for n, w in self.inputs}
        for n, w, default in self.params:
            env[n] = w
            if not 0 <= default < (1 << w):
                raise ValidationError(f"default {default} for parameter {n} exceeds width {w}")
        for _, e in self.outputs:
            ir.validate(e, env, allow_holes=False)

    @property
    def input_widths(self):
        return dict(self.inputs)

    @property
    def output_widths(self):
        return {n: e.width for n, e in self.outputs}

    @property
    def param_widths(self):
        return {n: w for n, w, _ in self.params}


# ---------------------------------------------------------------------------
# Lexer

_KEYWORDS = {"module", "endmodule", "input", "output", "wire", "parameter", "assign"}

# Recognized so we can name them in diagnostics rather than claim a syntax error.
_UNSUPPORTED_KEYWORDS = {
    "always", "always_comb", "always_ff", "always_latch", "initial", "reg", "logic",
    "function", "endfunction", "task", "endtask", "generate", "endgenerate", "genvar",
    "for", "if", "else", "case", "casex", "casez", "endcase", "begin", "end",
    "posedge", "negedge", "signed", "integer", "real", "time", "inout", "tri",
    "supply0", "supply1", "specify", "endspecify", "primitive", "endprimitive",
    "localparam", "defparam", "event", "forever", "while", "repeat", "wait",
}

_UNSUPPORTED_OPS = {
    "<=", ">=", ">", "&&", "||", "===", "!==", "**", "/", "%", "<<<", ">>>", "~^", "^~", "!",
}

_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")  # the `id` token below
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<lcomment>//[^\n]*)
  | (?P<bcomment>/\*.*?\*/)
  | (?P<based>(?:\d+)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+)
  | (?P<num>\d[\d_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<str>"[^"\n]*")
  | (?P<op><<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~\^|\^~|\*\*|[~&|^+\-*/%<>?:{}()\[\],;=.#@!])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'kw', 'id', 'num', 'based', 'op', 'eof'
    text: str
    line: int
    col: int


def _lex(source, filename):
    tokens = []
    pos = 0
    line = 1
    col = 1
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise VerilogSyntaxError(
                f"unexpected character {source[pos]!r}", _where(filename, line, col)
            )
        text = m.group(0)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws",):
            col += len(text)
        elif kind in ("lcomment",):
            col += len(text)
        elif kind == "bcomment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
            else:
                col += len(text)
        else:
            if kind == "str":
                raise UnsupportedConstruct("string literal", _where(filename, line, col))
            if kind == "id":
                if text in _KEYWORDS:
                    kind = "kw"
                elif text in _UNSUPPORTED_KEYWORDS:
                    raise UnsupportedConstruct(text, _where(filename, line, col))
            if kind == "op" and text in _UNSUPPORTED_OPS:
                raise UnsupportedConstruct(f"operator {text}", _where(filename, line, col))
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _where(filename, line, col):
    return f"{filename or '<input>'}:{line}:{col}"


def _parse_based_literal(text, where):
    m = re.fullmatch(r"(\d+)?'([sS]?)([bodhBODH])([0-9a-fA-FxXzZ_?]+)", text)
    if m is None:
        raise VerilogSyntaxError(f"malformed literal {text!r}", where)
    width_s, signed, base_c, digits = m.groups()
    if signed:
        raise UnsupportedConstruct("signed literal", where)
    if re.search(r"[xXzZ?]", digits):
        raise UnsupportedConstruct("x/z literal", where)
    if width_s is None:
        raise UnsupportedConstruct("unsized based literal", where)
    width = int(width_s)
    if width < 1:
        raise VerilogSyntaxError(f"literal width must be >= 1 in {text!r}", where)
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_c.lower()]
    try:
        value = int(digits.replace("_", ""), base)
    except ValueError:
        raise VerilogSyntaxError(f"bad digits for base {base} in {text!r}", where)
    if value >= 1 << width:
        raise ValidationError(f"literal {text} value does not fit its width")
    return width, value


# ---------------------------------------------------------------------------
# Expression AST

@dataclass(frozen=True)
class VNum:
    width: object  # int or None for unsized decimals
    value: int
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VId:
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VUnary:
    op: str
    a: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VBinary:
    op: str
    a: object
    b: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VTernary:
    cond: object
    a: object
    b: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VConcat:
    parts: tuple
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VRepl:
    count: int
    part: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VSelect:
    """Bit select base[index] (hi is None) or part select base[hi:lo]."""

    base: str
    index: object  # expression for bit select; int for part select lo
    hi: object  # None for bit select; int msb for part select
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class PortDecl:
    name: str
    direction: str  # 'input' | 'output'
    width: int


@dataclass(frozen=True)
class ParamDecl:
    name: str
    width: int
    default: int


@dataclass(frozen=True)
class WireDecl:
    name: str
    width: int


@dataclass(frozen=True)
class AssignStmt:
    target: str
    hi: object  # None when the whole signal is assigned
    lo: object
    rhs: object
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class InstanceStmt:
    primitive: str
    name: str
    params: tuple  # of (param name, width, value)
    conns: tuple  # of (port name, expr)
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class VerilogModuleAst:
    name: str
    ports: tuple
    params: tuple
    wires: tuple
    assigns: tuple
    instances: tuple = ()
    filename: str = ""

    def declared_widths(self):
        widths = {p.name: p.width for p in self.ports}
        widths.update({p.name: p.width for p in self.params})
        widths.update({w.name: w.width for w in self.wires})
        return widths


# Binary operators by precedence, loosest first.
_BINARY_LEVELS = ({"|"}, {"^"}, {"&"}, {"==", "!="}, {"<"}, {"<<", ">>"}, {"+", "-"}, {"*"})


class _Parser:
    def __init__(self, tokens, filename, allow_instances):
        self.tokens = tokens
        self.i = 0
        self.filename = filename
        self.allow_instances = allow_instances

    # -- token plumbing -----------------------------------------------------
    def peek(self, ahead=0):
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise VerilogSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of input'!r}", self.where(tok)
            )
        return tok

    def at(self, kind, text=None, ahead=0):
        tok = self.peek(ahead)
        return tok.kind == kind and (text is None or tok.text == text)

    def where(self, tok):
        return _where(self.filename, tok.line, tok.col)

    # -- grammar ------------------------------------------------------------
    def parse_module(self):
        self.expect("kw", "module")
        header = self.expect("id")
        name = header.text
        params = []
        if self.at("op", "#"):
            self.next()
            self.expect("op", "(")
            self.expect("kw", "parameter")
            while True:
                params.append(self.parse_param_decl())
                if self.at("op", ","):
                    self.next()
                    if self.at("kw", "parameter"):
                        self.next()
                    continue
                break
            self.expect("op", ")")
        ports, plain = self.parse_port_list()
        if plain and ports:
            raise VerilogSyntaxError("mixed ANSI and non-ANSI port list", self.where(header))
        self.expect("op", ";")
        wires = []
        assigns = []
        instances = []
        body_dirs = {}
        while not self.at("kw", "endmodule"):
            tok = self.peek()
            if tok.kind == "eof":
                raise VerilogSyntaxError("missing 'endmodule'", self.where(tok))
            if self.at("kw", "wire"):
                self.next()
                wires.extend(self.parse_signal_decl(WireDecl))
            elif self.at("kw", "input") or self.at("kw", "output"):
                direction = self.next().text
                for decl in self.parse_signal_decl(WireDecl):
                    body_dirs[decl.name] = PortDecl(decl.name, direction, decl.width)
            elif self.at("kw", "parameter"):
                self.next()
                params.append(self.parse_param_decl())
                self.expect("op", ";")
            elif self.at("kw", "assign"):
                assigns.append(self.parse_assign())
            elif self.at("id") and self.allow_instances:
                instances.append(self.parse_instance())
            else:
                raise VerilogSyntaxError(
                    f"unexpected {tok.text!r} in module body", self.where(tok)
                )
        self.expect("kw", "endmodule")
        if not self.at("eof"):
            raise VerilogSyntaxError(
                "trailing input after endmodule", self.where(self.peek())
            )

        if plain:
            # Non-ANSI header: directions come from the body declarations.
            missing = [tok for tok in plain if tok.text not in body_dirs]
            if missing:
                raise UndeclaredIdentifier(missing[0].text, self.where(missing[0]))
            ports = tuple(body_dirs[tok.text] for tok in plain)
        elif body_dirs:
            raise VerilogSyntaxError(
                "port direction declared both in header and body", self.where(header)
            )

        ast = VerilogModuleAst(
            name,
            tuple(ports),
            tuple(params),
            tuple(wires),
            tuple(assigns),
            tuple(instances),
            self.filename or "",
        )
        self.check_declarations(ast)
        return ast

    def parse_port_list(self):
        """Returns (ANSI port decls, plain name tokens for non-ANSI headers)."""
        self.expect("op", "(")
        ports = []
        plain = []
        if self.at("op", ")"):
            self.next()
            return ports, plain
        direction = None
        width = 1
        while True:
            if self.at("kw", "input") or self.at("kw", "output"):
                direction = self.next().text
                width = self.parse_opt_range()
                name = self.expect("id").text
                ports.append(PortDecl(name, direction, width))
            elif self.at("id"):
                tok = self.next()
                if direction is None:
                    plain.append(tok)
                else:
                    ports.append(PortDecl(tok.text, direction, width))
            else:
                tok = self.peek()
                raise VerilogSyntaxError(f"bad port declaration at {tok.text!r}", self.where(tok))
            if self.at("op", ","):
                self.next()
                continue
            self.expect("op", ")")
            break
        return ports, plain

    def parse_opt_range(self):
        if not self.at("op", "["):
            return 1
        tok = self.next()
        msb = self.parse_int_token()
        self.expect("op", ":")
        lsb = self.parse_int_token()
        self.expect("op", "]")
        if lsb != 0 or msb < 0:
            raise UnsupportedConstruct(f"vector range [{msb}:{lsb}] (only [msb:0])", self.where(tok))
        return msb + 1

    def parse_int_token(self):
        tok = self.expect("num")
        return int(tok.text.replace("_", ""))

    def parse_signal_decl(self, cls):
        width = self.parse_opt_range()
        decls = [cls(self.expect("id").text, width)]
        while self.at("op", ","):
            self.next()
            decls.append(cls(self.expect("id").text, width))
        self.expect("op", ";")
        return decls

    def parse_param_decl(self):
        name = self.expect("id").text
        self.expect("op", "=")
        tok = self.next()
        if tok.kind != "based":
            raise UnsupportedConstruct(
                "parameter default must be a sized literal", self.where(tok)
            )
        width, value = _parse_based_literal(tok.text, self.where(tok))
        return ParamDecl(name, width, value)

    def parse_assign(self):
        kw = self.expect("kw", "assign")
        target = self.expect("id").text
        hi = lo = None
        if self.at("op", "["):
            self.next()
            first = self.parse_int_token()
            if self.at("op", ":"):
                self.next()
                second = self.parse_int_token()
                hi, lo = first, second
            else:
                hi = lo = first
            self.expect("op", "]")
        self.expect("op", "=")
        rhs = self.parse_expr()
        self.expect("op", ";")
        return AssignStmt(target, hi, lo, rhs, kw.line, kw.col)

    def parse_instance(self):
        head = self.expect("id")
        params = []
        if self.at("op", "#"):
            self.next()
            self.expect("op", "(")
            while True:
                self.expect("op", ".")
                pname = self.expect("id").text
                self.expect("op", "(")
                tok = self.next()
                if tok.kind != "based":
                    raise UnsupportedConstruct(
                        "instance parameter must be a sized literal", self.where(tok)
                    )
                width, value = _parse_based_literal(tok.text, self.where(tok))
                self.expect("op", ")")
                params.append((pname, width, value))
                if self.at("op", ","):
                    self.next()
                    continue
                break
            self.expect("op", ")")
        inst_name = self.expect("id").text
        self.expect("op", "(")
        conns = []
        if not self.at("op", ")"):
            while True:
                self.expect("op", ".")
                port = self.expect("id").text
                self.expect("op", "(")
                conns.append((port, self.parse_expr()))
                self.expect("op", ")")
                if self.at("op", ","):
                    self.next()
                    continue
                break
        self.expect("op", ")")
        self.expect("op", ";")
        return InstanceStmt(head.text, inst_name, tuple(params), tuple(conns), head.line, head.col)

    # -- expressions, loosest binding first ---------------------------------
    def parse_expr(self):
        return self.parse_ternary()

    def parse_ternary(self):
        cond = self.parse_binary()
        if self.at("op", "?"):
            tok = self.next()
            a = self.parse_ternary()
            self.expect("op", ":")
            b = self.parse_ternary()
            return VTernary(cond, a, b, tok.line, tok.col)
        return cond

    def parse_binary(self, level=0):
        """Left-associative binary operators of `_BINARY_LEVELS[level]` and tighter."""
        if level == len(_BINARY_LEVELS):
            return self.parse_unary()
        node = self.parse_binary(level + 1)
        while self.peek().kind == "op" and self.peek().text in _BINARY_LEVELS[level]:
            tok = self.next()
            rhs = self.parse_binary(level + 1)
            node = VBinary(tok.text, node, rhs, tok.line, tok.col)
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("~", "-", "&", "|", "^"):
            self.next()
            return VUnary(tok.text, self.parse_unary(), tok.line, tok.col)
        if tok.kind == "op" and tok.text == "+":
            raise UnsupportedConstruct("unary +", self.where(tok))
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "based":
            self.next()
            width, value = _parse_based_literal(tok.text, self.where(tok))
            return VNum(width, value, tok.line, tok.col)
        if tok.kind == "num":
            self.next()
            return VNum(None, int(tok.text.replace("_", "")), tok.line, tok.col)
        if tok.kind == "id":
            self.next()
            if self.at("op", "["):
                self.next()
                if self.at("num") and self.at("op", ":", ahead=1):
                    hi = self.parse_int_token()
                    self.expect("op", ":")
                    lo = self.parse_int_token()
                    self.expect("op", "]")
                    if hi < lo:
                        raise VerilogSyntaxError(
                            f"part select [{hi}:{lo}] must be descending", self.where(tok)
                        )
                    return VSelect(tok.text, lo, hi, tok.line, tok.col)
                index = self.parse_expr()
                self.expect("op", "]")
                return VSelect(tok.text, index, None, tok.line, tok.col)
            return VId(tok.text, tok.line, tok.col)
        if tok.kind == "op" and tok.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect("op", ")")
            return e
        if tok.kind == "op" and tok.text == "{":
            self.next()
            # Replication {n{expr}} is distinguished by a second opening brace.
            if self.at("num") and self.at("op", "{", ahead=1):
                count = self.parse_int_token()
                self.expect("op", "{")
                part = self.parse_expr()
                self.expect("op", "}")
                self.expect("op", "}")
                if count < 1:
                    raise VerilogSyntaxError("replication count must be >= 1", self.where(tok))
                return VRepl(count, part, tok.line, tok.col)
            parts = [self.parse_expr()]
            while self.at("op", ","):
                self.next()
                parts.append(self.parse_expr())
            self.expect("op", "}")
            return VConcat(tuple(parts), tok.line, tok.col)
        raise VerilogSyntaxError(f"unexpected {tok.text or 'end of input'!r}", self.where(tok))

    # -- declaration checking ------------------------------------------------
    def check_declarations(self, ast):
        declared = set()
        for group in (ast.ports, ast.params, ast.wires):
            for decl in group:
                if decl.name in declared:
                    raise ValidationError(f"duplicate declaration of '{decl.name}'")
                declared.add(decl.name)
        for stmt in ast.assigns:
            if stmt.target not in declared:
                raise UndeclaredIdentifier(stmt.target, _where(ast.filename, stmt.line, stmt.col))
            for name, line, col in _ast_reads(stmt.rhs):
                if name not in declared:
                    raise UndeclaredIdentifier(name, _where(ast.filename, line, col))
        inst_names = set()
        for inst in ast.instances:
            if inst.name in declared or inst.name in inst_names:
                raise ValidationError(f"duplicate declaration of '{inst.name}'")
            inst_names.add(inst.name)
            for _, conn in inst.conns:
                for name, line, col in _ast_reads(conn):
                    if name not in declared:
                        raise UndeclaredIdentifier(name, _where(ast.filename, line, col))


def _ast_reads(node):
    """Yield (identifier, line, col) for every name an expression reads, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, VId):
            yield node.name, node.line, node.col
        elif isinstance(node, VSelect):
            yield node.base, node.line, node.col
            if node.hi is None:
                stack.append(node.index)
        elif isinstance(node, VUnary):
            stack.append(node.a)
        elif isinstance(node, VBinary):
            stack += (node.b, node.a)
        elif isinstance(node, VTernary):
            stack += (node.b, node.a, node.cond)
        elif isinstance(node, VConcat):
            stack.extend(reversed(node.parts))
        elif isinstance(node, VRepl):
            stack.append(node.part)


def parse(source, filename=None, allow_instances=False):
    """Parse a module in the supported subset into a validated AST."""
    parser = _Parser(_lex(source, filename), filename, allow_instances)
    try:
        return parser.parse_module()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.where(parser.peek())) from None


# ---------------------------------------------------------------------------
# Elaboration


def _natural_width(node, widths, where):
    t = type(node)
    if t is VNum:
        return node.width if node.width is not None else max(node.value.bit_length(), 1)
    if t is VId:
        return widths[node.name]
    if t is VUnary:
        return 1 if node.op in ("&", "|", "^") else _natural_width(node.a, widths, where)
    if t is VBinary:
        if node.op in ("==", "!=", "<"):
            return 1
        if node.op in ("<<", ">>"):
            return _natural_width(node.a, widths, where)
        return max(_natural_width(node.a, widths, where), _natural_width(node.b, widths, where))
    if t is VTernary:
        return max(_natural_width(node.a, widths, where), _natural_width(node.b, widths, where))
    if t is VConcat:
        return sum(_natural_width(p, widths, where) for p in node.parts)
    if t is VRepl:
        return node.count * _natural_width(node.part, widths, where)
    if t is VSelect:
        return 1 if node.hi is None else node.hi - node.index + 1
    raise TypeError(f"not a Verilog expression: {node!r}")


def _fit(expr, ctx, desc):
    if expr.width == ctx:
        return expr
    if expr.width < ctx:
        return ir.ZeroExt(expr, ctx)
    raise WidthMismatch(desc, ctx, expr.width)


class _Elaborator:
    """Turns a validated AST into per-output IR by inlining wire definitions."""

    def __init__(self, ast, library=None):
        self.ast = ast
        self.library = library
        self.widths = ast.declared_widths()
        self.filename = ast.filename
        # name -> leaf expr for inputs and params (set by elaborate()).
        self.leaves = {}
        # signal -> list of (hi, lo, build(), reads)
        self.pieces = {}
        self.sigmap = {}

    def run(self, param_values):
        for port in self.ast.ports:
            if port.direction == "input":
                self.leaves[port.name] = ir.Var(port.name, port.width)
        for p in self.ast.params:
            if param_values is None:
                self.leaves[p.name] = ir.Var(p.name, p.width)
            else:
                value = param_values.get(p.name, p.default)
                if not 0 <= value < (1 << p.width):
                    raise ValidationError(
                        f"parameter {p.name}={value} does not fit width {p.width}"
                    )
                self.leaves[p.name] = ir.Const(p.width, value)
        if param_values:
            unknown = set(param_values) - {p.name for p in self.ast.params}
            if unknown:
                raise ValidationError(f"unknown parameter(s): {sorted(unknown)}")

        self._collect_pieces()
        order = self._topo_order()
        for name in order:
            self.sigmap[name] = self._compose(name)
        outputs = []
        for port in self.ast.ports:
            if port.direction != "output":
                continue
            if port.name not in self.pieces:
                raise ValidationError(f"output '{port.name}' is never assigned")
            outputs.append((port.name, self._signal(port.name)))
        return outputs

    # -- definition gathering -------------------------------------------------
    def _collect_pieces(self):
        def add(target, hi, lo, build, reads, where):
            width = self.widths[target]
            if hi is None:
                hi, lo = width - 1, 0
            if not 0 <= lo <= hi < width:
                raise ValidationError(f"{where}: assignment to {target}[{hi}:{lo}] out of range")
            entries = self.pieces.setdefault(target, [])
            for ohi, olo, _, _ in entries:
                if hi >= olo and ohi >= lo:
                    raise ValidationError(f"{where}: multiple drivers for {target}[{hi}:{lo}]")
            entries.append((hi, lo, build, reads))

        for stmt in self.ast.assigns:
            where = _where(self.filename, stmt.line, stmt.col)
            if stmt.target not in self.widths or self._is_source(stmt.target):
                raise ValidationError(f"{where}: cannot assign to '{stmt.target}'")
            ctx = (stmt.hi - stmt.lo + 1) if stmt.hi is not None else self.widths[stmt.target]
            reads = {name for name, _, _ in _ast_reads(stmt.rhs) if self._is_signal(name)}
            add(
                stmt.target, stmt.hi, stmt.lo,
                (lambda rhs=stmt.rhs, c=ctx, w=where: self._lower_statement(rhs, c, w)),
                reads, where,
            )

        for inst in self.ast.instances:
            where = _where(self.filename, inst.line, inst.col)
            prim = self._lookup_primitive(inst.primitive, where)
            params = {n: d for n, _, d in prim.params}
            declared = prim.param_widths
            for pname, pwidth, pvalue in inst.params:
                if pname not in declared:
                    raise ValidationError(f"{where}: {inst.primitive} has no parameter {pname}")
                if pwidth != declared[pname] or pvalue >= 1 << declared[pname]:
                    raise WidthMismatch(f"{where}: parameter {pname}", declared[pname], pwidth)
                params[pname] = pvalue
            in_widths = prim.input_widths
            out_widths = prim.output_widths
            conn_in = {}
            reads = set()
            sinks = []
            seen_ports = set()
            for port, conn in inst.conns:
                if port in seen_ports:
                    raise ValidationError(f"{where}: port {port} connected twice")
                seen_ports.add(port)
                if port in in_widths:
                    conn_in[port] = conn
                    reads |= {n for n, _, _ in _ast_reads(conn) if self._is_signal(n)}
                elif port in out_widths:
                    sinks.append((port, conn))
                else:
                    raise ValidationError(f"{where}: {inst.primitive} has no port {port}")
            missing = set(in_widths) - set(conn_in)
            if missing:
                raise ValidationError(f"{where}: unconnected input pins {sorted(missing)}")

            for port, conn in sinks:
                target, hi, lo = self._as_lvalue(conn, where)
                if target not in self.widths or self._is_source(target):
                    raise ValidationError(f"{where}: cannot drive '{target}'")
                pwidth = out_widths[port]
                twidth = (hi - lo + 1) if hi is not None else self.widths[target]
                if twidth != pwidth:
                    raise WidthMismatch(f"{where}: connection to {port}", pwidth, twidth)

                def build(prim=prim, port=port, conn_in=dict(conn_in), params=dict(params), w=where):
                    binding = {}
                    for pin, pin_w in prim.inputs:
                        binding[pin] = self._lower_statement(conn_in[pin], pin_w, w)
                    for pname, pw, _ in prim.params:
                        binding[pname] = ir.Const(pw, params[pname])
                    out_expr = dict(prim.outputs)[port]
                    return ir.substitute(out_expr, binding)

                add(target, hi, lo, build, set(reads), where)

    def _lookup_primitive(self, name, where):
        if self.library is None or name not in self.library.primitives:
            raise UndeclaredIdentifier(name, where)
        return self.library.primitives[name]

    def _as_lvalue(self, conn, where):
        if isinstance(conn, VId):
            return conn.name, None, None
        if isinstance(conn, VSelect):
            if conn.hi is not None:
                return conn.base, conn.hi, conn.index
            if isinstance(conn.index, VNum):
                return conn.base, conn.index.value, conn.index.value
        raise ValidationError(f"{where}: instance output must connect to a signal or constant select")

    def _is_signal(self, name):
        """True for driven signals (wires/outputs), false for inputs/params."""
        return name in self.widths and not self._is_source(name)

    def _is_source(self, name):
        if any(p.name == name and p.direction == "input" for p in self.ast.ports):
            return True
        return any(p.name == name for p in self.ast.params)

    # -- ordering ---------------------------------------------------------------
    def _topo_order(self):
        deps = {}
        for name, entries in self.pieces.items():
            deps[name] = set()
            for _, _, _, reads in entries:
                deps[name] |= {r for r in reads if r in self.pieces or not self._is_source(r)}
        order = []
        done = set()
        for root in sorted(self.pieces):
            if root in done:
                continue
            path = [root]
            pending = [iter(sorted(deps[root]))]
            while path:
                dep = next((d for d in pending[-1] if d in self.pieces and d not in done), None)
                if dep is None:
                    pending.pop()
                    done.add(path[-1])
                    order.append(path.pop())
                elif dep in path:
                    raise CombinationalCycle(path[path.index(dep):] + [dep])
                else:
                    path.append(dep)
                    pending.append(iter(sorted(deps[dep])))
        return order

    def _signal(self, name):
        if name in self.leaves:
            return self.leaves[name]
        if name in self.sigmap:
            return self.sigmap[name]
        raise ValidationError(f"signal '{name}' read before being driven")

    def _compose(self, name):
        entries = sorted(self.pieces[name], key=lambda e: e[1])
        width = self.widths[name]
        exprs = []
        next_bit = 0
        for hi, lo, build, _ in entries:
            if lo != next_bit:
                raise ValidationError(f"bits [{lo - 1}:{next_bit}] of '{name}' are undriven")
            expr = build()
            if expr.width != hi - lo + 1:
                raise ValidationError(
                    f"bits [{hi}:{lo}] of '{name}' are driven by a {expr.width}-bit value"
                )
            exprs.append(expr)
            next_bit = hi + 1
        if next_bit != width:
            raise ValidationError(f"bits [{width - 1}:{next_bit}] of '{name}' are undriven")
        return ir.concat(reversed(exprs))

    # -- expression lowering ------------------------------------------------
    def _lower_statement(self, node, ctx, where):
        """`_lower` for the whole expression of the statement at `where`."""
        try:
            return self._lower(node, ctx, where)
        except RecursionError:
            raise ParseError("expression nested too deeply", where) from None

    def _lower(self, node, ctx, where):
        t = type(node)
        if t is VNum:
            natural = node.width if node.width is not None else max(node.value.bit_length(), 1)
            if natural > ctx:
                if node.value < (1 << ctx):
                    natural = ctx
                else:
                    raise WidthMismatch(f"{where}: literal {node.value}", ctx, natural)
            return ir.Const(ctx, node.value)
        if t is VId:
            return _fit(self._signal(node.name), ctx, f"{where}: '{node.name}'")
        if t is VUnary:
            if node.op in ("&", "|", "^"):
                operand = self._lower(node.a, _natural_width(node.a, self.widths, where), where)
                cls = {"&": ir.ReduceAnd, "|": ir.ReduceOr, "^": ir.ReduceXor}[node.op]
                return _fit(cls(operand), ctx, f"{where}: reduction")
            operand = self._lower(node.a, ctx, where)
            return ir.Not(operand) if node.op == "~" else ir.Neg(operand)
        if t is VBinary:
            if node.op in ("==", "!=", "<"):
                w = max(
                    _natural_width(node.a, self.widths, where),
                    _natural_width(node.b, self.widths, where),
                )
                a = self._lower(node.a, w, where)
                b = self._lower(node.b, w, where)
                cmp = ir.Ult(a, b) if node.op == "<" else ir.Eq(a, b)
                if node.op == "!=":
                    cmp = ir.Not(cmp)
                return _fit(cmp, ctx, f"{where}: comparison")
            if node.op in ("<<", ">>"):
                a = self._lower(node.a, ctx, where)
                amount = self._lower(node.b, _natural_width(node.b, self.widths, where), where)
                cls = ir.Shl if node.op == "<<" else ir.LShr
                return cls(a, amount)
            a = self._lower(node.a, ctx, where)
            b = self._lower(node.b, ctx, where)
            cls = {"&": ir.And, "|": ir.Or, "^": ir.Xor, "+": ir.Add, "-": ir.Sub, "*": ir.Mul}[node.op]
            return cls(a, b)
        if t is VTernary:
            cond = self._lower(node.cond, _natural_width(node.cond, self.widths, where), where)
            if cond.width != 1:
                cond = ir.ReduceOr(cond)
            return ir.Mux(cond, self._lower(node.a, ctx, where), self._lower(node.b, ctx, where))
        if t is VConcat:
            parts = [
                self._lower(p, _natural_width(p, self.widths, where), where) for p in node.parts
            ]
            return _fit(ir.concat(parts), ctx, f"{where}: concatenation")
        if t is VRepl:
            part = self._lower(node.part, _natural_width(node.part, self.widths, where), where)
            return _fit(ir.concat([part] * node.count), ctx, f"{where}: replication")
        if t is VSelect:
            base = self._signal(node.base)
            if node.hi is not None:
                hi, lo = node.hi, node.index
                if hi >= base.width:
                    raise WidthMismatch(f"{where}: select {node.base}[{hi}:{lo}]", base.width, hi + 1)
                return _fit(ir.Extract(hi, lo, base), ctx, f"{where}: part select")
            if isinstance(node.index, VNum):
                bit = node.index.value
                if bit >= base.width:
                    raise WidthMismatch(f"{where}: select {node.base}[{bit}]", base.width, bit + 1)
                return _fit(ir.Extract(bit, bit, base), ctx, f"{where}: bit select")
            # Dynamic bit select reads bit i by shifting it down to position 0.
            index = self._lower(node.index, _natural_width(node.index, self.widths, where), where)
            return _fit(ir.Extract(0, 0, ir.LShr(base, index)), ctx, f"{where}: bit select")
        raise TypeError(f"not a Verilog expression: {node!r}")


def elaborate(ast, params=None, library=None):
    """Extract semantics from an AST.

    With `params=None` parameters stay symbolic and the result is a
    PrimitiveSemantics; with a (possibly empty) binding they fold to
    constants and the result is a Design. `library` enables the
    instance-aware mode used when re-importing emitted netlists.
    """
    if ast.instances and library is None:
        raise UnsupportedConstruct("module instantiation", _where(ast.filename, 1, 1))
    elab = _Elaborator(ast, library)
    outputs = elab.run(params)
    inputs = tuple((p.name, p.width) for p in ast.ports if p.direction == "input")
    if params is None:
        return PrimitiveSemantics(
            ast.name,
            inputs,
            tuple((p.name, p.width, p.default) for p in ast.params),
            tuple(outputs),
        )
    return ir.Design(ast.name, inputs, tuple(outputs))


# ---------------------------------------------------------------------------
# Persistence


def semantics_to_dict(sem):
    return {
        "name": sem.name,
        "inputs": [{"name": n, "width": w} for n, w in sem.inputs],
        "params": [
            {"name": n, "width": w, "default": str(d)} for n, w, d in sem.params
        ],
        "outputs": [{"name": n, "expr": ir.expr_to_dict(e)} for n, e in sem.outputs],
    }


def semantics_from_dict(obj, where="$"):
    """Inverse of semantics_to_dict. Malformed input raises a located ParseError."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object", where)
    for key in ("name", "inputs", "params", "outputs"):
        if key not in obj:
            raise ParseError(f"missing field '{key}'", where)
    inputs = tuple(
        (ir._field(i, "name", str, w), ir._field(i, "width", int, w))
        for i, w in _entries(obj, "inputs", where)
    )
    params = tuple(
        (ir._field(p, "name", str, w), ir._field(p, "width", int, w), _decimal(p, "default", w))
        for p, w in _entries(obj, "params", where)
    )
    outputs = tuple(
        (ir._field(o, "name", str, w), ir.expr_from_dict(o.get("expr"), f"{w}.expr"))
        for o, w in _entries(obj, "outputs", where)
    )
    return PrimitiveSemantics(ir._field(obj, "name", str, where), inputs, params, outputs)


def _entries(obj, key, where):
    """(object, JSON path) for each item of the array obj[key]."""
    items = obj[key]
    if not isinstance(items, list):
        raise ParseError(f"field '{key}' must be an array", where)
    for i, item in enumerate(items):
        path = f"{where}.{key}[{i}]"
        if not isinstance(item, dict):
            raise ParseError("expected an object", path)
        yield item, path


def _decimal(obj, key, where):
    raw = ir._field(obj, key, str, where)
    try:
        return int(raw, 10)
    except ValueError:
        raise ParseError(f"{key} {raw!r} is not a decimal string", where) from None


def check_identifiers(design, where=None):
    """Raise ParseError at `where` unless the design's module and port
    names are Verilog identifiers, so that a printed netlist re-imports."""
    ports = [name for name, _ in design.inputs] + [name for name, _ in design.outputs]
    for kind, name in [("module", design.name)] + [("port", name) for name in ports]:
        if not _IDENTIFIER_RE.fullmatch(name) or name in _KEYWORDS | _UNSUPPORTED_KEYWORDS:
            raise ParseError(f"{kind} name {name!r} is not a Verilog identifier", where)


def semantics_to_json(sem):
    return json.dumps(semantics_to_dict(sem), indent=2) + "\n"


def import_primitive(source, out_path=None, filename=None):
    """Parse + elaborate a primitive model; optionally write its JSON.

    Output is deterministic: declaration order everywhere, canonical
    formatting, so importing the same file twice is byte-identical.
    """
    ast = parse(source, filename=filename)
    sem = elaborate(ast)
    if out_path is not None:
        text = semantics_to_json(sem)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return sem

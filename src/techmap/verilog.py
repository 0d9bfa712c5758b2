"""Combinational Verilog subset: parser and elaborator.

Reads primitive models (and small designs) written with `assign` only and
extracts their bitvector semantics as an `ir.Design`. Parameters stay
symbolic, so a model elaborates once into a Design with parameters that
serves every configuration; `ir.Design.bind` configures it.

Accepted constructs: module/endmodule, ANSI or non-ANSI port lists,
input/output/wire with [msb:0] ranges, `parameter NAME = sized_literal`,
continuous assigns, operators ~ & | ^ + - * << >> == != < ?: (plus unary
reductions & | ^), concatenation {a,b}, replication {n{x}}, bit/part
selects, sized literals w'b/w'h/w'd, unsized decimals, // and /* */
comments. Anything else raises UnsupportedConstruct, and a vector width,
literal width, replication count or expression width over
`minismt.MAX_WIDTH`, or a decimal number of more than `minismt.MAX_DIGITS`
digits, a ParseError.

Tokens, and the AST nodes that errors point at, keep an offset into the
source text. `_Source.where` renders an offset for a message, as
`file:line:col` (`<input>` with no file name): newlines end lines, and a
column counts characters from 1.

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

import bisect
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
from .minismt import MAX_DIGITS, MAX_WIDTH, decimal, decimal_text


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
    (?P<skip>[ \t\r\n]+|//[^\n]*|/\*.*?\*/)
  | (?P<based>(?:\d+)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+)
  | (?P<num>\d[\d_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<str>"[^"\n]*")
  | (?P<op><<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~\^|\^~|\*\*|[~&|^+\-*/%<>?:{}()\[\],;=.#@!])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'kw', 'id', 'num', 'based', 'op', 'eof'
    text: str
    pos: int  # offset in the source text


class _Source:
    """A file name and where its lines start: renders an offset as file:line:col."""

    def __init__(self, text, filename):
        self.filename = filename or "<input>"
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def where(self, pos):
        line = bisect.bisect_right(self.line_starts, pos)
        return f"{self.filename}:{line}:{pos - self.line_starts[line - 1] + 1}"


def _lex(verilog_text, source):
    tokens = []
    for m in _TOKEN_RE.finditer(verilog_text):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind == "skip":
            continue
        if kind == "bad":
            raise VerilogSyntaxError(f"unexpected character {text!r}", source.where(pos))
        if kind == "str":
            raise UnsupportedConstruct("string literal", source.where(pos))
        if text in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(text, source.where(pos))
        if text in _UNSUPPORTED_OPS:
            raise UnsupportedConstruct(f"operator {text}", source.where(pos))
        tokens.append(Token("kw" if text in _KEYWORDS else kind, text, pos))
    tokens.append(Token("eof", "", len(verilog_text)))
    return tokens


def _parse_based_literal(text, where):
    m = re.fullmatch(r"(\d+)?'([sS]?)([bodhBODH])([0-9a-fA-FxXzZ_?]+)", text)
    if m is None:
        raise VerilogSyntaxError(f"malformed literal {_quoted(text)}", where)
    width_s, signed, base_c, digits = m.groups()
    if signed:
        raise UnsupportedConstruct("signed literal", where)
    if re.search(r"[xXzZ?]", digits):
        raise UnsupportedConstruct("x/z literal", where)
    if width_s is None:
        raise UnsupportedConstruct("unsized based literal", where)
    width = _decimal(width_s, where)
    if width < 1:
        raise VerilogSyntaxError(f"literal width must be >= 1 in {_quoted(text)}", where)
    _check_size(width, "literal width", where)
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_c.lower()]
    digits = digits.replace("_", "")
    try:
        value = _decimal(digits, where) if base == 10 else int(digits, base)
    except ValueError:
        raise VerilogSyntaxError(f"bad digits for base {base} in {_quoted(text)}", where)
    if value >= 1 << width:
        raise ParseError(f"literal {_quoted(text)} value does not fit its width", where)
    return width, value


_QUOTED = 40  # characters of a literal that a message quotes


def _quoted(text):
    """`text` quoted for a message: whole when short, else its start and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _span(hi, lo):
    return f"[{decimal_text(hi)}:{decimal_text(lo)}]"


def _decimal(digits, where):
    """The value of decimal `digits`, refusing first more digits than any
    MAX_WIDTH-bit value has; the message does not quote them."""
    if len(digits) > MAX_DIGITS:
        raise ParseError(
            f"decimal number of {len(digits)} digits is over the limit of {MAX_DIGITS}", where
        )
    return decimal(digits)


def _check_size(size, what, where):
    """Reject a size past MAX_WIDTH, stated by the source or implied by an
    expression, before anything that large is built."""
    if size > MAX_WIDTH:
        digits = decimal_text(size)
        if len(digits) > _QUOTED:
            digits = f"of {len(digits)} digits"
        raise ParseError(f"{what} {digits} is over the limit of {MAX_WIDTH}", where)


# ---------------------------------------------------------------------------
# Expression AST

@dataclass(frozen=True)
class VNum:
    width: object  # int or None for unsized decimals
    value: int


@dataclass(frozen=True)
class VId:
    name: str
    pos: int


@dataclass(frozen=True)
class VUnary:
    op: str
    a: object


@dataclass(frozen=True)
class VBinary:
    op: str
    a: object
    b: object


@dataclass(frozen=True)
class VTernary:
    cond: object
    a: object
    b: object


@dataclass(frozen=True)
class VConcat:
    parts: tuple


@dataclass(frozen=True)
class VRepl:
    count: int
    part: object


@dataclass(frozen=True)
class VSelect:
    """Bit select base[index] (hi is None) or part select base[hi:lo]."""

    base: str
    index: object  # expression for bit select; int for part select lo
    hi: object  # None for bit select; int msb for part select
    pos: int


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
    pos: int


@dataclass(frozen=True)
class InstanceStmt:
    primitive: str
    name: str
    params: tuple  # of (param name, width, value)
    conns: tuple  # of (port name, expr)
    pos: int


@dataclass(frozen=True)
class VerilogModuleAst:
    name: str
    ports: tuple
    params: tuple
    wires: tuple
    assigns: tuple
    instances: tuple
    source: _Source

    def declared_widths(self):
        widths = {p.name: p.width for p in self.ports}
        widths.update({p.name: p.width for p in self.params})
        widths.update({w.name: w.width for w in self.wires})
        return widths


# Binary operators by precedence, loosest first, and each operator's level.
_BINARY_LEVELS = ({"|"}, {"^"}, {"&"}, {"==", "!="}, {"<"}, {"<<", ">>"}, {"+", "-"}, {"*"})
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class _Parser:
    def __init__(self, text, filename, allow_instances):
        self.source = _Source(text, filename)
        self.tokens = _lex(text, self.source)
        self.i = 0
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
        return self.source.where(tok.pos)

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
                wires.extend(self.parse_signal_decl())
            elif self.at("kw", "input") or self.at("kw", "output"):
                direction = self.next().text
                for decl in self.parse_signal_decl():
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
            self.source,
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
        if lsb != 0:
            raise UnsupportedConstruct(f"vector range {_span(msb, lsb)} (only [msb:0])", self.where(tok))
        _check_size(msb + 1, "vector width", self.where(tok))
        return msb + 1

    def parse_int_token(self):
        tok = self.expect("num")
        return _decimal(tok.text.replace("_", ""), self.where(tok))

    def parse_signal_decl(self):
        width = self.parse_opt_range()
        decls = [WireDecl(self.expect("id").text, width)]
        while self.at("op", ","):
            self.next()
            decls.append(WireDecl(self.expect("id").text, width))
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
        return AssignStmt(target, hi, lo, rhs, kw.pos)

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
        return InstanceStmt(head.text, inst_name, tuple(params), tuple(conns), head.pos)

    # -- expressions, loosest binding first ---------------------------------
    def parse_expr(self):
        cond = self.parse_binary()
        if self.at("op", "?"):
            tok = self.next()
            a = self.parse_expr()
            self.expect("op", ":")
            b = self.parse_expr()
            return VTernary(cond, a, b)
        return cond

    def parse_binary(self, min_level=0):
        """Left-associative binary operators of level `min_level` and tighter,
        by precedence climbing: only a right operand recurses."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            level = _BINARY_LEVEL.get(tok.text) if tok.kind == "op" else None
            if level is None or level < min_level:
                return node
            self.next()
            rhs = self.parse_binary(level + 1)
            node = VBinary(tok.text, node, rhs)

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("~", "-", "&", "|", "^"):
            self.next()
            return VUnary(tok.text, self.parse_unary())
        if tok.kind == "op" and tok.text == "+":
            raise UnsupportedConstruct("unary +", self.where(tok))
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "based":
            self.next()
            width, value = _parse_based_literal(tok.text, self.where(tok))
            return VNum(width, value)
        if tok.kind == "num":
            return VNum(None, self.parse_int_token())
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
                            f"part select {_span(hi, lo)} must be descending", self.where(tok)
                        )
                    return VSelect(tok.text, lo, hi, tok.pos)
                index = self.parse_expr()
                self.expect("op", "]")
                return VSelect(tok.text, index, None, tok.pos)
            return VId(tok.text, tok.pos)
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
                _check_size(count, "replication count", self.where(tok))
                return VRepl(count, part)
            parts = [self.parse_expr()]
            while self.at("op", ","):
                self.next()
                parts.append(self.parse_expr())
            self.expect("op", "}")
            return VConcat(tuple(parts))
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
                raise UndeclaredIdentifier(stmt.target, self.source.where(stmt.pos))
            for name, pos in _ast_reads(stmt.rhs):
                if name not in declared:
                    raise UndeclaredIdentifier(name, self.source.where(pos))
        inst_names = set()
        for inst in ast.instances:
            if inst.name in declared or inst.name in inst_names:
                raise ValidationError(f"duplicate declaration of '{inst.name}'")
            inst_names.add(inst.name)
            for _, conn in inst.conns:
                for name, pos in _ast_reads(conn):
                    if name not in declared:
                        raise UndeclaredIdentifier(name, self.source.where(pos))


def _ast_reads(node):
    """Yield (identifier, offset) for every name an expression reads, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, VId):
            yield node.name, node.pos
        elif isinstance(node, VSelect):
            yield node.base, node.pos
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
    parser = _Parser(source, filename, allow_instances)
    try:
        return parser.parse_module()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.where(parser.peek())) from None


# ---------------------------------------------------------------------------
# Elaboration


def _natural_width(node, widths):
    t = type(node)
    if t is VNum:
        return node.width if node.width is not None else max(node.value.bit_length(), 1)
    if t is VId:
        return widths[node.name]
    if t is VUnary:
        return 1 if node.op in ("&", "|", "^") else _natural_width(node.a, widths)
    if t is VBinary:
        if node.op in ("==", "!=", "<"):
            return 1
        if node.op in ("<<", ">>"):
            return _natural_width(node.a, widths)
        return max(_natural_width(node.a, widths), _natural_width(node.b, widths))
    if t is VTernary:
        return max(_natural_width(node.a, widths), _natural_width(node.b, widths))
    if t is VConcat:
        return sum(_natural_width(p, widths) for p in node.parts)
    if t is VRepl:
        return node.count * _natural_width(node.part, widths)
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
        # name -> leaf Var, for the sources: inputs and params.
        self.leaves = {p.name: ir.Var(p.name, p.width) for p in ast.ports if p.direction == "input"}
        self.leaves.update((p.name, ir.Var(p.name, p.width)) for p in ast.params)
        # signal -> list of (hi, lo, build(), reads)
        self.pieces = {}
        self.sigmap = {}

    def run(self):
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
                raise ValidationError(f"{where}: assignment to {target}{_span(hi, lo)} out of range")
            entries = self.pieces.setdefault(target, [])
            for ohi, olo, _, _ in entries:
                if hi >= olo and ohi >= lo:
                    raise ValidationError(f"{where}: multiple drivers for {target}[{hi}:{lo}]")
            entries.append((hi, lo, build, reads))

        for stmt in self.ast.assigns:
            where = self.ast.source.where(stmt.pos)
            if stmt.target in self.leaves:
                raise ValidationError(f"{where}: cannot assign to '{stmt.target}'")
            ctx = (stmt.hi - stmt.lo + 1) if stmt.hi is not None else self.widths[stmt.target]
            reads = {name for name, _ in _ast_reads(stmt.rhs) if self._is_signal(name)}
            add(
                stmt.target, stmt.hi, stmt.lo,
                (lambda rhs=stmt.rhs, c=ctx, w=where: self._lower_statement(rhs, c, w)),
                reads, where,
            )

        for inst in self.ast.instances:
            where = self.ast.source.where(inst.pos)
            prim = self._lookup_primitive(inst.primitive, where)
            declared = {n: w for n, w, _ in prim.params}
            for pname, pwidth, pvalue in inst.params:
                if pname not in declared:
                    raise ValidationError(f"{where}: {inst.primitive} has no parameter {pname}")
                if pwidth != declared[pname] or pvalue >= 1 << declared[pname]:
                    raise WidthMismatch(f"{where}: parameter {pname}", declared[pname], pwidth)
            bound = dict(prim.bind({pname: pvalue for pname, _, pvalue in inst.params}).outputs)
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
                    reads |= {n for n, _ in _ast_reads(conn) if self._is_signal(n)}
                elif port in out_widths:
                    sinks.append((port, conn))
                else:
                    raise ValidationError(f"{where}: {inst.primitive} has no port {port}")
            missing = set(in_widths) - set(conn_in)
            if missing:
                raise ValidationError(f"{where}: unconnected input pins {sorted(missing)}")

            for port, conn in sinks:
                target, hi, lo = self._as_lvalue(conn, where)
                if target in self.leaves:
                    raise ValidationError(f"{where}: cannot drive '{target}'")
                pwidth = out_widths[port]
                twidth = (hi - lo + 1) if hi is not None else self.widths[target]
                if twidth != pwidth:
                    raise WidthMismatch(f"{where}: connection to {port}", pwidth, twidth)

                def build(prim=prim, expr=bound[port], conn_in=dict(conn_in), w=where):
                    pins = {p: self._lower_statement(conn_in[p], pw, w) for p, pw in prim.inputs}
                    return ir.substitute(expr, pins)

                add(target, hi, lo, build, set(reads), where)

    def _lookup_primitive(self, name, where):
        if name not in self.library.primitives:
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
        return name in self.widths and name not in self.leaves

    # -- ordering ---------------------------------------------------------------
    def _topo_order(self):
        deps = {}
        for name, entries in self.pieces.items():
            deps[name] = set().union(*(reads for _, _, _, reads in entries))
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
        _check_size(ctx, "expression width", where)
        t = type(node)
        if t is VNum:
            natural = node.width if node.width is not None else max(node.value.bit_length(), 1)
            if natural > ctx:
                if node.value < (1 << ctx):
                    natural = ctx
                else:
                    raise WidthMismatch(f"{where}: literal {decimal_text(node.value)}", ctx, natural)
            return ir.Const(ctx, node.value)
        if t is VId:
            return _fit(self._signal(node.name), ctx, f"{where}: '{node.name}'")
        if t is VUnary:
            if node.op in ("&", "|", "^"):
                operand = self._lower(node.a, _natural_width(node.a, self.widths), where)
                cls = {"&": ir.ReduceAnd, "|": ir.ReduceOr, "^": ir.ReduceXor}[node.op]
                return _fit(cls(operand), ctx, f"{where}: reduction")
            operand = self._lower(node.a, ctx, where)
            return ir.Not(operand) if node.op == "~" else ir.Neg(operand)
        if t is VBinary:
            if node.op in ("==", "!=", "<"):
                w = max(_natural_width(node.a, self.widths), _natural_width(node.b, self.widths))
                a = self._lower(node.a, w, where)
                b = self._lower(node.b, w, where)
                cmp = ir.Ult(a, b) if node.op == "<" else ir.Eq(a, b)
                if node.op == "!=":
                    cmp = ir.Not(cmp)
                return _fit(cmp, ctx, f"{where}: comparison")
            if node.op in ("<<", ">>"):
                a = self._lower(node.a, ctx, where)
                amount = self._lower(node.b, _natural_width(node.b, self.widths), where)
                cls = ir.Shl if node.op == "<<" else ir.LShr
                return cls(a, amount)
            a = self._lower(node.a, ctx, where)
            b = self._lower(node.b, ctx, where)
            cls = {"&": ir.And, "|": ir.Or, "^": ir.Xor, "+": ir.Add, "-": ir.Sub, "*": ir.Mul}[node.op]
            return cls(a, b)
        if t is VTernary:
            cond = self._lower(node.cond, _natural_width(node.cond, self.widths), where)
            if cond.width != 1:
                cond = ir.ReduceOr(cond)
            return ir.Mux(cond, self._lower(node.a, ctx, where), self._lower(node.b, ctx, where))
        if t is VConcat:
            parts = [self._lower(p, _natural_width(p, self.widths), where) for p in node.parts]
            _check_size(sum(p.width for p in parts), "concatenation width", where)
            return _fit(ir.concat(parts), ctx, f"{where}: concatenation")
        if t is VRepl:
            part = self._lower(node.part, _natural_width(node.part, self.widths), where)
            _check_size(part.width * node.count, "replication width", where)
            return _fit(ir.concat([part] * node.count), ctx, f"{where}: replication")
        if t is VSelect:
            base = self._signal(node.base)
            if node.hi is not None:
                hi, lo = node.hi, node.index
                if hi >= base.width:
                    select = f"{where}: select {node.base}{_span(hi, lo)}"
                    raise WidthMismatch(select, base.width, decimal_text(hi + 1))
                return _fit(ir.Extract(hi, lo, base), ctx, f"{where}: part select")
            if isinstance(node.index, VNum):
                bit = node.index.value
                if bit >= base.width:
                    select = f"{where}: select {node.base}[{decimal_text(bit)}]"
                    raise WidthMismatch(select, base.width, decimal_text(bit + 1))
                return _fit(ir.Extract(bit, bit, base), ctx, f"{where}: bit select")
            # Dynamic bit select reads bit i by shifting it down to position 0.
            index = self._lower(node.index, _natural_width(node.index, self.widths), where)
            return _fit(ir.Extract(0, 0, ir.LShr(base, index)), ctx, f"{where}: bit select")
        raise TypeError(f"not a Verilog expression: {node!r}")


def elaborate(ast, library=None):
    """Extract an ir.Design from an AST.

    Parameters stay symbolic: the Design keeps them, and its outputs read
    them as Vars. `library` enables the instance-aware mode used when
    re-importing emitted netlists.
    """
    if ast.instances and library is None:
        raise UnsupportedConstruct("module instantiation", ast.source.where(ast.instances[0].pos))
    outputs = _Elaborator(ast, library).run()
    inputs = tuple((p.name, p.width) for p in ast.ports if p.direction == "input")
    params = tuple((p.name, p.width, p.default) for p in ast.params)
    return ir.Design(ast.name, inputs, tuple(outputs), params)


def check_identifiers(design, where=None):
    """Raise ParseError at `where` unless the design's module and port
    names are Verilog identifiers, so that a printed netlist re-imports."""
    ports = [name for name, _ in design.inputs] + [name for name, _ in design.outputs]
    for kind, name in [("module", design.name)] + [("port", name) for name in ports]:
        if not _IDENTIFIER_RE.fullmatch(name) or name in _KEYWORDS | _UNSUPPORTED_KEYWORDS:
            raise ParseError(f"{kind} name {name!r} is not a Verilog identifier", where)


def import_primitive(source, filename=None):
    """Parse and elaborate a primitive model into a Design with parameters.

    The result is deterministic: declaration order everywhere, so importing
    the same model twice writes byte-identical JSON.
    """
    return elaborate(parse(source, filename=filename))

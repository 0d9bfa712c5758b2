"""Concrete evaluation, SMT-LIB lowering, and truth-table enumeration.

The three views of an expression's meaning. Concrete evaluation is the
simulation/oracle path, the SMT lowering feeds the solver-backed search,
and truth tables are the exhaustive cross-check between them. The Python
and SMT-LIB text of an operator node is its `ir.OPERATORS` template; the
writers here spell only the nodes that no one template covers.

Concrete evaluation compiles an expression DAG once, with `compile_exprs`,
into a Python function with one statement per operator node; no tree is
walked per row. `eval_concrete`, `eval_many` and `eval_design` call such
functions through a small cache keyed by node identity. Unlike a tree walk,
the compiled code computes every node, both branches of a Mux included. So
a Var missing from the environment raises UnknownVar, and an out-of-range
value ValidationError, even when it only feeds the branch a Mux does not
take. The exception is a slice: a value rebuilt from adjacent slices of
another is read as one slice of it, and the parts get no statement.

The exhaustive loops are written by the same generator, from the same
statements. Its table form records every row's outputs; its scan form
walks hole assignments and, for each, rows, both in ascending order, until
a row disagrees with a table. Brute-force enumeration, the exhaustive
counterexample search, exhaustive equivalence checking and `truth_table`
all run inside that generated code, up to the same `EXHAUSTIVE_INPUT_BITS`
input bits. The loops decode rows and hole assignments from their index by
shift and mask, so the values they make need no range check; a value from
a caller is checked where it comes in: each call of the evaluate form
checks its arguments, and `hole_index` checks a caller's hole assignment
once, before the scan walks a row.
"""

from __future__ import annotations

import itertools

from . import ir
from .errors import (
    HolePresent,
    TooManyInputBits,
    UnknownVar,
    UnmappedSymbol,
    ValidationError,
    WidthMismatch,
)
from .minismt import decimal_text

# The generated loops walk rows one at a time, and the table form holds a
# list of every row's value per output, so 2^16 rows is the ceiling.
EXHAUSTIVE_INPUT_BITS = 16


def compile_exprs(exprs, inputs, holes=(), form="evaluate"):
    """Compile an expression DAG, once, into one Python function.

    `inputs` and `holes` are ordered (name, width) sequences. Compiling
    raises UnknownVar for a Var that is not an input and HolePresent for a
    Hole not among `holes`. `form` picks the function:

    - "evaluate" takes one value per input and then one per hole as
      positional arguments, and returns a tuple with one unsigned integer
      per expression. Each call raises ValidationError when a value does
      not fit the width of a Var or Hole node that reads it.
    - "table" takes a hole index and returns, per expression, the list of
      its values on every row.
    - "scan" takes `want`, a table as the table form returns one, and an
      iterable of hole indices. It tries them in order, and walks each one's rows in
      ascending order until one mismatches `want`; it returns
      (index, None) for the first index that matches on every row, else
      (None, the lowest mismatching row of the last index tried).

    The loop forms decode rows and hole indices as `row_env` does, the
    first symbol in the least-significant bits, by shift and mask, so the
    decoded values are in range; they take hole indices below the hole
    space. They walk at most EXHAUSTIVE_INPUT_BITS input bits, else
    compiling raises TooManyInputBits, and they want each Var and Hole node
    as wide as its symbol, else compiling raises WidthMismatch. A statement
    that reads no row runs once per hole index, and one that reads neither
    rows nor holes once per call.

    The code has one statement per operator node, so shared nodes are
    computed once per call or row, and every node is computed, both Mux
    branches included. The exception is a slice: an Extract of a known slice of a
    value, or a Concat of two adjacent slices of one value, is itself a
    slice of that value, and only a slice that a statement or a result
    reads gets one, `value >> lo & mask`. The code holds only generated
    identifiers and integer literals: symbol names and error messages reach
    it through the function's namespace, so any name the IR accepts is safe.
    """
    if form not in ("evaluate", "table", "scan"):
        raise ValueError(f"form must be 'evaluate', 'table' or 'scan', not {form!r}")
    exprs = tuple(exprs)
    loop = form != "evaluate"
    signature = []
    params = {}  # (is hole, name) -> (parameter identifier, bit offset, width)
    bits = {}  # is hole -> total width of those symbols
    for prefix, symbols in (("a", inputs), ("h", holes)):
        is_hole = prefix == "h"
        bits[is_hole] = 0
        for k, (name, width) in enumerate(symbols):
            signature.append(f"{prefix}{k}")
            params.setdefault((is_hole, name), (signature[-1], bits[is_hole], width))
            bits[is_hole] += width
    if loop and bits[False] > EXHAUSTIVE_INPUT_BITS:
        raise TooManyInputBits(bits[False], EXHAUSTIVE_INPUT_BITS)
    namespace = {}
    checks = {}  # (parameter, width) -> range check line
    # Statements by level: 0 reads neither rows nor holes, 1 holes only, 2 rows.
    lines = ([], [], [])
    # id(node) -> (level, base text, base width, lo): the node is base[lo +: width],
    # the base being below 2^(base width).
    slices = {}
    made = {}  # (base text, lo, width) -> identifier of that slice

    def define(level, value):
        name = f"v{sum(map(len, lines))}"
        lines[level].append(f"{name} = {value}")
        return name

    def read(node):
        """The text of `node`'s value; a slice gets a statement the first time."""
        level, base, bound, lo = slices[id(node)]
        width = node.width
        if lo == 0 and width >= bound:
            return base
        key = (base, lo, width)
        if key not in made:
            value = f"{base} >> {lo:#x}" if lo else base
            if lo + width < bound:
                value += f" & {(1 << width) - 1:#x}"
            made[key] = define(level, value)
        return made[key]

    for node in ir.postorder(exprs):
        t = type(node)
        if t is ir.Var or t is ir.Hole:
            is_hole = t is ir.Hole
            found = params.get((is_hole, node.name))
            if found is None:
                raise HolePresent(node.name) if is_hole else UnknownVar(node.name)
            arg, offset, width = found
            if loop:
                if node.width != width:
                    raise WidthMismatch(f"{t.__name__} '{node.name}'", width, node.width)
                level, index = (1, "h") if is_hole else (2, "r")
                slices[id(node)] = (level, index, bits[is_hole], offset)
                continue
            if (arg, node.width) not in checks:
                fail = f"_e{len(checks)}"
                namespace[fail] = _range_error("hole " if is_hole else "", node.name, node.width)
                top = (1 << node.width) - 1
                checks[arg, node.width] = f"if not 0 <= {arg} <= {top:#x}: {fail}({arg})"
            slices[id(node)] = (2, arg, node.width, 0)
        elif t is ir.Const:
            slices[id(node)] = (0, hex(node.value), node.width, 0)
        elif t is ir.Extract:
            level, base, bound, lo = slices[id(node.a)]
            slices[id(node)] = (level, base, bound, lo + node.lo)
        else:
            kids = ir._children(node)
            if t is ir.Concat:
                high, low = slices[id(node.hi)], slices[id(node.lo)]
                if high[:3] == low[:3] and high[3] == low[3] + node.lo.width:
                    slices[id(node)] = low
                    continue
            operands = [read(k) for k in kids]
            level = max(slices[id(k)][0] for k in kids)
            value = _operation(node, operands)
            if value != operands[0]:  # else an extension that keeps the value
                value = define(level, value)
            slices[id(node)] = (level, value, node.width, 0)
    results = [read(e) for e in exprs]
    fixed, per_hole, per_row = lines
    rows = 1 << bits[False]
    if form == "evaluate":
        code = [f"def evaluate({', '.join(signature)}):"]
        code += _block(1, [*checks.values(), *fixed, *per_hole, *per_row])
        code += _block(1, [f"return ({''.join(x + ', ' for x in results)})"])
    elif form == "table":
        columns = "".join(f"t{k}, " for k in range(len(results)))
        code = ["def table(h):"]
        code += _block(1, [f"t{k} = [0] * {rows:#x}" for k in range(len(results))])
        code += _block(1, [*fixed, *per_hole, f"for r in range({rows:#x}):"])
        code += _block(2, per_row + [f"t{k}[r] = {x}" for k, x in enumerate(results)] or ["pass"])
        code += _block(1, [f"return ({columns})"])
    else:
        columns = "".join(f"w{k}, " for k in range(len(results)))
        mismatch = " or ".join(f"{x} != w{k}[r]" for k, x in enumerate(results))
        code = ["def scan(want, indices):"]
        code += _block(1, [f"({columns}) = want", *fixed, "r = None", "for h in indices:"])
        code += _block(2, [*per_hole, f"for r in range({rows:#x}):"])
        test = [f"if {mismatch}:", "    break"] if results else []
        code += _block(3, per_row + test or ["pass"])
        code += _block(2, ["else:", "    return h, None"])
        code += _block(1, ["return None, r"])
    exec(compile("\n".join(code) + "\n", "<compiled expression>", "exec"), namespace)
    return namespace[form]


def _block(depth, statements):
    return [" " * 4 * depth + s for s in statements]


def _range_error(kind, name, width):
    def fail(value):
        value = decimal_text(value)
        raise ValidationError(f"value {value} for {kind}'{name}' does not fit width {width}")

    return fail


def _operation(node, operands):
    """Python expression text for an operator node: its `python` template over
    its operands' text, by field name, and its `mask` and `width`, or else
    spelled here. Integers are in hex, which converts at any length."""
    t = type(node)
    a = operands[0]
    mask = (1 << node.width) - 1
    if t is ir.ZeroExt:
        return a
    if t is ir.SignExt:
        if node.width == node.a.width:
            return a
        extension = mask ^ ((1 << node.a.width) - 1)
        return f"{a} | {extension:#x} if {a} >> {node.a.width - 1:#x} else {a}"
    if t is ir.ReduceAnd:
        return f"1 if {a} == {(1 << node.a.width) - 1:#x} else 0"
    if t is ir.Concat:
        return f"{a} << {node.lo.width:#x} | {operands[1]}"
    row = ir.OPERATORS[t]
    return row.python % dict(zip(row.operands, operands), mask=hex(mask), width=hex(node.width))


_CACHE_SIZE = 64
_cache = {}  # tuple of node ids -> (nodes, function, var names, hole names)


def _evaluate(exprs, env, holes):
    """Evaluate `exprs` through a cached compiled function.

    The cache is keyed by node identity. Each entry holds its nodes, so
    no id in a live key can be reused by another object; the oldest entry
    goes when the cache is full.
    """
    key = tuple(map(id, exprs))
    entry = _cache.get(key)
    if entry is None:
        var_widths, hole_widths = {}, {}
        for expr in exprs:
            found_vars, found_holes = ir.free_symbols(expr)
            var_widths.update(found_vars)
            hole_widths.update(found_holes)
        fn = compile_exprs(exprs, var_widths.items(), hole_widths.items())
        if len(_cache) >= _CACHE_SIZE:
            del _cache[next(iter(_cache))]
        entry = _cache[key] = (exprs, fn, tuple(var_widths), tuple(hole_widths))
    _, fn, var_names, hole_names = entry
    return fn(*_lookup(env, var_names, UnknownVar), *_lookup(holes or {}, hole_names, HolePresent))


def _lookup(bindings, names, missing):
    try:
        return [bindings[name] for name in names]
    except KeyError as exc:
        raise missing(exc.args[0]) from None


def eval_concrete(expr, env, holes=None):
    """Evaluate an expression to an unsigned integer.

    `env` maps variable names to values; `holes`, when given, does the same
    for hole names (used by the enumerating backend). Values must fit the
    symbol's width. Shared DAG nodes are evaluated once.
    """
    return _evaluate((expr,), env, holes)[0]


def eval_many(exprs, env, holes=None):
    """Evaluate several expressions in one call, sharing their DAG work."""
    return list(_evaluate(tuple(exprs), env, holes))


def eval_design(design, env):
    """Evaluate every design output; returns {output name: value}."""
    values = _evaluate(tuple(e for _, e in design.outputs), env, None)
    return {name: value for (name, _), value in zip(design.outputs, values)}


# Node type -> its SMT-LIB template, for the types whose term is that
# template over their operands' terms; `lower_to_smt` spells the others.
_TERMS = {
    c: row.smt for c, row in ir.OPERATORS.items() if row.smt and not issubclass(c, (ir._Reduce, ir._Shift))
}


def shared_nodes(exprs):
    """The operator nodes under `exprs` that more than one parent reads, as a map
    from id(node) to its index in `ir.postorder(exprs)`.

    Each root counts as read once, by whatever holds it, and each operand
    slot of a node as one read. No leaf (Var, Hole or Const) is listed: it
    is spelled about as briefly as a name for it would be.
    """
    order = ir.postorder(exprs)
    reads = {}
    for node in itertools.chain(exprs, *map(ir._children, order)):
        reads[id(node)] = reads.get(id(node), 0) + 1
    return {
        id(node): k
        for k, node in enumerate(order)
        if reads[id(node)] > 1 and ir._children(node)
    }


def lower_to_smt(expr, symbol_map, names=None, definitions=None):
    """Render an expression as an SMT-LIB v2 QF_BV term.

    Every Var and Hole is rendered as the text `symbol_map` gives its name
    (else UnmappedSymbol): an SMT identifier, or any term, such as a literal
    that lowers the expression as if that constant had been substituted.
    Most nodes are their `ir.OPERATORS` template over their operands'
    terms. Reductions fold theirs over extracted bits, and shifts equalize
    operand widths by zero-extension before truncating back to the operand
    width. `expr` may also be a tuple of expressions: they are lowered in
    one pass, and a list of their terms comes back.

    Each distinct node is lowered once, after its operands, in one pass over
    `ir.postorder`, so no recursion limit applies however deep the
    expression is. A node is spelled out at each use, unless `names` maps
    its id to an SMT-LIB symbol: then its term goes once into the list
    `definitions`, as a `(define-fun <symbol> () (_ BitVec w) <term>)` line
    placed after the lines of the named nodes it reads, and the symbol is
    its term at every use.
    """
    exprs = expr if isinstance(expr, tuple) else (expr,)
    names = names or {}
    text = {}  # id(node) -> its term
    for node in ir.postorder(exprs):
        t = type(node)
        template = _TERMS.get(t)
        if template is not None:
            # By arity: a tuple built per node costs this hot loop a tenth.
            kids = ir._children(node)
            if len(kids) == 2:
                term = template % (text[id(kids[0])], text[id(kids[1])])
            elif len(kids) == 1:
                term = template % text[id(kids[0])]
            else:
                term = template % (text[id(kids[0])], text[id(kids[1])], text[id(kids[2])])
        elif t is ir.Var or t is ir.Hole:
            try:
                term = symbol_map[node.name]
            except KeyError:
                raise UnmappedSymbol(node.name)
        elif t is ir.Const:
            term = f"#b{node.value:0{node.width}b}"
        elif t is ir.Extract:
            term = f"((_ extract {node.hi} {node.lo}) {text[id(node.a)]})"
        elif t is ir.ZeroExt or t is ir.SignExt:
            op = "zero_extend" if t is ir.ZeroExt else "sign_extend"
            term = _extend(op, text[id(node.a)], node.width - node.a.width)
        elif t is ir.Shl or t is ir.LShr:
            w = max(node.a.width, node.b.width)
            a, b = (_extend("zero_extend", text[id(k)], w - k.width) for k in (node.a, node.b))
            term = ir.OPERATORS[t].smt % (a, b)
            if w > node.a.width:
                term = f"((_ extract {node.a.width - 1} 0) {term})"
        else:  # a reduction
            fold = ir.OPERATORS[t].smt
            inner = text[id(node.a)]
            term = f"((_ extract 0 0) {inner})"
            for i in range(1, node.a.width):
                term = fold % (term, f"((_ extract {i} {i}) {inner})")
        name = names.get(id(node))
        if name is not None:
            definitions.append(f"(define-fun {name} () (_ BitVec {node.width}) {term})")
            term = name
        text[id(node)] = term
    terms = [text[id(e)] for e in exprs]
    return terms if isinstance(expr, tuple) else terms[0]


def _extend(op, term, bits):
    """`term` widened by `bits` with `op`, zero_extend or sign_extend."""
    return f"((_ {op} {bits}) {term})" if bits else term


def row_env(inputs, row):
    """Decode row index `row` into an env over the ordered (name, width) list.

    The first input occupies the least-significant bits of the row index,
    matching the LUT convention where input k indexes bit k.
    """
    env = {}
    shift = 0
    for name, width in inputs:
        env[name] = (row >> shift) & ((1 << width) - 1)
        shift += width
    return env


def hole_index(holes, assignment):
    """The index that a loop form decodes into `assignment`, over the ordered
    (name, width) `holes`, as `row_env` decodes it.

    Raises HolePresent for a hole that `assignment` leaves out, and
    ValidationError, with the message a compiled function gives, for a
    value that does not fit its hole.
    """
    index = shift = 0
    for name, width in holes:
        try:
            value = assignment[name]
        except KeyError:
            raise HolePresent(name) from None
        if not 0 <= value < 1 << width:
            _range_error("hole ", name, width)(value)
        index |= value << shift
        shift += width
    return index


def truth_table(design):
    """Enumerate all input rows of a Design.

    Returns a list of (input tuple, output tuple) in ascending row order,
    inputs and outputs in declaration order. A primitive's parameters take
    their defaults: `design.bind` gives it other values.
    """
    design = design.bind({})
    columns = compile_exprs([e for _, e in design.outputs], design.inputs, form="table")(0)
    return [
        (tuple(row_env(design.inputs, row).values()), tuple(c[row] for c in columns))
        for row in range(1 << sum(width for _, width in design.inputs))
    ]

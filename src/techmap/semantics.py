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
take.

`first_mismatch` is the one exhaustive row loop. Brute-force enumeration,
the exhaustive counterexample search and exhaustive equivalence checking
walk rows through it, and so does `truth_table`, all up to the same
`EXHAUSTIVE_INPUT_BITS` input bits.
"""

from __future__ import annotations

import itertools

from . import ir
from .errors import HolePresent, TooManyInputBits, UnknownVar, UnmappedSymbol, ValidationError
from .minismt import decimal_text

EXHAUSTIVE_INPUT_BITS = 16  # rows are walked one at a time, so 2^16 is the ceiling


def compile_exprs(exprs, inputs, holes=()):
    """Compile an expression DAG, once, into one Python function.

    `inputs` and `holes` are ordered (name, width) sequences. The function
    takes one value per input and then one per hole as positional
    arguments, and returns a tuple with one unsigned integer per
    expression. Each call raises ValidationError when a value does not fit
    the width of a Var or Hole node that reads it. Compiling raises
    UnknownVar for a Var that is not an input and HolePresent for a Hole
    not among `holes`.

    The code has one statement per operator node, so shared nodes are
    computed once per call, and every node is computed, both Mux branches
    included. It holds only generated identifiers and integer literals:
    symbol names and error messages reach it through the function's
    namespace, so any name the IR accepts is safe.
    """
    exprs = tuple(exprs)
    signature = []
    params = {}  # (is hole, name) -> parameter identifier
    for prefix, symbols in (("a", inputs), ("h", holes)):
        for k, (name, _) in enumerate(symbols):
            signature.append(f"{prefix}{k}")
            params.setdefault((prefix == "h", name), signature[-1])
    namespace = {}
    checks = {}  # (parameter, width) -> range check line
    body = []
    ref = {}  # id(node) -> identifier or literal holding its value
    for node in ir.postorder(exprs):
        t = type(node)
        if t is ir.Var or t is ir.Hole:
            is_hole = t is ir.Hole
            arg = params.get((is_hole, node.name))
            if arg is None:
                raise HolePresent(node.name) if is_hole else UnknownVar(node.name)
            if (arg, node.width) not in checks:
                fail = f"_e{len(checks)}"
                namespace[fail] = _range_error("hole " if is_hole else "", node.name, node.width)
                checks[arg, node.width] = (
                    f"    if not 0 <= {arg} <= {(1 << node.width) - 1:#x}: {fail}({arg})"
                )
            ref[id(node)] = arg
        elif t is ir.Const:
            ref[id(node)] = hex(node.value)
        else:
            operands = [ref[id(k)] for k in ir._children(node)]
            text = _operation(node, operands)
            if text == operands[0]:
                ref[id(node)] = text  # an extension or extract that keeps the value
            else:
                ref[id(node)] = f"v{len(body)}"
                body.append(f"    v{len(body)} = {text}")
    lines = [f"def evaluate({', '.join(signature)}):"]
    lines += checks.values()
    lines += body
    lines.append(f"    return ({''.join(ref[id(e)] + ', ' for e in exprs)})")
    exec(compile("\n".join(lines) + "\n", "<compiled expression>", "exec"), namespace)
    return namespace["evaluate"]


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
    if t is ir.Extract:
        if node.lo == 0:
            return a if node.width == node.a.width else f"{a} & {mask:#x}"
        return f"{a} >> {node.lo:#x} & {mask:#x}"
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


def ascending(symbols):
    """Every value tuple over ordered (name, width) symbols, by index.

    Index k gives the first symbol the least-significant bits of k, as in
    `row_env`; each tuple holds one value per symbol, in order.
    """
    ranges = [range(1 << width) for _, width in reversed(symbols)]
    return (values[::-1] for values in itertools.product(*ranges))


def input_rows(inputs):
    """The rows of the ordered (name, width) `inputs`, as `ascending` gives them.

    Raises TooManyInputBits when the inputs total more than
    EXHAUSTIVE_INPUT_BITS bits.
    """
    total = sum(width for _, width in inputs)
    if total > EXHAUSTIVE_INPUT_BITS:
        raise TooManyInputBits(total, EXHAUSTIVE_INPUT_BITS)
    return ascending(inputs)


def first_mismatch(fn, rows, want=None, args=(), record=None):
    """The index of the first row on which `fn` disagrees with `want`, else None.

    This is the one exhaustive row loop. `rows` are input value tuples in
    ascending row order, from `input_rows`; a caller that walks them many
    times passes them as a list. Each row is evaluated as
    fn(*row values, *args). `want` gives the expected output tuple of each
    row: a function of the row values, a sequence indexed by row, or None
    to compare nothing. When `record` is a list, fn's output on every
    visited row is appended to it.
    """
    table = not callable(want)
    for row, values in enumerate(rows):
        got = fn(*values, *args)
        if record is not None:
            record.append(got)
        if want is not None and got != (want[row] if table else want(*values)):
            return row
    return None


def truth_table(design):
    """Enumerate all input rows of a Design.

    Returns a list of (input tuple, output tuple) in ascending row order,
    inputs and outputs in declaration order. A primitive's parameters take
    their defaults: `design.bind` gives it other values.
    """
    design = design.bind({})
    rows = list(input_rows(design.inputs))
    outputs = []
    fn = compile_exprs([e for _, e in design.outputs], design.inputs)
    first_mismatch(fn, rows, record=outputs)
    return list(zip(rows, outputs))

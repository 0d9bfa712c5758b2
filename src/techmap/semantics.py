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
compares against such a table, and tries a block of `PLANE_LANES` hole
assignments per row step: a node that reads a hole is a list of bit planes,
one int per bit, each bit of a plane (a lane) standing for one assignment of
the block. That is bitslicing (Biham, FSE 1997), with hole assignments as
the lanes. Rows are walked in ascending order until every lane has
disagreed with the table, so the scan answers as walking one assignment at
a time would. Brute-force enumeration, the exhaustive counterexample
search, exhaustive equivalence checking and `truth_table` all run inside
that generated code, up to the same `EXHAUSTIVE_INPUT_BITS` input bits; of
these, only enumeration reads a hole in a loop, so the others compute ints
alone. The loops decode rows and hole assignments from their index by
shift and mask, so the values they make need no range check; a value from
a caller is checked where it comes in: each call of the evaluate form
checks its arguments, and `hole_index` checks a caller's hole assignment.
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

# The generated loops walk rows one at a time (the scan form a block of hole
# indices per row), and the table form holds a list of every row's value per
# output, so 2^16 rows is the ceiling.
EXHAUSTIVE_INPUT_BITS = 16

# The most hole indices the scan form tries at once, one per bit of each
# plane; a power of two (see `compile_exprs`).
PLANE_LANES = 1 << 13


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
    - "scan" takes `want`, a table as the table form returns one, and
      scans the whole hole space. It returns (index, None) for the lowest
      hole index that matches `want` on every row, else (None, row); with
      no holes, `row` is the lowest row that mismatches.

    The loop forms decode rows and hole indices as `row_env` does, the
    first symbol in the least-significant bits, by shift and mask, so the
    decoded values are in range; they take hole indices below the hole
    space. They walk at most EXHAUSTIVE_INPUT_BITS input bits, else
    compiling raises TooManyInputBits, and they want each Var and Hole node
    as wide as its symbol, else compiling raises WidthMismatch. A statement
    that reads no row runs once per hole index (in the scan form, per block
    of them), and one that reads neither rows nor holes once per call.

    The scan form walks the hole space in blocks of PLANE_LANES hole
    indices or, for a smaller space, in one block of the whole space. In a
    block, each node that reads a hole is a list of bit planes, one Python
    int per bit, least significant first; bit k of a plane, lane k, holds
    the node's value at index base + k. The hole bits below the lane bits
    are fixed patterns, made once per compile, and those above are 0 or
    all-ones for the whole block. Such a node is one statement that calls
    its `ir.OPERATORS` plane helper (`plane_add` and the rest: bitwise
    operators bit by bit, add, sub and neg by a rippled carry, mul by shift
    and add, a shift by an int as a list slice and by planes as one mux
    stage per amount bit, Eq, Ult and Mux as gate chains), or slices lists
    for Extract, Concat and the extensions. A node that
    reads no hole stays an int, and one that feeds a plane helper is lifted
    to planes by a statement at its own level; a shift amount or a Mux
    condition is read as an int. Per row, each output is compared with
    `want` in every lane, and the lanes that disagree leave the block's
    mask of live lanes; the block ends when no lane is live, or with its
    lowest live lane, once every row is walked. On the benchmark's pinned
    LUT4 tables, whose INIT lies past 18,400, 2^12 to 2^14 lanes cost the
    same, 0.36-0.40 ms a table with compiling; a table in the first block
    goes from 0.29 to 0.35 ms and a uniformly drawn one from 0.51 to
    0.41 ms from 2^12 to 2^14 lanes, so 2^13 is within 0.04 ms of the best
    on each (2-vCPU host, Python 3.11).

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
    scan = form == "scan"
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
    lanes = min(PLANE_LANES, 1 << bits[True])
    namespace = dict(_PLANE_HELPERS, F=(1 << lanes) - 1, L=_lane_patterns(lanes)) if scan else {}
    checks = {}  # (parameter, width) -> range check line
    # Statements by level: 0 reads neither rows nor holes, 1 holes only, 2 rows.
    lines = ([], [], [])
    # id(node) -> (level, base text, base width, lo, planes): the node is
    # base[lo +: width], the base being below 2^(base width), and a list of
    # bit planes when `planes` is true, else an int.
    slices = {}
    made = {}  # (base text, lo, width) -> identifier of that slice
    lifted = {}  # (int text, width) -> identifier of those planes

    def define(level, value):
        name = f"v{sum(map(len, lines))}"
        lines[level].append(f"{name} = {value}")
        return name

    def read(node):
        """The text of `node`'s value; a slice gets a statement the first time."""
        level, base, bound, lo, planes = slices[id(node)]
        width = node.width
        if lo == 0 and (width == bound if planes else width >= bound):
            return base
        key = (base, lo, width)
        if key not in made:
            if planes:
                value = f"{base}[{lo:#x}:{lo + width:#x}]"
            else:
                value = f"{base} >> {lo:#x}" if lo else base
                if lo + width < bound:
                    value += f" & {(1 << width) - 1:#x}"
            made[key] = define(level, value)
        return made[key]

    def lift(node):
        """The planes of an int node, a statement at its level the first time."""
        key = (read(node), node.width)
        if key not in lifted:
            lifted[key] = define(slices[id(node)][0], f"plane_lift({key[0]}, {key[1]:#x}, F)")
        return lifted[key]

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
                slices[id(node)] = (level, index, bits[is_hole], offset, is_hole and scan)
                continue
            if (arg, node.width) not in checks:
                fail = f"_e{len(checks)}"
                namespace[fail] = _range_error("hole " if is_hole else "", node.name, node.width)
                top = (1 << node.width) - 1
                checks[arg, node.width] = f"if not 0 <= {arg} <= {top:#x}: {fail}({arg})"
            slices[id(node)] = (2, arg, node.width, 0, False)
        elif t is ir.Const:
            slices[id(node)] = (0, hex(node.value), node.width, 0, False)
        elif t is ir.Extract:
            level, base, bound, lo, planes = slices[id(node.a)]
            slices[id(node)] = (level, base, bound, lo + node.lo, planes)
        else:
            kids = ir._children(node)
            if t is ir.Concat:
                high, low = slices[id(node.hi)], slices[id(node.lo)]
                if high[:3] == low[:3] and high[3] == low[3] + node.lo.width:
                    slices[id(node)] = low
                    continue
            level = max(slices[id(k)][0] for k in kids)
            if any(slices[id(k)][4] for k in kids):
                # A shift amount or a Mux condition may stay an int.
                keep = 0 if t is ir.Mux else 1 if issubclass(t, ir._Shift) else None
                operands = [
                    read(k) if i == keep or slices[id(k)][4] else lift(k)
                    for i, k in enumerate(kids)
                ]
                value = define(level, _plane_operation(node, operands))
                slices[id(node)] = (level, value, node.width, 0, True)
                continue
            operands = [read(k) for k in kids]
            value = _operation(node, operands)
            if value != operands[0]:  # else an extension that keeps the value
                value = define(level, value)
            slices[id(node)] = (level, value, node.width, 0, False)
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
        # Per row, an int output that mismatches ends the block; planes
        # clear the lanes that mismatch.
        ints, planes = [], []
        for k, (e, x) in enumerate(zip(exprs, results)):
            if slices[id(e)][4]:
                planes.append(f"plane_differ({x}, w{k}[r], F)")
            else:
                ints.append(f"{x} != w{k}[r]")
        test = [f"if {' or '.join(ints)}:", "    break"] if ints else []
        if planes:
            test += [f"alive &= ~({' | '.join(planes)})", "if not alive:", "    break"]
        if bits[True]:
            lane_bits = lanes.bit_length() - 1
            high = f"plane_lift(base >> {lane_bits:#x}, {bits[True] - lane_bits:#x}, F)"
            per_hole.insert(0, f"h = L + {high}" if lane_bits < bits[True] else "h = L")
        code = ["def scan(want):"]
        code += _block(1, [f"({columns}) = want", *fixed])
        code += _block(1, [f"for base in range(0, {1 << bits[True]:#x}, {lanes:#x}):"])
        code += _block(2, ["alive = F", *per_hole, f"for r in range({rows:#x}):"])
        code += _block(3, per_row + test or ["pass"])
        code += _block(2, ["else:", "    return base + (alive & -alive).bit_length() - 1, None"])
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


def _plane_operation(node, operands):
    """Python expression text for an operator node over bit planes: its
    `planes` helper called on its operands' text and F, or else list slicing
    spelled here."""
    t = type(node)
    if t is ir.Concat:
        return f"{operands[1]} + {operands[0]}"
    if t is ir.ZeroExt or t is ir.SignExt:
        a = operands[0]
        top = "[0]" if t is ir.ZeroExt else f"{a}[-1:]"
        return f"{a} + {top} * {node.width - node.a.width:#x}"
    return f"{ir.OPERATORS[t].planes}({''.join(x + ', ' for x in operands)}F)"


# The bit-plane helpers of the scan form. A value is a list of planes, one
# int per bit, least significant first; lane k of each plane holds the
# value's bit at one hole index. `full` has every lane set. Each helper
# returns a new list and reads its operands' planes in one loop.


def plane_lift(value, width, full):
    """An int as `width` planes, the same in every lane."""
    return [full if value >> i & 1 else 0 for i in range(width)]


def plane_differ(a, value, full):
    """The lanes in which `a` is not the int `value`."""
    differ = 0
    for x in a:
        differ |= x ^ full if value & 1 else x
        value >>= 1
    return differ


def plane_not(a, full):
    return [x ^ full for x in a]


def plane_neg(a, full):
    return plane_sub([0] * len(a), a, full)


def plane_redand(a, full):
    out = full
    for x in a:
        out &= x
    return [out]


def plane_redor(a, full):
    out = 0
    for x in a:
        out |= x
    return [out]


def plane_redxor(a, full):
    out = 0
    for x in a:
        out ^= x
    return [out]


def plane_and(a, b, full):
    return [x & y for x, y in zip(a, b)]


def plane_or(a, b, full):
    return [x | y for x, y in zip(a, b)]


def plane_xor(a, b, full):
    return [x ^ y for x, y in zip(a, b)]


def plane_add(a, b, full, carry=0):
    """a + b + carry, the carry rippling up from the lowest plane."""
    out = []
    for x, y in zip(a, b):
        half = x ^ y
        out.append(half ^ carry)
        carry = x & y | half & carry
    return out


def plane_sub(a, b, full):
    return plane_add(a, [y ^ full for y in b], full, full)


def plane_mul(a, b, full):
    """Shift and add: each set plane of `b` adds `a`, shifted by its bit."""
    width = len(a)
    out = [0] * width
    for i, y in enumerate(b):
        if y:
            out[i:] = plane_add(out[i:], [x & y for x in a[: width - i]], full)
    return out


def _plane_shift(a, amount, full, left):
    width = len(a)
    if isinstance(amount, int):  # the same amount in every lane: a list slice
        n = min(amount, width)
        return [0] * n + a[: width - n] if left else a[n:] + [0] * n
    stages = (width - 1).bit_length()  # amount bits that move by less than the width
    out = a
    for j, s in enumerate(amount[:stages]):
        n = 1 << j
        moved = [0] * n + out[: width - n] if left else out[n:] + [0] * n
        out = [x ^ (x ^ y) & s for x, y in zip(out, moved)]
    over = 0
    for s in amount[stages:]:
        over |= s
    return [x & ~over for x in out] if over else out


def plane_shl(a, b, full):
    return _plane_shift(a, b, full, True)


def plane_lshr(a, b, full):
    return _plane_shift(a, b, full, False)


def plane_eq(a, b, full):
    differ = 0
    for x, y in zip(a, b):
        differ |= x ^ y
    return [differ ^ full]


def plane_ult(a, b, full):
    """a < b, decided by the highest plane in which they differ."""
    less = 0
    for x, y in zip(a, b):
        less = (x ^ full) & y | (x ^ y ^ full) & less
    return [less]


def plane_mux(cond, a, b, full):
    if isinstance(cond, int):
        return a if cond else b
    (c,) = cond
    return [y ^ (x ^ y) & c for x, y in zip(a, b)]


def _lane_patterns(lanes):
    """The planes of the lane number, one per bit below `lanes` (a power of two)."""
    patterns = []
    step = 1
    while step < lanes:
        pattern, period = ((1 << step) - 1) << step, 2 * step
        while period < lanes:
            pattern |= pattern << period
            period *= 2
        patterns.append(pattern)
        step *= 2
    return patterns


_PLANE_HELPERS = {
    name: globals()[name]
    for name in ["plane_lift", "plane_differ"]
    + [row.planes for row in ir.OPERATORS.values() if row.planes]
}


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

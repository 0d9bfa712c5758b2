"""Shared builders for the test suite: designs, random expressions, solver."""

import sys

from techmap import ir, synthesis
from techmap.library import Library

MINISMT = synthesis.BUNDLED_SOLVER
# The bundled solver's module in a fresh process for each script, which
# reads the script to end of file: `-B` changes nothing it prints, but
# makes a config other than BUNDLED_SOLVER, which is kept live instead.
MINISMT_PROCESS = synthesis.SolverConfig(sys.executable, ("-B", "-m", "techmap.minismt"))


def probe_solver(config):
    """True when the configured solver answers a trivial query."""
    try:
        out = synthesis.run_solver(config, "(set-logic QF_BV)\n(check-sat)\n")
    except synthesis.SolverSpawnError:
        return False
    return out.strip().splitlines()[0] in ("sat", "unsat")


def only(library, name):
    """`library` cut down to its primitive `name`, and that cell's descriptor if it has one."""
    descriptors = {name: library.descriptors[name]} if name in library.descriptors else {}
    return Library({name: library.primitives[name]}, descriptors)


def and2_design():
    return ir.Design(
        "and2", (("a", 1), ("b", 1)), (("y", ir.And(ir.Var("a", 1), ir.Var("b", 1))),)
    )


def xor2_design():
    return ir.Design(
        "xor2", (("a", 1), ("b", 1)), (("y", ir.Xor(ir.Var("a", 1), ir.Var("b", 1))),)
    )


def majority3_design():
    a, b, c = (ir.Var(n, 1) for n in "abc")
    expr = ir.Or(ir.Or(ir.And(a, b), ir.And(a, c)), ir.And(b, c))
    return ir.Design("majority3", (("a", 1), ("b", 1), ("c", 1)), (("y", expr),))


def func2_design(m):
    """The m-th Boolean function of two inputs: y = bit (a + 2b) of m."""
    idx = ir.Concat(ir.Var("b", 1), ir.Var("a", 1))
    expr = ir.Extract(0, 0, ir.LShr(ir.Const(4, m), idx))
    return ir.Design(f"f2_{m}", (("a", 1), ("b", 1)), (("y", expr),))


def table4_design(m, name=None):
    """4-input truth table: y = bit (i0 + 2 i1 + 4 i2 + 8 i3) of m."""
    idx = ir.Var("i0", 1)
    for k in (1, 2, 3):
        idx = ir.Concat(ir.Var(f"i{k}", 1), idx)
    expr = ir.Extract(0, 0, ir.LShr(ir.Const(16, m), idx))
    return ir.Design(
        name or f"t4_{m:04x}", tuple((f"i{k}", 1) for k in range(4)), (("y", expr),)
    )


def adder4_design():
    a, b, cin = ir.Var("a", 4), ir.Var("b", 4), ir.Var("cin", 1)
    total = ir.Add(ir.Add(ir.ZeroExt(a, 5), ir.ZeroExt(b, 5)), ir.ZeroExt(cin, 5))
    return ir.Design(
        "adder4",
        (("a", 4), ("b", 4), ("cin", 1)),
        (("s", ir.Extract(3, 0, total)), ("cout", ir.Extract(4, 4, total))),
    )


def mul4_design():
    a, b = ir.Var("a", 4), ir.Var("b", 4)
    return ir.Design(
        "mul4",
        (("a", 4), ("b", 4)),
        (("p", ir.Mul(ir.ZeroExt(a, 8), ir.ZeroExt(b, 8))),),
    )


# ---------------------------------------------------------------------------
# Seeded random expressions over a fixed variable pool.

VAR_POOL = (("v1", 1), ("v2", 2), ("v4", 4), ("v7", 7), ("v16", 16))


def rand_expr(rng, width, depth):
    """A random expression of the given width over VAR_POOL variables."""
    if depth <= 0 or rng.random() < 0.25:
        choices = [ir.Var(n, w) for n, w in VAR_POOL if w == width]
        choices.append(ir.Const(width, rng.getrandbits(width)))
        return rng.choice(choices)
    ops = ["not", "neg", "binop", "shift", "mux", "concat", "extract", "zext", "sext"]
    if width == 1:
        ops += ["eq", "ult", "reduce"]
    op = rng.choice(ops)
    if op == "not":
        return ir.Not(rand_expr(rng, width, depth - 1))
    if op == "neg":
        return ir.Neg(rand_expr(rng, width, depth - 1))
    if op == "binop":
        cls = rng.choice([ir.And, ir.Or, ir.Xor, ir.Add, ir.Sub, ir.Mul])
        return cls(rand_expr(rng, width, depth - 1), rand_expr(rng, width, depth - 1))
    if op == "shift":
        cls = rng.choice([ir.Shl, ir.LShr])
        amount = rand_expr(rng, rng.randint(1, 6), depth - 1)
        return cls(rand_expr(rng, width, depth - 1), amount)
    if op == "mux":
        return ir.Mux(
            rand_expr(rng, 1, depth - 1),
            rand_expr(rng, width, depth - 1),
            rand_expr(rng, width, depth - 1),
        )
    if op == "concat" and width >= 2:
        lo_w = rng.randint(1, width - 1)
        return ir.Concat(rand_expr(rng, width - lo_w, depth - 1), rand_expr(rng, lo_w, depth - 1))
    if op == "extract":
        wider = width + rng.randint(0, 4)
        lo = rng.randint(0, wider - width)
        return ir.Extract(lo + width - 1, lo, rand_expr(rng, wider, depth - 1))
    if op == "zext" and width >= 2:
        inner = rng.randint(1, width - 1)
        return ir.ZeroExt(rand_expr(rng, inner, depth - 1), width)
    if op == "sext" and width >= 2:
        inner = rng.randint(1, width - 1)
        return ir.SignExt(rand_expr(rng, inner, depth - 1), width)
    if op == "eq":
        w = rng.randint(1, 8)
        return ir.Eq(rand_expr(rng, w, depth - 1), rand_expr(rng, w, depth - 1))
    if op == "ult":
        w = rng.randint(1, 8)
        return ir.Ult(rand_expr(rng, w, depth - 1), rand_expr(rng, w, depth - 1))
    if op == "reduce":
        cls = rng.choice([ir.ReduceAnd, ir.ReduceOr, ir.ReduceXor])
        return cls(rand_expr(rng, rng.randint(1, 8), depth - 1))
    return rand_expr(rng, width, depth - 1)


def rand_env(rng):
    return {n: rng.getrandbits(w) for n, w in VAR_POOL}

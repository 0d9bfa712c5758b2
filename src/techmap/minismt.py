"""Self-contained SMT-LIB v2 solver for the QF_BV fragment this package emits.

A fallback so the CEGIS backend works out of the box: `techmap-smt` (or
`python -m techmap.minismt`) reads commands on stdin, answers check-sat
with sat/unsat, and prints `((sym #b...) ...)` for get-value, exactly the
subprocess contract the synthesis module speaks. Mainstream solvers (z3,
cvc5) are drop-in replacements and preferred when installed.

Stdin is a stream (`serve`): each top-level form runs as soon as its last
line has been read, and every response is flushed at once, so one process
can answer many scripts. `(reset)` starts a fresh solver state between
them. An input error prints `(error "...")` and exits 1, after the commands
read before it have run. Given a file argument, the whole file is read and
parsed first.

check-sat searches the blasted formula itself, and the next command that
extends or searches it first rewinds it (`SatSolver.rewind`) to what it
was before the search. So an answer and its model depend only on the
declarations and assertions made since the last reset, never on an
earlier check-sat: after more assertions, the next check-sat and get-value
print what a fresh process would for the same declarations and
assertions. `synthesis` relies on this to send each CEGIS example to its
synth process once. Learnt clauses are deliberately dropped at the
rewind: kept, they would change the search, and so the models.

Internals: terms are bit-blasted to CNF through an AND/XOR gate layer with
structural hashing and constant folding, then decided by a small CDCL SAT
solver (two watched literals, first-UIP learning, activity-ordered
decisions, geometric restarts). Everything is deterministic: the same
script gives the same decisions, learnt clauses and model, and so the same
output bytes. The benchmark's `perfbench/golden.json` holds digests of
netlists built from these models, so a solver change that alters the
search (a new heuristic, learnt clauses kept between check-sats, another
lowering of a term) needs its own benchmark change that regenerates
`golden.json`; a change that only makes each step cheaper must keep every
decision.

`answer`, through which `main` runs and `synthesis` answers a script in
its own process, pauses Python's cyclic garbage collector, and restores
it as it found it. Reading, blasting and search allocate millions of
small tuples and lists, so the collector would keep starting full
collections that walk the whole growing clause database, to find
nothing: the solver builds no reference cycles, and reference counting
alone frees every state that a `(reset)` drops, or that an interpreter
leaves when its caller drops it.

An `Interpreter` may have a deadline, a `time.monotonic()` time, which
`synthesis` sets QUERY_TIMEOUT_S ahead for an in-process script, where
there is no process to kill. Blasting reads the clock before each new
term and search at every DEADLINE_CONFLICTS-th conflict; past the
deadline the command is dropped, `unknown` is printed, and the rest of the
script is not run. Reading the clock changes no decision. `main` sets no
deadline, and neither the command line nor the environment can set one.

Commands: set-option, set-logic, declare-const and zero-arity declare-fun
of a (_ BitVec w) sort, zero-arity define-fun of a (_ BitVec w) sort,
assert, check-sat, get-value, get-info :all-statistics (decisions,
conflicts, propagations, variables and clauses, learnt ones included, of
the last check-sat's search since the last reset, else of the formula),
echo of one string, reset and exit.

A define-fun names a term that `synthesis` would otherwise spell out at
every use. Its body may read only symbols declared or defined before it,
and is stored unblasted. It is blasted, through the term cache like any
term, the first time a term reads the name, and only then is its width
checked against the sort. Laziness keeps a script's CNF the one it would
have with every name spelled out: the body is blasted at the moment of the
depth-first walk where its first spelled-out copy would have been, so every
gate gets the same variable number and every clause the same place, and
the search and the models stay the same. Blasting each body when it is
defined would number its gates in definition order instead. Where the
spelled-out script repeats a term's text under two names, as a node that
reads only holes is repeated in each CEGIS example, the second name's body
is blasted again, but the gate caches hand back the gates of the first, so
that makes no new variable or clause.

Terms are checked against one table, `_OPS`, before they are blasted: it
gives each operator its operand sort, its arity (n+ is n or more, folded
from the left) and whether bitvector operands share a width.
- Boolean: not (1); and, or, xor (1+); = (2 of one sort, either); ite (a
  Boolean, then 2 of one sort).
- Bitvector: bvnot, bvneg (1); concat (1+); of one width, bvand, bvor,
  bvxor, bvadd, bvsub, bvmul (1+) and bvshl, bvlshr, bvult (2); indexed,
  (_ extract i j) for i >= j, (_ zero_extend n) and (_ sign_extend n) (1).
- Constants: true, false, and the literals `literal` reads, as does
  `synthesis.parse_model`: `#b` and binary digits, one bit each, `#x` and
  hex digits, four bits each, and (_ bvN w) for N < 2^w.
Every index, width and N is a numeral (`numeral`), decimal digits only. A
declared sort, a (_ bvN w) literal, a concatenation and an extension are
at most MAX_WIDTH bits wide, and a bvmul, whose shift-and-add blast makes
about 2 * width^2 gates, at most MAX_MUL_WIDTH: on a 2-vCPU host a script
asserting `(= (bvmul x y) x)` runs in 0.3-0.5 s at 128 bits, and took 8.9 s
at 512. A malformed command or term, as any other input error, prints
`(error ...)`.

`tokenize` and `read_form` are the package's one s-expression reader: the
interpreter reads scripts with them, and `synthesis.parse_model` reads the
get-value answer of any solver with them.

Only the standard library is used, and importing this module stays cheap,
because `synthesis` starts one process for each synth session of a CEGIS
run that uses it, again after an `(error ...)` reply ends one, and for
each script that its `run_solver` is given with a config. It starts them
with `python -S`, which skips the `site` import. A one-shot query, as
each verify query is, runs in the caller's process instead (`answer`), so
it starts nothing.
"""

import gc
import heapq
import re
import sys
import time
from itertools import chain

MAX_WIDTH = 1 << 16  # bits; checked before a bitvector is allocated
MAX_DIGITS = 19729  # decimal digits of 2^MAX_WIDTH - 1; no MAX_WIDTH-bit value needs more
MAX_MUL_WIDTH = 128  # bits of a bvmul, which blasts about 2 * width^2 gates
DEADLINE_CONFLICTS = 256  # a search reads the clock at every this many conflicts


class SmtInputError(Exception):
    pass


class DeadlinePassed(Exception):
    """The interpreter's deadline passed while it blasted or searched."""


def _check_width(width, what):
    if not 1 <= width <= MAX_WIDTH:
        raise SmtInputError(f"{what} width {decimal_text(width)} is not in 1..{MAX_WIDTH}")


# ---------------------------------------------------------------------------
# S-expression reading


_SIMPLE_SYMBOL = re.compile(r'[^ \t\r\n();"|]+')
# A string literal or a quoted symbol keeps its delimiters, so `|(|` stays
# an atom; a lone `"` or `|` is one whose closing delimiter is missing.
# Whitespace matches no alternative, so `findall` steps over it; a comment
# matches with an empty group.
_TOKEN = re.compile(
    r';[^\n]*|([()]|"[^"]*"|\|[^|]*\||' + _SIMPLE_SYMBOL.pattern + r'|["|])'
)
_UNTERMINATED = {'"': "unterminated string literal", "|": "unterminated quoted symbol"}


def tokenize(text):
    tokens = _TOKEN.findall(text)
    if ";" in text:
        tokens = [tok for tok in tokens if tok]
    if '"' in tokens or "|" in tokens:
        raise SmtInputError(_UNTERMINATED[next(t for t in tokens if t in _UNTERMINATED)])
    return tokens


def read_form(tokens, pos):
    """Read one s-expression starting at `tokens[pos]`; return (form, next pos).

    A list comes back as a tuple of forms, an atom as its token string, a
    quoted symbol `|x|` as `x`.
    """
    stack = []  # the lists still open, innermost last
    while pos < len(tokens):
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                raise SmtInputError("unexpected ')'")
            form = tuple(stack.pop())
            if not stack:
                return form, pos
            stack[-1].append(form)
        else:
            atom = tok[1:-1] if tok[0] == "|" else tok
            if not stack:
                return atom, pos
            stack[-1].append(atom)
    raise SmtInputError("missing ')'" if stack else "unexpected end of input")


def parse_forms(tokens):
    """Every top-level form in `tokens`, in order."""
    forms = []
    pos = 0
    while pos < len(tokens):
        form, pos = read_form(tokens, pos)
        forms.append(form)
    return forms


# ---------------------------------------------------------------------------
# CDCL SAT


class SatSolver:
    def __init__(self):
        self.nvars = 0
        self.clauses = []
        self.ok = True
        self._forget_search(1)

    def _forget_search(self, size):
        """No watches, trail, heap or counts, and `size` slots of every
        per-variable list at its value before any search."""
        self.watches = {}
        self.assign = [0] * size
        self.level = [0] * size
        self.reason = [None] * size
        self.activity = [0.0] * size
        self.phase = [False] * size
        self.queued = [False] * size  # the variable has a live entry on `heap`
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.act_inc = 1.0
        self.heap = []
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0  # literals implied by unit propagation

    def mark(self):
        """Taken before a search, what `rewind` needs to put this formula
        back: the clause count, the length of the trail, all at level 0,
        and every clause's literals, flat."""
        return len(self.clauses), len(self.trail), [*chain.from_iterable(self.clauses)]

    def rewind(self, mark):
        """Put back the formula `mark` was taken of, in the state a solver
        that has never searched holds for it. Search reorders clause
        literals and watch lists, appends learnt clauses, and moves the
        trail, the assignment, activities and phases; the clauses are
        attached again in order, and the saved units enqueued again."""
        count, units, flat = mark
        clauses, units = self.clauses[:count], self.trail[:units]
        self.clauses = []
        self._forget_search(self.nvars + 1)
        end = 0
        for clause in clauses:
            start, end = end, end + len(clause)
            clause[:] = flat[start:end]
            self._attach(clause)
        for lit in units:
            self.enqueue(lit, None)

    def new_var(self):
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.queued.append(False)
        return self.nvars

    def add_clause(self, lits):
        if not self.ok:
            return
        seen = set()
        out = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self.enqueue(out[0], None):
                self.ok = False
            return
        self._attach(out)

    def _attach(self, lits):
        """Add a clause of distinct, non-complementary literals; watch the first two."""
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(idx)
        self.watches.setdefault(lits[1], []).append(idx)
        return idx

    def enqueue(self, lit, reason):
        var = lit if lit > 0 else -lit
        val = self.assign[var] if lit > 0 else -self.assign[var]
        if val:
            return val == 1
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def propagate(self):
        """Unit-propagate the trail from `qhead`; the conflict clause's index or None.

        A clause watches its first two literals. Each watch list is
        compacted in place, keeping the order of the clauses that stay.
        """
        trail = self.trail
        clauses = self.clauses
        watches = self.watches
        assign = self.assign
        level = self.level
        reason = self.reason
        depth = len(self.trail_lim)
        grown = len(trail)
        qhead = self.qhead
        while qhead < len(trail):
            flit = -trail[qhead]  # the literal that just became false
            qhead += 1
            watching = watches.get(flit)
            if not watching:
                continue
            end = len(watching)
            i = j = 0  # watching[:j] are kept, watching[i:] not visited yet
            while i < end:
                ci = watching[i]
                i += 1
                clause = clauses[ci]
                first = clause[0]
                if first == flit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = flit
                val = assign[first] if first > 0 else -assign[-first]
                if val == 1:
                    watching[j] = ci
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if (assign[lit] if lit > 0 else -assign[-lit]) != -1:
                        clause[1] = lit
                        clause[k] = flit
                        watches.setdefault(lit, []).append(ci)
                        break
                else:
                    watching[j] = ci
                    j += 1
                    if val == -1:
                        del watching[j:i]
                        self.qhead = qhead
                        self.propagations += len(trail) - grown
                        return ci
                    if first > 0:
                        assign[first] = 1
                        var = first
                    else:
                        assign[-first] = -1
                        var = -first
                    level[var] = depth
                    reason[var] = ci
                    trail.append(first)
            del watching[j:]
        self.qhead = qhead
        self.propagations += len(trail) - grown
        return None

    def bump(self, var):
        act = self.activity[var] + self.act_inc
        self.activity[var] = act
        if act > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.act_inc *= 1e-100
            self._rebuild_heap()
            return
        heapq.heappush(self.heap, (-act, var))
        self.queued[var] = True
        if len(self.heap) > 4 * self.nvars + 16:
            self._rebuild_heap()

    def _rebuild_heap(self):
        """One live entry per unassigned variable, and no other entry."""
        assign = self.assign
        queued = self.queued
        heap = []
        for v in range(1, self.nvars + 1):
            queued[v] = assign[v] == 0
            if queued[v]:
                heap.append((-self.activity[v], v))
        heapq.heapify(heap)
        self.heap = heap

    def analyze(self, confl):
        learnt = [0]
        seen = set()
        counter = 0
        cur_level = len(self.trail_lim)
        idx = len(self.trail) - 1
        p = None
        reason_lits = self.clauses[confl]
        while True:
            for q in reason_lits:
                if q == p:
                    continue
                var = q if q > 0 else -q
                if var not in seen and self.level[var] > 0:
                    seen.add(var)
                    self.bump(var)
                    if self.level[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while (self.trail[idx] if self.trail[idx] > 0 else -self.trail[idx]) not in seen:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = self.clauses[self.reason[p if p > 0 else -p]]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # The second literal must sit at the backtrack level for watching.
        best = max(range(1, len(learnt)), key=lambda k: self.level[abs(learnt[k])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def backtrack(self, target):
        """Undo every assignment above decision level `target`, saving its phase."""
        if len(self.trail_lim) > target:
            trail = self.trail
            lim = self.trail_lim[target]
            del self.trail_lim[target:]
            assign = self.assign
            phase = self.phase
            queued = self.queued
            activity = self.activity
            heap = self.heap
            for lit in trail[lim:]:
                if lit > 0:
                    var = lit
                    phase[var] = True
                else:
                    var = -lit
                    phase[var] = False
                assign[var] = 0
                if not queued[var]:
                    queued[var] = True
                    heapq.heappush(heap, (-activity[var], var))
            del trail[lim:]
        self.qhead = len(self.trail)

    def pick_branch(self):
        """The unassigned variable of highest activity, lowest index first; None if none.

        Every unassigned variable has a live entry on the heap, one whose
        activity is current; older entries of a variable are skipped.
        """
        heap = self.heap
        activity = self.activity
        queued = self.queued
        while heap:
            negact, var = heapq.heappop(heap)
            if -activity[var] == negact:
                queued[var] = False
                if self.assign[var] == 0:
                    return var
        return None

    def solve(self, deadline=float("inf")):
        """A model (the value of every variable, by index), or None when unsat.

        Search changes the solver (see `rewind`), so `Interpreter` takes a
        `mark` before each check-sat and rewinds to it before the formula is
        extended or searched again. At every DEADLINE_CONFLICTS-th conflict
        it raises DeadlinePassed once `time.monotonic()` has reached
        `deadline`; reading the clock changes no decision.
        """
        if not self.ok:
            return None
        self._rebuild_heap()
        conflicts = 0
        restart_limit = 100
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                if not self.conflicts % DEADLINE_CONFLICTS and time.monotonic() >= deadline:
                    raise DeadlinePassed
                if not self.trail_lim:
                    return None
                conflicts += 1
                self.act_inc /= 0.95
                learnt, bt = self.analyze(confl)
                self.backtrack(bt)
                if len(learnt) == 1:
                    if not self.enqueue(learnt[0], None):
                        return None
                else:
                    ci = self._attach(learnt)
                    self.enqueue(learnt[0], ci)
                if conflicts >= restart_limit:
                    conflicts = 0
                    restart_limit = int(restart_limit * 1.5) + 1
                    self.backtrack(0)
            else:
                var = self.pick_branch()
                if var is None:
                    return list(self.assign)
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                self.enqueue(var if self.phase[var] else -var, None)


# ---------------------------------------------------------------------------
# Bit blasting

TRUE = 1  # literal of the reserved constant-true variable


class Blaster:
    def __init__(self):
        self.sat = SatSolver()
        self.sat.new_var()  # the first variable is TRUE
        self.sat.add_clause([TRUE])
        self.and_cache = {}
        self.xor_cache = {}

    def lit_and(self, a, b):
        if a == -TRUE or b == -TRUE:
            return -TRUE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == -b:
            return -TRUE
        key = (a, b) if a < b else (b, a)
        out = self.and_cache.get(key)
        if out is None:
            out = self.sat.new_var()
            # Gate clauses have distinct, non-complementary literals by
            # construction, so they skip add_clause's checks.
            if self.sat.ok:
                attach = self.sat._attach
                attach([-out, a])
                attach([-out, b])
                attach([out, -a, -b])
            self.and_cache[key] = out
        return out

    def lit_or(self, a, b):
        return -self.lit_and(-a, -b)

    def lit_xor(self, a, b):
        if a in (TRUE, -TRUE):
            return -b if a == TRUE else b
        if b in (TRUE, -TRUE):
            return -a if b == TRUE else a
        sign = 1
        if a < 0:
            a = -a
            sign = -sign
        if b < 0:
            b = -b
            sign = -sign
        if a == b:
            return -sign * TRUE
        key = (a, b) if a < b else (b, a)
        out = self.xor_cache.get(key)
        if out is None:
            out = self.sat.new_var()
            if self.sat.ok:
                attach = self.sat._attach
                attach([-out, a, b])
                attach([-out, -a, -b])
                attach([out, -a, b])
                attach([out, a, -b])
            self.xor_cache[key] = out
        return sign * out

    def lit_mux(self, sel, a, b):
        """sel ? a : b"""
        if sel == TRUE:
            return a
        if sel == -TRUE:
            return b
        if a == b:
            return a
        return self.lit_or(self.lit_and(sel, a), self.lit_and(-sel, b))

    # Vectors are LSB-first literal lists.
    def bv_const(self, value, width):
        return [TRUE if (value >> i) & 1 else -TRUE for i in range(width)]

    def bv_add(self, a, b, carry=-TRUE):
        out = []
        for x, y in zip(a, b):
            xy = self.lit_xor(x, y)
            out.append(self.lit_xor(xy, carry))
            carry = self.lit_or(self.lit_and(x, y), self.lit_and(carry, xy))
        return out, carry

    def bv_mul(self, a, b):
        width = len(a)
        if width > MAX_MUL_WIDTH:
            raise SmtInputError(f"bvmul width {width} is not in 1..{MAX_MUL_WIDTH}")
        acc = self.bv_const(0, width)
        for i, bit in enumerate(b):
            partial = [-TRUE] * i + [self.lit_and(bit, a[j]) for j in range(width - i)]
            acc, _ = self.bv_add(acc, partial)
        return acc

    def bv_shift(self, a, amount, left):
        width = len(a)
        acc = list(a)
        for k, bit in enumerate(amount):
            if (1 << k) >= width:
                # This amount bit alone shifts everything out.
                acc = [self.lit_mux(bit, -TRUE, lit) for lit in acc]
                continue
            step = 1 << k
            if left:
                shifted = [-TRUE] * step + acc[: width - step]
            else:
                shifted = acc[step:] + [-TRUE] * step
            acc = [self.lit_mux(bit, s, lit) for s, lit in zip(shifted, acc)]
        return acc

    def bv_ult(self, a, b):
        lt = -TRUE
        for x, y in zip(a, b):
            lt = self.lit_mux(self.lit_xor(x, y), y, lt)
        return lt

    def bv_eq(self, a, b):
        acc = TRUE
        for x, y in zip(a, b):
            acc = self.lit_and(acc, -self.lit_xor(x, y))
        return acc


# ---------------------------------------------------------------------------
# Terms

_DIGITS = {"#b": (re.compile(r"[01]+"), 2, 1), "#x": (re.compile(r"[0-9a-fA-F]+"), 16, 4)}


def numeral(text):
    """The value of an SMT-LIB numeral (ASCII digits), as every index and width is
    written; none that is accepted needs more than MAX_DIGITS digits."""
    if isinstance(text, str) and len(text) <= MAX_DIGITS and text.isascii() and text.isdigit():
        return decimal(text)
    raise SmtInputError(f"bad numeral {text!r}")


def decimal(text):
    """int(text, 10), which also reads ASCII digits past the limit on what `int`
    and `str` convert, `sys.get_int_max_str_digits()` (at least 640)."""
    if len(text) <= 640 or not (text.isascii() and text.isdigit()):
        return int(text, 10)
    half = len(text) // 2
    return decimal(text[:-half]) * 10**half + decimal(text[-half:])


def decimal_text(value):
    """str(value) for an int, also past the limit; like `decimal`, it converts
    a longer number as two halves."""
    if value.bit_length() <= 2000:  # at most 603 digits
        return str(value)
    if value < 0:
        return "-" + decimal_text(-value)
    half = value.bit_length() * 3 // 20  # about half its digits, as log10(2) > 0.3
    high, low = divmod(value, 10**half)
    return decimal_text(high) + decimal_text(low).zfill(half)


def literal(form):
    """The (value, width) of a bitvector literal, by the rules in the module docstring.

    None if `form` is not shaped as a literal; SmtInputError if it is but breaks a rule.
    """
    if isinstance(form, str):
        syntax = _DIGITS.get(form[:2])
        if syntax is None:
            return None
        digits, base, bits = syntax
        if not digits.fullmatch(form, 2):
            raise SmtInputError(f"bad literal {form!r}")
        return int(form[2:], base), bits * (len(form) - 2)
    if len(form) == 3 and form[0] == "_" and isinstance(form[1], str) and form[1][:2] == "bv":
        value, width = numeral(form[1][2:]), numeral(form[2])
        _check_width(width, "literal")
        if value >> width:
            raise SmtInputError(f"bad literal {form!r}: the value must fit its width")
        return value, width
    return None


# A blasted term is one SAT literal (an int) when Boolean and an LSB-first
# list of them when a bitvector; an operand sort is one of these types.
BOOL, BV, ANY = int, list, None


def _equal(bl, a, b):
    return -bl.lit_xor(a, b) if a.__class__ is BOOL else bl.bv_eq(a, b)


def _ite(bl, cond, a, b):
    if a.__class__ is BOOL:
        return bl.lit_mux(cond, a, b)
    return [bl.lit_mux(cond, x, y) for x, y in zip(a, b)]


def _extend(a, n, bit):
    _check_width(len(a) + n, "extension")
    return a + [bit] * n


def _extract(bl, a, hi, lo):
    if not lo <= hi < len(a):
        hi, lo = decimal_text(hi), decimal_text(lo)
        raise SmtInputError(f"extract [{hi}:{lo}] out of range of a {len(a)}-bit operand")
    return a[lo:hi + 1]


# operator: (operand sort, arity, bitvector operands share a width,
#            blast(blaster, *operands, *indices))
# An arity of None is one or more operands, each blasted with the ones before
# as soon as it is read; concat, whose blast is None, makes no gates and joins
# them all once they are read. ANY: the last two operands share a sort, and ite's
# condition before them is Boolean. An indexed operator `(_ name i ...)` is
# keyed by its name and number of indices.
_OPS = {
    "not": (BOOL, 1, False, lambda bl, a: -a),
    "and": (BOOL, None, False, Blaster.lit_and),
    "or": (BOOL, None, False, Blaster.lit_or),
    "xor": (BOOL, None, False, Blaster.lit_xor),
    "=": (ANY, 2, True, _equal),
    "ite": (ANY, 3, True, _ite),
    "bvnot": (BV, 1, False, lambda bl, a: [-lit for lit in a]),
    "bvneg": (BV, 1, False, lambda bl, a: bl.bv_add([-x for x in a], [-TRUE] * len(a), TRUE)[0]),
    "bvand": (BV, None, True, lambda bl, a, b: list(map(bl.lit_and, a, b))),
    "bvor": (BV, None, True, lambda bl, a, b: list(map(bl.lit_or, a, b))),
    "bvxor": (BV, None, True, lambda bl, a, b: list(map(bl.lit_xor, a, b))),
    "bvadd": (BV, None, True, lambda bl, a, b: bl.bv_add(a, b)[0]),
    "bvsub": (BV, None, True, lambda bl, a, b: bl.bv_add(a, [-lit for lit in b], carry=TRUE)[0]),
    "bvmul": (BV, None, True, Blaster.bv_mul),
    "bvshl": (BV, 2, True, lambda bl, a, b: bl.bv_shift(a, b, left=True)),
    "bvlshr": (BV, 2, True, lambda bl, a, b: bl.bv_shift(a, b, left=False)),
    "bvult": (BV, 2, True, Blaster.bv_ult),
    "concat": (BV, None, False, None),
    ("extract", 2): (BV, 1, False, _extract),
    ("zero_extend", 1): (BV, 1, False, lambda bl, a, n: _extend(a, n, -TRUE)),
    ("sign_extend", 1): (BV, 1, False, lambda bl, a, n: _extend(a, n, a[-1])),
}


# ---------------------------------------------------------------------------
# Script interpretation


_EXTENDS = frozenset(("declare-const", "declare-fun", "assert", "check-sat"))  # rewind first


def _statistics(sat):
    """The get-info :all-statistics line of `sat` as it is now."""
    return (
        f"(:decisions {sat.decisions} :conflicts {sat.conflicts}"
        f" :propagations {sat.propagations} :vars {sat.nvars}"
        f" :clauses {len(sat.clauses)})"
    )


class Interpreter:
    """Runs commands, printing each response to `out`.

    `deadline` is a `time.monotonic()` time. Once it has passed, blasting
    stops at the next term and search at the next DEADLINE_CONFLICTS-th
    conflict, the command is dropped, `unknown` is printed, and `expired`
    is set; `command` then acts as on `exit`.

    check-sat searches the blasted formula itself, after taking its `mark`.
    Before the next declaration, assertion or check-sat, the formula is
    rewound to that mark, so from then on the interpreter holds what a
    fresh one would after the same commands.
    """

    def __init__(self, out, deadline=float("inf")):
        self.out = out
        self.deadline = deadline
        self.expired = False
        self.reset()

    def reset(self):
        self.blaster = Blaster()
        self.symbols = {}  # name -> vector
        self.definitions = {}  # name -> (width, body term), blasted when first read
        self.term_cache = {"true": TRUE, "false": -TRUE}  # term -> its blasted value
        self.last_model = None
        self.mark = None  # taken by the last check-sat; None once rewound to
        self.statistics = None  # the get-info line of the last check-sat's search

    def run(self, forms):
        for form in forms:
            if not self.command(form):
                break
        self.out.flush()

    def command(self, form):
        """Run one command; False once it is `exit` or the deadline has passed."""
        try:
            return self._command(form)
        except RecursionError:
            # `term`, and the repr of a form in an error message, recurse
            # once per nesting level.
            raise SmtInputError("term nested too deeply") from None
        except DeadlinePassed:
            self.expired = True
            print("unknown", file=self.out)
            return False

    def _command(self, form):
        if not isinstance(form, tuple) or not form:
            raise SmtInputError(f"bad command {form!r}")
        head = form[0]
        if self.mark is not None and head in _EXTENDS:
            self.blaster.sat.rewind(self.mark)
            self.mark = None
        if head in ("set-option", "set-logic", "set-info"):
            pass
        elif head == "echo":
            if len(form) != 2 or not isinstance(form[1], str):
                raise SmtInputError("echo takes one string")
            print(form[1].strip('"'), file=self.out)
        elif head in ("declare-const", "declare-fun"):
            self.declare(form)
        elif head == "define-fun":
            self.define(form)
        elif head == "assert":
            if len(form) != 2:
                raise SmtInputError("assert takes one term")
            lit = self.term(form[1])
            if lit.__class__ is not BOOL:
                raise SmtInputError(f"assert takes a Boolean term, not {form[1]!r}")
            self.blaster.sat.add_clause([lit])
        elif head == "check-sat":
            # The formula was rewound above if an earlier search changed
            # it, so the answer is the one a fresh process would give.
            sat = self.blaster.sat
            self.mark = sat.mark()
            self.last_model = sat.solve(self.deadline)
            self.statistics = _statistics(sat)
            print("sat" if self.last_model is not None else "unsat", file=self.out)
        elif head == "get-value":
            self.get_value(form)
        elif head == "get-info":
            if form[1:] != (":all-statistics",):
                raise SmtInputError("get-info supports only :all-statistics")
            print(self.statistics or _statistics(self.blaster.sat), file=self.out)
        elif head == "reset":
            self.reset()
        elif head == "exit":
            return False
        else:
            raise SmtInputError(f"unsupported command {head!r}")
        return True

    def declare(self, form):
        if form[0] == "declare-fun" and (len(form) != 4 or form[2] != ()):
            raise SmtInputError("only zero-arity declare-fun is supported")
        if form[0] == "declare-const" and len(form) != 3:
            raise SmtInputError("declare-const takes a name and a sort")
        name, sort = form[1], form[-1]
        self.symbols[name] = [self.blaster.sat.new_var() for _ in range(self._sort(name, sort))]
        self.last_model = None  # it has no value for the new symbol

    def define(self, form):
        """`(define-fun name () (_ BitVec w) body)`: store the body, unblasted.

        The body is blasted the first time a term reads the name, so at the
        point of the depth-first walk where the spelled-out body would have
        been: the gates, variable numbers and clauses are those of the
        script with every use of the name spelled out.
        """
        if len(form) != 5 or form[2] != ():
            raise SmtInputError("only zero-arity define-fun is supported")
        name, sort, body = form[1], form[3], form[4]
        width = self._sort(name, sort)
        stack = [body]  # the terms of `body` still to check
        while stack:
            term = stack.pop()
            if term.__class__ is str:
                if not (
                    term in self.symbols or term in self.definitions
                    or term in ("true", "false") or literal(term) is not None
                ):
                    raise SmtInputError(f"unknown symbol {term!r} in the body of {name!r}")
            elif term and term[0] != "_":
                stack += term[1:]  # an operator's operands; (_ ...) is a literal
        self.definitions[name] = (width, body)

    def _sort(self, name, sort):
        """The width of a new symbol `name` of `sort`, which must be (_ BitVec w)."""
        if not isinstance(name, str):
            raise SmtInputError(f"bad symbol {name!r}")
        if not (isinstance(sort, tuple) and len(sort) == 3 and sort[:2] == ("_", "BitVec")):
            raise SmtInputError(f"unsupported sort {sort!r}")
        width = numeral(sort[2])
        _check_width(width, "BitVec")
        if name in self.symbols or name in self.definitions:
            raise SmtInputError(f"symbol {name!r} redeclared")
        return width

    def get_value(self, form):
        if self.last_model is None:
            raise SmtInputError("get-value without a preceding sat answer")
        if len(form) != 2 or not isinstance(form[1], tuple):
            raise SmtInputError("get-value takes a parenthesized symbol list")
        model = self.last_model
        parts = []
        for sym in form[1]:
            vec = self.symbols.get(sym)
            if vec is None:
                raise SmtInputError(f"unknown symbol {sym!r} in get-value")
            # A symbol's bits are variables of their own, so positive literals.
            bits = "".join("1" if model[lit] == 1 else "0" for lit in reversed(vec))
            name = sym if _SIMPLE_SYMBOL.fullmatch(sym) else f"|{sym}|"
            parts.append(f"({name} #b{bits})")
        print("(" + " ".join(parts) + ")", file=self.out)

    # -- terms ---------------------------------------------------------------
    def term(self, term):
        value = self.term_cache.get(term)
        if value is None:
            value = self.term_cache[term] = self._term(term)
        return value

    def _term(self, term):
        """Blast `term`, checked against `_OPS`; `term_cache` holds `true` and `false`."""
        if time.monotonic() >= self.deadline:
            raise DeadlinePassed
        bl = self.blaster
        if term.__class__ is str or term and term[0] == "_":
            read = literal(term)
            if read is not None:
                return bl.bv_const(*read)
            vec = self.symbols.get(term)
            if vec is not None:
                return vec
            defined = self.definitions.get(term)
            if defined is None:
                raise SmtInputError(f"unknown symbol or constant {term!r}")
            width, body = defined
            vec = self.term(body)
            if vec.__class__ is not BV or len(vec) != width:
                raise SmtInputError(f"the body of {term!r} is not a {width}-bit bitvector")
            return vec
        if not term:
            raise SmtInputError("empty term")
        head = term[0]
        entry = _OPS.get(head)
        indices = ()
        if entry is None and head.__class__ is tuple and len(head) > 1 and head[0] == "_":
            entry = _OPS.get((head[1], len(head) - 2))
            indices = [*map(numeral, head[2:])]
        if entry is None:
            raise SmtInputError(f"unsupported operator {head!r}")
        sort, arity, same_width, blast = entry
        operands = term[1:]
        if len(operands) != arity and (arity or not operands):
            raise SmtInputError(f"{head!r} takes {arity or '1+'} operand(s), not {len(operands)}")
        if arity is None:
            acc = None
            parts = []  # a concat's operands, most significant first
            for operand in operands:
                value = self.term(operand)
                if value.__class__ is not sort:
                    raise SmtInputError(f"an operand of the wrong sort in {term!r}")
                if same_width and acc is not None and len(value) != len(acc):
                    raise SmtInputError(f"width mismatch ({len(acc)} vs {len(value)}) in {term!r}")
                if blast is None:
                    parts.append(value)
                else:
                    acc = value if acc is None else blast(bl, acc, value)
            if blast is None:
                _check_width(sum(map(len, parts)), "concat")
                return [lit for part in reversed(parts) for lit in part]
            return acc
        values = [*map(self.term, operands)]
        if sort is ANY:
            sort = values[-1].__class__
            wrong = values[-2].__class__ is not sort or (
                arity > 2 and values[0].__class__ is not BOOL
            )
        else:
            wrong = any(value.__class__ is not sort for value in values)
        if wrong:
            raise SmtInputError(f"an operand of the wrong sort in {term!r}")
        if same_width and sort is BV and len(values[-2]) != len(values[-1]):
            raise SmtInputError(
                f"width mismatch ({len(values[-2])} vs {len(values[-1])}) in {term!r}"
            )
        return blast(bl, *values, *indices)


def serve(lines, interp):
    """Run a stream of commands through `interp`, each top-level form as soon as it is complete.

    `lines` is any iterable of text lines, such as a pipe; every response is
    flushed at once, so a client may wait for it before writing on.
    """
    out = interp.out
    tokens = []  # of the form still open at the end of the last line
    depth = 0  # its open brackets
    pending = ""  # lines from one with an unterminated literal on
    for line in lines:
        try:
            new = tokenize(pending + line)
        except SmtInputError:
            pending += line  # the literal may close on a later line
            continue
        pending = ""
        end = 0  # tokens[:end] are complete forms
        if depth + new.count("(") - new.count(")") > 0:
            for i, tok in enumerate(new, len(tokens)):
                depth += (tok == "(") - (tok == ")")
                if depth <= 0:
                    end = i + 1
        else:
            depth = 0
            end = len(tokens) + len(new)
        tokens += new
        pos = 0
        while pos < end:
            form, pos = read_form(tokens, pos)
            if not interp.command(form):
                return
            out.flush()
        del tokens[:end]
    if pending:
        tokenize(pending)
    if tokens:
        read_form(tokens, 0)


def answer(interp, run):
    """Call `run()`, which feeds commands to `interp`, with the cyclic
    collector paused, and restored as found (see the module docstring);
    returns the exit code, 0, or 1 after an input error, which prints
    `(error "...")` to `interp.out`.

    `main` answers its input this way, and `synthesis` a one-shot script
    in its own process, by serving the script's lines as `main` serves
    stdin: `interp` then prints what a fresh process would print for the
    same lines, unless a term is nested so deeply that the caller's own
    frames decide whether it reaches Python's recursion limit.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        run()
    except SmtInputError as exc:
        print(f'(error "{exc}")', file=interp.out)
        return 1
    finally:
        if collecting:
            gc.enable()
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    interp = Interpreter(sys.stdout)
    if not argv:
        return answer(interp, lambda: serve(sys.stdin, interp))
    with open(argv[0], "r", encoding="utf-8") as fh:
        text = fh.read()
    return answer(interp, lambda: interp.run(parse_forms(tokenize(text))))


if __name__ == "__main__":
    sys.exit(main())

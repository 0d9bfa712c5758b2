"""Malformed input is a user error: the readers raise only TechmapError.

`verilog.parse` with `verilog.elaborate`, `ir.from_json` and
`library.load_library` read text from outside the program. Whatever the
text, they either return or raise a TechmapError subclass, which the CLI
reports as a user error (exit 1) with a location; any other exception would
be an internal error (exit 2).
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from techmap import ir, library, verilog
from techmap.errors import ParseError, TechmapError

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)

VERILOG_TOKENS = (
    "module", "endmodule", "input", "output", "wire", "assign", "parameter",
    "a", "b", "y", "w", "m", "0", "1", "3", "4'b1010", "2'h3", "8'd300",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", "=", "?", "~", "&", "|", "^",
    "+", "-", "*", "<<", ">>", "==", "!=", "<", "'", "//", "/*", "*/",
)
token_soup = st.lists(st.sampled_from(VERILOG_TOKENS), max_size=40).map(" ".join)


def module(body):
    return (
        "module m(input [3:0] a, input b, output [3:0] y);\n"
        f"  wire [3:0] w;\n  {body}\nendmodule\n"
    )


# More digits than `int` and `str` convert by default.
NINES = "9" * 5000

verilog_text = st.one_of(TEXT, token_soup, token_soup.map(module))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.sampled_from(
        ["", "a", "not", "var", "and", "extract", "y", "0", "1", "lut2.json"]
    ),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["op", "name", "width", "value", "args", "hi", "lo", "inputs", "outputs",
             "params", "default", "expr", "primitives", "semantics", "descriptor",
             "primitive", "roles"]
        ),
        kids,
        max_size=5,
    ),
    max_leaves=20,
)
json_text = st.one_of(TEXT, json_values.map(json.dumps))


def nested(depth):
    return '{"op": "not", "args": [' * depth + '{"op": "var", "name": "a", "width": 1}' + "]}" * depth


DEEP_DESIGN = (
    '{"name": "d", "inputs": [{"name": "a", "width": 1}], '
    f'"outputs": [{{"name": "y", "expr": {nested(800)}}}]}}'
)


def elaborate_both(text):
    try:
        verilog.elaborate(verilog.parse(text, filename="m.v")).bind({})
    except ParseError as exc:
        # A location names a line of the text and a column at most one past its end.
        if str(exc.where).startswith("m.v:"):
            _, line, col = exc.where.split(":")
            lines = text.split("\n")
            assert 1 <= int(line) <= len(lines) and 1 <= int(col) <= len(lines[int(line) - 1]) + 1
    except TechmapError:
        pass


@settings(max_examples=300, deadline=None)
@given(verilog_text)
@example(module("assign y = " + " ^ ".join(["a"] * 1000) + ";"))
@example(module("assign y = " + "(" * 3000 + "a" + ")" * 3000 + ";"))
@example(module("assign y = " + "~" * 3000 + "a;"))
@example(module(f"wire [{NINES}:0] v;"))
@example(module(f"assign y = {{{NINES}{{a}}}};"))
@example(module(f"assign y[{NINES}] = b;"))
@example(module(f"assign y = a[{NINES}:0];"))
@example(module(f"assign y = {NINES}'h1;"))
@example(module(f"assign y = a[{NINES}];"))
def test_verilog_raises_only_techmap_errors(text):
    elaborate_both(text)


@settings(max_examples=300, deadline=None)
@given(json_text)
@example(DEEP_DESIGN)
@example(nested(800))
def test_from_json_raises_only_techmap_errors(text):
    try:
        ir.from_json(text)
    except TechmapError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["manifest.json", "lut2.json", "carry1.desc.json"]), json_text)
@example("lut2.json", DEEP_DESIGN)
@example("manifest.json", '{"primitives": ' + "[" * 3000 + "]" * 3000 + "}")
def test_load_library_raises_only_techmap_errors(name, text):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, "lib")
        shutil.copytree(library.data_path("library"), root)
        (root / name).write_text(text, encoding="utf-8")
        try:
            library.load_library(root)
        except TechmapError:
            pass

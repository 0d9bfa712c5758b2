import json

import pytest

from techmap import library, verilog
from techmap.errors import DuplicatePrimitive, ParseError, ValidationError
from techmap.library import Library, data_path, default_library, load_library, save_library
from techmap.semantics import truth_table


def test_default_library_contents(lib):
    assert sorted(lib.primitives) == ["CARRY1", "LUT2", "LUT4", "LUT6", "MULT8X8"]
    assert sorted(lib.descriptors) == ["CARRY1", "MULT8X8"]
    assert lib.descriptors["CARRY1"] == {
        "sum": "S", "cout": "COUT", "cin": "CIN", "operands": ["A", "B"]
    }


def test_save_load_is_byte_identical(lib, tmp_path):
    save_library(lib, tmp_path)
    src = data_path("library")
    for name in sorted(p.name for p in src.iterdir()):
        assert (tmp_path / name).read_bytes() == (src / name).read_bytes()
    again = load_library(tmp_path)
    assert again.primitives == lib.primitives
    assert again.descriptors == lib.descriptors


def test_save_names_files_after_primitives_in_library_order(lib, tmp_path):
    picked = Library(
        {name: lib.primitives[name] for name in ("MULT8X8", "LUT2")},
        {"MULT8X8": lib.descriptors["MULT8X8"]},
    )
    save_library(picked, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text())["primitives"] == [
        {"semantics": "mult8x8.json", "descriptor": "mult8x8.desc.json"},
        {"semantics": "lut2.json"},
    ]
    assert load_library(tmp_path) == picked


def test_duplicate_primitive_rejected(lib, tmp_path):
    save_library(lib, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["primitives"].append({"semantics": "lut2.json"})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DuplicatePrimitive):
        load_library(tmp_path)


def test_descriptor_must_reference_existing_ports(lib, tmp_path):
    save_library(lib, tmp_path)
    desc = json.loads((tmp_path / "carry1.desc.json").read_text())
    desc["roles"]["cin"] = "NOPE"
    (tmp_path / "carry1.desc.json").write_text(json.dumps(desc))
    with pytest.raises(ValidationError):
        load_library(tmp_path)


def test_descriptor_for_unknown_primitive():
    with pytest.raises(ValidationError):
        Library({}, {"GHOST": {"sum": "S"}})


def test_malformed_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text('{"primitives": "nope"}')
    with pytest.raises(ParseError):
        load_library(tmp_path)


def test_shipped_library_matches_reimported_models(lib):
    for model_file, name in [
        ("lut2.v", "LUT2"),
        ("lut4.v", "LUT4"),
        ("lut6.v", "LUT6"),
        ("carry1.v", "CARRY1"),
        ("mult8x8.v", "MULT8X8"),
    ]:
        source = data_path("models", model_file).read_text()
        assert verilog.import_primitive(source) == lib.primitives[name]


def test_shipped_lut2_passes_truth_table_oracle(lib):
    for init in range(16):
        rows = truth_table(lib.primitives["LUT2"].bind({"INIT": init}))
        for (a, b), (z,) in rows:
            assert z == (init >> (a + 2 * b)) & 1

"""Primitive library persistence.

A library directory holds one module JSON per primitive (an `ir.Design`
with parameters, written by `ir.to_json`), optional template descriptor
files declaring pin roles, and a manifest listing members. The package
ships a default corpus (LUT2/LUT4/LUT6, a carry cell, an 8x8 multiplier)
generated by the importer from the reference Verilog models under
data/models.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import ir
from .errors import DuplicatePrimitive, ParseError, ValidationError

MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Library:
    primitives: dict  # name -> ir.Design, its parameters kept
    descriptors: dict = field(default_factory=dict)  # name -> roles dict

    def __post_init__(self):
        for name, roles in self.descriptors.items():
            sem = self.primitives.get(name)
            if sem is None:
                raise ValidationError(f"descriptor for unknown primitive '{name}'")
            ports = set(sem.input_widths) | set(sem.output_widths)
            named = []
            for role, value in roles.items():
                named.extend(value if isinstance(value, list) else [value])
            for port in named:
                if not isinstance(port, str) or port not in ports:
                    raise ValidationError(
                        f"descriptor for '{name}' references missing port '{port}'"
                    )


def read_text(path):
    """The text of the UTF-8 file at `path`; other bytes raise a ParseError there."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text at byte {exc.start}", str(path)) from None


def _read_json(path):
    return ir.read_json(read_text(path), str(path))


def load_library(path):
    """Load a library directory via its manifest."""
    root = Path(path)
    manifest = _read_json(root / MANIFEST)
    entries = manifest.get("primitives") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ParseError("manifest needs a 'primitives' array", str(root / MANIFEST))
    primitives = {}
    descriptors = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("semantics"), str):
            raise ParseError(f"primitives[{i}] needs a 'semantics' file", str(root / MANIFEST))
        sem_file = entry["semantics"]
        sem = ir.design_from_dict(_read_json(root / sem_file), where=sem_file)
        if sem.name in primitives:
            raise DuplicatePrimitive(sem.name)
        primitives[sem.name] = sem
        desc_file = entry.get("descriptor")
        if desc_file is not None:
            if not isinstance(desc_file, str):
                raise ParseError(f"primitives[{i}] needs a 'descriptor' file", str(root / MANIFEST))
            desc = _read_json(root / desc_file)
            if not isinstance(desc, dict):
                raise ParseError("expected an object", desc_file)
            if desc.get("primitive") != sem.name:
                raise ValidationError(
                    f"descriptor {desc_file} names '{desc.get('primitive')}', not '{sem.name}'"
                )
            roles = desc.get("roles")
            if not isinstance(roles, dict):
                raise ParseError("descriptor needs a 'roles' object", desc_file)
            descriptors[sem.name] = roles
    return Library(primitives, descriptors)


def _descriptor_json(name, roles):
    return json.dumps({"primitive": name, "roles": roles}, indent=2) + "\n"


def save_library(library, path):
    """Write a library directory, the primitives in library order and each
    file named after its primitive; the inverse of load_library."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, primitive in library.primitives.items():
        entry = {"semantics": f"{name.lower()}.json"}
        with open(root / entry["semantics"], "w", encoding="utf-8") as fh:
            fh.write(ir.to_json(primitive))
        if name in library.descriptors:
            entry["descriptor"] = f"{name.lower()}.desc.json"
            with open(root / entry["descriptor"], "w", encoding="utf-8") as fh:
                fh.write(_descriptor_json(name, library.descriptors[name]))
        entries.append(entry)
    with open(root / MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"primitives": entries}, indent=2) + "\n")


def data_path(*parts):
    """Path to packaged data (models, default library, sample designs)."""
    return Path(str(importlib.resources.files("techmap"))) / "data" / Path(*parts)


def default_library():
    return load_library(data_path("library"))

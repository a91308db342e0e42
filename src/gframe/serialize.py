"""JSON schemas for every value that crosses the CLI boundary.

Complex numbers are two-element [re, im] arrays of doubles.  Round trips are
bit exact: floats serialize with Python's shortest round-trip repr.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from .algebra import MATRIX, AlgebraDescriptor, AlgebraElement
from .errors import InputError
from .frames import GFrameSystem
from .hilbert import AdjointableOperator, ModuleVector
from .measure import MeasureSpace


def _complex_out(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_in(value) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InputError(f"complex value must be a [re, im] pair, got {value!r}")
    re, im = float(value[0]), float(value[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InputError(f"complex value must be finite, got {value!r}")
    return complex(re, im)


def element_to_dict(a: AlgebraElement) -> dict:
    return {
        "kind": a.descriptor.kind,
        "dim": a.descriptor.dim,
        "entries": [_complex_out(z) for z in a.data.reshape(-1)],
    }


def element_from_dict(doc: Mapping) -> AlgebraElement:
    try:
        desc = AlgebraDescriptor(doc["kind"], int(doc["dim"]))
        entries = [_complex_in(z) for z in doc["entries"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad algebra element document: {exc}") from exc
    if len(entries) != desc.entry_count:
        raise InputError(
            f"algebra element needs {desc.entry_count} entries, got {len(entries)}")
    arr = np.asarray(entries, dtype=np.complex128)
    if desc.kind == MATRIX:
        arr = arr.reshape(desc.dim, desc.dim)
    return AlgebraElement(desc, arr)


def vector_to_dict(x: ModuleVector) -> dict:
    return {
        "rank": x.rank,
        "coords": [element_to_dict(x.element(i)) for i in range(x.rank)],
    }


def vector_from_dict(doc: Mapping) -> ModuleVector:
    coords = [element_from_dict(c) for c in doc["coords"]]
    if int(doc.get("rank", len(coords))) != len(coords):
        raise InputError("vector rank does not match coordinate count")
    return ModuleVector.from_elements(coords)


def operator_to_dict(t: AdjointableOperator) -> dict:
    return {
        "in_rank": t.in_rank,
        "out_rank": t.out_rank,
        "blocks": [
            [element_to_dict(t.block(i, j)) for j in range(t.out_rank)]
            for i in range(t.in_rank)
        ],
    }


def operator_from_dict(doc: Mapping) -> AdjointableOperator:
    try:
        rows = doc["blocks"]
        n, m = int(doc["in_rank"]), int(doc["out_rank"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad operator document: {exc}") from exc
    if len(rows) != n or any(len(row) != m for row in rows):
        raise InputError("operator block table does not match declared ranks")
    table = [[element_from_dict(entry) for entry in row] for row in rows]
    return AdjointableOperator.from_blocks(table)


def measure_to_dict(m: MeasureSpace) -> dict:
    return {"atoms": [{"label": label, "weight": weight} for label, weight in m.atoms]}


def measure_from_dict(doc: Mapping) -> MeasureSpace:
    try:
        return MeasureSpace(tuple((atom["label"], atom["weight"]) for atom in doc["atoms"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad measure document: {exc}") from exc


def system_to_dict(system: GFrameSystem) -> dict:
    return {
        "algebra": {"kind": system.descriptor.kind, "dim": system.descriptor.dim},
        "module_rank": system.module_rank,
        "measure": measure_to_dict(system.measure),
        "family": {label: operator_to_dict(op) for label, op in system.family.items()},
        "controls": {
            "C": operator_to_dict(system.controls.C),
            "Cp": operator_to_dict(system.controls.Cp),
        },
    }


def system_from_dict(doc: Mapping) -> GFrameSystem:
    try:
        measure = measure_from_dict(doc["measure"])
        family = {label: operator_from_dict(op) for label, op in doc["family"].items()}
        c = operator_from_dict(doc["controls"]["C"])
        cp = operator_from_dict(doc["controls"]["Cp"])
        declared_rank = int(doc["module_rank"])
        algebra = doc["algebra"]
        desc = AlgebraDescriptor(algebra["kind"], int(algebra["dim"]))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad system document: {exc}") from exc
    system = GFrameSystem(measure, family, c, cp)
    if system.module_rank != declared_rank:
        raise InputError("declared module_rank does not match the family")
    if system.descriptor != desc:
        raise InputError("declared algebra does not match the family")
    return system


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_system(system: GFrameSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(system_to_dict(system)))


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text") from exc


def load_system(path: str) -> GFrameSystem:
    return system_from_dict(load_json(path))

"""JSON schemas for every value that crosses the CLI boundary.

Complex numbers are two-element [re, im] arrays of doubles.  Round trips are
bit exact: floats serialize with Python's shortest round-trip repr.  The
pairs are a float64 view of the complex blocks: an operator is encoded by
one array conversion, and all operators of a system file are decoded by
one.  Documents are written as key-sorted JSON on one line, which CPython's
C encoder produces.
"""

from __future__ import annotations

import json
import numbers
from typing import Mapping

import numpy as np

from .algebra import AlgebraDescriptor, AlgebraElement
from .errors import InputError
from .frames import GFrameSystem
from .hilbert import AdjointableOperator, ModuleVector, _coord_shape
from .measure import MeasureSpace


def _parse_int(value, what: str) -> int:
    """A JSON integer, or a float with an integral value; never a string or a boolean."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {value!r}")


def _elements_to_docs(descriptor: AlgebraDescriptor, data: np.ndarray) -> list:
    """One element document per coordinate block of ``data``, in row-major order.

    The [re, im] pairs are the float64 view of the complex entries, converted
    to lists in one call.
    """
    pairs = np.ascontiguousarray(data, dtype=np.complex128).view(np.float64)
    return [{"kind": descriptor.kind, "dim": descriptor.dim, "entries": entries}
            for entries in pairs.reshape(-1, descriptor.entry_count, 2).tolist()]


def _elements_from_docs(docs: list) -> tuple:
    """Decode a list of element documents into their descriptor and stacked data.

    The data has shape (len(docs),) + the coordinate shape.  All entries go
    through one array conversion; the elements must share one kind and
    dimension, and every entry must be a finite [re, im] pair of numbers.
    """
    if not docs:
        raise InputError("empty list of algebra elements")
    try:
        # The type keeps a boolean dim apart from the integer it equals.
        kinds = {(doc["kind"], doc["dim"], type(doc["dim"])) for doc in docs}
        entries = [doc["entries"] for doc in docs]
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad algebra element document: {exc}") from exc
    descs = {AlgebraDescriptor(kind, _parse_int(dim, "algebra dim")) for kind, dim, _ in kinds}
    if len(descs) != 1:
        raise InputError("the elements of one operator, vector or system must share one kind and dim")
    desc = descs.pop()
    try:
        pairs = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"complex entries must be [re, im] pairs of numbers: {exc}") from exc
    want = (len(docs), desc.entry_count, 2)
    if pairs.shape != want:
        raise InputError(
            f"each {desc.kind} element of dim {desc.dim} needs {desc.entry_count} [re, im] "
            f"entries: expected shape {want}, got {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise InputError("complex entries must be finite numbers")
    return desc, pairs.view(np.complex128).reshape((len(docs),) + _coord_shape(desc))


def element_to_dict(a: AlgebraElement) -> dict:
    return _elements_to_docs(a.descriptor, a.data)[0]


def element_from_dict(doc: Mapping) -> AlgebraElement:
    desc, data = _elements_from_docs([doc])
    return AlgebraElement(desc, data[0])


def vector_to_dict(x: ModuleVector) -> dict:
    return {"rank": x.rank, "coords": _elements_to_docs(x.descriptor, x.coords)}


def vector_from_dict(doc: Mapping) -> ModuleVector:
    try:
        coords = list(doc["coords"])
        rank = _parse_int(doc.get("rank", len(coords)), "vector rank")
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"bad vector document: {exc}") from exc
    if rank != len(coords):
        raise InputError("vector rank does not match coordinate count")
    return ModuleVector(*_elements_from_docs(coords))


def operator_to_dict(t: AdjointableOperator) -> dict:
    n, m = t.in_rank, t.out_rank
    docs = _elements_to_docs(t.descriptor, t.blocks)
    return {"in_rank": n, "out_rank": m, "blocks": [docs[i * m:(i + 1) * m] for i in range(n)]}


def _operators_from_docs(docs: list) -> list:
    """Decode operator documents together, with one array conversion for all their blocks."""
    shapes, blocks = [], []
    for doc in docs:
        try:
            rows = doc["blocks"]
            n = _parse_int(doc["in_rank"], "operator in_rank")
            m = _parse_int(doc["out_rank"], "operator out_rank")
            if n < 1 or m < 1:
                raise InputError("operator ranks must be >= 1")
            if len(rows) != n or any(len(row) != m for row in rows):
                raise InputError("operator block table does not match declared ranks")
            blocks.extend(block for row in rows for block in row)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad operator document: {exc}") from exc
        shapes.append((n, m))
    desc, data = _elements_from_docs(blocks)
    cuts = np.cumsum([n * m for n, m in shapes])[:-1]
    return [AdjointableOperator(desc, part.reshape(shape + data.shape[1:]))
            for shape, part in zip(shapes, np.split(data, cuts))]


def operator_from_dict(doc: Mapping) -> AdjointableOperator:
    return _operators_from_docs([doc])[0]


def measure_to_dict(m: MeasureSpace) -> dict:
    return {"atoms": [{"label": label, "weight": weight} for label, weight in m.atoms]}


def measure_from_dict(doc: Mapping) -> MeasureSpace:
    try:
        atoms = tuple((atom["label"], atom["weight"]) for atom in doc["atoms"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad measure document: {exc}") from exc
    for label, weight in atoms:
        if isinstance(weight, bool) or not isinstance(weight, numbers.Real):
            raise InputError(f"weight of atom {label!r} must be a number, got {weight!r}")
    return MeasureSpace(atoms)


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
        family_docs = doc["family"]
        if not isinstance(family_docs, dict):
            raise InputError("system family must be a JSON object of operators by atom label")
        labels = list(family_docs)
        *members, c, cp = _operators_from_docs(
            [family_docs[label] for label in labels] + [doc["controls"]["C"], doc["controls"]["Cp"]])
        family = dict(zip(labels, members))
        declared_rank = _parse_int(doc["module_rank"], "module_rank")
        algebra = doc["algebra"]
        desc = AlgebraDescriptor(algebra["kind"], _parse_int(algebra["dim"], "algebra dim"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad system document: {exc}") from exc
    system = GFrameSystem(measure, family, c, cp)
    if system.module_rank != declared_rank:
        raise InputError("declared module_rank does not match the family")
    if system.descriptor != desc:
        raise InputError("declared algebra does not match the family")
    return system


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


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
        except (ValueError, RecursionError) as exc:
            # An integer literal past the interpreter's digit limit, or nesting
            # deeper than the parser's recursion limit.
            raise InputError(f"{path}: unreadable JSON: {exc}") from exc


def load_system(path: str) -> GFrameSystem:
    return system_from_dict(load_json(path))

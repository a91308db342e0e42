"""JSON schemas for every value that crosses the CLI boundary.

Complex numbers are two-element [re, im] arrays of JSON numbers; strings and
booleans are refused.  Round trips are bit exact: floats serialize with
Python's shortest round-trip repr.  The pairs are a float64 view of the
complex blocks.  A system file's family is decoded and encoded as one stack
(``frames.Family``): decoding reads and checks the documents in whole-list
passes with no Python loop over them, all blocks of a file go through one
array conversion, and one index gather places the members' blocks side by
side as the stacked operator, with no operator per atom.  A
family is encoded by one conversion of its stack, cut into per-label
operator documents.  Documents are written by orjson as compact, key-sorted
ASCII JSON on one line; a document orjson cannot write that way (a non-finite
float, which it would write as null; non-ASCII text; a lone surrogate; an
integer past 64 bits; a non-string key; a numpy scalar) is written by
``json`` as before.  Every JSON input is parsed by orjson, whose floats are
bit-identical to ``json``'s; a document orjson refuses (NaN, Infinity, a
number past a double, a lone surrogate escape, malformed text) is parsed
again by ``json``, which reads it or reports it as before.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
import reprlib
from contextlib import contextmanager
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Mapping

import numpy as np
import orjson

from .algebra import AlgebraDescriptor, _are_numbers
from .errors import InputError
from .frames import Family, GFrameSystem
from .hilbert import AdjointableOperator, ModuleVector
from .measure import MeasureSpace

_flatten = chain.from_iterable


def _parse_int(value, what: str) -> int:
    """A JSON integer, or a float with an integral value; never a string or a boolean."""
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InputError(f"{what} must be an integer, got {reprlib.repr(value)}")


def _parse_ints(values: list, what: str) -> list:
    """``_parse_int`` of each value; a list of JSON integers is returned as it is."""
    if set(map(type, values)) <= {int}:
        return values
    return [_parse_int(value, what) for value in values]


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

    The data has shape (len(docs),) + the element shape.  Every step is a
    whole-list pass: the fields are read with ``itemgetter``, the descriptor
    is parsed once per distinct (kind, dim), the entry and pair counts are
    compared as lists of lengths, and all entries go through one type check
    and one ``np.fromiter``.  The elements must share one kind and dimension,
    and every entry must be a finite [re, im] pair of JSON numbers: strings
    and booleans are rejected.
    """
    if not docs:
        raise InputError("empty list of algebra elements")
    try:
        kinds = list(map(itemgetter("kind"), docs))
        dims = list(map(itemgetter("dim"), docs))
        entries = list(map(itemgetter("entries"), docs))
        # The type keeps a boolean dim apart from the integer it equals.
        keys = set(zip(kinds, dims, map(type, dims)))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad algebra element document: {exc}") from exc
    descs = {AlgebraDescriptor(kind, _parse_int(dim, "algebra dim")) for kind, dim, _ in keys}
    if len(descs) != 1:
        raise InputError("the elements of one operator, vector or system must share one kind and dim")
    desc = descs.pop()
    count = desc.entry_count
    try:
        lengths = list(map(len, entries))
        if lengths != [count] * len(docs):
            got = next(length for length in lengths if length != count)
            raise InputError(f"each {desc.kind} element of dim {desc.dim} needs {count} "
                             f"[re, im] entries, got {got}")
        pairs = list(_flatten(entries))
        if list(map(len, pairs)) != [2] * len(pairs) or not _are_numbers(_flatten(pairs)):
            raise InputError("complex entries must be [re, im] pairs of numbers")
        values = np.fromiter(_flatten(pairs), np.float64, count=2 * len(pairs))
    except (TypeError, OverflowError) as exc:
        raise InputError(f"complex entries must be [re, im] pairs of numbers: {exc}") from exc
    if not np.isfinite(values).all():
        raise InputError("complex entries must be finite numbers")
    return desc, values.view(np.complex128).reshape((len(docs),) + desc.shape)


def vector_to_dict(x: ModuleVector) -> dict:
    return {"rank": x.rank, "coords": _elements_to_docs(x.descriptor, x.coords)}


def _operator_doc(n: int, m: int, docs: list, first: int, stride: int) -> dict:
    """The document of the n x m operator whose block (i, j) is docs[first + i * stride + j]."""
    rows = [docs[first + i * stride:first + i * stride + m] for i in range(n)]
    return {"in_rank": n, "out_rank": m, "blocks": rows}


def operator_to_dict(t: AdjointableOperator) -> dict:
    m = t.out_rank
    return _operator_doc(t.in_rank, m, _elements_to_docs(t.descriptor, t.blocks), 0, m)


def family_to_dict(family: Family) -> dict:
    """Operator documents by label, cut from one encoding of the family's stack."""
    t = family.stack
    n, stride = t.in_rank, t.out_rank
    docs = _elements_to_docs(t.descriptor, t.blocks)
    firsts = accumulate(family.ranks[:-1], initial=0)
    return {label: _operator_doc(n, m, docs, first, stride)
            for label, m, first in zip(family.labels, family.ranks, firsts)}


def _operators_from_docs(docs: list) -> tuple:
    """Decode operator documents together: one array conversion for all their blocks.

    Returns the descriptor, the (n, m) ranks of each operator, and the blocks
    of all operators in document order, each operator's in row-major order.
    The fields are read and the table shapes checked in whole-list passes.
    """
    try:
        tables = list(map(itemgetter("blocks"), docs))
        ins = _parse_ints(list(map(itemgetter("in_rank"), docs)), "operator in_rank")
        outs = _parse_ints(list(map(itemgetter("out_rank"), docs)), "operator out_rank")
        if min(ins) < 1 or min(outs) < 1:
            raise InputError("operator ranks must be >= 1")
        if list(map(len, tables)) != ins:
            raise InputError("operator block table does not match declared ranks")
        rows = list(_flatten(tables))
        if list(map(len, rows)) != list(_flatten(map(repeat, outs, ins))):
            raise InputError("operator block table does not match declared ranks")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad operator document: {exc}") from exc
    desc, data = _elements_from_docs(list(_flatten(rows)))
    return desc, list(zip(ins, outs)), data


def _operator(desc: AlgebraDescriptor, shape: tuple, data: np.ndarray) -> AdjointableOperator:
    return AdjointableOperator.from_blocks(desc, data.reshape(shape + data.shape[1:]))


def operator_from_dict(doc: Mapping) -> AdjointableOperator:
    desc, (shape,), data = _operators_from_docs([doc])
    return _operator(desc, shape, data)


def _stacked_blocks(shapes: list, data: np.ndarray) -> np.ndarray:
    """Blocks of the stack of operators given by their (n, m) ranks and row-major blocks in turn.

    Block (i, c) of the stack is block (i, slot) of member atom, for the
    (atom, slot) of output coordinate c: one gather over all members.
    """
    in_ranks = {n for n, _ in shapes}
    if len(in_ranks) != 1:
        raise InputError("family members must share descriptor and input rank")
    n = in_ranks.pop()
    ranks = np.array([m for _, m in shapes])
    atom = np.arange(ranks.size).repeat(ranks)
    first = (np.cumsum(ranks) - ranks)[atom]  # the first output coordinate of c's member
    slot = np.arange(atom.size) - first
    return data[n * first + np.arange(n)[:, None] * ranks[atom] + slot]


def measure_to_dict(m: MeasureSpace) -> dict:
    return {"atoms": [{"label": label, "weight": weight} for label, weight in m.atoms]}


def measure_from_dict(doc: Mapping) -> MeasureSpace:
    try:
        atoms = doc["atoms"]
        labels = list(map(itemgetter("label"), atoms))
        weights = list(map(itemgetter("weight"), atoms))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad measure document: {exc}") from exc
    return MeasureSpace(labels, weights)


def system_to_dict(system: GFrameSystem) -> dict:
    return {
        "algebra": {"kind": system.descriptor.kind, "dim": system.descriptor.dim},
        "module_rank": system.module_rank,
        "measure": measure_to_dict(system.measure),
        "family": family_to_dict(system.stacked_family),
        "controls": {
            "C": operator_to_dict(system.controls.C),
            "Cp": operator_to_dict(system.controls.Cp),
        },
    }


def system_from_dict(doc: Mapping) -> GFrameSystem:
    """The system of a document; its family is decoded straight into one stack.

    The stack holds the members in the measure's order, whatever the order of
    the family's keys.
    """
    try:
        measure = measure_from_dict(doc["measure"])
        family_docs = doc["family"]
        if not isinstance(family_docs, dict):
            raise InputError("system family must be a JSON object of operators by atom label")
        labels = measure.labels
        if family_docs.keys() != set(labels):
            raise InputError("family labels must match measure atoms exactly")
        decoded, shapes, data = _operators_from_docs(
            [family_docs[label] for label in labels] + [doc["controls"]["C"], doc["controls"]["Cp"]])
        *member_shapes, c_shape, cp_shape = shapes
        c_start = len(data) - c_shape[0] * c_shape[1] - cp_shape[0] * cp_shape[1]
        cp_start = len(data) - cp_shape[0] * cp_shape[1]
        stacked = AdjointableOperator.from_blocks(decoded,
                                                  _stacked_blocks(member_shapes, data[:c_start]))
        family = Family(labels, [m for _, m in member_shapes], stack=stacked)
        c = _operator(decoded, c_shape, data[c_start:cp_start])
        cp = _operator(decoded, cp_shape, data[cp_start:])
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


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, then restore the caller's setting.

    No command and no decode creates reference cycles, so a pause defers no
    garbage.  Left running, the collector's full passes walk every object
    alive, which while a system file is read includes the whole decoded
    document.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _holds_non_finite(doc) -> bool:
    """Whether a float in the lists and dicts of ``doc`` is NaN or infinite."""
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, float):
            if not math.isfinite(value):
                return True
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return False


_SORTED_LINE = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE


def dump_json(doc: dict) -> str:
    """``doc`` as key-sorted ASCII JSON on one line, with floats in shortest round-trip form.

    orjson writes it, unless it raises (a lone surrogate, an integer outside
    [-2**63, 2**64), a non-string key, a numpy scalar), writes non-ASCII text
    raw, or writes a NaN or an infinity as null: ``json`` writes those
    documents, escaping non-ASCII text and spelling NaN and Infinity.
    """
    try:
        data = orjson.dumps(doc, option=_SORTED_LINE)
    except orjson.JSONEncodeError:
        data = None
    if data is None or not data.isascii() or (b"null" in data and _holds_non_finite(doc)):
        return json.dumps(doc, sort_keys=True) + "\n"
    return data.decode("ascii")


def save_system(system: GFrameSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(system_to_dict(system)))


def load_json(path: str):
    """The document in a UTF-8 JSON file; ``json`` parses only what orjson refuses.

    ``orjson.JSONDecodeError`` subclasses ``json.JSONDecodeError``, so it is
    caught first, and an error is always ``json``'s.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
            try:
                return orjson.loads(text)
            except orjson.JSONDecodeError:
                return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text") from exc
        except (ValueError, RecursionError) as exc:
            # An integer literal past the interpreter's digit limit, or nesting
            # deeper than the parser's recursion limit.
            raise InputError(f"{path}: unreadable JSON: {exc}") from exc


def load_system(path: str) -> GFrameSystem:
    """The system in a file, parsed and decoded with the collector paused."""
    with collector_paused():
        return system_from_dict(load_json(path))

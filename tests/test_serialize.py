import gc
import json
import math

import numpy as np
import orjson
import pytest

from gframe.algebra import AlgebraDescriptor, AlgebraElement
from gframe.cli import main
from gframe.errors import InputError
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator, ModuleVector
from gframe.serialize import (
    dump_json,
    load_json,
    load_system,
    measure_from_dict,
    operator_from_dict,
    operator_to_dict,
    save_system,
    system_from_dict,
    system_to_dict,
    vector_to_dict,
)

from conftest import ORACLE_SYSTEMS, count_operators, vector_from_doc


def _element_operator(doc: dict) -> dict:
    """The document of the 1 x 1 operator whose one block is the element document ``doc``."""
    return {"in_rank": 1, "out_rank": 1, "blocks": [[doc]]}


def test_element_round_trip():
    rng = np.random.default_rng(0)
    for desc in (AlgebraDescriptor("matrix", 3), AlgebraDescriptor("diagonal", 4)):
        shape = (3, 3) if desc.kind == "matrix" else (4,)
        a = AlgebraElement(desc, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        one_block = AdjointableOperator.from_blocks(desc, a.data[None, None])
        back = operator_from_dict(operator_to_dict(one_block))
        assert back.descriptor == a.descriptor
        assert np.array_equal(back.blocks[0, 0], a.data)


def test_element_schema_shape():
    a = AlgebraElement.matrix([[1, 2j], [0, -1]])
    doc = operator_to_dict(AdjointableOperator.from_blocks(a.descriptor, a.data[None, None]))
    assert doc["blocks"][0][0] == {"kind": "matrix", "dim": 2,
                                   "entries": [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0], [-1.0, 0.0]]}
    with pytest.raises(InputError):
        operator_from_dict(_element_operator({"kind": "matrix", "dim": 2, "entries": [[1, 0]]}))
    with pytest.raises(InputError):
        operator_from_dict(_element_operator(
            {"kind": "matrix", "dim": 2, "entries": [[1, 0]] * 3 + [7]}))


def test_vector_and_operator_round_trip(m2):
    rng = np.random.default_rng(1)
    x = ModuleVector(m2, rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    back = vector_from_doc(vector_to_dict(x))
    assert np.array_equal(back.coords, x.coords)
    t = AdjointableOperator.from_blocks(m2, rng.standard_normal((2, 3, 2, 2)))
    back_t = operator_from_dict(operator_to_dict(t))
    assert np.array_equal(back_t.blocks, t.blocks)


def test_operator_schema_mismatch():
    doc = {"in_rank": 2, "out_rank": 1,
           "blocks": [[{"kind": "diagonal", "dim": 1, "entries": [[1.0, 0.0]]}]]}
    with pytest.raises(InputError):
        operator_from_dict(doc)
    for n, m in ((0, 1), (0, -5), (1, 0)):
        with pytest.raises(InputError):
            operator_from_dict({"in_rank": n, "out_rank": m, "blocks": [[]] * n})


def test_system_round_trip_bit_exact(tmp_path):
    for system in (unit_interval_system(2.0, 3.0, 3, 11),
                   random_system(4, commuting=True),
                   random_system(5, rank=2, algebra="matrix", dim=2, commuting=False)):
        path = tmp_path / "sys.json"
        save_system(system, str(path))
        loaded = load_system(str(path))
        assert system_to_dict(loaded) == system_to_dict(system)
        for label in system.measure.labels:
            assert np.array_equal(loaded.family[label].blocks, system.family[label].blocks)
        # serialize -> parse -> serialize is byte-identical
        assert dump_json(system_to_dict(loaded)) == dump_json(system_to_dict(system))


def test_system_declared_fields_validated():
    system = unit_interval_system(1.0, 1.0, 2, 3)
    doc = system_to_dict(system)
    doc["module_rank"] = 7
    with pytest.raises(InputError):
        system_from_dict(doc)
    doc = system_to_dict(system)
    doc["algebra"] = {"kind": "matrix", "dim": 2}
    with pytest.raises(InputError):
        system_from_dict(doc)
    doc = system_to_dict(system)
    doc["family"][system.measure.labels[0]] = {"in_rank": 0, "out_rank": -5, "blocks": []}
    with pytest.raises(InputError):
        system_from_dict(doc)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InputError) as err:
        load_system(str(path))
    assert "line" in str(err.value)


def test_dump_json_sorted_and_stable():
    doc = {"b": 1.5, "a": [1e-9, 2.25]}
    text = dump_json(doc)
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == doc


def test_non_finite_entries_and_weights_rejected():
    doc = system_to_dict(random_system(5))
    label = next(iter(doc["family"]))
    doc["family"][label]["blocks"][0][0]["entries"][0] = [float("nan"), 0.0]
    with pytest.raises(InputError):
        system_from_dict(doc)
    doc = system_to_dict(random_system(5))
    doc["controls"]["C"]["blocks"][0][0]["entries"][0] = [0.0, float("inf")]
    with pytest.raises(InputError):
        system_from_dict(doc)
    doc = system_to_dict(random_system(5))
    doc["measure"]["atoms"][0]["weight"] = float("nan")
    with pytest.raises(InputError):
        system_from_dict(doc)
    with pytest.raises(InputError):
        operator_from_dict(_element_operator({"kind": "diagonal", "dim": 1, "entries": [["x", 0.0]]}))


@pytest.mark.parametrize("weight", [True, "0.5"], ids=["boolean", "string"])
def test_non_numeric_weights_rejected(weight):
    doc = system_to_dict(unit_interval_system(1, 1, 1, 3))
    doc["measure"]["atoms"][0]["weight"] = weight
    with pytest.raises(InputError, match="weight"):
        system_from_dict(doc)
    with pytest.raises(InputError, match="weight"):
        measure_from_dict(doc["measure"])


def _set_entry(value):
    def mutate(doc):
        doc["blocks"][0][1]["entries"][0] = value
    return mutate


def _set_block(key, value):
    def mutate(doc):
        doc["blocks"][1][0][key] = value
    return mutate


def _set_element(element):
    def mutate(doc):
        doc["blocks"][1][1] = element
    return mutate


def _drop_entry(doc):
    doc["blocks"][0][0]["entries"].pop()


def _ragged_row(doc):
    doc["blocks"][1][0]["entries"][2] = [[0.0, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize("mutate", [
    _set_entry([1.0]),
    _set_entry([1.0, 2.0, 3.0]),
    _set_entry(["x", 0.0]),
    _set_entry([0.0, "x"]),
    _set_entry("x"),
    _set_entry(None),
    _set_entry([None, 0.0]),
    _set_entry([float("nan"), 0.0]),
    _set_entry([0.0, float("inf")]),
    _set_entry([float("-inf"), 0.0]),
    _set_entry([10 ** 400, 0.0]),
    _set_entry({"re": 1.0, "im": 0.0}),
    _set_entry(["1.5", 0.0]),
    _set_entry([0.0, True]),
    _ragged_row,
    _drop_entry,
    _set_element({"kind": "diagonal", "dim": 2, "entries": [[1.0, 0.0], [0.0, 2.0]]}),
    _set_element({"kind": "matrix", "dim": 1, "entries": [[1.0, 0.0]]}),
    _set_block("kind", "quaternion"),
    _set_block("dim", float("inf")),
    _set_block("entries", None),
], ids=["short-pair", "long-pair", "string-re", "string-im", "string-pair", "null-pair",
        "null-re", "nan", "inf", "minus-inf", "huge-int", "object-pair", "numeric-string-re",
        "boolean-im", "ragged", "entry-count",
        "mixed-kind", "mixed-dim", "unknown-kind", "infinite-dim", "null-entries"])
def test_malformed_operator_entries_rejected(m2, mutate):
    t = AdjointableOperator.from_blocks(m2, np.arange(2 * 2 * 4, dtype=float).reshape(2, 2, 2, 2) * (1 - 0.5j))
    doc = operator_to_dict(t)
    assert np.array_equal(operator_from_dict(doc).blocks, t.blocks)
    mutate(doc)
    with pytest.raises(InputError):
        operator_from_dict(doc)


def _entries_per_entry(t: AdjointableOperator) -> list:
    """The [re, im] table of an operator written one entry at a time."""
    return [[[[float(z.real), float(z.imag)] for z in t.blocks[i, j].reshape(-1)]
             for j in range(t.out_rank)] for i in range(t.in_rank)]


SPECIAL_VALUES = (-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e308, -1e308, 1.0 / 3.0)


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_operator_encoding_matches_per_entry_reference(kwargs):
    system = random_system(**kwargs)
    ops = list(system.family.values()) + [system.controls.C, system.controls.Cp]
    special = ops[0].blocks.copy().reshape(-1)
    values = np.array(SPECIAL_VALUES)
    special.real[:len(values)] = values
    special.imag[:len(values)] = values[::-1]
    ops.append(AdjointableOperator.from_blocks(ops[0].descriptor, special.reshape(ops[0].blocks.shape)))
    for t in ops:
        doc = operator_to_dict(t)
        assert [[b["entries"] for b in row] for row in doc["blocks"]] == _entries_per_entry(t)
        assert all(b["kind"] == t.descriptor.kind and b["dim"] == t.descriptor.dim
                   for row in doc["blocks"] for b in row)
        back = operator_from_dict(json.loads(dump_json(doc)))
        assert back.blocks.tobytes() == t.blocks.tobytes()
    signs = np.signbit(np.array(operator_to_dict(ops[-1])["blocks"][0][0]["entries"]))
    assert signs[0, 0] and not signs[0, 1]


def test_indented_system_files_load_bitwise(tmp_path):
    system = random_system(5, rank=2, algebra="matrix", dim=2, commuting=False)
    path = tmp_path / "indented.json"
    path.write_text(json.dumps(system_to_dict(system), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    loaded = load_system(str(path))
    for label, op in system.family.items():
        assert loaded.family[label].blocks.tobytes() == op.blocks.tobytes()
    for name in ("C", "Cp"):
        assert (getattr(loaded.controls, name).blocks.tobytes()
                == getattr(system.controls, name).blocks.tobytes())
    assert loaded.measure == system.measure


def test_dump_json_is_one_sorted_line():
    doc = system_to_dict(random_system(4))
    text = dump_json(doc)
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == orjson.dumps(json.loads(text), option=orjson.OPT_SORT_KEYS).decode() + "\n"
    assert json.loads(text) == doc


def _one_by_one_doc():
    """A system whose dim and every rank is 1, so a truncated or coerced 1 would load."""
    return system_to_dict(unit_interval_system(1.0, 1.0, 1, 3))


def _first_member(doc):
    return next(iter(doc["family"].values()))


_INTEGER_FIELDS = {
    "dim": lambda doc, v: doc["algebra"].__setitem__("dim", v),
    "element dim": lambda doc, v: _first_member(doc)["blocks"][0][0].__setitem__("dim", v),
    "in_rank": lambda doc, v: _first_member(doc).__setitem__("in_rank", v),
    "out_rank": lambda doc, v: _first_member(doc).__setitem__("out_rank", v),
    "module_rank": lambda doc, v: doc.__setitem__("module_rank", v),
}


@pytest.mark.parametrize("value", ["1", True, 1.7], ids=["string", "boolean", "fraction"])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_non_integer_ranks_and_dims_rejected(field, value):
    doc = _one_by_one_doc()
    _INTEGER_FIELDS[field](doc, value)
    with pytest.raises(InputError, match="must be an integer"):
        system_from_dict(doc)


def test_integral_float_ranks_and_dims_accepted():
    doc = _one_by_one_doc()
    for set_field in _INTEGER_FIELDS.values():
        set_field(doc, 1.0)
    loaded = system_from_dict(doc)
    assert loaded.module_rank == 1 and loaded.descriptor == AlgebraDescriptor("diagonal", 1)


def test_mixed_rank_system_round_trips(tmp_path):
    system = random_system(**ORACLE_SYSTEMS[4])
    ranks = system.stacked_family.ranks
    assert len(set(ranks)) > 1
    path = str(tmp_path / "mixed.json")
    save_system(system, path)
    loaded = load_system(path)
    assert loaded.stacked_family.ranks == ranks
    stacks = (loaded.stacked_family.stack, system.stacked_family.stack)
    assert stacks[0].blocks.tobytes() == stacks[1].blocks.tobytes()
    for label, op in system.family.items():
        assert loaded.family[label].blocks.tobytes() == op.blocks.tobytes()
    assert dump_json(system_to_dict(loaded)) == dump_json(system_to_dict(system))


def test_loaded_family_is_built_once_when_read(tmp_path, monkeypatch):
    path = str(tmp_path / "system.json")
    save_system(unit_interval_system(2.0, 3.0, 3, 11), path)
    built = count_operators(monkeypatch)
    system = load_system(path)
    assert len(built) == 3  # the stack and the two controls
    assert "members" not in vars(system.stacked_family)
    system.frame_operator
    assert "members" not in vars(system.stacked_family)
    before = len(built)
    family = system.family
    assert len(built) == before + 11 and list(family) == list(system.measure.labels)
    assert system.family is family and len(built) == before + 11


def test_file_commands_build_no_operator_per_atom(tmp_path, capsys, monkeypatch):
    counts = []
    for nodes in (11, 1001):
        path = str(tmp_path / f"example-{nodes}.json")
        assert main(["example", "--alpha", "2", "--beta", "3", "--rank", "3",
                     "--nodes", str(nodes), "--out", path]) == 0
        built = count_operators(monkeypatch)
        for command in ("validate", "bounds", "dual", "multiplier"):
            assert main([command, path, "--out", str(tmp_path / f"{command}.json")]) == 0
        counts.append(len(built))
        monkeypatch.undo()
    assert counts[0] == counts[1]
    assert capsys.readouterr().err == ""


# Decimal strings that a float parser can round wrongly: the largest subnormal,
# just below half the smallest subnormal (rounds to 0), 2**53 + 1 (a tie that
# rounds to even), the tie between 1 and its successor with its neighbours one
# unit below and above in the last digit, and magnitudes below the smallest
# subnormal, which round to a signed zero.
_HARD_DECIMALS = (
    "2.2250738585072011e-308",
    "2.4703282292062327e-324",
    "9007199254740993.0",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "1e-400",
    "-1e-400",
)


def _bits(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


def test_load_json_floats_match_the_stdlib_parser_bit_for_bit(tmp_path, monkeypatch):
    rng = np.random.default_rng(20220513)
    patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64, endpoint=False)
    # A thousand patterns with a zero exponent field: subnormals and signed zeros.
    patterns[:1000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    values = patterns.view(np.float64)
    texts = [repr(v) for v in values[np.isfinite(values)].tolist()] + list(_HARD_DECIMALS)
    text = "[" + ", ".join(texts) + "]"
    expected = _bits(json.loads(text))
    path = tmp_path / "floats.json"
    path.write_text(text, encoding="utf-8")

    def refused(*args, **kwargs):
        raise AssertionError("json.loads read a document that orjson accepts")
    monkeypatch.setattr(json, "loads", refused)
    got = load_json(str(path))
    assert len(got) == len(texts) and all(type(v) is float for v in got)
    assert np.array_equal(_bits(got), expected)
    assert _bits(got[-2:]).tolist() == _bits([0.0, -0.0]).tolist()


# Documents that orjson refuses and the standard parser reads, as it always has.
_FALLBACK_DOCUMENTS = {
    "nan": ("[NaN]", lambda got: len(got) == 1 and np.isnan(got[0])),
    "infinity": ("[Infinity]", lambda got: got == [np.inf]),
    "minus-infinity": ("[-Infinity]", lambda got: got == [-np.inf]),
    "past-double": ("[1e400]", lambda got: got == [np.inf]),
    "integer-past-double": ("[" + "1" + "0" * 400 + "]", lambda got: got == [10 ** 400]),
    "lone-surrogate-label": ('{"label": "\\ud800"}', lambda got: got == {"label": "\ud800"}),
}


@pytest.mark.parametrize("case", sorted(_FALLBACK_DOCUMENTS))
def test_load_json_reads_what_orjson_refuses_with_the_stdlib_parser(tmp_path, monkeypatch, case):
    text, check = _FALLBACK_DOCUMENTS[case]
    calls = []
    parse = json.loads
    monkeypatch.setattr(json, "loads", lambda doc: calls.append(doc) or parse(doc))
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    assert check(load_json(str(path)))
    assert calls == [text]


# Texts no parser reads keep the standard parser's messages.
_REFUSED_TEXTS = {
    "trailing-comma": ("[1,]".encode(), "invalid JSON at line 1, column 4"),
    "byte-order-mark": ("\ufeff[1]".encode(), "invalid JSON at line 1, column 1"),
    "second-line": (b'{"a": 1,\n  "b": }', "invalid JSON at line 2, column 8"),
    "invalid-utf8": (b'["\xff"]', "not UTF-8 text"),
    "digit-limit": (b"[" + b"7" * 5000 + b"]", "unreadable JSON: Exceeds the limit"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_TEXTS))
def test_load_json_refusals_keep_the_stdlib_messages(tmp_path, case):
    data, message = _REFUSED_TEXTS[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(InputError) as err:
        load_json(str(path))
    assert str(err.value).startswith(f"{path}: {message}")


def test_deep_nesting_fails_the_schema_check(tmp_path, capsys):
    # orjson has no nesting limit: the list loads, and is not a system document.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("gframe: error: bad system document")


def test_module_rank_past_an_unsigned_64_bit_integer_is_refused(tmp_path, capsys):
    # orjson reads 2**64 + 1 as the nearest double, 2**64: still not the family's rank.
    doc = system_to_dict(random_system(3, rank=2))
    doc["module_rank"] = 2 ** 64 + 1
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "declared module_rank does not match the family" in captured.err


def _stdlib_dumps_refused(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("json.dumps wrote a document that orjson writes")
    monkeypatch.setattr(json, "dumps", refused)


def test_dump_json_floats_read_back_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(20220514)
    patterns = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64, endpoint=False)
    # A thousand patterns with a zero exponent field: subnormals and signed zeros.
    patterns[:1000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    values = patterns.view(np.float64)
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0]
    doc = values[np.isfinite(values)].tolist() + extremes
    _stdlib_dumps_refused(monkeypatch)
    got = json.loads(dump_json(doc))
    assert len(got) == len(doc) and all(type(v) is float for v in got)
    assert np.array_equal(_bits(got), _bits(doc))
    assert _bits(got[-4:]).tolist() == _bits(extremes).tolist()


# Documents that orjson cannot write as pure ASCII JSON with every value kept:
# json writes them, as it always has.
_WRITER_FALLBACKS = {
    "infinity": {"bound_squared": math.inf},
    "minus-infinity": {"bound_squared": -math.inf},
    "nan-next-to-null": {"system": None, "value": math.nan},
    "lone-surrogate": {"path": "a\udcff"},
    "past-unsigned-64-bit": {"seed": 2 ** 64},
    "below-signed-64-bit": {"seed": -2 ** 63 - 1},
    "integer-key": {1: "a"},
    "numpy-scalar": {"x": np.float64(1.5)},
    "non-ascii": {"label": "\u03a9"},
}


@pytest.mark.parametrize("case", sorted(_WRITER_FALLBACKS))
def test_dump_json_writes_what_orjson_cannot_with_the_stdlib_encoder(case):
    doc = _WRITER_FALLBACKS[case]
    text = dump_json(doc)
    assert text == json.dumps(doc, sort_keys=True) + "\n"
    assert text.isascii()


def test_dump_json_writes_null_and_finite_floats_with_orjson(monkeypatch):
    _stdlib_dumps_refused(monkeypatch)
    assert dump_json({"y": 1e-05, "x": None}) == '{"x":null,"y":0.00001}\n'


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_load_system_runs_no_collection_and_restores_the_collector(tmp_path, enabled):
    # Thousands of containers: with the collector running, the parse and the
    # decode would each start several collections.
    path = tmp_path / "sys.json"
    save_system(random_system(1, rank=4, atoms=8, algebra="matrix", dim=3), str(path))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    was = gc.isenabled()
    gc.callbacks.append(count)
    try:
        (gc.enable if enabled else gc.disable)()
        system = load_system(str(path))
        assert gc.isenabled() is enabled
        with pytest.raises(InputError):
            load_system(str(broken))
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert collections == []
    assert system.module_rank == 4

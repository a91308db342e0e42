import json

import numpy as np
import pytest

from gframe.algebra import AlgebraDescriptor, AlgebraElement
from gframe.errors import InputError
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator, ModuleVector
from gframe.serialize import (
    dump_json,
    element_from_dict,
    element_to_dict,
    load_system,
    operator_from_dict,
    operator_to_dict,
    save_system,
    system_from_dict,
    system_to_dict,
    vector_from_dict,
    vector_to_dict,
)


def test_element_round_trip():
    rng = np.random.default_rng(0)
    for desc in (AlgebraDescriptor("matrix", 3), AlgebraDescriptor("diagonal", 4)):
        shape = (3, 3) if desc.kind == "matrix" else (4,)
        a = AlgebraElement(desc, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        back = element_from_dict(element_to_dict(a))
        assert back.descriptor == a.descriptor
        assert np.array_equal(back.data, a.data)


def test_element_schema_shape():
    a = AlgebraElement.matrix([[1, 2j], [0, -1]])
    doc = element_to_dict(a)
    assert doc["kind"] == "matrix" and doc["dim"] == 2
    assert doc["entries"][1] == [0.0, 2.0]
    with pytest.raises(InputError):
        element_from_dict({"kind": "matrix", "dim": 2, "entries": [[1, 0]]})
    with pytest.raises(InputError):
        element_from_dict({"kind": "matrix", "dim": 2, "entries": [[1, 0]] * 3 + [7]})


def test_vector_and_operator_round_trip(m2):
    rng = np.random.default_rng(1)
    x = ModuleVector(m2, rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    back = vector_from_dict(vector_to_dict(x))
    assert np.array_equal(back.coords, x.coords)
    t = AdjointableOperator(m2, rng.standard_normal((2, 3, 2, 2)))
    back_t = operator_from_dict(operator_to_dict(t))
    assert np.array_equal(back_t.blocks, t.blocks)


def test_operator_schema_mismatch():
    doc = {"in_rank": 2, "out_rank": 1, "blocks": [[element_to_dict(AlgebraElement.diag([1]))]]}
    with pytest.raises(InputError):
        operator_from_dict(doc)


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
        element_from_dict({"kind": "diagonal", "dim": 1, "entries": [["x", 0.0]]})

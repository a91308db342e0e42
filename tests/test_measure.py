import math
import re

import numpy as np
import pytest

from gframe.algebra import AlgebraElement
from gframe.errors import InputError
from gframe.measure import MeasureSpace, simpson_unit_interval


def test_simpson_three_nodes():
    measure, positions = simpson_unit_interval(3)
    assert positions == (0.0, 0.5, 1.0)
    assert np.allclose(measure.weights, (1 / 6, 4 / 6, 1 / 6))


def test_simpson_exact_for_square_and_cube():
    measure, positions = simpson_unit_interval(3)
    square = sum(w * p ** 2 for (_, w), p in zip(measure.atoms, positions))
    cube = sum(w * p ** 3 for (_, w), p in zip(measure.atoms, positions))
    assert square == pytest.approx(1 / 3, abs=1e-16)
    assert cube == pytest.approx(0.25, abs=1e-15)


def test_simpson_weights_sum_to_one():
    for nodes in range(3, 1002, 2):
        measure, _ = simpson_unit_interval(nodes)
        assert abs(math.fsum(measure.weights) - 1.0) <= 1e-14


def test_simpson_parity_gate():
    with pytest.raises(InputError):
        simpson_unit_interval(4)
    with pytest.raises(InputError):
        simpson_unit_interval(1)


def test_integrate_examples():
    one_atom = MeasureSpace(["w0"], [1.0])
    a = AlgebraElement.diag([2, 5])
    assert np.array_equal(one_atom.integrate({"w0": a}).data, a.data)
    zero = AlgebraElement(a.descriptor, np.zeros(2))
    assert one_atom.integrate({"w0": zero}).norm() == 0.0
    convex = MeasureSpace(["w0", "w1"], [0.25, 0.75])
    one = AlgebraElement.one(a.descriptor)
    out = convex.integrate({"w0": one, "w1": 3 * one})
    assert np.allclose(out.data, 2.5 * one.data)


def test_integrate_missing_atom():
    measure = MeasureSpace(["w0", "w1"], [1.0, 1.0])
    with pytest.raises(InputError):
        measure.integrate({"w0": AlgebraElement.diag([1])})


def test_integrate_additive_and_homogeneous():
    rng = np.random.default_rng(4)
    left = MeasureSpace(["a", "b"], [0.3, 0.9])
    right = MeasureSpace(["c"], [1.4])
    union = MeasureSpace(left.labels + right.labels, np.concatenate([left.weights, right.weights]))
    values = {}
    for label in ("a", "b", "c"):
        values[label] = AlgebraElement.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    total = union.integrate(values)
    split = left.integrate(values) + right.integrate(values)
    assert (total - split).norm() <= 1e-15
    scaled = union.integrate({k: 2.5 * v for k, v in values.items()})
    assert (scaled - 2.5 * total).norm() <= 1e-14


def test_measure_validation():
    with pytest.raises(InputError, match="at least one atom"):
        MeasureSpace([], [])
    with pytest.raises(InputError, match="unique"):
        MeasureSpace(["w0", "w0"], [1.0, 2.0])
    with pytest.raises(InputError, match="positive and finite"):
        MeasureSpace(["w0"], [0.0])


def test_from_columns_checks_like_the_pairs():
    # The label and weight columns are the one constructor; each refusal
    # the pairs form gave is still given, with its message.
    with pytest.raises(InputError, match="one weight per atom label"):
        MeasureSpace(["w0", "w1"], [1.0])
    with pytest.raises(InputError, match="at least one atom"):
        MeasureSpace([], [])
    with pytest.raises(InputError, match=re.escape("weight of atom 'w1' must be a number, got '2'")):
        MeasureSpace(["w0", "w1"], [1.0, "2"])
    with pytest.raises(InputError, match="positive and finite"):
        MeasureSpace(["w0", "w1"], [1.0, -2.0])
    with pytest.raises(InputError, match="unique"):
        MeasureSpace(["w0", "w0"], [1.0, 2.0])


@pytest.mark.parametrize("weight", ["0.5", True, False, None, 1j], ids=repr)
def test_weights_must_be_numbers(weight):
    # A string or a boolean used to be converted (to 0.5 and 1.0).
    message = f"weight of atom 'w1' must be a number, got {weight!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        MeasureSpace(["w0", "w1"], [0.5, weight])
    assert MeasureSpace(["w0", "w1"], [np.float64(0.5), 2]).weights.tolist() == [0.5, 2.0]


@pytest.mark.parametrize("label", [7, True, None, 1.5, ["w1"]], ids=repr)
def test_labels_must_be_strings(label):
    # Labels used to be converted with str(), so 7 became '7' and None 'None'.
    message = f"atom labels must be strings, got {label!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        MeasureSpace(["w0", label], [0.5, 1.0])


def test_weights_are_a_read_only_float64_array_in_label_order():
    measure = MeasureSpace(["b", "a", "c"], [0.25, 2, np.float64(0.5)])
    assert measure.labels == ("b", "a", "c")
    assert isinstance(measure.weights, np.ndarray) and measure.weights.dtype == np.float64
    assert measure.weights.tolist() == [0.25, 2.0, 0.5]
    assert not measure.weights.flags.writeable
    with pytest.raises(ValueError):
        measure.weights[0] = 1.0
    assert measure.atoms == (("b", 0.25), ("a", 2.0), ("c", 0.5))
    assert repr(measure) == "MeasureSpace(('b', 'a', 'c'), [0.25, 2.0, 0.5])"
    same = MeasureSpace(("b", "a", "c"), np.array([0.25, 2.0, 0.5]))
    assert same == measure and hash(same) == hash(measure)
    assert same != MeasureSpace(["a", "b", "c"], [2, 0.25, 0.5])
    assert same != MeasureSpace(["b", "a", "c"], [0.25, 2, 0.5000001])


def test_per_atom_values_become_one_array_in_atom_order():
    measure = MeasureSpace(["b", "a"], [0.25, 2.0])
    assert measure.per_atom({"a": 3, "b": 1, "extra": 7}, "data").tolist() == [1.0, 3.0]
    assert measure.per_atom([1j, 2], "data", np.complex128).tolist() == [1j, 2 + 0j]
    with pytest.raises(InputError, match="data missing atom 'a'"):
        measure.per_atom({"b": 1.0}, "data")
    with pytest.raises(InputError, match="one value per atom"):
        measure.per_atom([1.0, 2.0, 3.0], "data")

import math

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
    one_atom = MeasureSpace((("w0", 1.0),))
    a = AlgebraElement.diag([2, 5])
    assert np.array_equal(one_atom.integrate({"w0": a}).data, a.data)
    zero = AlgebraElement.zero(a.descriptor)
    assert one_atom.integrate({"w0": zero}).norm() == 0.0
    convex = MeasureSpace((("w0", 0.25), ("w1", 0.75)))
    one = AlgebraElement.one(a.descriptor)
    out = convex.integrate({"w0": one, "w1": 3 * one})
    assert np.allclose(out.data, 2.5 * one.data)


def test_integrate_missing_atom():
    measure = MeasureSpace((("w0", 1.0), ("w1", 1.0)))
    with pytest.raises(InputError):
        measure.integrate({"w0": AlgebraElement.diag([1])})


def test_integrate_additive_and_homogeneous():
    rng = np.random.default_rng(4)
    left = MeasureSpace((("a", 0.3), ("b", 0.9)))
    right = MeasureSpace((("c", 1.4),))
    union = MeasureSpace(left.atoms + right.atoms)
    values = {}
    for label in ("a", "b", "c"):
        values[label] = AlgebraElement.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    total = union.integrate(values)
    split = left.integrate(values) + right.integrate(values)
    assert (total - split).norm() <= 1e-15
    scaled = union.integrate({k: 2.5 * v for k, v in values.items()})
    assert (scaled - 2.5 * total).norm() <= 1e-14


def test_measure_validation():
    with pytest.raises(InputError):
        MeasureSpace(())
    with pytest.raises(InputError):
        MeasureSpace((("w0", 1.0), ("w0", 2.0)))
    with pytest.raises(InputError):
        MeasureSpace((("w0", 0.0),))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gframe.algebra import (
    AlgebraDescriptor,
    AlgebraElement,
    element_norms,
    two_norm,
)
from gframe.errors import DomainError, InputError

from conftest import eig2x2_hermitian, naive_matmul, positive_by_norm_shift


def test_add_diagonal():
    a = AlgebraElement.diag([1, 2])
    b = AlgebraElement.diag([3, 4])
    assert np.allclose((a + b).data, [4, 6])


def test_unit_law(m2):
    rng = np.random.default_rng(0)
    a = AlgebraElement(m2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    one = AlgebraElement.one(m2)
    assert np.array_equal((one * a).data, a.data)
    assert np.array_equal((a * one).data, a.data)


def test_matrix_product_against_triple_loop_oracle():
    rng = np.random.default_rng(7)
    desc = AlgebraDescriptor("matrix", 3)
    a = AlgebraElement(desc, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = AlgebraElement(desc, rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    # summation order differs between BLAS and the loop: roundoff only
    assert np.max(np.abs((a * b).data - naive_matmul(a.data, b.data))) <= 1e-14


def test_descriptor_mismatch_rejected():
    a = AlgebraElement.diag([1, 2])
    b = AlgebraElement.diag([1, 2, 3])
    with pytest.raises(InputError):
        a + b
    with pytest.raises(InputError):
        a * AlgebraElement.matrix([[1, 0], [0, 1]])


def test_adjoint_examples():
    a = AlgebraElement.matrix([[0, 1j], [0, 0]])
    assert np.array_equal(a.adjoint().data, np.array([[0, 0], [-1j, 0]]))
    one = AlgebraElement.one(AlgebraDescriptor("matrix", 2))
    assert np.array_equal(one.adjoint().data, one.data)
    rng = np.random.default_rng(11)
    b = AlgebraElement.matrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    assert (b.adjoint().adjoint() - b).norm() == 0.0


def test_norm_examples():
    assert AlgebraElement.one(AlgebraDescriptor("matrix", 2)).norm() == 1.0
    assert AlgebraElement.diag([3, -4]).norm() == 4.0
    a = AlgebraElement.matrix([[0, 2], [0, 0]])
    # independent oracle: eigenvalues of a* a from the 2x2 closed form
    gram = naive_matmul(a.data.conj().T, a.data)
    _, lam_max = eig2x2_hermitian(gram)
    assert a.norm() == pytest.approx(np.sqrt(lam_max), abs=1e-14)
    assert a.norm() == pytest.approx(2.0, abs=1e-14)


def test_is_positive_examples():
    assert AlgebraElement.one(AlgebraDescriptor("matrix", 2)).is_positive()
    indefinite = AlgebraElement.matrix([[1, 2], [2, 1]])
    lo, hi = eig2x2_hermitian(indefinite.data)
    assert (lo, hi) == (-1.0, 3.0)
    assert not indefinite.is_positive()
    assert AlgebraElement.diag([0, 5]).is_positive()


def test_norm_shift_examples():
    assert positive_by_norm_shift(AlgebraElement.diag([1, 2]))
    assert not positive_by_norm_shift(AlgebraElement.diag([-1, 1]))
    with pytest.raises(ValueError):
        positive_by_norm_shift(AlgebraElement.matrix([[0, 1], [0, 0]]))


def test_norm_shift_agrees_with_spectral_test():
    rng = np.random.default_rng(42)
    desc = AlgebraDescriptor("matrix", 4)
    for _ in range(200):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = AlgebraElement(desc, 0.5 * (m + m.conj().T) + rng.uniform(-1, 1) * np.eye(4))
        assert positive_by_norm_shift(h) == h.is_positive()


def test_sqrt_examples():
    assert np.allclose(AlgebraElement.diag([4, 9]).sqrt_positive().data, [2, 3])
    one = AlgebraElement.one(AlgebraDescriptor("matrix", 3))
    assert np.allclose(one.sqrt_positive().data, one.data)
    a = AlgebraElement.matrix([[2, 1], [1, 2]])
    p = a.sqrt_positive()
    assert ((p * p) - a).norm() <= 1e-12
    # 2x2 spectral formula: eigenvalues of a are 1 and 3, so p has 1 and sqrt(3)
    lo, hi = eig2x2_hermitian(p.data)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        AlgebraElement.diag([-1, 1]).sqrt_positive()


def test_invert_examples():
    inv = AlgebraElement.diag([2, 4]).invert()
    assert np.allclose(inv.data, [0.5, 0.25])
    with pytest.raises(DomainError):
        AlgebraElement.diag([1, 0]).invert()
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = AlgebraElement.matrix(m @ m.conj().T + np.eye(3))
    one = AlgebraElement.one(a.descriptor)
    assert ((a * a.invert()) - one).norm() <= 1e-12


def test_leq_examples():
    one = AlgebraElement.one(AlgebraDescriptor("matrix", 2))
    zero = AlgebraElement(one.descriptor, np.zeros((2, 2)))
    assert (one - zero).is_positive()
    assert not (zero - one).is_positive()
    rng = np.random.default_rng(5)
    m1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m2_ = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = AlgebraElement.matrix(0.5 * (m1 + m1.conj().T))
    b = AlgebraElement.matrix(0.5 * (m2_ + m2_.conj().T))
    lo, _ = eig2x2_hermitian((b - a).data)
    assert (b - a).is_positive() == (lo >= -1e-9 * max(1.0, (b - a).norm()))


def test_order_antisymmetry_on_samples():
    rng = np.random.default_rng(8)
    desc = AlgebraDescriptor("matrix", 3)
    tol = 1e-9
    for _ in range(50):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = AlgebraElement(desc, 0.5 * (m + m.conj().T))
        b = a + AlgebraElement.scalar(desc, rng.uniform(0, 0.5) * tol)
        if (b - a).is_positive(tol) and (a - b).is_positive(tol):
            assert (a - b).norm() <= 2 * tol * max(1.0, a.norm())


_complex_entries = st.floats(min_value=-5, max_value=5, allow_nan=False)


def _matrix_strategy(d):
    return arrays(np.float64, (2, d, d), elements=_complex_entries).map(
        lambda parts: AlgebraElement.matrix(parts[0] + 1j * parts[1]))


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy(3))
def test_involution_property(a):
    assert (a.adjoint().adjoint() - a).norm() == 0.0


@settings(max_examples=60, deadline=None)
@given(_matrix_strategy(3))
def test_cstar_identity_property(a):
    lhs = (a.adjoint() * a).norm()
    assert abs(lhs - a.norm() ** 2) <= 1e-10 * max(1.0, a.norm() ** 2)


def test_cstar_identity_seeded_sweep():
    rng = np.random.default_rng(123)
    for i in range(500):
        kind = "matrix" if i % 2 == 0 else "diagonal"
        dim = int(rng.integers(1, 5))
        desc = AlgebraDescriptor(kind, dim)
        shape = (dim, dim) if kind == "matrix" else (dim,)
        a = AlgebraElement(desc, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert abs((a.adjoint() * a).norm() - a.norm() ** 2) <= 1e-10 * max(1.0, a.norm() ** 2)


def test_sqrt_round_trip_seeded_psd():
    rng = np.random.default_rng(77)
    for i in range(200):
        dim = int(rng.integers(1, 5))
        desc = AlgebraDescriptor("matrix", dim)
        m = AlgebraElement(desc, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        a = m.adjoint() * m
        p = a.sqrt_positive()
        assert ((p * p) - a).norm() <= 1e-9 * max(1.0, a.norm())


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 3), AlgebraDescriptor("diagonal", 4)],
                         ids=["matrix", "diagonal"])
def test_batched_element_helpers_match_element_methods(desc):
    rng = np.random.default_rng(41)
    shape = (6,) + ((3, 3) if desc.kind == "matrix" else (4,))
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    norms = element_norms(desc, data)
    for idx, entry in enumerate(data):
        assert norms[idx] == pytest.approx(AlgebraElement(desc, entry).norm(), rel=1e-13)
    # The channel kernel gives what each kind's own formula gave, bit for bit.
    direct = two_norm(data) if desc.kind == "matrix" else np.abs(data).max(axis=-1)
    assert norms.tobytes() == direct.tobytes()

"""The one 2-norm kernel, the per-channel spectra each operator keeps, and their dense oracle."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import gframe
from gframe import algebra
from gframe.algebra import AlgebraDescriptor, AlgebraElement, element_norms, two_norm
from gframe.errors import DomainError
from gframe.frames import Family, GFrameSystem
from gframe.generate import random_system
from gframe.hilbert import (
    AdjointableOperator,
    ModuleVector,
    loewner_gap,
    positive_part_checks,
)
from gframe.measure import MeasureSpace
from gframe.sampling import rand_operator, rand_positive_operator
from gframe.theorems import _singular_range

SHAPES = [(1, 1), (1, 4), (4, 1), (3, 3), (2, 5), (5, 2),
          (7, 1, 1), (6, 1, 4), (6, 4, 1), (3, 2, 3, 3), (4, 2, 5), (4, 5, 2)]


def _random(shape, rng, dtype):
    x = rng.standard_normal(shape)
    if dtype is complex:
        x = x + 1j * rng.standard_normal(shape)
    return x


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_kernel_is_numpy_two_norm_bit_for_bit(shape, dtype):
    # A 1 x 1 matrix's norm is its modulus, which the SVD of a complex entry
    # can miss by an ulp; every other shape is numpy's SVD 2-norm.
    x = _random(shape, np.random.default_rng(len(shape) * 100 + sum(shape)), dtype)
    got = np.asarray(two_norm(x))
    want = _two_norm_oracle(x)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if x.ndim == 2 and shape != (1, 1):
        assert float(two_norm(x)) == float(np.linalg.norm(x, 2))


def _two_norm_oracle(x: np.ndarray) -> np.ndarray:
    """np.abs of a stack of 1 x 1 matrices, numpy's 2-norm of any other stack."""
    if x.shape[-2:] == (1, 1):
        return np.abs(x[..., 0, 0])
    return np.linalg.norm(x, 2, axis=(-2, -1))


@pytest.mark.parametrize("dim, lead", [(1, (5,)), (2, (3, 4)), (3, (6,))])
def test_matrix_element_norms_are_numpy_two_norms(dim, lead):
    rng = np.random.default_rng(dim)
    data = _random(lead + (dim, dim), rng, complex)
    got = element_norms(AlgebraDescriptor("matrix", dim), data)
    assert got.tobytes() == np.linalg.norm(data, 2, axis=(-2, -1)).tobytes()
    for idx in np.ndindex(*lead):
        assert AlgebraElement(AlgebraDescriptor("matrix", dim), data[idx]).norm() == got[idx]


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=lambda d: d.kind)
def test_singular_values_are_kept_and_read_only(desc):
    t = rand_operator(desc, 3, 2, np.random.default_rng(51))
    svals = t.singular_values()
    per_channel = np.linalg.svd(t.channels, compute_uv=False)
    np.testing.assert_array_equal(svals, np.sort(per_channel, axis=None)[::-1])
    assert not svals.flags.writeable
    with pytest.raises(ValueError):
        svals[0] = 0.0
    assert t.singular_values() is svals
    assert t.norm() == float(svals[0])


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=lambda d: d.kind)
def test_one_svd_per_operator(monkeypatch, desc):
    rng = np.random.default_rng(52)
    q = rand_operator(desc, 3, 3, rng)
    t = q + AdjointableOperator.scalar(desc, 3, 0.25 * float(np.abs(q.blocks).sum()) + 1.0)
    chans = t.channels
    inputs = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    t.norm()
    t.inverse()
    _singular_range(t)
    t.is_hermitian()
    positive_part_checks(t)
    t.norm()
    on_t = [a for a in inputs if a.shape == chans.shape and np.array_equal(a, chans)]
    assert len(on_t) == 1


# Relative tolerance of the per-channel spectral data of C^k against the dense
# flattening, in which every block is a k x k diagonal embedding.
DENSE_RTOL = 1e-12


def _close(got, want, scale):
    assert np.shape(got) == np.shape(want)
    assert float(np.max(np.abs(np.asarray(got) - want))) <= DENSE_RTOL * max(1.0, scale)


def _flat_witness(coords: np.ndarray, kind: str) -> np.ndarray:
    """The vector as one column of coordinates: its first row for M_d, all of it for C^k."""
    return (coords[:, 0, :] if kind == "matrix" else coords).ravel()


def _dense_top(f: np.ndarray) -> tuple:
    """Top eigenvalue of the Hermitian part of a dense matrix, and its conjugated eigenvector."""
    vals, vecs = np.linalg.eigh(0.5 * (f + f.conj().T))
    return vals[-1], vecs[:, -1].conj()


def _extreme_witnesses(t: AdjointableOperator) -> list:
    """The witnesses of t's smallest and largest eigenvalue: loewner_gap against zero."""
    zero = AdjointableOperator.zero(t.descriptor, t.in_rank, t.in_rank)
    witnesses = []
    for lhs, rhs in ((zero, t), (t, zero)):
        gaps, stack = loewner_gap(lhs, rhs)
        witnesses.append(stack[int(np.argmax(gaps))])
    return witnesses


def _dense_witnesses(t: AdjointableOperator) -> list:
    # The conjugated extreme eigenvectors of the flattened Hermitian part: the
    # witness coordinates the dense model gives.
    zero = AdjointableOperator.zero(t.descriptor, t.in_rank, t.in_rank)
    return [_dense_top((zero - t).flat())[1], _dense_top(t.flat())[1]]


def test_diagonal_spectra_match_the_dense_flattening():
    desc = AlgebraDescriptor("diagonal", 4)
    rng = np.random.default_rng(61)
    wide = rand_operator(desc, 3, 5, rng)
    square = rand_operator(desc, 3, 3, rng)
    positive = rand_positive_operator(desc, 3, rng)
    for t in (wide, square, positive):
        f = t.flat()
        _close(t.singular_values(), np.linalg.svd(f, compute_uv=False), t.norm())
    for t in (square, positive):
        f = t.flat()
        _close(t.hermitian_defect(), np.linalg.norm(f - f.conj().T, 2), t.norm())
        _close(t.eigenvalues_hermitian(), np.linalg.eigvalsh(0.5 * (f + f.conj().T)), t.norm())
        inverse = np.linalg.inv(f)
        _close(t.inverse().flat(), inverse, np.linalg.norm(inverse, 2))
    vals, vecs = np.linalg.eigh(positive.flat())
    root = (vecs * np.sqrt(vals)) @ vecs.conj().T
    _close(positive.sqrt_positive().flat(), root, np.linalg.norm(root, 2))
    for t in (square, positive):
        # Eigenvectors are fixed up to a phase, so the witnesses are compared as projectors.
        for got, want in zip(_extreme_witnesses(t), _dense_witnesses(t)):
            got = _flat_witness(got, "diagonal")
            _close(np.outer(got, got.conj()), np.outer(want, want.conj()), 1.0)


def test_matrix_witnesses_are_the_dense_eigenvectors_bit_for_bit():
    desc = AlgebraDescriptor("matrix", 2)
    q = rand_operator(desc, 3, 3, np.random.default_rng(62))
    h = q + q.adjoint()
    for got, want in zip(_extreme_witnesses(h), _dense_witnesses(h)):
        assert np.array_equal(_flat_witness(got, "matrix"), want)
        assert not np.any(got[:, 1:, :])


def _channel_indices(desc: AlgebraDescriptor, rank: int) -> list:
    """Rows and columns of each channel inside the dense flattening."""
    if desc.kind == "matrix":
        return [np.arange(rank * desc.dim)]
    return [np.arange(rank) * desc.dim + j for j in range(desc.dim)]


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 4)],
                         ids=lambda d: d.kind)
def test_loewner_gap_matches_the_dense_flattening(desc):
    rng = np.random.default_rng(63)
    lhs = rand_operator(desc, 3, 3, rng)
    rhs = rand_positive_operator(desc, 3, rng)
    gaps, witnesses = loewner_gap(lhs, rhs)
    f = lhs.flat() - rhs.flat()
    assert gaps.shape == (len(_channel_indices(desc, 3)),)
    for channel, idx in enumerate(_channel_indices(desc, 3)):
        _close(gaps[channel], _dense_top(f[np.ix_(idx, idx)])[0], np.linalg.norm(f, 2))
        # The witness is a unit vector of that channel at which <(lhs - rhs) x, x> attains the gap.
        x = ModuleVector(desc, witnesses[channel])
        entry = (0, 0) if desc.kind == "matrix" else (channel, channel)
        value = x.flat() @ f @ x.flat().conj().T
        _close(value[entry].real, gaps[channel], np.linalg.norm(f, 2))
        assert (x.flat() @ x.flat().conj().T)[entry].real == pytest.approx(1.0, rel=1e-14)
    assert float(gaps.max()) == pytest.approx(_dense_top(f)[0], rel=DENSE_RTOL)


def test_element_invert_takes_one_svd(monkeypatch):
    a = AlgebraElement.matrix([[2.0, 1.0], [0.5, 3.0]])
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    inv = a.invert()
    assert len(calls) == 1
    np.testing.assert_allclose(inv.data @ a.data, np.eye(2), atol=1e-14)


def test_non_finite_spectra_raise_domain_error():
    # LAPACK raises LinAlgError on a NaN entry and returns NaN without raising on
    # an infinite one; the 2-norm kernel and an operator's singular values turn
    # both into a DomainError.
    desc = AlgebraDescriptor("matrix", 2)
    for bad in (np.nan, np.inf):
        mat = np.array([[1.0, 0.5], [bad, 1.0]], dtype=np.complex128)
        for mats in (mat, np.stack([np.eye(2), mat])):
            with pytest.raises(DomainError):
                two_norm(mats)
        with pytest.raises(DomainError):
            AdjointableOperator.from_blocks(desc, mat.reshape(1, 1, 2, 2)).singular_values()
    # NaN reaches the eigensolvers without a floating-point warning; they
    # return NaN, which is refused too.
    nan_op = AdjointableOperator.from_blocks(desc, np.array([[1.0, 0.5], [np.nan, 1.0]]).reshape(1, 1, 2, 2))
    kernels = (lambda op: op.eigenvalues_hermitian(), lambda op: op.sqrt_positive(),
               lambda op: loewner_gap(op, AdjointableOperator.zero(desc, 1, 1)))
    for kernel in kernels:
        with pytest.raises(DomainError):
            kernel(nan_op)
    assert two_norm(np.array([[1e200, 0.0], [0.0, 1.0]])) == 1e200


@pytest.mark.parametrize("size", [2, algebra._PYTHON_TEST_SIZE + 1], ids=["python", "numpy"])
def test_finite_spectrum_tests_values_not_their_sum(size):
    # Singular values of 1e308 are finite though their sum overflows; on both
    # sides of the size switch they pass, and one NaN or infinity among them fails.
    huge = np.full((size, 1, 1), 1e308)
    np.testing.assert_array_equal(two_norm(huge), np.full(size, 1e308))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            two_norm(np.where(np.arange(size)[:, None, None] == size - 1, bad, huge))


def test_finite_spectrum_reads_a_small_complex_result():
    # T55's pseudo-inverse is complex, with fewer values than the Python
    # test's switch at desk scale: it comes back bit for bit, and NaN raises.
    x = np.arange(6.0).reshape(1, 2, 3) + 1j
    assert algebra.finite_spectrum(np.linalg.pinv, x).tobytes() == np.linalg.pinv(x).tobytes()
    x[0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        algebra.finite_spectrum(np.linalg.pinv, x)


def test_nan_diagonal_spectrum_raises_domain_error():
    # eigvalsh can return finite values for a Hermitian matrix with NaN on its
    # diagonal ([[nan, 0], [0, 1]] gives [0, -0] on numpy 2.4), and the spectrum
    # is read here before anything has read the operator's norm.
    desc = AlgebraDescriptor("matrix", 2)
    blocks = np.array([[np.nan, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
    nan_diagonal = AdjointableOperator.from_blocks(desc, blocks)
    with pytest.raises(DomainError):
        nan_diagonal.eigenvalues_hermitian()


KINDS = [AlgebraDescriptor("matrix", 3), AlgebraDescriptor("diagonal", 4)]


def _as_operator(a: AlgebraElement) -> AdjointableOperator:
    return AdjointableOperator.from_blocks(a.descriptor, a.data[None, None])


@pytest.mark.parametrize("desc", KINDS, ids=lambda d: d.kind)
def test_element_methods_are_those_of_the_one_by_one_operator(desc):
    # An element is a 1 x 1 block: channels (1, d, d) or (k, 1, 1), run
    # through the same kernel as an operator's.
    rng = np.random.default_rng(61)
    a, b = (AlgebraElement(desc, _random(desc.shape, rng, complex)) for _ in "ab")
    positive = a * a.adjoint() + AlgebraElement.scalar(desc, 0.5)
    op_a, op_b, op_positive = map(_as_operator, (a, b, positive))

    def close(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    close(a.norm(), op_a.norm())
    close(a.hermitian_defect(), op_a.hermitian_defect())
    close(a.eigenvalues_hermitian(), op_a.eigenvalues_hermitian())
    close(positive.sqrt_positive().data, op_positive.sqrt_positive().blocks[0, 0])
    close(a.invert().data, op_a.inverse().blocks[0, 0])
    # Blocks act on the right, so block (0, 0) of (B after A) is a b.
    close((a * b).data, (op_b @ op_a).blocks[0, 0])
    close(a.adjoint().data, op_a.adjoint().blocks[0, 0])


@pytest.mark.parametrize("rows", [[[np.nan, 0.0], [0.0, 1.0]], [np.nan, 1.0]],
                         ids=["matrix", "diagonal"])
def test_nan_elements_raise_domain_error(rows):
    a = AlgebraElement.matrix(rows) if np.ndim(rows) == 2 else AlgebraElement.diag(rows)
    for method in (a.norm, a.eigenvalues_hermitian, a.invert):
        with pytest.raises(DomainError):
            method()
    # The batched norms refuse a NaN or infinite entry in both kinds too.
    finite = AlgebraElement.one(a.descriptor).data
    for bad in (np.nan, np.inf):
        stack = np.stack([finite, np.where(np.isnan(a.data), bad, a.data)])
        with pytest.raises(DomainError):
            element_norms(a.descriptor, stack)


@pytest.mark.parametrize("desc", [AlgebraDescriptor("diagonal", 2),
                                  AlgebraDescriptor("matrix", 2)], ids=["diagonal", "matrix"])
def test_nan_member_fails_the_family_commutation_check(desc):
    # Over C^2 at rank 1 every channel is 1 x 1, so the 2-norms are moduli;
    # a NaN member must not read as commuting (defect 0.0).
    blocks = AlgebraElement.one(desc).data.copy()[None, None]
    blocks.flat[0] = np.nan
    identity = AdjointableOperator.identity(desc, 1)
    system = GFrameSystem(MeasureSpace((("w0", 1.0), ("w1", 1.0))),
                          {"w0": identity, "w1": AdjointableOperator.from_blocks(desc, blocks)},
                          identity, identity)
    with pytest.raises(DomainError):
        system.controls.family_defect
    with pytest.raises(DomainError):
        system.controls.commute_with_family


@pytest.mark.parametrize("shape", [(3, 1, 2), (3, 2, 1), (1, 1), (1001, 8, 1, 1)],
                         ids=["row", "column", "scalar", "atom-stack"])
def test_one_row_or_column_norms_refuse_non_finite_entries(shape):
    # Rows and columns take the SVD, not the Frobenius norm, which differs in
    # the last digit on the row (7.810249675906656 against ...654).
    finite = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    assert np.asarray(two_norm(finite)).tobytes() == _two_norm_oracle(finite).tobytes()
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            two_norm(np.where(finite == finite.max(), bad, finite))


@pytest.mark.parametrize("entries, want", [(([[1e200, 1.0]], [[2.0, 3.0]]), [1e200, 3.0]),
                                           (([[1e200, 1e200], [1e200, 1e200]],),
                                            [math.sqrt(2.0) * 1e200])],
                         ids=["scalar-members", "rank-two-member"])
def test_member_norms_do_not_square_their_entries(entries, want):
    # Members on A^1 over C^2, one row of C^2 blocks each: every channel is
    # 1 x 1 or one row, whose 2-norm is finite though its squared entries
    # overflow.
    desc = AlgebraDescriptor("diagonal", 2)
    ops = [AdjointableOperator.from_blocks(desc, np.asarray(rows, dtype=complex)[None]) for rows in entries]
    labels = [f"w{i}" for i in range(len(ops))]
    family = Family.of(dict(zip(labels, ops)), labels)
    np.testing.assert_allclose(family.member_norms(), want, rtol=1e-15)


def _ord_two_norm_calls(root: Path) -> list:
    """``file:line`` of every ``np.linalg.norm`` call with ord 2 under root."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "norm" and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "linalg"):
                continue
            ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
            if any(isinstance(o, ast.Constant) and o.value in (2, -2) for o in ords):
                found.append((str(path.relative_to(root)), node.lineno))
    return [f"{name}:{line}" for name, line in sorted(found)]


def test_kernel_is_the_only_two_norm():
    assert _ord_two_norm_calls(Path(gframe.__file__).parent) == []


ZERO_SHAPES = [(1, 1, 1), (3, 1, 1), (1, 4, 4), (2, 3, 5), (4, 1, 3)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", ZERO_SHAPES, ids=str)
def test_zero_stacks_take_no_svd(monkeypatch, shape, dtype):
    # The SVD of a zero matrix is exactly zero: the kernel gives the same
    # values, shape and dtype without calling LAPACK.
    zeros = np.zeros(shape, dtype=dtype)
    svals = algebra.finite_spectrum(np.linalg.svd, zeros, compute_uv=False)
    want_norms, want_svals = svals[..., 0], np.sort(svals, axis=None)[::-1]

    def refused(*args, **kwargs):
        raise AssertionError("an all-zero stack reached the SVD")

    monkeypatch.setattr(np.linalg, "svd", refused)
    for got, want in ((np.asarray(two_norm(zeros)), want_norms),
                      (algebra.singular_values(zeros), want_svals)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_within_tolerance_reads_the_norm_only_beyond_tol():
    tol = 1e-9
    for norm in (0.0, 0.5, 1.0, 1.0 + 2e-16, 3.0, 1e6):
        for value in (0.0, 0.5 * tol, tol, tol * norm, tol * max(1.0, norm), 2.0 * tol,
                      1.5 * tol * norm, 1e-3, np.float64(tol)):
            calls = []

            def counted():
                calls.append(1)
                return norm

            got = algebra.within_tolerance(value, tol, counted)
            assert got == (value <= tol * algebra.tolerance_scale(norm))
            assert isinstance(got, bool)
            assert calls == ([] if value <= tol else [1])


def test_scalar_controls_take_no_svd_in_the_family_check(monkeypatch):
    # Scalar controls commute with every Gram: each commutator is the zero
    # stack, so neither it, nor the control channels for their scale, nor the
    # Grams for theirs reach the SVD.
    system = random_system(4, algebra="matrix", dim=2, scalar_controls=True)
    inputs = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert system.controls.family_defect == 0.0
    assert system.controls.commute_with_family
    assert inputs == []


@pytest.mark.parametrize("entry", [(0, 0, np.nan), (0, 1, np.nan), (0, 1, np.inf), (1, 0, -np.inf)],
                         ids=["nan-diagonal", "nan", "inf", "minus-inf"])
def test_non_finite_operators_are_refused_by_is_hermitian(entry):
    row, col, bad = entry
    mat = np.array([[2.0, 0.5], [0.5, 3.0]], dtype=np.complex128)
    mat[row, col] = bad
    t = AdjointableOperator.from_blocks(AlgebraDescriptor("matrix", 2), mat.reshape(1, 1, 2, 2))
    with pytest.raises(DomainError):
        t.is_hermitian()
    with pytest.raises(DomainError):
        t.is_positive()


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=lambda d: d.kind)
def test_non_square_operators_are_not_hermitian(desc):
    t = rand_operator(desc, 3, 2, np.random.default_rng(53))
    assert t.is_hermitian() is False
    assert t.is_positive() is False
    assert positive_part_checks(t)["self_adjoint"] is False
    rows, cols = t.channels.shape[1:]
    with pytest.raises(DomainError, match=f"non-square {rows} x {cols}"):
        t.hermitian_defect()

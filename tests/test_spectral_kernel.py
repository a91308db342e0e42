"""The one 2-norm kernel, the per-channel spectra each operator keeps, and their dense oracle."""

import ast
import functools
import math
from pathlib import Path

import numpy as np
import pytest

import gframe
from gframe import algebra, frames, hilbert, theorems
from gframe.algebra import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    element_norms,
    frobenius_bound,
    two_norm,
)
from gframe.cli import main
from gframe.errors import DomainError
from gframe.frames import ControlPair, Family, GFrameSystem
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import (
    AdjointableOperator,
    ModuleVector,
    loewner_gap,
    positive_part_checks,
)
from gframe.measure import MeasureSpace
from gframe.sampling import complex_gaussian, rand_operator, rand_positive_operator
from gframe.serialize import load_system, save_system
from gframe.theorems import _singular_range

from conftest import ORACLE_SYSTEMS

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
    system = GFrameSystem(MeasureSpace(["w0", "w1"], [1.0, 1.0]),
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


# -- bound-first flags: a Frobenius bound first, the exact 2-norm only where it cannot decide --

def _submodule_break_commutation(seed: int) -> GFrameSystem:
    """SUBMODULE's break_commutation instance: its first member coupled across the split."""
    system, _, r = theorems._block_diag_system(seed)
    family = system.stacked_family
    blocks = family.stack.blocks.copy()
    blocks[0, r] = 0.5 * AlgebraElement.one(system.descriptor).data
    return system.with_family(family.with_stack(AdjointableOperator.from_blocks(system.descriptor, blocks)))


def _bumped_control(seed: int) -> GFrameSystem:
    """The break_commutation instance of the rows whose control C takes a positive bump."""
    draw = theorems._Draws(seed)
    return theorems._bump_control(draw(scalar_controls=True), draw, True)


# The oracle systems, the six inputs of the file-command snapshot, the
# non-commuting CLI draw `random --seed 3 --rank 2 --algebra matrix --dim 2
# --non-commuting`, and the break_commutation instances of SUBMODULE and of the
# rows whose control C takes a bump.
BOUND_FIRST_SYSTEMS = {
    **{f"oracle-{kwargs['seed']}": functools.partial(random_system, **kwargs)
       for kwargs in ORACLE_SYSTEMS},
    "example": functools.partial(unit_interval_system, 2.0, 3.0, 3, 11),
    "random-matrix": functools.partial(random_system, 5, algebra="matrix", dim=3),
    "random-diagonal": functools.partial(random_system, 7, algebra="diagonal", dim=3),
    "mixed-diagonal": functools.partial(random_system, 27, rank=2, algebra="diagonal", dim=3,
                                        pad_outputs=True),
    "mixed-matrix": functools.partial(random_system, 25, rank=2, algebra="matrix", dim=2,
                                      pad_outputs=True),
    "mixed-rank-one": functools.partial(random_system, 3, rank=1, algebra="diagonal", dim=3,
                                        pad_outputs=True),
    "non-commuting": functools.partial(random_system, 3, rank=2, algebra="matrix", dim=2,
                                       commuting=False),
    **{f"submodule-break-{seed}": functools.partial(_submodule_break_commutation, seed)
       for seed in range(3)},
    **{f"bumped-control-{seed}": functools.partial(_bumped_control, seed) for seed in range(3)},
}


def _fresh_pair(system: GFrameSystem) -> ControlPair:
    return ControlPair.build(system.controls.C, system.controls.Cp, system.stacked_family)


@pytest.mark.parametrize("name", sorted(BOUND_FIRST_SYSTEMS))
def test_bound_first_flags_equal_the_defect_rule(name):
    system = BOUND_FIRST_SYSTEMS[name]()
    flags, defects = _fresh_pair(system), _fresh_pair(system)
    each, family = defects.commute_defect, defects.family_defect
    assert flags.commute_each_other is (each <= DEFAULT_TOL)
    assert flags.commute_with_family is (family <= DEFAULT_TOL)
    # On these inputs the bound decides every pass: a defect is computed only for a failed flag.
    assert ("commute_defect" in vars(flags)) is not flags.commute_each_other
    assert ("family_defect" in vars(flags)) is not flags.commute_with_family


def test_kept_defects_decide_the_flags(monkeypatch):
    # The theorem rows read the defects first; the flags then read them, not the bound.
    pair = _fresh_pair(random_system(3, rank=2, algebra="matrix", dim=2, commuting=False))
    pair.commute_defect, pair.family_defect
    monkeypatch.setattr(frames, "frobenius_bound", None)
    assert pair.commute_each_other is False and pair.commute_with_family is False


def _threshold_pair(defect: float) -> ControlPair:
    """A pair whose commute_defect and family_defect are both ``defect``, to a few ulps.

    On A^1 over M_2: C = diag(1/2, 1), C' = [[1, t], [t, 1]] and one member
    [[1, 0], [t, 1]], whose Gram is C' in floating point.  Both commutators
    are (t / 2) [[0, 1], [-1, 0]] exactly, and each is divided by 1 + t, the
    norm of C' and of the Gram.
    """
    t = 2.0 * defect / (1.0 - 2.0 * defect)
    desc = AlgebraDescriptor("matrix", 2)

    def op(rows):
        return AdjointableOperator.from_blocks(desc, np.reshape(rows, (1, 1, 2, 2)))

    member = op([[1.0, 0.0], [t, 1.0]])
    return ControlPair.build(op([[0.5, 0.0], [0.0, 1.0]]), op([[1.0, t], [t, 1.0]]),
                             Family(["w0"], [1], member))


@pytest.mark.parametrize("k", range(1, 14))
def test_bound_first_flags_agree_at_the_threshold(k):
    for side in (-1.0, 1.0):
        target = DEFAULT_TOL * (1.0 + side * 10.0 ** -k)
        flags, defects = _threshold_pair(target), _threshold_pair(target)
        for defect in (defects.commute_defect, defects.family_defect):
            assert defect == pytest.approx(target, rel=1e-15)
            assert (defect <= DEFAULT_TOL) is (side < 0)
        assert flags.commute_each_other is (defects.commute_defect <= DEFAULT_TOL)
        assert flags.commute_with_family is (defects.family_defect <= DEFAULT_TOL)


@pytest.mark.parametrize("k", range(1, 14))
def test_the_bound_never_passes_what_the_two_norm_fails(k):
    rng = np.random.default_rng(61)
    a, b = complex_gaussian(rng, (2, 4, 2, 3, 3))
    rank_one = np.zeros((1, 2, 2), dtype=complex)
    rank_one[0, 0, 1] = 1.0 - 0.5j  # a multiple of [E11, E12] = E12, whose 2-norm is its Frobenius norm
    for x in (a @ b - b @ a, rank_one, complex_gaussian(rng, (5, 1, 1))):
        for side in (-1.0, 1.0):
            scaled = x * (DEFAULT_TOL * (1.0 + side * 10.0 ** -k) / two_norm(x).max())
            exact = bool(two_norm(scaled).max() <= DEFAULT_TOL)
            assert exact is (side < 0)
            assert not frobenius_bound(scaled) <= DEFAULT_TOL or exact
    # Where the Frobenius norm is the 2-norm the bound decides down to a 1e-13 margin.
    assert frobenius_bound(rank_one * (DEFAULT_TOL * (1.0 - 10.0 ** -k) / abs(1.0 - 0.5j))) <= DEFAULT_TOL


def test_validate_takes_no_svd_of_a_commutator_or_a_gram(tmp_path, monkeypatch):
    # The medium rung: rank 8, M_4, 64 atoms.  Its one SVD is the frame operator's norm.
    path = tmp_path / "medium.json"
    save_system(random_system(1, rank=8, atoms=64, algebra="matrix", dim=4), path)
    frame_operator = load_system(path).frame_operator.channels
    inputs = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert main(["validate", str(path), "--out", str(tmp_path / "validate.json")]) == 0
    assert [a.shape for a in inputs] == [frame_operator.shape]
    assert np.array_equal(inputs[0], frame_operator)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=str)
def test_frobenius_bound_passes_no_non_finite_entry(bad):
    x = np.zeros((2, 1, 3, 3), dtype=complex)
    x[1, 0, 2, 1] = bad
    with np.errstate(all="raise"):
        assert not frobenius_bound(x) <= 1e300


@pytest.mark.parametrize("entry", [1e200, 1e300 + 1e300j], ids=["1e200", "complex-1e300"])
def test_frobenius_bound_squares_no_large_entry(entry):
    x = np.full((2, 1, 3, 3), entry, dtype=complex)
    with np.errstate(all="raise"):
        bound = frobenius_bound(x)
    frobenius = 3.0 * abs(entry)
    assert frobenius <= bound <= frobenius * (1.0 + 1e-14)


@pytest.mark.parametrize("entry", [1e-160, 1e-170, 1e-200])
def test_tiny_entries_do_not_underflow_into_a_pass(entry):
    # Squared, 1e-170 is below the smallest subnormal: an unscaled sum would read 0.
    x = np.full((1, 2, 2), entry, dtype=complex)
    assert not frobenius_bound(x) <= 1e-300
    assert frobenius_bound(x) == pytest.approx(2.0 * entry, rel=1e-14)
    assert frobenius_bound(np.zeros((3, 2, 2), dtype=complex)) == 0.0


def test_hermitian_bound_is_kept_and_the_defect_stays_exact(monkeypatch):
    desc = AlgebraDescriptor("matrix", 2)
    rng = np.random.default_rng(62)
    h = rand_positive_operator(desc, 3, rng, shift=0.5)
    calls = []
    original = hilbert.frobenius_bound

    def counted(mats):
        calls.append(1)
        return original(mats)

    monkeypatch.setattr(hilbert, "frobenius_bound", counted)
    for skew, hermitian in ((1e-12, True), (1e-3, False)):
        t = h + skew * rand_operator(desc, 3, 3, rng)
        calls.clear()
        for tol in (DEFAULT_TOL, 10 * DEFAULT_TOL, 1e-6):
            assert t.is_hermitian(tol) is hermitian
        positive_part_checks(t)
        t.is_positive()
        assert len(calls) == 1
        diff = t.channels - t.channels.conj().swapaxes(-1, -2)
        assert t.hermitian_defect() == float(np.linalg.norm(diff, 2, axis=(-2, -1)).max())


@pytest.mark.filterwarnings("error")
def test_a_zero_member_needs_no_floor_in_the_family_defect(monkeypatch):
    # The unit-interval example's first Simpson atom is the zero operator.  Its
    # members, times one fixed pattern on A^2, face a control C that commutes
    # with no Gram.  Without the floor at 1 the zero member's Gram scale is 0;
    # its defect is 0, not 0/0.
    example = unit_interval_system(2.0, 3.0, 2, 5)
    desc = example.descriptor
    rng = np.random.default_rng(63)
    values = example.stacked_family.stack.blocks[0]  # one C^2 value per atom, the first 0
    pattern = complex_gaussian(rng, (2, 2, 2))
    family = {label: AdjointableOperator.from_blocks(desc, pattern * value)
              for label, value in zip(example.measure.labels, values)}
    c = rand_positive_operator(desc, 2, rng, shift=0.3)
    system = GFrameSystem(example.measure, family, c, AdjointableOperator.identity(desc, 2))

    def floorless(*norms):
        if any(isinstance(norm, np.ndarray) for norm in norms):
            return functools.reduce(np.maximum, norms)
        return float(max(norms))

    monkeypatch.setattr(frames, "tolerance_scale", floorless)
    chans, worst = c.channels, 0.0
    for member in list(system.family.values())[1:]:
        grams = member.channels @ member.channels.conj().swapaxes(-1, -2)
        defect = np.linalg.norm(grams @ chans - chans @ grams, 2, axis=(-2, -1)).max()
        worst = max(worst, defect / np.linalg.norm(grams, 2, axis=(-2, -1)).max())
    worst /= np.linalg.norm(chans, 2, axis=(-2, -1)).max()
    assert worst > DEFAULT_TOL
    assert system.controls.family_defect == pytest.approx(worst, rel=1e-12)

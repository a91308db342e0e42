import numpy as np
import pytest

from gframe.algebra import AlgebraDescriptor, AlgebraElement, leq
from gframe.errors import DomainError, InputError
from gframe.hilbert import (
    AdjointableOperator,
    DirectSumSpace,
    ModuleVector,
    compose,
    compose_all,
    pairing,
    positive_part_checks,
    vector_from_flat_row,
    weighted_sum,
)
from gframe.sampling import rand_operator, rand_positive_operator, rand_vector

C1 = AlgebraDescriptor("matrix", 1)


def _vec1(*values):
    return ModuleVector(C1, np.array(values, dtype=np.complex128).reshape(-1, 1, 1))


def test_inner_product_scalar_cases():
    assert _vec1(1, 0).inner(_vec1(0, 1)).data[0, 0] == 0
    assert _vec1(1, 1).inner(_vec1(1, 1)).data[0, 0] == 2


def test_inner_product_block_expansion(m2):
    rng = np.random.default_rng(21)
    a = AlgebraElement(m2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = AlgebraElement(m2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    one = AlgebraElement.one(m2)
    x = ModuleVector.from_elements([one, a])
    y = ModuleVector.from_elements([b, one])
    expected = one * b.adjoint() + a * one
    assert (x.inner(y) - expected).norm() <= 1e-14


def test_inner_product_hermitian_symmetry(m2):
    rng = np.random.default_rng(22)
    x = rand_vector(m2, 3, rng)
    y = rand_vector(m2, 3, rng)
    assert (x.inner(y) - y.inner(x).adjoint()).norm() <= 1e-13


def test_scalar_norm_examples(m2):
    one = AlgebraElement.one(m2)
    zero = AlgebraElement.zero(m2)
    x = ModuleVector.from_elements([one, zero, zero])
    assert x.norm() == 1.0
    assert ModuleVector.zero(m2, 3).norm() == 0.0
    rng = np.random.default_rng(23)
    y = rand_vector(m2, 3, rng)
    assert y.norm() == pytest.approx(float(np.linalg.norm(y.flat(), 2)), abs=1e-12)


def test_module_action_is_left_linear(m2):
    rng = np.random.default_rng(24)
    a = AlgebraElement(m2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    x = rand_vector(m2, 2, rng)
    y = rand_vector(m2, 2, rng)
    assert ((a * x).inner(y) - a * x.inner(y)).norm() <= 1e-13


def test_self_inner_product_is_positive(m2, diag3):
    rng = np.random.default_rng(50)
    for desc in (m2, diag3):
        for _ in range(20):
            x = rand_vector(desc, 3, rng)
            assert x.inner(x).is_positive(1e-12)


def test_operators_are_module_linear(m2):
    rng = np.random.default_rng(51)
    t = rand_operator(m2, 3, 2, rng)
    a = AlgebraElement(m2, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    x = rand_vector(m2, 3, rng)
    assert (t(a * x) - a * t(x)).norm() <= 1e-13 * max(1.0, a.norm() * t.norm() * x.norm())


def test_apply_identity_and_zero(m2):
    rng = np.random.default_rng(25)
    x = rand_vector(m2, 3, rng)
    eye = AdjointableOperator.identity(m2, 3)
    assert (eye(x) - x).norm() == 0.0
    zero = AdjointableOperator.zero(m2, 3, 2)
    assert zero(x).norm() == 0.0


def test_apply_norm_inequality(m2):
    # <Tx, Tx> <= ||T||^2 <x, x> as an order relation
    rng = np.random.default_rng(26)
    t = rand_operator(m2, 3, 2, rng)
    cap = AlgebraElement.scalar(m2, t.norm() ** 2)
    for _ in range(25):
        x = rand_vector(m2, 3, rng)
        tx = t(x)
        assert leq(tx.inner(tx), cap * x.inner(x), 1e-9)


def test_adjoint_identity_and_scalar_case(m2):
    eye = AdjointableOperator.identity(m2, 3)
    assert (eye.adjoint() - eye).norm() == 0.0
    rng = np.random.default_rng(27)
    t = rand_operator(C1, 3, 2, rng)
    assert np.allclose(t.adjoint().flat(), t.flat().conj().T)


def test_adjoint_pairing_sampled(m2):
    rng = np.random.default_rng(28)
    t = rand_operator(m2, 3, 2, rng)
    t_adj = t.adjoint()
    for _ in range(50):
        x = rand_vector(m2, 3, rng)
        y = rand_vector(m2, 2, rng)
        defect = (t(x).inner(y) - x.inner(t_adj(y))).norm()
        assert defect <= 1e-12 * max(1.0, t.norm() * x.norm() * y.norm())


def test_adjoint_defect_sweep():
    rng = np.random.default_rng(29)
    for i in range(1000):
        kind = "matrix" if i % 2 == 0 else "diagonal"
        desc = AlgebraDescriptor(kind, int(rng.integers(1, 4)))
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        t = rand_operator(desc, n, m, rng)
        x = rand_vector(desc, n, rng)
        y = rand_vector(desc, m, rng)
        defect = (t(x).inner(y) - x.inner(t.adjoint()(y))).norm()
        assert defect <= 1e-10 * (1.0 + t.norm()) * x.norm() * y.norm()


def test_compose_identity_adjoint_associativity(m2):
    rng = np.random.default_rng(30)
    s = rand_operator(m2, 3, 2, rng)
    eye = AdjointableOperator.identity(m2, 3)
    assert (compose(s, eye) - s).norm() == 0.0
    t = rand_operator(m2, 4, 3, rng)
    left = compose(s, t).adjoint()
    right = compose(t.adjoint(), s.adjoint())
    assert (left - right).norm() <= 1e-13 * max(1.0, s.norm() * t.norm())
    r = rand_operator(m2, 2, 5, rng)
    scale = max(1.0, r.norm() * s.norm() * t.norm())
    assert (compose(compose(r, s), t) - compose(r, compose(s, t))).norm() <= 1e-13 * scale


def test_compose_shape_mismatch(m2):
    rng = np.random.default_rng(31)
    s = rand_operator(m2, 3, 2, rng)
    t = rand_operator(m2, 4, 4, rng)
    with pytest.raises(InputError):
        compose(s, t)


def test_flatten_identity_block_structure(m2):
    eye = AdjointableOperator.identity(m2, 2)
    assert np.array_equal(eye.flat(), np.eye(4))


def test_flatten_functoriality(m2):
    rng = np.random.default_rng(32)
    t = rand_operator(m2, 3, 2, rng)
    s = rand_operator(m2, 2, 4, rng)
    assert np.array_equal(t.adjoint().flat(), t.flat().conj().T)
    assert np.allclose(compose(s, t).flat(), t.flat() @ s.flat(), atol=1e-13)


def test_flatten_round_trip_diagonal(diag3):
    rng = np.random.default_rng(33)
    t = rand_operator(diag3, 2, 4, rng)
    back = AdjointableOperator.from_flat(diag3, 2, 4, t.flat())
    assert (back - t).norm() == 0.0
    dense = t.flat().copy()
    dense[0, 1] = 5.0  # off the diagonal of block (0, 0)
    with pytest.raises(InputError):
        AdjointableOperator.from_flat(diag3, 2, 4, dense, tol=1e-10)


def test_positivity_bridge(m2):
    rng = np.random.default_rng(34)
    for _ in range(100):
        q = rand_operator(m2, 3, 3, rng)
        s = q.adjoint() @ q  # flattening is PSD by construction
        assert s.is_positive()
        for _ in range(2):
            x = rand_vector(m2, 3, rng)
            assert s(x).inner(x).is_positive(1e-9)
    # a PSD violation yields a module-level witness through the eigenvector
    q = rand_operator(m2, 3, 3, rng)
    indefinite = q + q.adjoint()
    vals, vecs = np.linalg.eigh(indefinite.flat())
    if vals[0] < -1e-6:
        witness = vector_from_flat_row(m2, 3, vecs[:, 0].conj())
        assert not indefinite(witness).inner(witness).is_positive(1e-9)


def test_operator_norm_examples(m2):
    eye = AdjointableOperator.identity(m2, 3)
    assert eye.norm() == pytest.approx(1.0, abs=1e-14)
    assert (eye * (-2.5j)).norm() == pytest.approx(2.5, abs=1e-13)


def test_operator_norm_sampled_lower_bound(m2):
    rng = np.random.default_rng(0)
    t = rand_operator(m2, 2, 2, rng)
    best = max(t(rand_vector(m2, 2, rng, unit=True)).norm() for _ in range(500))
    assert best <= t.norm() + 1e-12
    assert (t.norm() - best) / t.norm() < 0.05


def test_bounded_below_examples(m2):
    eye = AdjointableOperator.identity(m2, 2)
    assert eye.bounded_below_constant() == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(36)
    deficient_blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    deficient_blocks[0, 0] = np.eye(2)
    deficient = AdjointableOperator(m2, deficient_blocks)
    assert deficient.bounded_below_constant() == pytest.approx(0.0, abs=1e-14)
    q = rand_operator(m2, 2, 2, rng)
    t = q + AdjointableOperator.scalar(m2, 2, q.norm() + 0.5)
    sigma = t.bounded_below_constant()
    for _ in range(200):
        x = rand_vector(m2, 2, rng)
        assert sigma * x.norm() <= t(x).norm() + 1e-10


def test_positive_part_checks(m2):
    eye = AdjointableOperator.identity(m2, 2)
    rep = positive_part_checks(eye)
    assert rep == {"self_adjoint": True, "positive": True, "invertible": True,
                   "lower": pytest.approx(1.0), "upper": pytest.approx(1.0)}
    rng = np.random.default_rng(37)
    q = rand_operator(m2, 2, 3, rng)
    gram = q.adjoint() @ q
    rep = positive_part_checks(gram)
    assert rep["self_adjoint"] and rep["positive"] and rep["invertible"]
    assert rep["lower"] >= q.bounded_below_constant() ** 2 - 1e-9
    nil_blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    nil_blocks[0, 1] = np.eye(2)
    nilpotent = AdjointableOperator(m2, nil_blocks)
    assert not positive_part_checks(nilpotent)["self_adjoint"]


def test_cauchy_schwarz(m2):
    rng = np.random.default_rng(38)
    for _ in range(100):
        x = rand_vector(m2, 3, rng)
        y = rand_vector(m2, 3, rng)
        assert x.inner(y).norm() <= x.norm() * y.norm() + 1e-10


def test_spectral_data_is_kept_and_read_only(m2):
    t = rand_operator(m2, 3, 3, np.random.default_rng(41))
    f = t.flat()
    eigs = t.eigenvalues_hermitian()
    np.testing.assert_array_equal(eigs, np.linalg.eigvalsh(0.5 * (f + f.conj().T)))
    assert not eigs.flags.writeable
    with pytest.raises(ValueError):
        eigs[0] = 0.0
    assert t.eigenvalues_hermitian() is eigs
    assert t.norm() == float(np.linalg.norm(f, 2))
    assert t.hermitian_defect() == float(np.linalg.norm(f - f.conj().T, 2))


def test_direct_sum_stack_round_trip(m2):
    rng = np.random.default_rng(39)
    space = DirectSumSpace(m2, ("a", "b"), (0.5, 2.0), (2, 3))
    comps = {"a": rand_vector(m2, 2, rng), "b": rand_vector(m2, 3, rng)}
    stacked = space.stack(comps)
    pieces = np.split(stacked.coords, np.cumsum(space.ranks)[:-1])
    for label, weight, piece in zip(space.labels, space.weights, pieces):
        back = ModuleVector(m2, piece / np.sqrt(weight))
        assert (back - comps[label]).norm() <= 1e-14
    # the stacked inner product reproduces the weighted componentwise one
    lhs = stacked.inner(stacked)
    rhs = space.inner(comps, comps)
    assert (lhs - rhs).norm() <= 1e-12


def test_direct_sum_operator_components(m2):
    rng = np.random.default_rng(40)
    space = DirectSumSpace(m2, ("a", "b"), (0.5, 2.0), (2, 2))
    ops = {"a": rand_operator(m2, 3, 2, rng), "b": rand_operator(m2, 3, 2, rng)}
    stacked = space.stack_operator(ops)
    for label in ops:
        assert (space.component_operator(stacked, label) - ops[label]).norm() <= 1e-14
    x = rand_vector(m2, 3, rng)
    pieces = np.split(stacked(x).coords, np.cumsum(space.ranks)[:-1])
    for label, weight, piece in zip(space.labels, space.weights, pieces):
        image = ModuleVector(m2, piece / np.sqrt(weight))
        assert (image - ops[label](x)).norm() <= 1e-13


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=["matrix", "diagonal"])
def test_weighted_sum_matches_per_atom_sum_with_mixed_output_ranks(desc):
    rng = np.random.default_rng(31)
    ranks = (1, 3, 2, 3)
    left = [rand_operator(desc, 2, m, rng) for m in ranks]
    right = [rand_operator(desc, 2, m, rng) for m in ranks]
    coeffs = [0.5, 1.5 - 0.25j, 2.0j, 0.75]
    expected = sum(c * (l.flat() @ r.flat().conj().T) for c, l, r in zip(coeffs, left, right))
    got = weighted_sum(coeffs, left, right).flat()
    assert np.linalg.norm(got - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)
    weights = [0.5, 1.5, 0.25, 2.0]
    gram = weighted_sum(weights, left)
    expected = sum(w * (op.flat() @ op.flat().conj().T) for w, op in zip(weights, left))
    assert np.linalg.norm(gram.flat() - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)
    assert gram.hermitian_defect() <= 1e-14 * gram.norm()


def test_weighted_sum_rejects_mismatched_members(m2):
    rng = np.random.default_rng(32)
    a, b = rand_operator(m2, 2, 2, rng), rand_operator(m2, 2, 3, rng)
    with pytest.raises(InputError):
        weighted_sum([], [])
    with pytest.raises(InputError):
        weighted_sum([1.0], [a], [b])
    with pytest.raises(InputError):
        weighted_sum([1.0, 1.0], [a, rand_operator(m2, 3, 2, rng)])
    with pytest.raises(InputError):
        weighted_sum([1.0], [a], [rand_operator(AlgebraDescriptor("matrix", 3), 2, 2, rng)])


def test_compose_all_rejects_mismatched_members(m2):
    rng = np.random.default_rng(34)
    t = rand_operator(m2, 2, 3, rng)
    with pytest.raises(InputError):
        compose_all([], t)
    with pytest.raises(InputError):
        compose_all([rand_operator(m2, 3, 1, rng), rand_operator(m2, 2, 1, rng)], t)
    with pytest.raises(InputError):
        compose_all([rand_operator(AlgebraDescriptor("matrix", 3), 3, 1, rng)], t)


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=["matrix", "diagonal"])
def test_pairing_matches_apply_and_inner(desc):
    rng = np.random.default_rng(33)
    t = rand_operator(desc, 3, 3, rng)
    xs = [rand_vector(desc, 3, rng) for _ in range(5)]
    coords = np.stack([x.coords for x in xs])
    twisted, plain = pairing(desc, coords, t), pairing(desc, coords)
    for x, tv, pv in zip(xs, twisted, plain):
        assert np.max(np.abs(tv - t(x).inner(x).data)) <= 1e-13 * max(1.0, t.norm() * x.norm() ** 2)
        assert np.max(np.abs(pv - x.inner(x).data)) <= 1e-13 * max(1.0, x.norm() ** 2)
    with pytest.raises(InputError):
        pairing(desc, coords[:, :2], t)
    with pytest.raises(InputError):
        pairing(desc, coords[0], t)


def test_channels_keep_the_diagonal_kind_unembedded(diag3):
    rng = np.random.default_rng(34)
    t = rand_operator(diag3, 2, 4, rng)
    chans = t.channels()
    assert chans.shape == (3, 2, 4)
    assert np.array_equal(AdjointableOperator.from_channels(diag3, chans).blocks, t.blocks)
    assert t.norm() == pytest.approx(max(np.linalg.norm(c, 2) for c in chans), rel=1e-13)


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=["matrix", "diagonal"])
def test_operator_square_root_and_its_domain(desc):
    rng = np.random.default_rng(41)
    p = rand_positive_operator(desc, 3, rng)
    root = p.sqrt_positive()
    assert root.is_positive()
    assert (root @ root - p).norm() <= 1e-12 * p.norm()
    zero = AdjointableOperator.zero(desc, 3, 3)
    assert zero.sqrt_positive().norm() == 0.0
    skew = AdjointableOperator.scalar(desc, 3, 1e-3j)
    for bad in (rand_operator(desc, 2, 3, rng), p + skew, -1.0 * p):
        assert not bad.is_positive()
        with pytest.raises(DomainError):
            bad.sqrt_positive()

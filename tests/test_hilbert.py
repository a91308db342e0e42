import numpy as np
import pytest

from gframe.algebra import AlgebraDescriptor, AlgebraElement, element_norms
from gframe.errors import DomainError, InputError
from gframe.frames import Family
from gframe.hilbert import (
    AdjointableOperator,
    ModuleVector,
    apply_stack,
    compose,
    loewner_gap,
    pairing,
    positive_part_checks,
    stack,
)
from gframe.sampling import (
    complex_gaussian,
    rand_coords,
    rand_operator,
    rand_positive_operator,
    rand_unitary_operator,
    rand_vector,
)

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
    x = ModuleVector(m2, [one.data, a.data])
    y = ModuleVector(m2, [b.data, one.data])
    expected = one * b.adjoint() + a * one
    assert (x.inner(y) - expected).norm() <= 1e-14


def test_inner_product_hermitian_symmetry(m2):
    rng = np.random.default_rng(22)
    x = rand_vector(m2, 3, rng)
    y = rand_vector(m2, 3, rng)
    assert (x.inner(y) - y.inner(x).adjoint()).norm() <= 1e-13


def test_scalar_norm_examples(m2):
    x = ModuleVector(m2, [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
    assert x.norm() == 1.0
    assert ModuleVector(m2, np.zeros((3, 2, 2))).norm() == 0.0
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
        assert (cap * x.inner(x) - tx.inner(tx)).is_positive(1e-9)


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
    back = AdjointableOperator(diag3, t.channels)
    assert np.array_equal(back.blocks, t.blocks)


@pytest.mark.parametrize("kind, dim", [("matrix", 2), ("diagonal", 3)])
def test_rand_unitary_operator_draws_one_unitary_per_channel(kind, dim):
    # One (rank d)^2 draw for M_d, read as the flattening; k draws of rank^2 for C^k.
    desc = AlgebraDescriptor(kind, dim)
    u = rand_unitary_operator(desc, 3, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    for channel in range(1 if kind == "matrix" else dim):
        size = 3 * dim if kind == "matrix" else 3
        q, r = np.linalg.qr(complex_gaussian(rng, (size, size)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        assert np.array_equal(u.flat() if kind == "matrix" else u.blocks[:, :, channel], q)
    residual = (u.adjoint() @ u - AdjointableOperator.identity(desc, 3)).norm()
    assert residual <= 1e-14


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
    if np.linalg.eigvalsh(indefinite.flat())[0] < -1e-6:
        zero = AdjointableOperator.zero(m2, 3, 3)
        gaps, witnesses = loewner_gap(zero, indefinite)
        witness = ModuleVector(m2, witnesses[0])
        assert not indefinite(witness).inner(witness).is_positive(1e-9)
        assert gaps[0] == pytest.approx(-np.linalg.eigvalsh(indefinite.flat())[0], rel=1e-12)


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
    assert eye.singular_values()[-1] == pytest.approx(1.0, abs=1e-14)
    rng = np.random.default_rng(36)
    deficient_blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    deficient_blocks[0, 0] = np.eye(2)
    deficient = AdjointableOperator.from_blocks(m2, deficient_blocks)
    assert deficient.singular_values()[-1] == pytest.approx(0.0, abs=1e-14)
    q = rand_operator(m2, 2, 2, rng)
    t = q + AdjointableOperator.scalar(m2, 2, q.norm() + 0.5)
    sigma = t.singular_values()[-1]
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
    assert rep["lower"] >= q.singular_values()[-1] ** 2 - 1e-9
    nil_blocks = np.zeros((2, 2, 2, 2), dtype=np.complex128)
    nil_blocks[0, 1] = np.eye(2)
    nilpotent = AdjointableOperator.from_blocks(m2, nil_blocks)
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


def _family(ops) -> Family:
    """The ``Family`` of ``ops`` on labels w0, w1, ...: their ``stack`` with its atom ranks."""
    return Family([f"w{i}" for i in range(len(ops))], [op.out_rank for op in ops], stack(ops))


def test_direct_sum_stack_round_trip():
    # Family.members inverts stack for mixed output ranks in both algebra kinds,
    # and the stack of the family scaled by sqrt(w) (Family.scaled) carries the
    # weighted direct-sum inner product; scaling back by 1/sqrt(w) gives the
    # members back.
    rng = np.random.default_rng(39)
    ranks, weights = (2, 1, 3), (0.5, 2.0, 1.25)
    scales = np.sqrt(weights)
    for desc in (AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)):
        ops = [rand_operator(desc, 3, m, rng) for m in ranks]
        scaled = _family(ops).scaled(scales)
        expected = np.concatenate([scale * op.flat() for scale, op in zip(scales, ops)], axis=1)
        assert np.array_equal(scaled.stack.flat(), expected)
        for back, op in zip(scaled.scaled(1.0 / scales).members.values(), ops):
            assert back.blocks.shape == op.blocks.shape
            assert (back - op).norm() <= 1e-15 * op.norm()
        for back, op in zip(_family(ops).members.values(), ops):
            assert np.array_equal(back.blocks, op.blocks)
        x = rand_coords(desc, 3, rng, 4)
        lhs = pairing(desc, apply_stack(scaled.stack, x))
        rhs = sum(w * pairing(desc, apply_stack(op, x)) for w, op in zip(weights, ops))
        assert element_norms(desc, lhs - rhs).max() <= 1e-12 * element_norms(desc, rhs).max()


def test_direct_sum_operator_components(m2):
    # The image of a stacked map splits into the scaled images of its members.
    rng = np.random.default_rng(40)
    ops = [rand_operator(m2, 3, 2, rng), rand_operator(m2, 3, 2, rng)]
    scales = np.sqrt([0.5, 2.0])
    x = rand_coords(m2, 3, rng, 4)
    pieces = np.split(apply_stack(_family(ops).scaled(scales).stack, x), [2], axis=1)
    for piece, scale, op in zip(pieces, scales, ops):
        assert np.max(np.abs(piece / scale - apply_stack(op, x))) <= 1e-13


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=["matrix", "diagonal"])
def test_weighted_sum_matches_per_atom_sum_with_mixed_output_ranks(desc):
    rng = np.random.default_rng(31)
    ranks = (1, 3, 2, 3)
    left = [rand_operator(desc, 2, m, rng) for m in ranks]
    right = [rand_operator(desc, 2, m, rng) for m in ranks]
    coeffs = [0.5, 1.5 - 0.25j, 2.0j, 0.75]
    expected = sum(c * (l.flat() @ r.flat().conj().T) for c, l, r in zip(coeffs, left, right))
    got = _family(left).weighted_sum(coeffs, right=_family(right)).flat()
    assert np.linalg.norm(got - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)
    weights = [0.5, 1.5, 0.25, 2.0]
    gram = _family(left).weighted_sum(weights)
    expected = sum(w * (op.flat() @ op.flat().conj().T) for w, op in zip(weights, left))
    assert np.linalg.norm(gram.flat() - expected, 2) <= 1e-13 * np.linalg.norm(expected, 2)
    assert gram.hermitian_defect() <= 1e-14 * gram.norm()


def test_weighted_sum_rejects_mismatched_members(m2):
    # A family's ranks must sum to its stack's output rank (the constructor),
    # and a weighted sum needs one weight per atom and a partner family of the
    # same algebra, input rank and output ranks.
    rng = np.random.default_rng(32)
    a, b = rand_operator(m2, 2, 2, rng), rand_operator(m2, 2, 3, rng)
    family = Family(["w"], [2], a)
    with pytest.raises(InputError):
        Family([], [], a)
    with pytest.raises(InputError):
        family.weighted_sum([1.0], right=Family(["w"], [3], b))
    with pytest.raises(InputError):
        family.weighted_sum([1.0], right=Family(["w"], [2], rand_operator(m2, 3, 2, rng)))
    with pytest.raises(InputError):
        family.weighted_sum([1.0], right=Family(
            ["w"], [2], rand_operator(AlgebraDescriptor("matrix", 3), 2, 2, rng)))
    with pytest.raises(InputError):
        Family(["u", "v"], [1, 1], b)
    with pytest.raises(InputError):
        Family(["u", "v"], [1, 1], a).weighted_sum([1.0])


def test_stack_rejects_mismatched_members(m2):
    rng = np.random.default_rng(34)
    a, b = rand_operator(m2, 3, 1, rng), rand_operator(m2, 3, 2, rng)
    with pytest.raises(InputError):
        stack([])
    with pytest.raises(InputError):
        stack([a, rand_operator(m2, 2, 1, rng)])
    with pytest.raises(InputError):
        stack([a, rand_operator(AlgebraDescriptor("matrix", 3), 3, 1, rng)])
    with pytest.raises(InputError):
        stack([a, rand_operator(AlgebraDescriptor("diagonal", 2), 3, 1, rng)])
    # Channels of equal height: (1, 6, .) for M_2 on A^3 and for M_3 on A^2,
    # (1, 6, .) for C^1 on A^6 too.  Only the descriptor tells them apart.
    m3, c1 = AlgebraDescriptor("matrix", 3), AlgebraDescriptor("diagonal", 1)
    for left, right in ((a, rand_operator(m3, 2, 1, rng)), (rand_operator(c1, 6, 1, rng), a)):
        assert left.channels.shape[1] == right.channels.shape[1] == 6
        with pytest.raises(InputError):
            stack([left, right])
    family = _family([a, b])
    with pytest.raises(InputError):
        family.scaled([1.0])
    with pytest.raises(InputError):
        Family(["u", "v"], [1, 1], family.stack)
    with pytest.raises(InputError):
        family.scaled([1.0, 1.0, 1.0])


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


def test_constructor_refuses_channels_that_do_not_fit():
    diag3, m3 = AlgebraDescriptor("diagonal", 3), AlgebraDescriptor("matrix", 3)
    for desc, shape in ((diag3, (2, 2, 2)), (diag3, (1, 2, 2)), (diag3, (3, 2)),
                        (m3, (1, 4, 3)), (m3, (1, 3, 4)), (m3, (3, 3, 3)),
                        (m3, (1, 0, 3)), (m3, (1, 3, 0)), (diag3, (3, 0, 2))):
        with pytest.raises(InputError):
            AdjointableOperator(desc, np.zeros(shape))
    assert AdjointableOperator(m3, np.zeros((1, 6, 3))).in_rank == 2
    assert AdjointableOperator(diag3, np.zeros((3, 2, 5))).out_rank == 5


def test_from_blocks_refuses_blocks_of_another_shape(m2):
    # (1, 1, 4, 4) flattens to a valid-looking (1, 4, 4) for M_2, the channels
    # of an operator on A^2; the block shape check refuses it.
    for shape in ((1, 1, 4, 4), (2, 2, 2), (2, 2, 2, 2, 2), (0, 1, 2, 2)):
        with pytest.raises(InputError):
            AdjointableOperator.from_blocks(m2, np.zeros(shape))
    t = AdjointableOperator.from_blocks(m2, np.arange(16.0).reshape(2, 2, 2, 2))
    assert np.array_equal(t.blocks, np.arange(16.0).reshape(2, 2, 2, 2))
    assert not t.blocks.flags.writeable and not t.channels.flags.writeable


def test_channels_keep_the_diagonal_kind_unembedded(diag3):
    rng = np.random.default_rng(34)
    t = rand_operator(diag3, 2, 4, rng)
    chans = t.channels
    assert chans.shape == (3, 2, 4)
    assert np.array_equal(AdjointableOperator(diag3, chans).blocks, t.blocks)
    assert t.norm() == pytest.approx(max(np.linalg.norm(c, 2) for c in chans), rel=1e-13)


@pytest.mark.parametrize("desc", [AlgebraDescriptor("matrix", 2), AlgebraDescriptor("diagonal", 3)],
                         ids=["matrix", "diagonal"])
def test_times_central_is_the_product_with_the_diagonal_operator(desc):
    # T.times_central(v) is x -> (T x) v: flat(T) flat(diag v), for diag v the
    # operator with every diagonal block v.  The M_2 element is central only
    # within tolerance, and the product uses its own entries, not its trace.
    rng = np.random.default_rng(63)
    t = rand_operator(desc, 3, 5, rng)
    if desc.kind == "matrix":
        v = AlgebraElement(desc, (0.7 - 0.2j) * np.eye(2) + np.array([[0.0, 1e-12], [0.0, 0.0]]))
    else:
        v = AlgebraElement(desc, complex_gaussian(rng, (3,)))
    blocks = np.zeros((5, 5) + desc.shape, dtype=np.complex128)
    blocks[np.arange(5), np.arange(5)] = v.data
    want = t.flat() @ AdjointableOperator.from_blocks(desc, blocks).flat()
    got = t.times_central(v)
    assert (got.in_rank, got.out_rank) == (3, 5)
    assert np.abs(got.flat() - want).max() <= 1e-15 * np.abs(want).max()
    identity = AdjointableOperator.identity(desc, 4)
    assert np.array_equal(identity.flat(), np.eye(4 * desc.dim))
    assert np.array_equal(identity.times_central(v).blocks[np.arange(4), np.arange(4)],
                          np.broadcast_to(v.data, (4,) + desc.shape))


def test_times_central_refuses_a_non_central_or_foreign_element(m2):
    t = rand_operator(m2, 2, 3, np.random.default_rng(64))
    with pytest.raises(InputError, match="must be central"):
        t.times_central(AlgebraElement(m2, np.diag([1.0, 1.0 + 1e-6])))
    for other in (AlgebraDescriptor("matrix", 3), AlgebraDescriptor("diagonal", 2)):
        with pytest.raises(InputError, match="algebra mismatch"):
            t.times_central(AlgebraElement.one(other))


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

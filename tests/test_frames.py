import inspect
import tracemalloc

import numpy as np
import pytest

from gframe import theorems
from gframe.algebra import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    element_norms,
)
from gframe.errors import InputError, UnsupportedConfigurationError
from gframe.frames import (
    Family,
    FrameBounds,
    GFrameSystem,
    canonical_dual,
    certify_window,
    check_frame,
    optimal_scalar_bounds,
    reconstruction_operator,
)
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import (
    AdjointableOperator,
    ModuleVector,
    apply_stack,
    pairing,
)
from gframe.measure import MeasureSpace
from gframe.reports import TheoremReport
from gframe.sampling import complex_gaussian, rand_coords, rand_operator, rand_vector
from gframe.serialize import load_system, save_system

from conftest import (
    ORACLE_SYSTEMS,
    brute_force_frame_operator_flat,
    brute_force_gram,
    count_operators,
)


def test_gram_identity_frame(identity_system, m2):
    rng = np.random.default_rng(1)
    x = rand_vector(m2, 2, rng)
    assert (identity_system.gram(x) - x.inner(x)).norm() <= 1e-14
    zero = ModuleVector(m2, np.zeros((2, 2, 2)))
    assert identity_system.gram(zero).norm() == 0.0


def test_gram_unit_interval_with_scaled_controls(unit_interval_23):
    # controls 2I and 3I give Gram 2 * diag(|a_n|^2 / n^2)
    coords = np.array([1.5 - 0.5j, 0.25j, -2.0], dtype=np.complex128).reshape(1, 3)
    x = ModuleVector(unit_interval_23.descriptor, coords)
    expected = 2.0 * np.abs(coords[0]) ** 2 / np.array([1.0, 4.0, 9.0])
    gram = unit_interval_23.gram(x)
    assert np.max(np.abs(gram.data - expected)) <= 1e-14


def test_frame_operator_identity(identity_system, m2):
    eye = AdjointableOperator.identity(m2, 2)
    assert (identity_system.frame_operator - eye).norm() <= 1e-15


def test_frame_operator_unit_interval(unit_interval):
    s = unit_interval.frame_operator
    expected = np.array([1.0, 0.25, 1.0 / 9.0]) / 3.0
    assert np.max(np.abs(s.blocks.reshape(-1) - expected)) <= 1e-15


def test_frame_operator_matches_flatten_oracle():
    for seed in (0, 1, 2, 3):
        system = random_system(seed, commuting=True)
        oracle = brute_force_frame_operator_flat(system)
        assembled = system.frame_operator.flat()
        scale = max(1.0, np.linalg.norm(oracle, 2))
        assert np.linalg.norm(assembled - oracle, 2) / scale <= 1e-13


def test_optimal_bounds_identity(identity_system):
    bounds = optimal_scalar_bounds(identity_system)
    assert bounds.scalar_lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.scalar_upper == pytest.approx(1.0, abs=1e-12)
    assert bounds.is_frame


def test_optimal_bounds_unit_interval(unit_interval):
    bounds = optimal_scalar_bounds(unit_interval)
    assert bounds.scalar_lower == pytest.approx(1.0 / np.sqrt(27.0), abs=1e-12)
    assert bounds.scalar_upper == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)


def test_zero_family_is_bessel_only(m2):
    measure = MeasureSpace(["w0"], [1.0])
    zero = AdjointableOperator.zero(m2, 2, 2)
    eye = AdjointableOperator.identity(m2, 2)
    system = GFrameSystem(measure, {"w0": zero}, eye, eye)
    bounds = optimal_scalar_bounds(system)
    assert not bounds.is_frame
    assert bounds.verdict == "bessel_only"
    assert bounds.scalar_lower == pytest.approx(0.0, abs=1e-12)


def test_noncommuting_bounds_rejected():
    system = random_system(3, rank=2, algebra="matrix", dim=2, commuting=False)
    assert system.frame_operator is not None  # assembly always works
    with pytest.raises(UnsupportedConfigurationError):
        optimal_scalar_bounds(system)


def test_check_frame_exact_scalar(identity_system):
    good = check_frame(identity_system, FrameBounds.from_scalars(1.0, 1.0))
    assert good.status == "pass"
    bad = check_frame(identity_system, FrameBounds.from_scalars(2.0, 1.0))
    assert bad.status == "fail"
    assert "witness_eigenvalues" in bad.info


@pytest.mark.parametrize("excess, certified", [(0.5, True), (5.0, False)])
def test_certify_window_decides_at_the_callers_tol(identity_system, excess, certified):
    # S = I, and the window's lower end squared exceeds lambda_min = 1 by
    # ``excess`` tol: a gap within tol passes, and one within 10 tol fails.
    tol = DEFAULT_TOL
    report = TheoremReport("WINDOW", tolerance=tol)
    certify_window(report, identity_system, float(np.sqrt(1.0 + excess * tol)), 1.0, tol, "window")
    line = report.conclusions[0]
    assert line.passed == certified
    assert line.residual == pytest.approx(excess * tol, rel=1e-6)


def test_check_frame_optimality_margin(unit_interval):
    bounds = optimal_scalar_bounds(unit_interval)
    tight = check_frame(unit_interval, bounds)
    assert tight.status == "pass"
    over = FrameBounds.from_scalars(bounds.scalar_lower * 1.01, bounds.scalar_upper)
    assert check_frame(unit_interval, over).status == "fail"
    under = FrameBounds.from_scalars(bounds.scalar_lower, bounds.scalar_upper * 0.99)
    assert check_frame(unit_interval, under).status == "fail"


def test_check_frame_element_bounds_per_channel(unit_interval):
    # C^k element bounds are decided channel by channel: sqrt(ab)/4 * diag(1/n) and
    # sqrt(ab) * diag(1/n) hold, and the example is tight per channel at sqrt(ab/3) * diag(1/n).
    inv_n = np.array([1.0, 0.5, 1.0 / 3.0])
    lower = AlgebraElement.diag(0.25 * inv_n)
    upper = AlgebraElement.diag(inv_n)
    report = check_frame(unit_interval, FrameBounds.from_elements(lower, upper))
    assert report.status == "pass"
    assert [line.name for line in report.conclusions] == ["lower element bound",
                                                          "upper element bound"]
    tight = AlgebraElement.diag(np.sqrt(1.0 / 3.0) * inv_n)
    assert check_frame(unit_interval, FrameBounds.from_elements(tight, tight)).status == "pass"
    # Raising channel 1 by 1% breaks the lower side there, by 0.0201 / 12, at a vector
    # supported on that channel.
    raised = AlgebraElement.diag(np.sqrt(1.0 / 3.0) * inv_n * np.array([1.0, 1.01, 1.0]))
    report = check_frame(unit_interval, FrameBounds.from_elements(raised, raised))
    assert [line.passed for line in report.conclusions] == [False, True]
    assert report.conclusions[0].residual == pytest.approx(0.0201 / 12, rel=1e-9)
    x = report.info["witnesses"]["lower"]
    assert not np.any(x.coords[:, [0, 2]])
    sandwich = (raised * x.inner(x) * raised.adjoint()).data.real
    assert sandwich[1] - unit_interval.gram(x).data.real[1] == pytest.approx(0.0201 / 12, rel=1e-9)


def _identity_system(rank: int) -> GFrameSystem:
    m2 = AlgebraDescriptor("matrix", 2)
    eye = AdjointableOperator.identity(m2, rank)
    return GFrameSystem(MeasureSpace(["w0"], [1.0]), {"w0": eye}, eye, eye)


def _assert_rank_one_along(x, w) -> None:
    """flat(x) = w v^H for some v: rank one, with w spanning its column space."""
    u, svals, _ = np.linalg.svd(x.flat())
    assert svals[1] <= 1e-15
    assert abs(u[:, 0].conj() @ w) == pytest.approx(1.0, abs=1e-15)


def test_check_frame_non_central_lower_bound_fails_at_witness():
    # In M_2 a non-central bound fails whenever the Gram operator is nonzero:
    # diag(0.5, 0.45) moves w = (1, 1)/sqrt 2 off its span, and the rank-one
    # vector flat(x) = w v^H violates the lower side by 8.07e-4.  200 seeded
    # samples passed this bound at both module ranks.
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    lower = AlgebraElement.matrix(np.diag([0.5, 0.45]))
    lw = lower.data @ w
    closed_form = np.linalg.eigvalsh(np.outer(lw, lw) - np.outer(w, w))[-1]
    assert closed_form == pytest.approx(8.07e-4, rel=1e-3)
    for rank in (2, 8):
        system = _identity_system(rank)
        bounds = FrameBounds.from_elements(lower, AlgebraElement.one(system.descriptor))
        report = check_frame(system, bounds)
        assert report.status == "fail"
        assert [line.passed for line in report.conclusions] == [False, True]
        assert report.conclusions[0].residual == pytest.approx(closed_form, rel=1e-12)
        x = report.info["witnesses"]["lower"]
        _assert_rank_one_along(x, w)
        excess = lower * x.inner(x) * lower.adjoint() - system.gram(x)
        assert excess.eigenvalues_hermitian()[-1] == pytest.approx(closed_form, rel=1e-12)


def test_check_frame_non_central_upper_bound_fails_at_witness(identity_system, m2):
    # A non-central upper bound fails at w = e_2 (the (1, 2) entry moves it);
    # the central lower bound 0.5 gets the scalar test and holds.
    upper = AlgebraElement.matrix([[1.2, 0.3], [0.0, 1.1]])
    report = check_frame(identity_system, FrameBounds.from_elements(
        AlgebraElement.scalar(m2, 0.5), upper))
    assert report.status == "fail"
    assert [line.passed for line in report.conclusions] == [True, False]
    assert report.conclusions[0].residual == 0.0
    x = report.info["witnesses"]["upper"]
    _assert_rank_one_along(x, np.array([0.0, 1.0]))
    uw = upper.data[:, 1]
    closed_form = np.linalg.eigvalsh(np.diag([0.0, 1.0]) - np.outer(uw, uw))[-1]
    assert report.conclusions[1].residual == pytest.approx(closed_form, rel=1e-12)
    # With a zero Gram operator every upper bound holds, central or not.
    zero = identity_system.with_family({"w0": 0.0 * identity_system.family["w0"]})
    report = check_frame(zero, FrameBounds(0.0, 1.2, None, upper, "bessel_only"))
    assert report.status == "pass"


def test_gram_matches_frame_operator_pairing():
    for seed in (11, 12, 13):
        system = random_system(seed, commuting=True)
        s = system.frame_operator
        rng = np.random.default_rng(seed)
        for _ in range(20):
            x = rand_vector(system.descriptor, system.module_rank, rng)
            lhs = s(x).inner(x)
            rhs = system.gram(x)
            assert (lhs - rhs).norm() <= 1e-10 * max(1.0, lhs.norm(), rhs.norm())


def test_analysis_synthesis_identity_frame(identity_system, m2):
    coords = rand_coords(m2, 2, np.random.default_rng(2), 5)
    t = identity_system.analysis_operator
    (component,) = identity_system.stacked_family.with_stack(t).members.values()
    assert np.max(np.abs(apply_stack(component, coords) - coords)) <= 1e-13
    assert np.max(np.abs(apply_stack(t.adjoint(), apply_stack(t, coords)) - coords)) <= 1e-13


def test_analysis_gram_consistency():
    # <T x, T x> = <S x, x>: the analysis operator's image carries the frame operator.
    system = random_system(5, commuting=True)
    desc = system.descriptor
    coords = rand_coords(desc, system.module_rank, np.random.default_rng(3), 20)
    lhs = pairing(desc, apply_stack(system.analysis_operator, coords))
    rhs = pairing(desc, coords, system.frame_operator)
    scale = max(1.0, element_norms(desc, rhs).max())
    assert element_norms(desc, lhs - rhs).max() <= 1e-10 * scale


def test_analysis_synthesis_adjointness():
    # <T* y, x> against the weighted sum of <y_w, Lambda_w (C'C)^(1/2) x> over the
    # atoms, where y stacks the components y_w scaled by sqrt(w).
    system = random_system(6, commuting=True)
    desc, rng = system.descriptor, np.random.default_rng(4)
    t, root = system.analysis_operator, system.mixed_control_root
    x = rand_coords(desc, system.module_rank, rng, 20)
    atoms = [(w, op, rand_coords(desc, op.out_rank, rng, 20))
             for w, op in zip(system.measure.weights, system.family.values())]
    y = np.concatenate([np.sqrt(w) * comp for w, _, comp in atoms], axis=1)
    lhs = pairing(desc, apply_stack(t.adjoint(), y), other=x)
    rhs = sum(w * pairing(desc, comp, other=apply_stack(op @ root, x)) for w, op, comp in atoms)
    scale = max(1.0, element_norms(desc, rhs).max())
    assert element_norms(desc, lhs - rhs).max() <= 1e-10 * scale


def test_synthesis_after_analysis_is_frame_operator():
    for seed in (7, 8):
        system = random_system(seed, commuting=True)
        composed = system.synthesis_operator @ system.analysis_operator
        s = system.frame_operator
        assert (composed - s).norm() <= 1e-10 * max(1.0, s.norm())


def test_analysis_norm_below_upper_bound():
    for seed in (9, 10):
        system = random_system(seed, commuting=True)
        bounds = optimal_scalar_bounds(system)
        assert system.analysis_operator.norm() <= bounds.scalar_upper + 1e-9


def test_analysis_requires_commuting_controls():
    system = random_system(3, rank=2, algebra="matrix", dim=2, commuting=False)
    with pytest.raises(UnsupportedConfigurationError):
        system.analysis_operator


def test_system_validation(m2):
    measure = MeasureSpace(["w0"], [1.0])
    eye = AdjointableOperator.identity(m2, 2)
    with pytest.raises(InputError):
        GFrameSystem(measure, {}, eye, eye)
    with pytest.raises(InputError):
        GFrameSystem(measure, {"other": eye}, eye, eye)
    skew = AdjointableOperator.from_blocks(m2, np.array(1j * np.eye(2)).reshape(1, 1, 2, 2))
    one_rank = MeasureSpace(["w0"], [1.0])
    with pytest.raises(InputError):
        GFrameSystem(one_rank, {"w0": AdjointableOperator.identity(m2, 1)}, skew, skew)


def _oracle_id(kwargs):
    return "-".join(f"{k}={v}" for k, v in kwargs.items())


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS, ids=_oracle_id)
def test_gram_and_batched_gram_match_per_atom_oracle(kwargs):
    system = random_system(**kwargs)
    if kwargs.get("pad_outputs"):
        assert len({op.out_rank for op in system.family.values()}) > 1
    rng = np.random.default_rng(kwargs["seed"])
    xs = [rand_vector(system.descriptor, system.module_rank, rng) for _ in range(12)]
    batch = system.gram_batch(np.stack([x.coords for x in xs]))
    assert batch.shape == (len(xs),) + xs[0].inner(xs[0]).data.shape
    for x, value in zip(xs, batch):
        oracle = brute_force_gram(system, x)
        scale = max(1.0, oracle.norm())
        assert (system.gram(x) - oracle).norm() <= 1e-12 * scale
        assert (AlgebraElement(system.descriptor, value) - oracle).norm() <= 1e-12 * scale


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS, ids=_oracle_id)
def test_frame_operator_matches_flatten_oracle_all_kinds(kwargs):
    system = random_system(**kwargs)
    oracle = brute_force_frame_operator_flat(system)
    scale = max(1.0, np.linalg.norm(oracle, 2))
    assert np.linalg.norm(system.frame_operator.flat() - oracle, 2) / scale <= 1e-13


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS, ids=_oracle_id)
def test_member_view_matches_per_member_flat(kwargs):
    family = random_system(**kwargs).stacked_family
    if kwargs.get("pad_outputs"):
        assert len(set(family.ranks)) > 1
    channels, width = family.descriptor.layout
    groups, norms = family.member_groups(), family.member_norms()
    assert sorted(np.concatenate([atoms for atoms, _ in groups])) == list(range(len(family.ranks)))
    assert len(groups) == len(set(family.ranks))
    members = list(family.members.values())
    for atoms, view in groups:
        m = family.ranks[atoms[0]]
        assert view.shape == (len(atoms), channels, family.in_rank * width, m * width)
        for w, chans in zip(atoms, view):
            assert family.ranks[w] == m
            flat = members[w].flat()
            for j in range(channels):  # channel j of C^k is every k-th row and column
                assert np.array_equal(chans[j], flat[j::channels, j::channels])
            assert norms[w] == pytest.approx(np.linalg.norm(flat, 2), rel=1e-12)


def _commutation_reference(family, C, Cp) -> float:
    """The worst relative ||G_w X - X G_w||, member by member on the flattening."""
    worst = 0.0
    for op in family.members.values():
        gram = op.flat() @ op.flat().conj().T
        for x in (C.flat(), Cp.flat()):
            scale = max(1.0, np.linalg.norm(gram, 2)) * max(1.0, np.linalg.norm(x, 2))
            worst = max(worst, np.linalg.norm(gram @ x - x @ gram, 2) / scale)
    return worst


@pytest.mark.parametrize("build, commuting", [
    *(pytest.param(lambda kwargs=kwargs: random_system(**kwargs), kwargs.get("commuting", True),
                   id=_oracle_id(kwargs)) for kwargs in ORACLE_SYSTEMS),
    pytest.param(lambda: theorems._scale_first_member(random_system(**ORACLE_SYSTEMS[-1]), 0.0),
                 False, id="zero-first-member"),
    pytest.param(lambda: unit_interval_system(2.0, 3.0, 3, 11), True, id="unit-interval"),
])
def test_family_defect_matches_per_member_reference(build, commuting):
    from gframe import frames

    system = build()
    ctr = system.controls
    defect = frames._family_commutation_defect(system.stacked_family, ctr.C, ctr.Cp)
    reference = _commutation_reference(system.stacked_family, ctr.C, ctr.Cp)
    assert defect == pytest.approx(reference, rel=1e-9, abs=1e-15)
    assert (reference <= 1e-12) == commuting


def test_member_view_memory_grows_with_the_stack_not_the_widest_rank():
    # One rank-256 member beside 1000 rank-1 members: padding every member to
    # the widest rank would hold 1001 x 256 columns, about 200 stacks.
    from gframe import frames

    desc = AlgebraDescriptor("diagonal", 2)
    ranks = [256] + [1] * 1000
    blocks = complex_gaussian(np.random.default_rng(47), (4, sum(ranks), 2))
    family = Family([f"w{i}" for i in range(len(ranks))], ranks, AdjointableOperator.from_blocks(desc, blocks))
    identity = AdjointableOperator.identity(desc, 4)
    limit = 50 * family.stack.blocks.nbytes
    tracemalloc.start()
    try:
        assert frames._family_commutation_defect(family, identity, identity) == 0.0
        defect_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        norms = family.member_norms()
        norms_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert norms.shape == (len(ranks),)
    assert defect_peak < limit and norms_peak < limit


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS + (dict(seed=3, commuting=False),))
def test_lazy_commutation_facts_match_eager_recomputation(kwargs):
    from gframe import frames

    system = random_system(**kwargs)
    ctr = system.controls
    assert "commute_defect" not in vars(ctr) and "family_defect" not in vars(ctr)
    fc, fcp = ctr.C.channels, ctr.Cp.channels

    def two_norm(chans):
        return float(np.linalg.norm(chans, 2, axis=(-2, -1)).max())

    scale = max(1.0, two_norm(fc) * two_norm(fcp))
    commute = two_norm(fc @ fcp - fcp @ fc) / scale
    family = frames._family_commutation_defect(system.stacked_family, ctr.C, ctr.Cp)
    assert ctr.commute_defect == commute
    assert ctr.family_defect == family
    assert ctr.commute_each_other == (commute <= DEFAULT_TOL)
    assert ctr.commute_with_family == (family <= DEFAULT_TOL)


def test_gram_batch_rejects_wrong_shape(identity_system, m2):
    with pytest.raises(InputError):
        identity_system.gram_batch(np.zeros((3, 5, 2, 2)))
    with pytest.raises(InputError):
        identity_system.gram(rand_vector(m2, 3, np.random.default_rng(0)))


@pytest.mark.parametrize("unit", [False, True], ids=["gaussian", "unit"])
@pytest.mark.parametrize("kind, shape", [("matrix", (2, 2)), ("diagonal", (3,))])
def test_stacked_draw_equals_successive_single_draws(kind, shape, unit):
    # The stacked draw keeps the stream of one complex Gaussian vector at a time,
    # each scaled by the reciprocal of its own norm: equal to the last bit.
    desc = AlgebraDescriptor(kind, shape[0])
    rng = np.random.default_rng(4)
    singles = []
    for _ in range(9):
        x = ModuleVector(desc, complex_gaussian(rng, (3,) + shape))
        singles.append(((1.0 / x.norm()) * x if unit else x).coords)
    stacked = rand_coords(desc, 3, np.random.default_rng(4), 9, unit=unit)
    assert np.array_equal(stacked, np.stack(singles))
    first = rand_vector(desc, 3, np.random.default_rng(4), unit=unit)
    assert np.array_equal(first.coords, singles[0])


# Both algebra kinds, commuting and not, with equal and with mixed output ranks.
STACK_SYSTEMS = ORACLE_SYSTEMS + (dict(seed=27, rank=2, algebra="diagonal", dim=3,
                                       pad_outputs=True),)


@pytest.mark.parametrize("kwargs", STACK_SYSTEMS, ids=_oracle_id)
def test_decoded_stack_gives_the_mapping_results_bit_for_bit(tmp_path, kwargs):
    # A loaded system holds the stack decoded from its file; the same system
    # built from its per-label mapping stacks the members itself.
    path = str(tmp_path / "system.json")
    save_system(random_system(**kwargs), path)
    loaded = load_system(path)
    ctr = loaded.controls
    mapped = GFrameSystem(loaded.measure, dict(loaded.family), ctr.C, ctr.Cp)
    assert loaded.stacked_family.ranks == mapped.stacked_family.ranks
    if kwargs.get("pad_outputs"):
        assert len(set(loaded.stacked_family.ranks)) > 1
    for name in ("uncontrolled_operator", "frame_operator"):
        assert np.array_equal(getattr(loaded, name).blocks, getattr(mapped, name).blocks), name
    assert loaded.controls.family_defect == mapped.controls.family_defect
    if loaded.supports_transform:
        assert np.array_equal(loaded.analysis_operator.blocks, mapped.analysis_operator.blocks)
    if loaded.commuting:
        duals = [canonical_dual(system) for system in (loaded, mapped)]
        assert np.array_equal(duals[0].dual.stack.blocks, duals[1].dual.stack.blocks)
        assert duals[0].operator_residual == duals[1].operator_residual
        recons = [reconstruction_operator(system, cert.dual)
                  for system, cert in zip((loaded, mapped), duals)]
        assert np.array_equal(recons[0].blocks, recons[1].blocks)


# One seed per algebra kind whose members have mixed output ranks.
MIXED_RANK_SYSTEMS = (dict(seed=45, algebra="matrix", pad_outputs=True),
                      dict(seed=45, algebra="diagonal", pad_outputs=True))


def _rel_flat(got: np.ndarray, expected: np.ndarray) -> float:
    return np.linalg.norm(got - expected, 2) / np.linalg.norm(expected, 2)


def test_family_is_built_from_labels_ranks_and_stack():
    assert list(inspect.signature(Family).parameters) == ["labels", "ranks", "stack"]


@pytest.mark.parametrize("kwargs", MIXED_RANK_SYSTEMS, ids=_oracle_id)
def test_family_from_mapping_holds_its_stack_and_cuts_members_once(kwargs, monkeypatch):
    system = random_system(**kwargs)
    ops = dict(system.family)
    family = Family.of(ops, system.measure.labels)
    assert "stack" in vars(family) and "members" not in vars(family)
    assert family.ranks == tuple(op.out_rank for op in ops.values())
    assert len(set(family.ranks)) > 1
    built = count_operators(monkeypatch)
    members = family.members
    assert len(built) == len(ops)
    assert family.members is members and len(built) == len(ops)
    assert list(members) == list(system.measure.labels)
    for label, op in ops.items():
        assert np.array_equal(members[label].blocks, op.blocks)


@pytest.mark.parametrize("kwargs", MIXED_RANK_SYSTEMS, ids=_oracle_id)
def test_member_wise_algebra_is_stack_algebra(kwargs):
    # Precomposition, per-atom scaling, sums and differences on the stack match
    # the per-member computation on the flattening oracle.
    system = random_system(**kwargs)
    family, desc, n = system.stacked_family, system.descriptor, system.module_rank
    assert len(set(family.ranks)) > 1
    rng = np.random.default_rng(46)
    r = rand_operator(desc, n, n, rng)
    other = Family.of({label: rand_operator(desc, n, m, rng)
                       for label, m in zip(family.labels, family.ranks)}, family.labels)
    scales = complex_gaussian(rng, (len(family.ranks),))
    composed = (family @ r).members
    scaled = family.scaled(scales).members
    summed = family.with_stack(family.stack + other.stack).members
    difference = family.with_stack(family.stack - other.stack).members
    for scale, (label, op) in zip(scales, family.members.items()):
        flat, flat_other = op.flat(), other.members[label].flat()
        assert _rel_flat(composed[label].flat(), r.flat() @ flat) <= 1e-13
        assert _rel_flat(scaled[label].flat(), scale * flat) <= 1e-13
        assert _rel_flat(summed[label].flat(), flat + flat_other) <= 1e-13
        assert _rel_flat(difference[label].flat(), flat - flat_other) <= 1e-13


@pytest.mark.parametrize("kwargs", MIXED_RANK_SYSTEMS, ids=_oracle_id)
def test_family_reads_its_atom_ranks_once_and_passes_them_on(kwargs):
    family = random_system(**kwargs).stacked_family
    assert "_atom_ranks" not in vars(family)
    groups = family.member_groups()
    ranks, firsts = family._atom_ranks
    assert ranks.tolist() == list(family.ranks)
    assert firsts.tolist() == [sum(family.ranks[:w]) for w in range(len(family.ranks))]
    assert not ranks.flags.writeable and not firsts.flags.writeable
    assert family._atom_ranks is family._atom_ranks
    assert all(np.array_equal(a, b) and np.array_equal(x, y)
               for (a, x), (b, y) in zip(groups, family.member_groups()))
    r = rand_operator(family.descriptor, family.in_rank, family.in_rank, np.random.default_rng(47))
    scales = np.arange(1.0, len(family.ranks) + 1.0)
    for derived in (family @ r, family.scaled(scales), family.with_stack(family.stack + family.stack)):
        assert derived._atom_ranks is family._atom_ranks


def test_precomposing_a_family_builds_a_fixed_number_of_operators(monkeypatch):
    counts = []
    for atoms in (4, 40):
        system = random_system(7, rank=2, atoms=atoms, algebra="matrix", dim=2)
        r = rand_operator(system.descriptor, 2, 2, np.random.default_rng(8))
        built = count_operators(monkeypatch)
        composed = theorems._composed(system, r)
        counts.append(len(built))
        monkeypatch.undo()
        assert composed.stacked_family.ranks == system.stacked_family.ranks
    assert counts[0] == counts[1]

import numpy as np
import pytest

from gframe.algebra import AlgebraElement
from gframe.errors import InputError, UnsupportedConfigurationError
from gframe.frames import FrameBounds, GFrameSystem, check_frame, optimal_scalar_bounds
from gframe.generate import random_system
from gframe.hilbert import AdjointableOperator, DirectSumVector, ModuleVector
from gframe.measure import MeasureSpace
from gframe.sampling import rand_vector

from conftest import ORACLE_SYSTEMS, brute_force_frame_operator_flat, brute_force_gram


def test_gram_identity_frame(identity_system, m2):
    rng = np.random.default_rng(1)
    x = rand_vector(m2, 2, rng)
    assert (identity_system.gram(x) - x.inner(x)).norm() <= 1e-14
    zero = ModuleVector.zero(m2, 2)
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
    measure = MeasureSpace((("w0", 1.0),))
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


def test_check_frame_exact_scalar(identity_system, m2):
    good = check_frame(identity_system, FrameBounds.from_scalars(1.0, 1.0, m2))
    assert good.status == "pass"
    bad = check_frame(identity_system, FrameBounds.from_scalars(2.0, 1.0, m2))
    assert bad.status == "fail"
    assert "witness_eigenvalues" in bad.info


def test_check_frame_optimality_margin(unit_interval):
    bounds = optimal_scalar_bounds(unit_interval)
    tight = check_frame(unit_interval, bounds, mode="exact_scalar")
    assert tight.status == "pass"
    over = FrameBounds.from_scalars(bounds.scalar_lower * 1.01, bounds.scalar_upper,
                                    unit_interval.descriptor)
    assert check_frame(unit_interval, over, mode="exact_scalar").status == "fail"
    under = FrameBounds.from_scalars(bounds.scalar_lower, bounds.scalar_upper * 0.99,
                                     unit_interval.descriptor)
    assert check_frame(unit_interval, under, mode="exact_scalar").status == "fail"


def test_check_frame_sampled_with_element_bounds(unit_interval):
    # element bounds sqrt(ab)/4 * diag(1/n) and sqrt(ab) * diag(1/n)
    inv_n = np.array([1.0, 0.5, 1.0 / 3.0])
    lower = AlgebraElement.diag(0.25 * inv_n)
    upper = AlgebraElement.diag(inv_n)
    bounds = FrameBounds.from_elements(lower, upper)
    report = check_frame(unit_interval, bounds, mode="sampled_general", samples=100, seed=0)
    assert report.status == "pass"


def test_check_frame_sampled_reports_witness(identity_system, m2):
    lower = AlgebraElement.scalar(m2, 2.0)
    upper = AlgebraElement.scalar(m2, 3.0)
    report = check_frame(identity_system, FrameBounds.from_elements(lower, upper),
                         mode="sampled_general", samples=20, seed=0)
    assert report.status == "fail"
    assert report.info["witness"]["side"] == "lower"


def test_check_frame_sampled_reports_upper_witness(identity_system, m2):
    lower = AlgebraElement.scalar(m2, 0.5)
    upper = AlgebraElement.scalar(m2, 0.9)
    report = check_frame(identity_system, FrameBounds.from_elements(lower, upper),
                         mode="sampled_general", samples=20, seed=0)
    assert report.status == "fail"
    assert report.info["witness"]["side"] == "upper"
    # gram(x) = <x, x> here, so the worst violation is 1 - 0.81 of ||<x, x>|| / max(1, ||<x, x>||)
    assert report.conclusions[0].residual <= 0.19 + 1e-12


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
    rng = np.random.default_rng(2)
    x = rand_vector(m2, 2, rng)
    family = identity_system.analysis(x)
    assert (family["w0"] - x).norm() <= 1e-13
    assert (identity_system.synthesis(family) - x).norm() <= 1e-13


def test_analysis_gram_consistency():
    system = random_system(5, commuting=True)
    rng = np.random.default_rng(3)
    s = system.frame_operator
    for _ in range(20):
        x = rand_vector(system.descriptor, system.module_rank, rng)
        family = system.analysis(x)
        lhs = family.inner(family)
        rhs = s(x).inner(x)
        assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


def test_analysis_synthesis_adjointness():
    system = random_system(6, commuting=True)
    rng = np.random.default_rng(4)
    ds = system.direct_sum
    for _ in range(20):
        x = rand_vector(system.descriptor, system.module_rank, rng)
        comps = {label: rand_vector(system.descriptor, rank, rng)
                 for label, rank in zip(ds.labels, ds.ranks)}
        y = DirectSumVector(ds, comps)
        lhs = system.synthesis(y).inner(x)
        rhs = y.inner(system.analysis(x))
        scale = max(1.0, lhs.norm(), rhs.norm())
        assert (lhs - rhs).norm() <= 1e-10 * scale


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
    measure = MeasureSpace((("w0", 1.0),))
    eye = AdjointableOperator.identity(m2, 2)
    with pytest.raises(InputError):
        GFrameSystem(measure, {}, eye, eye)
    with pytest.raises(InputError):
        GFrameSystem(measure, {"other": eye}, eye, eye)
    skew = AdjointableOperator(m2, np.array(1j * np.eye(2)).reshape(1, 1, 2, 2))
    one_rank = MeasureSpace((("w0", 1.0),))
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


def test_family_defect_independent_of_batching(monkeypatch):
    from gframe import frames

    system = random_system(**ORACLE_SYSTEMS[-1])
    ctr = system.controls
    whole = frames.ControlPair.build(ctr.C, ctr.Cp, system.family).family_defect
    monkeypatch.setattr(frames, "_BATCH_ENTRIES", 1)
    one_by_one = frames.ControlPair.build(ctr.C, ctr.Cp, system.family).family_defect
    assert whole > 1e-3
    assert one_by_one == pytest.approx(whole, rel=1e-13)


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS + (dict(seed=3, commuting=False),))
def test_lazy_commutation_facts_match_eager_recomputation(kwargs):
    from gframe import frames

    system = random_system(**kwargs)
    ctr = system.controls
    assert "commute_defect" not in vars(ctr) and "family_defect" not in vars(ctr)
    fc, fcp = ctr.C.flat(), ctr.Cp.flat()
    scale = max(1.0, float(np.linalg.norm(fc, 2) * np.linalg.norm(fcp, 2)))
    commute = float(np.linalg.norm(fc @ fcp - fcp @ fc, 2)) / scale
    family = frames._family_commutation_defect(list(system.family.values()), ctr.C, ctr.Cp)
    assert ctr.commute_defect == commute
    assert ctr.family_defect == family
    assert ctr.commute_each_other == (commute <= system.tol)
    assert ctr.commute_with_family == (family <= system.tol)


def test_gram_batch_rejects_wrong_shape(identity_system, m2):
    with pytest.raises(InputError):
        identity_system.gram_batch(np.zeros((3, 5, 2, 2)))
    with pytest.raises(InputError):
        identity_system.gram(rand_vector(m2, 3, np.random.default_rng(0)))

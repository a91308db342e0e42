import numpy as np
import pytest

from gframe.errors import DomainError
from gframe.frames import (
    DualCertificate,
    canonical_dual,
    controlled_multiplier,
    controlled_multiplier_report,
    multiplier,
    multiplier_report,
    operator_dual_check,
    reconstruction_operator,
)
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator, compose_all
from gframe.sampling import rand_invertible_operator, rand_operator

from conftest import (
    ORACLE_SYSTEMS,
    brute_force_controlled_multiplier_flat,
    brute_force_dual_family,
    brute_force_multiplier_flat,
    brute_force_reconstruction_flat,
)


def test_canonical_dual_identity_frame(identity_system, m2):
    cert = canonical_dual(identity_system, samples=20, seed=0)
    eye = AdjointableOperator.identity(m2, 2)
    assert (cert.dual_family["w0"] - eye).norm() <= 1e-13
    assert cert.reconstruction_residual <= 1e-13


def test_canonical_dual_unit_interval_closed_form():
    for alpha, beta in ((1.0, 1.0), (2.0, 3.0)):
        system = unit_interval_system(alpha, beta, 3, 11)
        cert = canonical_dual(system, samples=30, seed=1)
        assert cert.reconstruction_residual <= 1e-10
        factor = 3.0 / (alpha * beta) * np.array([1.0, 4.0, 9.0])
        for label, op in system.family.items():
            expected = op.blocks.reshape(-1) * factor
            got = cert.dual_family[label].blocks.reshape(-1)
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_canonical_dual_seeded_systems():
    for seed in range(4):
        system = random_system(seed, commuting=True)
        cert = canonical_dual(system, samples=50, seed=seed)
        assert cert.reconstruction_residual <= 1e-8


def test_canonical_dual_rejects_bessel_only(m2):
    from gframe.frames import GFrameSystem
    from gframe.measure import MeasureSpace

    measure = MeasureSpace((("w0", 1.0),))
    zero = AdjointableOperator.zero(m2, 2, 2)
    eye = AdjointableOperator.identity(m2, 2)
    system = GFrameSystem(measure, {"w0": zero}, eye, eye)
    with pytest.raises(DomainError):
        canonical_dual(system)


def test_operator_dual_check_with_identity(identity_system, m2):
    cert = canonical_dual(identity_system, samples=10, seed=0)
    eye = AdjointableOperator.identity(m2, 2)
    out = operator_dual_check(identity_system, cert.dual_family, eye, samples=10, seed=0)
    assert out.passed


def test_operator_dual_check_commuting_construction():
    system = random_system(2, commuting=True, scalar_controls=True)
    rng = np.random.default_rng(11)
    # K diagonal in the frame operator's eigenbasis: a polynomial in S
    s = system.frame_operator
    k = 0.5 * AdjointableOperator.identity(system.descriptor, system.module_rank) + 0.25 * s
    s_inv = s.inverse()
    k_inv = k.inverse()
    dual = {label: op @ s_inv @ k_inv for label, op in system.family.items()}
    cert = operator_dual_check(system, dual, k, samples=40, seed=3)
    assert cert.passed
    assert cert.details["converse_residual"] <= 1e-8


def test_operator_dual_check_wrong_companion(identity_system, m2):
    cert = canonical_dual(identity_system, samples=10, seed=0)
    doubled = AdjointableOperator.scalar(m2, 2, 2.0)
    out = operator_dual_check(identity_system, cert.dual_family, doubled, samples=10, seed=0)
    assert not out.passed
    assert out.reconstruction_residual == pytest.approx(1.0, abs=1e-9)


def test_multiplier_reduces_to_frame_operator(unit_interval):
    family = dict(unit_interval.family)
    ones = {label: 1.0 for label in family}
    op = multiplier(ones, family, family, unit_interval.measure)
    assert (op - unit_interval.uncontrolled_operator).norm() <= 1e-14


def test_multiplier_zero_symbol(unit_interval):
    family = dict(unit_interval.family)
    zeros = {label: 0.0 for label in family}
    op = multiplier(zeros, family, family, unit_interval.measure)
    assert op.norm() == 0.0


def test_multiplier_adjoint_and_bound():
    system = random_system(4, commuting=True)
    family = dict(system.family)
    rng = np.random.default_rng(12)
    symbol = {}
    for label in family:
        z = rng.standard_normal() + 1j * rng.standard_normal()
        symbol[label] = z / max(1.0, abs(z))
    second = {label: 0.5 * op for label, op in family.items()}
    rep = multiplier_report(symbol, family, second, system.measure)
    assert rep["norm_within_bound"]
    assert abs(rep["operator"].adjoint().norm() - rep["op_norm"]) <= 1e-12
    assert rep["adjoint_swapped_residual"] <= 1e-10
    assert rep["bound_squared"] >= rep["bound_product"] ** 2 / max(1.0, rep["bound_product"]) - 1e-12


def test_multiplier_matches_flatten_oracle():
    system = random_system(1, commuting=True)
    family = dict(system.family)
    rng = np.random.default_rng(13)
    symbol = {label: complex(rng.standard_normal(), rng.standard_normal())
              for label in family}
    op = multiplier(symbol, family, family, system.measure)
    oracle = brute_force_multiplier_flat(symbol, family, family, system.measure)
    assert np.linalg.norm(op.flat() - oracle, 2) <= 1e-12 * max(1.0, np.linalg.norm(oracle, 2))


def test_controlled_multiplier_reduces_to_frame_operator(unit_interval):
    family = dict(unit_interval.family)
    ones = {label: 1.0 for label in family}
    eye = AdjointableOperator.identity(unit_interval.descriptor, 1)
    op = controlled_multiplier(ones, family, family, eye, eye, unit_interval.measure)
    assert (op - unit_interval.uncontrolled_operator).norm() <= 1e-14


def test_controlled_multiplier_scalar_factoring():
    system = random_system(6, commuting=True)
    family = dict(system.family)
    rng = np.random.default_rng(14)
    symbol = {label: complex(rng.standard_normal(), rng.standard_normal())
              for label in family}
    second = {label: 0.7 * op for label, op in family.items()}
    desc, n = system.descriptor, system.module_rank
    c = AdjointableOperator.scalar(desc, n, 1.3)
    cp = AdjointableOperator.scalar(desc, n, 0.8)
    controlled = controlled_multiplier(symbol, second, family, c, cp, system.measure)
    plain = multiplier(symbol, second, family, system.measure)
    assert (controlled - (1.3 * 0.8) * plain).norm() <= 1e-12 * max(1.0, plain.norm())


def test_controlled_multiplier_zero_symbol_and_bound():
    system = random_system(7, commuting=True)
    family = dict(system.family)
    zeros = {label: 0.0 for label in family}
    c, cp = system.controls.C, system.controls.Cp
    assert controlled_multiplier(zeros, family, family, c, cp, system.measure).norm() == 0.0
    ones = {label: 1.0 for label in family}
    rep = controlled_multiplier_report(ones, family, family, c, cp, system.measure)
    assert rep["norm_within_bound"]


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_weighted_sums_match_flatten_oracles(kwargs):
    system = random_system(**kwargs)
    desc, n, measure = system.descriptor, system.module_rank, system.measure
    family = dict(system.family)
    rng = np.random.default_rng(kwargs["seed"] + 100)
    symbol = {label: complex(rng.standard_normal(), rng.standard_normal()) for label in family}
    other = {label: rand_operator(desc, n, op.out_rank, rng) for label, op in family.items()}
    k = rand_invertible_operator(desc, n, rng)
    c, cp = system.controls.C, system.controls.Cp
    pairs = (
        (multiplier(symbol, family, other, measure),
         brute_force_multiplier_flat(symbol, family, other, measure)),
        (controlled_multiplier(symbol, other, family, c, cp, measure),
         brute_force_controlled_multiplier_flat(symbol, other, family, c, cp, measure)),
        (reconstruction_operator(system, other), brute_force_reconstruction_flat(system, other)),
        (reconstruction_operator(system, other, k), brute_force_reconstruction_flat(system, other, k)),
    )
    for op, oracle in pairs:
        scale = max(1.0, np.linalg.norm(oracle, 2))
        assert np.linalg.norm(op.flat() - oracle, 2) <= 1e-12 * scale


@pytest.mark.parametrize("kwargs", ORACLE_SYSTEMS,
                         ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_batched_dual_family_matches_per_atom_compose(kwargs):
    system = random_system(**kwargs)
    oracle = brute_force_dual_family(system)
    batched = compose_all(list(system.family.values()), system.frame_operator.inverse())
    families = [dict(zip(system.family, batched))]
    if system.commuting:
        families.append(canonical_dual(system, samples=5, seed=0).dual_family)
    for family in families:
        assert list(family) == list(oracle)
        for label, op in oracle.items():
            assert family[label].blocks.shape == op.blocks.shape
            scale = max(1.0, op.norm())
            assert (family[label] - op).norm() <= 1e-12 * scale


def test_dual_verdict_comes_from_the_operator_residual(identity_system):
    cert = canonical_dual(identity_system, samples=0, seed=0)
    assert cert.reconstruction_residual == 0.0
    assert cert.operator_residual <= 1e-13
    assert cert.passed
    sampled_only = DualCertificate({}, None, reconstruction_residual=0.0, operator_residual=0.5,
                                   tolerance=1e-8, details={})
    assert not sampled_only.passed

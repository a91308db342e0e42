import numpy as np
import pytest

from gframe import frames
from gframe.errors import DomainError, InputError
from gframe.frames import (
    DualCertificate,
    Family,
    bessel_constant,
    canonical_dual,
    controlled_multiplier,
    multiplier,
    multiplier_report,
    optimal_scalar_bounds,
    reconstruction_operator,
)
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator
from gframe.sampling import rand_invertible_operator, rand_operator

from conftest import (
    ORACLE_SYSTEMS,
    brute_force_controlled_multiplier_flat,
    brute_force_dual_family,
    brute_force_multiplier_flat,
    brute_force_reconstruction_flat,
)


def test_canonical_dual_identity_frame(identity_system, m2):
    cert = canonical_dual(identity_system)
    eye = AdjointableOperator.identity(m2, 2)
    assert (cert.dual.members["w0"] - eye).norm() <= 1e-13
    assert cert.operator_residual <= 1e-13


def test_canonical_dual_unit_interval_closed_form():
    for alpha, beta in ((1.0, 1.0), (2.0, 3.0)):
        system = unit_interval_system(alpha, beta, 3, 11)
        cert = canonical_dual(system)
        assert cert.operator_residual <= 1e-10
        factor = 3.0 / (alpha * beta) * np.array([1.0, 4.0, 9.0])
        for label, op in system.family.items():
            expected = op.blocks.reshape(-1) * factor
            got = cert.dual.members[label].blocks.reshape(-1)
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_canonical_dual_seeded_systems():
    for seed in range(4):
        system = random_system(seed, commuting=True)
        cert = canonical_dual(system)
        assert cert.operator_residual <= 1e-8


def test_canonical_dual_rejects_bessel_only(m2):
    from gframe.frames import GFrameSystem
    from gframe.measure import MeasureSpace

    measure = MeasureSpace(["w0"], [1.0])
    zero = AdjointableOperator.zero(m2, 2, 2)
    eye = AdjointableOperator.identity(m2, 2)
    system = GFrameSystem(measure, {"w0": zero}, eye, eye)
    with pytest.raises(DomainError):
        canonical_dual(system)


def _k_dual_residuals(system, dual, k):
    """||R - I|| for x = integral of C' Lambda_w* Gamma_w K C x, and for its converse.

    The converse exchanges the two families and replaces K by K*.
    """
    eye = AdjointableOperator.identity(system.descriptor, system.module_rank)
    forward = (reconstruction_operator(system, dual, k) - eye).norm()
    swapped = system.with_family(dual)
    converse = (reconstruction_operator(swapped, system.stacked_family, k.adjoint()) - eye).norm()
    return forward, converse


def test_operator_dual_check_with_identity(identity_system, m2):
    cert = canonical_dual(identity_system)
    eye = AdjointableOperator.identity(m2, 2)
    assert max(_k_dual_residuals(identity_system, cert.dual.members, eye)) <= 1e-8


def test_operator_dual_check_commuting_construction():
    system = random_system(2, commuting=True, scalar_controls=True)
    # K diagonal in the frame operator's eigenbasis: a polynomial in S
    s = system.frame_operator
    k = 0.5 * AdjointableOperator.identity(system.descriptor, system.module_rank) + 0.25 * s
    s_inv = s.inverse()
    k_inv = k.inverse()
    dual = {label: op @ s_inv @ k_inv for label, op in system.family.items()}
    forward, converse = _k_dual_residuals(system, dual, k)
    assert forward <= 1e-8
    assert converse <= 1e-8


def test_operator_dual_check_wrong_companion(identity_system, m2):
    cert = canonical_dual(identity_system)
    doubled = AdjointableOperator.scalar(m2, 2, 2.0)
    forward, converse = _k_dual_residuals(identity_system, cert.dual.members, doubled)
    assert max(forward, converse) > 1e-8
    assert max(forward, converse) == pytest.approx(1.0, abs=1e-9)


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


def test_multiplier_bound_ignores_symbol_values_off_the_atoms():
    # The symbol's sup-norm is taken over the measure's atoms only: an entry for
    # a label that is not an atom must not inflate the enforced norm bound.
    system = unit_interval_system(2, 3, 2, 5)
    ones = {label: 1.0 for label in system.measure.labels}
    plain = multiplier_report(ones, system.family, system.family, system.measure)
    extra = multiplier_report({**ones, "extra": 1e6}, system.family, system.family,
                              system.measure)
    assert round(plain["bound_product"], 3) == 0.333
    assert extra["bound_product"] == plain["bound_product"]
    assert extra["op_norm"] == plain["op_norm"]


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
    op = controlled_multiplier(ones, family, family, c, cp, system.measure)
    # Bessel constants of the squared-control systems: (C, C) and (C', C')
    bound = (optimal_scalar_bounds(system.with_controls(c, c)).scalar_upper
             * optimal_scalar_bounds(system.with_controls(cp, cp)).scalar_upper)
    assert op.norm() <= bound + 1e-9 * max(1.0, bound)


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
    batched = Family.of(system.family, system.measure.labels) @ system.frame_operator.inverse()
    families = [batched.members]
    if system.commuting:
        families.append(canonical_dual(system).dual.members)
    for family in families:
        assert list(family) == list(oracle)
        for label, op in oracle.items():
            assert family[label].blocks.shape == op.blocks.shape
            scale = max(1.0, op.norm())
            assert (family[label] - op).norm() <= 1e-12 * scale


def test_dual_verdict_comes_from_the_operator_residual(identity_system):
    cert = canonical_dual(identity_system)
    assert cert.operator_residual <= 1e-13
    assert cert.passed
    assert not DualCertificate(cert.dual, operator_residual=0.5, tolerance=1e-8).passed
    assert DualCertificate(cert.dual, operator_residual=1e-8, tolerance=1e-8).passed


def _random_symbol(labels, seed):
    rng = np.random.default_rng(seed)
    return {label: complex(rng.standard_normal(), rng.standard_normal()) for label in labels}


@pytest.mark.parametrize("seed", [2, 5])
def test_multiplier_mapping_and_array_symbols_agree_bit_for_bit(seed):
    system = random_system(seed, commuting=True)
    symbol = _random_symbol(system.measure.labels, seed)
    array = np.array([symbol[label] for label in system.measure.labels])
    family = system.stacked_family
    second = family.with_stack(0.5 * family.stack)
    c, cp = system.controls.C, system.controls.Cp
    for by_label, in_order in (
            (multiplier(symbol, family, second, system.measure),
             multiplier(array, family, second, system.measure)),
            (controlled_multiplier(symbol, second, family, c, cp, system.measure),
             controlled_multiplier(array, second, family, c, cp, system.measure))):
        assert by_label.channels.tobytes() == in_order.channels.tobytes()
    # The mapping's key order does not matter: it is read in the measure's order.
    shuffled = dict(reversed(list(symbol.items())))
    assert (multiplier(shuffled, family, second, system.measure).channels.tobytes()
            == multiplier(array, family, second, system.measure).channels.tobytes())


def test_multiplier_symbol_must_cover_the_measure():
    system = unit_interval_system(2, 3, 2, 5)
    labels = system.measure.labels
    ones = {label: 1.0 for label in labels}
    del ones[labels[3]]
    for call in (lambda gamma: multiplier(gamma, system.family, system.family, system.measure),
                 lambda gamma: multiplier_report(gamma, system.family, system.family,
                                                 system.measure)):
        with pytest.raises(InputError, match=f"multiplier data missing atom '{labels[3]}'"):
            call(ones)
        for wrong in (np.ones(len(labels) - 1), np.ones(len(labels) + 1),
                      np.ones((len(labels), 1))):
            with pytest.raises(InputError, match="one value per atom"):
                call(wrong)


def test_multiplier_report_computes_once_what_one_family_makes_equal(monkeypatch):
    # With theta = lam the two Bessel constants are one, and so are the
    # swapped and unswapped adjoint multipliers.
    system = random_system(3, commuting=True)
    symbol = _random_symbol(system.measure.labels, 3)
    calls = {"bessel": 0, "multiplier": 0}

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(frames, "bessel_constant", counted("bessel", bessel_constant))
    monkeypatch.setattr(frames, "multiplier", counted("multiplier", multiplier))
    family = system.stacked_family
    same = multiplier_report(symbol, family, family, system.measure)
    assert calls == {"bessel": 1, "multiplier": 2}
    twin = family.with_stack(family.stack)
    other = multiplier_report(symbol, family, twin, system.measure)
    assert calls == {"bessel": 3, "multiplier": 5}
    for key in ("op_norm", "bound_product", "bound_squared", "adjoint_swapped_residual",
                "adjoint_unswapped_residual", "statement_form_matches", "passed"):
        assert same[key] == other[key], key

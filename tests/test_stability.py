import math

import numpy as np
import pytest

from gframe.errors import DomainError, InputError
from gframe.frames import FrameBounds, check_frame, optimal_scalar_bounds
from gframe.generate import random_system, unit_interval_system
from gframe.sampling import rand_operator, rand_vector
from gframe.stability import (
    additive_perturbation_check,
    check_equivalence_M,
    run_perturbation,
    sum_frame_check,
    weighted_perturbation_check,
)

from conftest import brute_force_frame_operator_flat, tight_line_system, vector_from_doc


def _scaled(system, factor):
    return system.with_family({label: factor * op for label, op in system.family.items()})


def _difference(sys_a, sys_b):
    """sys_a with the member-wise difference family Lambda_w - Gamma_w, built member by member."""
    return sys_a.with_family({label: sys_a.family[label] - sys_b.family[label]
                              for label in sys_a.measure.labels})


def _cc_system(seed):
    base = random_system(seed, commuting=True)
    return base.with_controls(base.controls.C, base.controls.C)


def _noisy_pair(seed):
    """random_system(seed) with C' = C, and its family plus 0.3 times seeded Gaussian operators."""
    base = random_system(seed)
    sys_t = base.with_controls(base.controls.C, base.controls.C)
    rng = np.random.default_rng(101)
    family = {label: op + 0.3 * rand_operator(sys_t.descriptor, op.in_rank, op.out_rank, rng)
              for label, op in sys_t.family.items()}
    return sys_t, family


def test_params_validation(unit_interval):
    family = dict(unit_interval.family)
    ones = {label: 1.0 for label in family}
    with pytest.raises(InputError, match=r"constants in \[0, 1\)"):
        weighted_perturbation_check(unit_interval, unit_interval.with_family(family), ones,
                                    ones, lam=1.0, mu=0.0)
    with pytest.raises(InputError, match="nonnegative constants"):
        additive_perturbation_check(unit_interval, unit_interval.with_family(family), alpha=-1.0,
                                    beta=0.0)
    with pytest.raises(InputError, match="unknown perturbation kind"):
        run_perturbation("bogus", unit_interval, unit_interval, {})


def test_family_distance_basic(unit_interval):
    rng = np.random.default_rng(0)
    x = rand_vector(unit_interval.descriptor, 1, rng)
    assert _difference(unit_interval, unit_interval).gram(x).norm() == 0.0
    doubled = _scaled(unit_interval, 2.0)
    diff = _difference(unit_interval, doubled).gram(x)
    assert (diff - unit_interval.gram(x)).norm() <= 1e-13
    # symmetry is exact
    assert (_difference(doubled, unit_interval).gram(x) - diff).norm() == 0.0


def test_family_distance_matches_flatten_oracle():
    sys_a = _cc_system(1)
    sys_b = _scaled(sys_a, 0.8)
    diff = _difference(sys_a, sys_b)
    oracle = brute_force_frame_operator_flat(diff)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rand_vector(sys_a.descriptor, sys_a.module_rank, rng)
        fx = x.flat()
        expected = fx @ oracle @ fx.conj().T
        got = diff.gram(x).data
        got = got if got.ndim == 2 else np.diag(got)
        assert np.linalg.norm(got - expected, 2) <= 1e-11 * max(1.0, np.linalg.norm(expected, 2))


def test_family_distance_requires_shared_structure(unit_interval):
    # The checks compare families through their difference, so they refuse
    # a pair that does not share the control.
    other = unit_interval_system(2.0, 2.0, 3, 11)
    with pytest.raises(InputError, match="share the control"):
        check_equivalence_M(unit_interval, other)


def test_zero_distance_means_equal_frame_operators():
    sys_a = _cc_system(4)
    sys_b = sys_a.with_family(dict(sys_a.family))
    diff = _difference(sys_a, sys_b)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rand_vector(sys_a.descriptor, sys_a.module_rank, rng)
        assert diff.gram(x).norm() == 0.0
    assert (sys_a.frame_operator - sys_b.frame_operator).norm() <= 1e-10


def test_equivalence_self(unit_interval):
    report = check_equivalence_M(unit_interval, unit_interval)
    assert report.status == "pass"
    assert report.info["min_m"] == 0.0


def test_equivalence_scaled_diagonal_closed_form(unit_interval):
    sys_b = _scaled(unit_interval, 1.5)
    diff = _difference(unit_interval, sys_b)
    rng = np.random.default_rng(6)
    worst_a, worst_b = 0.0, 0.0
    for _ in range(50):
        x = rand_vector(unit_interval.descriptor, 1, rng)
        dist = diff.gram(x).norm()
        worst_a = max(worst_a, dist / unit_interval.gram(x).norm())
        worst_b = max(worst_b, dist / sys_b.gram(x).norm())
    # difference family is 0.5 * Lambda: ratios are exactly 1/4 and 1/9
    assert worst_a == pytest.approx(0.25, abs=1e-12)
    assert worst_b == pytest.approx(1.0 / 9.0, abs=1e-12)
    report = check_equivalence_M(unit_interval, sys_b)
    assert report.status == "pass"
    # the exact constant is the larger generalized eigenvalue, max(1/4, 1/9)
    assert report.info["min_m"] == pytest.approx(0.25, abs=1e-12)
    # two-sided constant: bounds are (a, b) and (1.5a, 1.5b) with b = 3a
    assert report.info["m_constant"] == pytest.approx(9.0, abs=1e-9)


def test_equivalence_near_identical_seeded_pairs():
    for seed in range(5):
        sys_a = _cc_system(seed)
        rng = np.random.default_rng(seed + 100)
        perturbed = {}
        for label, op in sys_a.family.items():
            noise = rand_operator(sys_a.descriptor, op.in_rank, op.out_rank, rng)
            perturbed[label] = op + (0.01 / max(1.0, noise.norm())) * noise
        sys_b = sys_a.with_family(perturbed)
        report = check_equivalence_M(sys_a, sys_b)
        assert report.status == "pass", report.to_dict()


def test_sum_with_zero_family(unit_interval):
    zero_family = {label: 0.0 * op for label, op in unit_interval.family.items()}
    sys_zero = unit_interval.with_family(zero_family)
    report = sum_frame_check(unit_interval, sys_zero)
    assert report.status == "pass"
    window = report.info["certified_windows"]["summed window certified"]
    bounds = optimal_scalar_bounds(unit_interval)
    assert window[0] == pytest.approx(bounds.scalar_lower)
    assert window[1] == pytest.approx(bounds.scalar_upper)


def test_sum_hypothesis_gate(unit_interval):
    # Bessel bound of the copy exceeds the lower bound: not applicable
    report = sum_frame_check(unit_interval, unit_interval)
    assert report.status == "not_applicable"


def test_sum_tight_instance_all_scales():
    tight = tight_line_system()
    bounds = optimal_scalar_bounds(tight)
    a, b = bounds.scalar_lower, bounds.scalar_upper
    for c in (0.5, 1.0, 2.0):
        sys_bessel = _scaled(tight, c - 1.0) if c != 1.0 else _scaled(tight, 0.0)
        report = sum_frame_check(tight, sys_bessel)
        assert report.status == "pass", (c, report.to_dict())
        window = report.info["certified_windows"]["summed window certified"]
        assert window[0] <= c * a + 1e-12
        assert c * b <= window[1] + 1e-12


def test_sum_seeded_half_bessel():
    sys_a = _cc_system(7)
    bounds = optimal_scalar_bounds(sys_a)
    factor = 0.5 * bounds.scalar_lower / bounds.scalar_upper
    report = sum_frame_check(sys_a, _scaled(sys_a, factor))
    assert report.status == "pass"


def test_weighted_identity_reproduces_bounds(unit_interval):
    labels = unit_interval.measure.labels
    ones = {label: 1.0 for label in labels}
    report = weighted_perturbation_check(unit_interval, unit_interval, ones, ones, lam=0.0,
                                         mu=0.0)
    assert report.status == "pass"
    window = report.info["certified_windows"]["weighted window certified"]
    bounds = optimal_scalar_bounds(unit_interval)
    assert window[0] == pytest.approx(bounds.scalar_lower)
    assert window[1] == pytest.approx(bounds.scalar_upper)


@pytest.mark.parametrize("c,lam,mu", [(0.5, 0.55, 0.0), (2.0, 0.6, 0.25)])
def test_weighted_scaled_diagonal(c, lam, mu, unit_interval):
    labels = unit_interval.measure.labels
    ones = {label: 1.0 for label in labels}
    scaled_family = {label: c * op for label, op in unit_interval.family.items()}
    report = weighted_perturbation_check(unit_interval, unit_interval.with_family(scaled_family),
                                         ones, ones,
                                         lam=lam, mu=mu)
    assert report.status == "pass", report.to_dict()
    bounds = optimal_scalar_bounds(unit_interval)
    window = report.info["certified_windows"]["weighted window certified"]
    assert window[0] <= c * bounds.scalar_lower + 1e-12
    assert c * bounds.scalar_upper <= window[1] + 1e-12


def test_weighted_seeded_small_constants():
    sys_a = _cc_system(8)
    labels = sys_a.measure.labels
    ones = {label: 1.0 for label in labels}
    rng = np.random.default_rng(9)
    perturbed = {}
    for label, op in sys_a.family.items():
        noise = rand_operator(sys_a.descriptor, op.in_rank, op.out_rank, rng)
        perturbed[label] = op + (0.02 / max(1.0, noise.norm())) * noise
    report = weighted_perturbation_check(sys_a, sys_a.with_family(perturbed), ones, ones,
                                         lam=0.1, mu=0.1)
    assert report.status == "pass"


def test_additive_identity_and_small_scale():
    tight = tight_line_system()
    bounds = optimal_scalar_bounds(tight)
    report = additive_perturbation_check(tight, tight, alpha=0.0, beta=0.0)
    assert report.status == "pass"
    window = report.info["certified_windows"]["additive window certified"]
    assert window[0] == pytest.approx(bounds.scalar_lower)
    assert window[1] == pytest.approx(bounds.scalar_upper)
    scaled = {label: 1.01 * op for label, op in tight.family.items()}
    report = additive_perturbation_check(tight, tight.with_family(scaled), alpha=(0.012) ** 1,
                                         beta=0.0)
    assert report.status == "pass"
    window = report.info["certified_windows"]["additive window certified"]
    assert window[0] <= 1.01 * bounds.scalar_lower
    assert 1.01 * bounds.scalar_upper <= window[1]


def test_additive_precondition_gate():
    tight = tight_line_system()
    with pytest.raises(DomainError):
        additive_perturbation_check(tight, tight, alpha=1.0, beta=0.0)
    nu = optimal_scalar_bounds(tight).scalar_lower
    with pytest.raises(DomainError):
        additive_perturbation_check(tight, tight, alpha=0.5, beta=0.6 * nu * nu)


def test_additive_corollary_kind():
    tight = tight_line_system()
    report = additive_perturbation_check(tight, tight, alpha=0.01, beta=0.0,
                                         kind="additive_corollary")
    assert report.status == "pass"
    assert "squared_factor_window" in report.info
    # The corollary is the additive check with no Gram term: on this pair its
    # hypothesis fails at a witness for alpha = 0.05 and holds for 0.5.
    sys_t, family = _noisy_pair(3)
    sys_r = sys_t.with_family(family)
    for alpha in (0.05, 0.5):
        corollary = additive_perturbation_check(sys_t, sys_r, alpha=alpha, beta=0.3,
                                                kind="additive_corollary")
        additive = additive_perturbation_check(sys_t, sys_r, alpha=0.0, beta=alpha)
        assert corollary.to_dict() == additive.to_dict()


def test_additive_corollary_never_builds_the_reference_gram():
    # Its Gram constant is zero, so K_T would only be multiplied by 0.
    sys_t, family = _noisy_pair(3)
    sys_r = sys_t.with_family(family)
    additive_perturbation_check(sys_t, sys_r, alpha=0.5, beta=0.3, kind="additive_corollary")
    assert "gram_operator" not in vars(sys_t)
    additive_perturbation_check(sys_t, sys_r, alpha=0.1, beta=0.3)
    assert "gram_operator" in vars(sys_t)


def test_certified_windows_recheck_exactly():
    # conclusion soundness: every certified window passes the exact scalar check
    tight = tight_line_system()
    scaled = {label: 0.9 * op for label, op in tight.family.items()}
    report = additive_perturbation_check(tight, tight.with_family(scaled), alpha=0.02, beta=0.0)
    assert report.status == "pass"
    window = report.info["certified_windows"]["additive window certified"]
    sys_r = tight.with_family(scaled)
    sub = check_frame(sys_r, FrameBounds.from_scalars(window[0], window[1]))
    assert sub.status == "pass"


@pytest.mark.parametrize("fraction", [0.99, 0.97])
def test_additive_hypothesis_fails_at_its_witness(fraction):
    # C^2, rank 4, 8 atoms.  With beta just below lambda_max(K_D - alpha K_T) the
    # hypothesis fails by the difference, at the top eigenvector; 200 seeded
    # samples missed that vector and passed the run.
    sys_t, family = _noisy_pair(1)
    sys_r = sys_t.with_family(family)
    diff = _difference(sys_t, sys_r)
    f = diff.gram_operator.flat() - 0.5 * sys_t.gram_operator.flat()
    top = np.linalg.eigvalsh(0.5 * (f + f.conj().T))[-1]
    report = additive_perturbation_check(sys_t, sys_r, alpha=0.5, beta=fraction * top)
    assert report.status == "not_applicable"
    line = report.hypotheses[-1]
    assert (line.name, line.passed) == ("additive smallness", False)
    assert line.residual == pytest.approx((1.0 - fraction) * top, rel=1e-9)
    x = vector_from_doc(report.info["witness"])
    excess = (diff.gram(x).norm() - 0.5 * sys_t.gram(x).norm()
              - fraction * top * x.inner(x).norm())
    assert excess == pytest.approx(line.residual, rel=1e-9)


def _weighted_noisy(seed, lam, mu):
    sys_t, family = _noisy_pair(seed)
    ones = {label: 1.0 for label in family}
    sys_r = sys_t.with_family(family)
    report = weighted_perturbation_check(sys_t, sys_r, ones, ones, lam=lam, mu=mu)
    return sys_t, sys_r, report


def test_weighted_hypothesis_proven_false_at_its_witness():
    # M_2, rank 2: the witness of the Loewner test violates the hypothesis
    # itself; 200 seeded samples missed it and passed the run.
    sys_t, sys_r, report = _weighted_noisy(5, lam=0.5, mu=0.1)
    assert sys_t.descriptor.kind == "matrix"
    assert report.status == "not_applicable"
    assert report.info["weighted_sufficient_gap"] == report.hypotheses[-1].residual > 0
    x = vector_from_doc(report.info["witness"])
    violation = (math.sqrt(_difference(sys_t, sys_r).gram(x).norm())
                 - 0.5 * math.sqrt(sys_t.gram(x).norm()) - 0.1 * math.sqrt(sys_r.gram(x).norm()))
    assert violation == pytest.approx(report.info["weighted_witness_violation"], rel=1e-9)
    assert violation > 0.02


def test_weighted_hypothesis_undecided_is_not_applicable():
    # The Loewner test fails, but its witness satisfies the hypothesis: no
    # witness is recorded and the run is not applicable.
    _, _, report = _weighted_noisy(1, lam=0.35, mu=0.5)
    assert report.status == "not_applicable"
    assert report.info["weighted_sufficient_gap"] > 0
    assert report.info["weighted_witness_violation"] < 0
    assert "witness" not in report.info


def test_equivalence_constant_is_the_larger_generalized_eigenvalue():
    sys_a, family = _noisy_pair(5)
    sys_b = sys_a.with_family(family)
    report = check_equivalence_M(sys_a, sys_b)
    diff = sys_a.with_family({label: sys_a.family[label] - family[label] for label in family})
    k_d = diff.gram_operator.flat()
    oracle = max(np.linalg.eigvals(np.linalg.solve(sys.gram_operator.flat(), k_d)).real.max()
                 for sys in (sys_a, sys_b))
    assert report.info["min_m"] == pytest.approx(oracle, rel=1e-10)


def test_weighted_check_reads_arrays_in_atom_order_like_mappings():
    sys_t = _cc_system(2)
    sys_r = _scaled(sys_t, 1.01)
    labels = sys_t.measure.labels
    alphas = np.linspace(0.9, 1.1, len(labels))
    betas = np.linspace(1.05, 0.95, len(labels))
    by_label = weighted_perturbation_check(sys_t, sys_r, dict(zip(labels, alphas)),
                                           dict(zip(labels, betas.tolist())), lam=0.1, mu=0.1)
    in_order = weighted_perturbation_check(sys_t, sys_r, alphas, betas, lam=0.1, mu=0.1)
    assert by_label.to_dict() == in_order.to_dict()
    with pytest.raises(InputError, match=f"alpha_w missing atom '{labels[-1]}'"):
        weighted_perturbation_check(sys_t, sys_r, dict(zip(labels[:-1], alphas)), betas,
                                    lam=0.1, mu=0.1)
    with pytest.raises(InputError, match="one value per atom"):
        weighted_perturbation_check(sys_t, sys_r, alphas[1:], betas, lam=0.1, mu=0.1)
    params = {"lambda": 0.1, "mu": 0.1, "alpha_w": dict(zip(labels, alphas.tolist())),
              "beta_w": 1.0}
    run = run_perturbation("weighted", sys_t, sys_r, params)
    assert run.to_dict() == weighted_perturbation_check(
        sys_t, sys_r, alphas, np.ones(len(labels)), lam=0.1, mu=0.1).to_dict()

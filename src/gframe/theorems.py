"""Executable theorem suite for controlled frame systems.

Each row builds (or accepts) a desk-scale instance, evaluates the statement's
hypotheses as numeric predicates, and then evaluates the conclusion as
residuals against a tolerance.  Rows are deterministic given (id, seed) and
independent of each other.

Documented mutants (``scale_member``, ``break_commutation``, ``wrong_k``)
inject a violation mid-pipeline; the mutant matrix below records which row
each mutant is expected to flip and to which status.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

import numpy as np

from .algebra import DEFAULT_TOL, DIAGONAL, MATRIX, AlgebraDescriptor, AlgebraElement
from .errors import GFrameError, InputError
from .frames import (
    FrameBounds,
    GFrameSystem,
    check_frame,
    optimal_scalar_bounds,
    reconstruction_operator,
)
from .generate import random_system
from .hilbert import AdjointableOperator, ModuleVector
from .measure import MeasureSpace, atom_label
from .reports import FAIL, NOT_APPLICABLE, PASS, TheoremReport
from .sampling import (
    complex_gaussian,
    rand_invertible_operator,
    rand_operator,
    rand_positive_operator,
    rand_vector,
)

SCALE_MEMBER = "scale_member"
BREAK_COMMUTATION = "break_commutation"
WRONG_K = "wrong_k"
MUTANTS = (SCALE_MEMBER, BREAK_COMMUTATION, WRONG_K)

# (theorem id, mutant, expected report status)
DOCUMENTED_MUTANTS = (
    ("FO-PROPS", SCALE_MEMBER, FAIL),
    ("T2.3", SCALE_MEMBER, FAIL),
    ("RIGHT-COMP", SCALE_MEMBER, FAIL),
    ("FO-PROPS", BREAK_COMMUTATION, NOT_APPLICABLE),
    ("SCC-PROPS", BREAK_COMMUTATION, NOT_APPLICABLE),
    ("SUBMODULE", BREAK_COMMUTATION, NOT_APPLICABLE),
    ("T55", WRONG_K, FAIL),
    ("T66", WRONG_K, FAIL),
    ("T33", WRONG_K, FAIL),
    ("OP-DUAL-CORR", WRONG_K, FAIL),
    ("MIDPOINT-DUAL", WRONG_K, FAIL),
)


def _rng(seed: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _rel_op(x: AdjointableOperator, y: AdjointableOperator) -> float:
    return (x - y).norm() / max(1.0, x.norm(), y.norm())


def _identity_residual(op: AdjointableOperator) -> float:
    eye = AdjointableOperator.identity(op.descriptor, op.in_rank)
    return (op - eye).norm()


def _scale_first_member(system: GFrameSystem, factor: float = 2.0) -> GFrameSystem:
    family = dict(system.family)
    first = system.measure.labels[0]
    family[first] = factor * family[first]
    return system.with_family(family)


def _commutation_breakable(system: GFrameSystem) -> bool:
    """False when every operator on the module commutes (scalar-like setting)."""
    per_channel = system.descriptor.dim if system.descriptor.kind == MATRIX else 1
    return system.module_rank * per_channel >= 2


def _bump_control(system: GFrameSystem, seed: int) -> GFrameSystem:
    rng = _rng(seed, 9999)
    r = rand_operator(system.descriptor, system.module_rank, system.module_rank, rng)
    bump = (0.4 / max(1.0, r.norm() ** 2)) * (r.adjoint() @ r)
    return system.with_controls(system.controls.C + bump, system.controls.Cp)


def _describe(system: GFrameSystem, generated: bool) -> dict:
    return {
        "generated": generated,
        "algebra": {"kind": system.descriptor.kind, "dim": system.descriptor.dim},
        "module_rank": system.module_rank,
        "atoms": len(system.measure.labels),
    }


def _aux_operator(aux, key: str, fallback: Callable[[], AdjointableOperator],
                  report: TheoremReport) -> AdjointableOperator:
    if aux and key in aux:
        report.info.setdefault("aux_supplied", []).append(key)
        return aux[key]
    report.info.setdefault("aux_generated", []).append(key)
    return fallback()


def _frame_hypotheses(report: TheoremReport, system: GFrameSystem, tol: float,
                      need_commuting: bool = True) -> Optional[FrameBounds]:
    """Record the shared frame/commutation hypotheses; None when they fail."""
    ctr = system.controls
    if need_commuting:
        report.add_hypothesis("controls commute", ctr.commute_each_other, ctr.commute_defect)
        report.add_hypothesis("controls commute with family", ctr.commute_with_family,
                              ctr.family_defect)
        if not (ctr.commute_each_other and ctr.commute_with_family):
            return None
    try:
        bounds = optimal_scalar_bounds(system, tol)
    except GFrameError:
        report.add_hypothesis("frame operator self-adjoint positive", False, 1.0)
        return None
    report.add_hypothesis("frame property (positive lower bound)", bounds.is_frame,
                          0.0 if bounds.is_frame else 1.0)
    if not bounds.is_frame:
        return None
    report.info["scalar_bounds"] = [bounds.scalar_lower, bounds.scalar_upper]
    return bounds


# ---------------------------------------------------------------------------
# individual rows
# ---------------------------------------------------------------------------


def _row_transform(system, seed, tol, samples, aux, mutant):
    """Transform row: injectivity, closed range, norm bound, surjective adjoint."""
    report = TheoremReport("T2.3", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, pad_outputs=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    if mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
    t = system.analysis_operator
    s = system.frame_operator
    scale = max(1.0, s.norm())
    svals = np.linalg.svd(t.flat(), compute_uv=False)
    sigma_min, sigma_max = float(svals[-1]), float(svals[0])
    report.add_conclusion("transform factorizes the frame operator",
                          _rel_op(t.adjoint() @ t, s) <= 10 * tol,
                          _rel_op(t.adjoint() @ t, s))
    report.add_conclusion("injective with closed range", sigma_min > tol * scale, 0.0)
    gap = sigma_max - bounds.scalar_upper
    report.add_conclusion("norm bounded by the upper frame bound",
                          gap <= tol * max(1.0, bounds.scalar_upper), max(0.0, gap))
    report.add_conclusion("adjoint surjective (bounded below)",
                          sigma_min >= bounds.scalar_lower - tol * scale,
                          max(0.0, bounds.scalar_lower - sigma_min))
    return report


def _row_frame_operator_props(system, seed, tol, samples, aux, mutant):
    """Frame operator is bounded, positive, self-adjoint, invertible, norm-sandwiched."""
    report = TheoremReport("FO-PROPS", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True)
        if mutant == BREAK_COMMUTATION and not _commutation_breakable(system):
            system = random_system(seed, commuting=True, rank=2, dim=2)
    if mutant == BREAK_COMMUTATION:
        system = _bump_control(system, seed)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    if mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
    s = system.frame_operator
    scale = max(1.0, s.norm())
    eigs = s.eigenvalues_hermitian()
    report.add_conclusion("bounded", np.isfinite(s.norm()), 0.0)
    report.add_conclusion("self-adjoint", s.hermitian_defect() <= 10 * tol * scale,
                          s.hermitian_defect() / scale)
    report.add_conclusion("positive", eigs[0] >= -10 * tol * scale, max(0.0, -float(eigs[0])) / scale)
    report.add_conclusion("invertible", eigs[0] > tol * scale, 0.0)
    lo_gap = bounds.scalar_lower ** 2 - float(eigs[-1])
    hi_gap = float(eigs[-1]) - bounds.scalar_upper ** 2
    report.add_conclusion("norm above squared lower bound", lo_gap <= tol * scale, max(0.0, lo_gap))
    report.add_conclusion("norm below squared upper bound", hi_gap <= tol * scale, max(0.0, hi_gap))
    return report


def _row_scc_props(system, seed, tol, samples, aux, mutant):
    """Synthesis-after-analysis equals the frame operator and shares its properties."""
    report = TheoremReport("SCC-PROPS", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True)
        if mutant == BREAK_COMMUTATION and not _commutation_breakable(system):
            system = random_system(seed, commuting=True, rank=2, dim=2)
    if mutant == BREAK_COMMUTATION:
        system = _bump_control(system, seed)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    composed = system.synthesis_operator @ system.analysis_operator
    s = system.frame_operator
    report.add_conclusion("factorization matches block assembly",
                          _rel_op(composed, s) <= 10 * tol, _rel_op(composed, s))
    scale = max(1.0, composed.norm())
    eigs = composed.eigenvalues_hermitian()
    report.add_conclusion("bounded", np.isfinite(composed.norm()), 0.0)
    report.add_conclusion("self-adjoint", composed.hermitian_defect() <= 10 * tol * scale,
                          composed.hermitian_defect() / scale)
    report.add_conclusion("positive", eigs[0] >= -10 * tol * scale,
                          max(0.0, -float(eigs[0])) / scale)
    report.add_conclusion("invertible", eigs[0] > tol * scale, 0.0)
    return report


def _row_equal_controls_equivalence(system, seed, tol, samples, aux, mutant):
    """Frame with and without one repeated control, with transported bounds."""
    report = TheoremReport("T-T3", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        base = random_system(seed, commuting=True)
        rng = _rng(seed, 1)
        c = rand_positive_operator(base.descriptor, base.module_rank, rng, shift=0.6)
        system = base.with_controls(c, c)
    report.info["instance"] = _describe(system, generated)
    if not system.controls_equal:
        report.add_hypothesis("single repeated control", False,
                              (system.controls.C - system.controls.Cp).norm())
        return report
    report.add_hypothesis("single repeated control", True, 0.0)
    c = system.controls.C
    identity = AdjointableOperator.identity(system.descriptor, system.module_rank)
    plain = system.with_controls(identity, identity)
    bounds_c = optimal_scalar_bounds(system, tol)
    bounds_plain = optimal_scalar_bounds(plain, tol)
    report.add_hypothesis("controlled system is a frame", bounds_c.is_frame,
                          0.0 if bounds_c.is_frame else 1.0)
    report.add_hypothesis("plain system is a frame", bounds_plain.is_frame,
                          0.0 if bounds_plain.is_frame else 1.0)
    if not report.hypotheses_pass:
        return report
    norm_c = c.norm()
    norm_c_inv = c.inverse().norm()
    if mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
        plain = system.with_controls(identity, identity)
    to_plain = FrameBounds.from_scalars(bounds_c.scalar_lower / norm_c,
                                        bounds_c.scalar_upper * norm_c_inv,
                                        system.descriptor, tol)
    to_controlled = FrameBounds.from_scalars(bounds_plain.scalar_lower / norm_c_inv,
                                             bounds_plain.scalar_upper * norm_c,
                                             system.descriptor, tol)
    for name, sys_checked, transported in (
            ("controlled-to-plain bounds certified", plain, to_plain),
            ("plain-to-controlled bounds certified", system, to_controlled)):
        sub = check_frame(sys_checked, transported, mode="exact_scalar", tol=tol * 10)
        report.add_conclusion(name, sub.status == PASS, sub.conclusion_residual)
    return report


def _row_transform_bounds(system, seed, tol, samples, aux, mutant):
    """Optimal scalar frame bounds coincide with the transform's spectral data."""
    report = TheoremReport("T-TT", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    t = system.analysis_operator
    s = system.frame_operator
    scale = max(1.0, s.norm())
    svals = np.linalg.svd(t.flat(), compute_uv=False)
    eigs = s.eigenvalues_hermitian()
    upper_defect = abs(float(svals[0]) ** 2 - float(eigs[-1])) / scale
    report.add_conclusion("upper bound is the squared transform norm",
                          upper_defect <= 100 * tol, upper_defect)
    inv_norm = s.inverse().norm()
    lower_defect = abs(1.0 / inv_norm - float(eigs[0])) / scale
    report.add_conclusion("lower bound is the inverse-norm reciprocal",
                          lower_defect <= 100 * tol, lower_defect)
    sub = check_frame(system, FrameBounds.from_scalars(
        float(np.sqrt(max(eigs[0], 0.0))), float(np.sqrt(max(eigs[-1], 0.0))),
        system.descriptor, tol), mode="exact_scalar", tol=tol * 10)
    report.add_conclusion("spectral bounds certified", sub.status == PASS,
                          sub.conclusion_residual)
    return report


def _row_bessel_composition(system, seed, tol, samples, aux, mutant):
    """Composing a Bessel family with the adjoints of another stays Bessel."""
    report = TheoremReport("BESSEL-COMP", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    rng = _rng(seed, 2)
    second = {}
    for label, op in system.family.items():
        second[label] = rand_operator(system.descriptor, system.module_rank, op.out_rank, rng)
    sys_gamma = system.with_family(second)
    b_lam = optimal_scalar_bounds(system, tol)
    b_gam = optimal_scalar_bounds(sys_gamma, tol)
    sup_lam = max(op.norm() for op in system.family.values())
    b1 = max(b_lam.scalar_upper, sup_lam)
    report.add_hypothesis("first family Bessel", np.isfinite(b_lam.scalar_upper), 0.0)
    report.add_hypothesis("second family Bessel", np.isfinite(b_gam.scalar_upper), 0.0)
    report.add_hypothesis("member norms below the first Bessel constant",
                          sup_lam <= b1 + tol, max(0.0, sup_lam - b1))
    composed = {label: system.family[label].adjoint() @ second[label]
                for label in system.measure.labels}
    sys_comp = sys_gamma.with_family(composed)
    comp_upper = optimal_scalar_bounds(sys_comp, tol).scalar_upper
    target = b1 * b_gam.scalar_upper
    gap = comp_upper - target
    report.add_conclusion("composed family Bessel with the product bound",
                          gap <= tol * max(1.0, target), max(0.0, gap))
    report.info["bessel_constants"] = [b1, b_gam.scalar_upper, comp_upper]
    return report


def _row_surjective_synthesis(system, seed, tol, samples, aux, mutant):
    """A surjective plain synthesis map forces the frame property."""
    report = TheoremReport("TH-SURJ", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, pad_outputs=True)
    report.info["instance"] = _describe(system, generated)
    ds = system.direct_sum
    plain = ds.stack_operator(dict(system.family))
    theta = plain.adjoint()
    svals = np.linalg.svd(theta.flat(), compute_uv=False)
    sigma = float(svals[-1])
    report.add_hypothesis("synthesis map surjective", sigma > tol, sigma)
    ctr = system.controls
    report.add_hypothesis("controls commute", ctr.commute_each_other, ctr.commute_defect)
    report.add_hypothesis("controls commute with family", ctr.commute_with_family,
                          ctr.family_defect)
    if not report.hypotheses_pass:
        return report
    bounds = optimal_scalar_bounds(system, tol)
    report.add_conclusion("controlled system is a frame", bounds.is_frame,
                          0.0 if bounds.is_frame else 1.0)
    mixed = (system.controls.Cp @ system.controls.C).eigenvalues_hermitian()
    floor = sigma ** 2 * float(mixed[0])
    gap = floor - bounds.scalar_lower ** 2
    report.add_conclusion("lower bound above the surjectivity constant",
                          gap <= tol * max(1.0, floor), max(0.0, gap))
    report.info["surjectivity_constant"] = sigma
    return report


def _row_surjective_composition(system, seed, tol, samples, aux, mutant):
    """Surjectivity of the cross Gram map transfers the frame property."""
    report = TheoremReport("F-KT", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    rng = _rng(seed, 3)
    r = rand_invertible_operator(system.descriptor, system.module_rank, rng)
    gamma = {label: op @ r for label, op in system.family.items()}
    f_op = None
    for label, weight in system.measure.atoms:
        term = weight * (gamma[label].adjoint() @ system.family[label])
        f_op = term if f_op is None else f_op + term
    bounds = _frame_hypotheses(report, system, tol, need_commuting=False)
    if bounds is None:
        return report
    svals = np.linalg.svd(f_op.flat(), compute_uv=False)
    report.add_hypothesis("cross Gram map surjective", float(svals[-1]) > tol, float(svals[-1]))
    if not report.hypotheses_pass:
        return report
    ds = system.direct_sum
    k_op = ds.stack_operator(gamma).adjoint()
    t_plain = ds.stack_operator(dict(system.family))
    factor_res = _rel_op(f_op, k_op @ t_plain)
    report.add_conclusion("factors through plain transform and synthesis",
                          factor_res <= 10 * tol, factor_res)
    gamma_bounds = optimal_scalar_bounds(system.with_family(gamma), tol)
    report.add_conclusion("second family is a frame", gamma_bounds.is_frame,
                          0.0 if gamma_bounds.is_frame else 1.0)
    return report


def _hom_instances(seed: int):
    """Three transport classes: identity, unitary conjugation, entry permutation."""
    rng = _rng(seed, 4)
    out = []

    base = random_system(seed, commuting=True, scalar_controls=True)
    out.append(("identity", base, lambda a: a, lambda x: x))

    d, n, atoms = 2, 2, 3
    desc = AlgebraDescriptor(MATRIX, d)
    q, r = np.linalg.qr(complex_gaussian(rng, (d, d)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    weights = rng.uniform(0.3, 1.2, size=atoms)
    measure = MeasureSpace(tuple((atom_label(i, atoms), float(weights[i])) for i in range(atoms)))
    eye = np.eye(d, dtype=np.complex128)
    family = {}
    for label in measure.labels:
        blocks = np.zeros((n, n, d, d), dtype=np.complex128)
        for i in range(n):
            for j in range(n):
                c0, c1, c2 = complex_gaussian(rng, (3,))
                blocks[i, j] = 0.9 * float(i == j) * eye + c0 * eye + c1 * u + c2 * (u @ u)
        family[label] = AdjointableOperator(desc, blocks)
    c = AdjointableOperator.scalar(desc, n, float(rng.uniform(0.6, 1.5)))
    cp = AdjointableOperator.scalar(desc, n, float(rng.uniform(0.6, 1.5)))
    sys_u = GFrameSystem(measure, family, c, cp)

    def phi_u(a: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(a.descriptor, u @ a.data @ u.conj().T)

    def theta_u(x: ModuleVector) -> ModuleVector:
        return ModuleVector(x.descriptor, np.einsum("ab,ibc,dc->iad", u, x.coords, u.conj()))

    out.append(("unitary", sys_u, phi_u, theta_u))

    k, n2, atoms2 = 3, 2, 3
    desc_d = AlgebraDescriptor(DIAGONAL, k)
    perm = np.array([1, 0, 2])
    weights2 = rng.uniform(0.3, 1.2, size=atoms2)
    measure2 = MeasureSpace(tuple((atom_label(i, atoms2), float(weights2[i])) for i in range(atoms2)))
    family2 = {}
    for label in measure2.labels:
        blocks = np.zeros((n2, n2, k), dtype=np.complex128)
        for i in range(n2):
            for j in range(n2):
                z, w = complex_gaussian(rng, (2,))
                blocks[i, j] = np.array([z, z, w]) + (1.0 if i == j else 0.0)
        family2[label] = AdjointableOperator(desc_d, blocks)
    c2 = AdjointableOperator.scalar(desc_d, n2, float(rng.uniform(0.6, 1.5)))
    cp2 = AdjointableOperator.scalar(desc_d, n2, float(rng.uniform(0.6, 1.5)))
    sys_p = GFrameSystem(measure2, family2, c2, cp2)

    def phi_p(a: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(a.descriptor, a.data[perm])

    def theta_p(x: ModuleVector) -> ModuleVector:
        return ModuleVector(x.descriptor, x.coords[:, perm])

    out.append(("permutation", sys_p, phi_p, theta_p))
    return out


def _row_hom_transport(system, seed, tol, samples, aux, mutant):
    """Frame data transported through an algebra morphism with an intertwiner."""
    report = TheoremReport("HOM-TRANSPORT", tolerance=tol, seed=seed)
    report.info["instance"] = {"generated": True, "classes": ["identity", "unitary", "permutation"]}
    rng = _rng(seed, 5)
    pair_count = max(10, min(samples, 40))
    for name, sys_i, phi, theta in _hom_instances(seed):
        bounds = optimal_scalar_bounds(sys_i, tol)
        report.add_hypothesis(f"{name}: frame property", bounds.is_frame,
                              0.0 if bounds.is_frame else 1.0)
        if not bounds.is_frame:
            continue
        inter_defect = 0.0
        commute_defect = 0.0
        gram_defect = 0.0
        pairing_defect = 0.0
        s = sys_i.frame_operator
        for _ in range(pair_count):
            x = rand_vector(sys_i.descriptor, sys_i.module_rank, rng, unit=True)
            y = rand_vector(sys_i.descriptor, sys_i.module_rank, rng, unit=True)
            tx, ty = theta(x), theta(y)
            inter_defect = max(inter_defect, (tx.inner(ty) - phi(x.inner(y))).norm())
            for op in sys_i.family.values():
                commute_defect = max(commute_defect, (op(tx) - theta(op(x))).norm())
            gram_defect = max(gram_defect, (sys_i.gram(tx) - phi(sys_i.gram(x))).norm())
            pairing_defect = max(pairing_defect, (s(tx).inner(ty) - phi(s(x).inner(y))).norm())
        report.add_hypothesis(f"{name}: inner products intertwined", inter_defect <= 100 * tol,
                              inter_defect)
        report.add_hypothesis(f"{name}: intertwiner commutes with the family",
                              commute_defect <= 100 * tol, commute_defect)
        report.add_conclusion(f"{name}: transported Gram identity", gram_defect <= 100 * tol,
                              gram_defect)
        report.add_conclusion(f"{name}: transported frame-operator pairing",
                              pairing_defect <= 100 * tol, pairing_defect)
        a2 = bounds.scalar_lower ** 2
        b2 = bounds.scalar_upper ** 2
        eigs = s.eigenvalues_hermitian()
        lo_gap = a2 - float(eigs[0])
        hi_gap = float(eigs[-1]) - b2
        report.add_conclusion(f"{name}: transported bounds certified",
                              lo_gap <= tol and hi_gap <= tol,
                              max(0.0, lo_gap, hi_gap))
    return report


def _row_left_composition(system, seed, tol, samples, aux, mutant):
    """Composing every member on the left with an invertible map keeps the frame."""
    report = TheoremReport("LEFT-COMP", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol, need_commuting=False)
    if bounds is None:
        return report
    out_ranks = {op.out_rank for op in system.family.values()}
    report.add_hypothesis("uniform output rank", len(out_ranks) == 1, float(len(out_ranks) - 1))
    if not report.hypotheses_pass:
        return report
    m = out_ranks.pop()
    theta = _aux_operator(aux, "theta_left",
                          lambda: rand_invertible_operator(system.descriptor, m, _rng(seed, 6)),
                          report)
    svals = np.linalg.svd(theta.flat(), compute_uv=False)
    report.add_hypothesis("left factor invertible", float(svals[-1]) > tol, float(svals[-1]))
    if not report.hypotheses_pass:
        return report
    new_family = {label: theta @ op for label, op in system.family.items()}
    new_sys = system.with_family(new_family)
    transported = FrameBounds.from_scalars(bounds.scalar_lower * float(svals[-1]),
                                           bounds.scalar_upper * float(svals[0]),
                                           system.descriptor, tol)
    sub = check_frame(new_sys, transported, mode="exact_scalar", tol=tol * 10)
    report.add_conclusion("composed family certified with transported bounds",
                          sub.status == PASS, sub.conclusion_residual)
    return report


def _row_right_composition(system, seed, tol, samples, aux, mutant):
    """Precomposition with an invertible map conjugates the frame operator."""
    report = TheoremReport("RIGHT-COMP", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol, need_commuting=False)
    if bounds is None:
        return report
    theta = _aux_operator(aux, "theta_right",
                          lambda: rand_invertible_operator(system.descriptor,
                                                           system.module_rank, _rng(seed, 7)),
                          report)
    svals = np.linalg.svd(theta.flat(), compute_uv=False)
    report.add_hypothesis("right factor invertible", float(svals[-1]) > tol, float(svals[-1]))
    ctrl_defect = max(_rel_op(theta @ system.controls.C, system.controls.C @ theta),
                      _rel_op(theta @ system.controls.Cp, system.controls.Cp @ theta))
    report.add_hypothesis("right factor commutes with controls", ctrl_defect <= 100 * tol,
                          ctrl_defect)
    if not report.hypotheses_pass:
        return report
    conjugated = theta.adjoint() @ system.frame_operator @ theta
    if mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
    new_sys = system.with_family({label: op @ theta for label, op in system.family.items()})
    res = _rel_op(new_sys.frame_operator, conjugated)
    report.add_conclusion("new frame operator is the conjugated one", res <= 100 * tol, res)
    transported = FrameBounds.from_scalars(bounds.scalar_lower * float(svals[-1]),
                                           bounds.scalar_upper * float(svals[0]),
                                           system.descriptor, tol)
    sub = check_frame(new_sys, transported, mode="exact_scalar", tol=tol * 10)
    report.add_conclusion("composed family certified with transported bounds",
                          sub.status == PASS, sub.conclusion_residual)
    return report


def _row_dual_similarity(system, seed, tol, samples, aux, mutant):
    """Duals of the Q*-composed family correspond to duals of the family via Q."""
    report = TheoremReport("DUAL-SIM", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    q = _aux_operator(aux, "Q",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank,
                                                       _rng(seed, 8)),
                      report)
    svals = np.linalg.svd(q.flat(), compute_uv=False)
    report.add_hypothesis("similarity operator invertible", float(svals[-1]) > tol,
                          float(svals[-1]))
    if not report.hypotheses_pass:
        return report
    q_adj = q.adjoint()
    sys_q = system.with_family({label: op @ q_adj for label, op in system.family.items()})
    s_q_inv = sys_q.frame_operator.inverse()
    gamma = {label: op @ s_q_inv for label, op in sys_q.family.items()}
    forward = reconstruction_operator(system, {label: gamma[label] @ q
                                               for label in system.measure.labels})
    report.add_conclusion("dual of the composed family transfers back",
                          _identity_residual(forward) <= 100 * tol,
                          _identity_residual(forward))
    s_inv = system.frame_operator.inverse()
    gamma0 = {label: op @ s_inv for label, op in system.family.items()}
    q_inv = q.inverse()
    backward = reconstruction_operator(sys_q, {label: gamma0[label] @ q_inv
                                               for label in system.measure.labels})
    report.add_conclusion("dual of the family transfers forward",
                          _identity_residual(backward) <= 100 * tol,
                          _identity_residual(backward))
    return report


def _row_equal_frame_operator(system, seed, tol, samples, aux, mutant):
    """Similarity by S1^(1/2) S2^(-1/2) matches the two frame operators."""
    report = TheoremReport("EQ-FRAME-OP", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    rng = _rng(seed, 9)
    r = rand_invertible_operator(system.descriptor, system.module_rank, rng)
    sys_gamma = system.with_family({label: op @ r for label, op in system.family.items()})
    gamma_bounds = optimal_scalar_bounds(sys_gamma, tol)
    report.add_hypothesis("second family is a frame", gamma_bounds.is_frame,
                          0.0 if gamma_bounds.is_frame else 1.0)
    if not report.hypotheses_pass:
        return report
    s_lam = system.frame_operator
    s_gam = sys_gamma.frame_operator
    q = s_lam.sqrt_positive() @ s_gam.inverse().sqrt_positive()
    q_adj = q.adjoint()
    matched = sys_gamma.with_family({label: op @ q_adj for label, op in sys_gamma.family.items()})
    res = _rel_op(matched.frame_operator, s_lam)
    report.add_conclusion("similar family reproduces the first frame operator",
                          res <= 100 * tol, res)
    return report


def _row_operator_dual_correspondence(system, seed, tol, samples, aux, mutant):
    """Operator duals move across Q*-composition with conjugated companion operators."""
    report = TheoremReport("OP-DUAL-CORR", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    rng = _rng(seed, 10)
    k = _aux_operator(aux, "K",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank, rng),
                      report)
    q = _aux_operator(aux, "Q",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank,
                                                       _rng(seed, 11)),
                      report)
    for name, op in (("companion operator", k), ("similarity operator", q)):
        svals = np.linalg.svd(op.flat(), compute_uv=False)
        report.add_hypothesis(f"{name} invertible", float(svals[-1]) > tol, float(svals[-1]))
    if not report.hypotheses_pass:
        return report
    s_inv = system.frame_operator.inverse()
    k_inv = k.inverse()
    gamma = {label: op @ s_inv @ k_inv for label, op in system.family.items()}
    base_res = _identity_residual(reconstruction_operator(system, gamma, k))
    report.add_hypothesis("operator dual identity holds", base_res <= 100 * tol, base_res)
    if not report.hypotheses_pass:
        return report
    k_checked = (2.0 * k) if mutant == WRONG_K else k
    q_adj, q_inv = q.adjoint(), q.inverse()
    sys_q = system.with_family({label: op @ q_adj for label, op in system.family.items()})
    gamma_q = {label: gamma[label] @ q_adj for label in system.measure.labels}
    conjugated = q_adj.inverse() @ k_checked @ q_inv
    forward_res = _identity_residual(reconstruction_operator(sys_q, gamma_q, conjugated))
    report.add_conclusion("transferred dual with conjugated operator",
                          forward_res <= 100 * tol, forward_res)
    s_q_inv = sys_q.frame_operator.inverse()
    gamma_prime = {label: op @ s_q_inv @ k_inv for label, op in sys_q.family.items()}
    back = {label: gamma_prime[label] @ q_adj for label in system.measure.labels}
    back_op = q_adj.inverse() @ k_checked @ q
    backward_res = _identity_residual(reconstruction_operator(system, back, back_op))
    report.add_conclusion("converse transfer with conjugated operator",
                          backward_res <= 100 * tol, backward_res)
    return report


def _block_diag_system(seed: int) -> tuple:
    """Frame whose members and companions respect a 2 + 1 coordinate split."""
    rng = _rng(seed, 12)
    kind = MATRIX if rng.integers(2) else DIAGONAL
    d = int(rng.integers(1, 3)) if kind == MATRIX else int(rng.integers(2, 4))
    desc = AlgebraDescriptor(kind, d)
    n, r, atoms = 3, 2, 4
    h_top = rand_positive_operator(desc, r, rng, shift=0.5)
    h_bot = rand_positive_operator(desc, n - r, rng, shift=0.5)
    weights = rng.uniform(0.3, 1.2, size=atoms)
    measure = MeasureSpace(tuple((atom_label(i, atoms), float(weights[i])) for i in range(atoms)))
    family = {}
    for label in measure.labels:
        top = (float(rng.uniform(0.4, 1.0)) * h_top
               + AdjointableOperator.scalar(desc, r, float(rng.uniform(0.3, 0.8)))).sqrt_positive()
        bot = (float(rng.uniform(0.4, 1.0)) * h_bot
               + AdjointableOperator.scalar(desc, n - r, float(rng.uniform(0.3, 0.8)))).sqrt_positive()
        blocks = AdjointableOperator.zero(desc, n, n).blocks.copy()
        blocks[:r, :r] = top.blocks
        blocks[r:, r:] = bot.blocks
        family[label] = AdjointableOperator(desc, blocks)
    c = AdjointableOperator.scalar(desc, n, float(rng.uniform(0.6, 1.4)))
    cp = AdjointableOperator.scalar(desc, n, float(rng.uniform(0.6, 1.4)))
    k_top = rand_invertible_operator(desc, r, rng)
    k_bot = rand_invertible_operator(desc, n - r, rng)
    k_blocks = AdjointableOperator.zero(desc, n, n).blocks.copy()
    k_blocks[:r, :r] = k_top.blocks
    k_blocks[r:, r:] = k_bot.blocks
    return GFrameSystem(measure, family, c, cp), AdjointableOperator(desc, k_blocks), r


def _row_submodule(system, seed, tol, samples, aux, mutant):
    """Restriction to an orthogonally complemented submodule."""
    report = TheoremReport("SUBMODULE", tolerance=tol, seed=seed)
    sys_full, k, r = _block_diag_system(seed)
    if mutant == BREAK_COMMUTATION:
        family = dict(sys_full.family)
        first = sys_full.measure.labels[0]
        blocks = family[first].blocks.copy()
        blocks[0, r] = 0.5 * AlgebraElement.one(sys_full.descriptor).data
        family[first] = AdjointableOperator(sys_full.descriptor, blocks)
        sys_full = sys_full.with_family(family)
    report.info["instance"] = _describe(sys_full, True)
    report.info["submodule_rank"] = r
    n = sys_full.module_rank
    desc = sys_full.descriptor
    bounds = _frame_hypotheses(report, sys_full, tol)
    if bounds is None:
        return report
    s_inv = sys_full.frame_operator.inverse()

    inclusion_blocks = AdjointableOperator.zero(desc, r, n).blocks.copy()
    one = AlgebraElement.one(desc).data
    for i in range(r):
        inclusion_blocks[i, i] = one
    inclusion = AdjointableOperator(desc, inclusion_blocks)
    projection = inclusion.adjoint()
    restricted = {label: op @ inclusion for label, op in sys_full.family.items()}
    c_r = projection @ sys_full.controls.C @ inclusion
    cp_r = projection @ sys_full.controls.Cp @ inclusion
    sys_r = GFrameSystem(sys_full.measure, restricted, c_r, cp_r)
    s_r = sys_r.frame_operator

    # members must commute with the projection: compare P Lam* Lam with (P Lam* Lam i) P
    block_defect = 0.0
    for op in sys_full.family.values():
        gram_full = op.adjoint() @ op
        left = projection @ gram_full
        right = (projection @ gram_full @ inclusion) @ projection
        block_defect = max(block_defect, _rel_op(left, right))
    report.add_hypothesis("family respects the submodule split", block_defect <= 100 * tol,
                          block_defect)
    k_defect = _rel_op(projection @ k, (projection @ k @ inclusion) @ projection)
    report.add_hypothesis("companion operator preserves the submodule", k_defect <= 100 * tol,
                          k_defect)
    s_r_inv_p = s_r.inverse() @ projection
    hyp_defect = 0.0
    for op in sys_full.family.values():
        lhs = s_r_inv_p @ op.adjoint()
        rhs = projection @ s_inv @ op.adjoint()
        hyp_defect = max(hyp_defect, _rel_op(lhs, rhs))
    report.add_hypothesis("restricted inverse intertwines the members", hyp_defect <= 1e-6,
                          hyp_defect)
    if not report.hypotheses_pass:
        return report

    r_bounds = optimal_scalar_bounds(sys_r, tol)
    report.add_conclusion("restricted family is a frame for the submodule",
                          r_bounds.is_frame, 0.0 if r_bounds.is_frame else 1.0)

    k_inv = k.inverse()
    gamma = {label: op @ s_inv @ k_inv for label, op in sys_full.family.items()}
    full_res = _identity_residual(reconstruction_operator(sys_full, gamma, k))
    report.add_hypothesis("operator dual identity on the full module",
                          full_res <= 100 * tol, full_res)
    gamma_r = {label: gamma[label] @ inclusion for label in sys_full.measure.labels}
    k_r = projection @ k @ inclusion
    restricted_res = _identity_residual(reconstruction_operator(sys_r, gamma_r, k_r))
    report.add_conclusion("restricted dual reconstructs on the submodule",
                          restricted_res <= 1e-6, restricted_res)

    exchange = _rel_op(s_r.inverse() @ projection, projection @ s_inv)
    report.add_conclusion("restricted inverse agrees with the projected inverse",
                          exchange <= 1e-6, exchange)
    return report


def _row_mutual_duality(system, seed, tol, samples, aux, mutant):
    """A single reconstruction identity makes two Bessel families operator duals."""
    report = TheoremReport("T33", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    k = _aux_operator(aux, "K",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank,
                                                       _rng(seed, 13)),
                      report)
    k_inv = k.inverse()
    s_inv = system.frame_operator.inverse()
    gamma = {label: op @ s_inv @ k_inv for label, op in system.family.items()}
    identity_res = _identity_residual(reconstruction_operator(system, gamma, k))
    report.add_hypothesis("reconstruction identity", identity_res <= 100 * tol, identity_res)
    sys_gamma = system.with_family(gamma)
    gamma_bounds = optimal_scalar_bounds(sys_gamma, tol)
    report.add_hypothesis("both families Bessel", np.isfinite(gamma_bounds.scalar_upper), 0.0)
    if not report.hypotheses_pass:
        return report
    k_checked = (2.0 * k) if mutant == WRONG_K else k
    t_norm = system.analysis_operator.norm()
    sigma_k_inv = float(np.linalg.svd(k_inv.flat(), compute_uv=False)[-1])
    floor = (sigma_k_inv / t_norm) ** 2
    gap = floor - gamma_bounds.scalar_lower ** 2
    report.add_conclusion("second family frame with the derived lower bound",
                          gap <= tol * max(1.0, floor), max(0.0, gap))
    converse_res = _identity_residual(
        reconstruction_operator(sys_gamma, dict(system.family), k_checked.adjoint()))
    report.add_conclusion("first family is a dual with the adjoint companion",
                          converse_res <= 100 * tol, converse_res)
    return report


def _t55_context(system, seed, tol):
    """(C, C)-controlled frame with transform, frame operator and companion."""
    if system is None:
        base = random_system(seed, commuting=True)
        system = base.with_controls(base.controls.C, base.controls.C)
    k = rand_invertible_operator(system.descriptor, system.module_rank, _rng(seed, 14))
    return system, k


def _row_right_inverses(system, seed, tol, samples, aux, mutant):
    """All right inverses of K T* arise from one particular inverse plus a kernel part."""
    report = TheoremReport("T55", tolerance=tol, seed=seed)
    generated = system is None
    system, k_default = _t55_context(system, seed, tol)
    k = aux["K"] if aux and "K" in aux else k_default
    report.info["instance"] = _describe(system, generated)
    report.add_hypothesis("single repeated control", system.controls_equal,
                          (system.controls.C - system.controls.Cp).norm())
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    svals = np.linalg.svd(k.flat(), compute_uv=False)
    report.add_hypothesis("companion operator invertible", float(svals[-1]) > tol,
                          float(svals[-1]))
    if not report.hypotheses_pass:
        return report
    t = system.analysis_operator
    s = system.frame_operator
    factor_res = _rel_op(t.adjoint() @ t, s)
    report.add_hypothesis("transform factorizes the frame operator", factor_res <= 100 * tol,
                          factor_res)
    if not report.hypotheses_pass:
        return report
    s_inv = s.inverse()
    k_checked = (2.0 * k) if mutant == WRONG_K else k
    kt_star = k_checked @ t.adjoint()
    particular = t @ s_inv @ k.inverse()
    kernel_proj = AdjointableOperator.identity(system.descriptor, t.out_rank) - (
        t @ s_inv @ t.adjoint())
    rng = _rng(seed, 15)
    count = 20
    worst = 0.0
    for _ in range(count):
        theta = rand_operator(system.descriptor, system.module_rank, t.out_rank, rng)
        candidate = particular + kernel_proj @ theta
        worst = max(worst, _identity_residual(kt_star @ candidate))
    report.add_conclusion("constructed right inverses verified",
                          worst <= max(1e-9, 100 * tol), worst)
    report.info["right_inverse_count"] = count
    flat_kt = (k @ t.adjoint()).flat()
    g_flat = np.linalg.pinv(flat_kt)
    g_ls = AdjointableOperator.from_flat(system.descriptor, system.module_rank, t.out_rank,
                                         g_flat)
    ls_res = _identity_residual((k_checked @ t.adjoint()) @ g_ls)
    report.add_conclusion("least-squares right inverse verified", ls_res <= max(1e-9, 100 * tol),
                          ls_res)
    decomposition = particular + kernel_proj @ g_ls
    dec_res = _rel_op(g_ls, decomposition)
    report.add_conclusion("least-squares inverse decomposes into the stated form",
                          dec_res <= 1e-8, dec_res)
    return report


def _central_element(descriptor: AlgebraDescriptor, rng: np.random.Generator) -> AlgebraElement:
    if descriptor.kind == MATRIX:
        z = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        return AlgebraElement.scalar(descriptor, z)
    mags = rng.uniform(0.5, 1.5, size=descriptor.dim)
    phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=descriptor.dim))
    return AlgebraElement(descriptor, mags * phases)


def _row_midpoint_dual(system, seed, tol, samples, aux, mutant):
    """Averaging a dual with the companion-corrected canonical dual stays a dual."""
    report = TheoremReport("MIDPOINT-DUAL", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    rng = _rng(seed, 16)
    k = _aux_operator(aux, "K",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank, rng),
                      report)
    s_inv = system.frame_operator.inverse()
    t = system.analysis_operator
    root = system.mixed_control_root
    k_tilde = k @ root.inverse()
    theta_free = rand_operator(system.descriptor, system.module_rank, t.out_rank, _rng(seed, 17))
    kernel_proj = AdjointableOperator.identity(system.descriptor, t.out_rank) - (
        t @ s_inv @ t.adjoint())
    phi = t @ s_inv @ k.inverse() + kernel_proj @ theta_free
    ds = system.direct_sum
    gamma = {label: ds.component_operator(phi, label) for label in system.measure.labels}
    gamma_res = _identity_residual(reconstruction_operator(system, gamma, k_tilde))
    report.add_hypothesis("starting family is an operator dual", gamma_res <= 1e-6, gamma_res)
    if not report.hypotheses_pass:
        return report
    v = _central_element(system.descriptor, _rng(seed, 18))
    v_inv = v.invert()
    midpoint = {}
    for label, gam in gamma.items():
        mv = AdjointableOperator.central_multiplier(system.descriptor, gam.out_rank, v)
        canonical_part = system.family[label] @ s_inv @ k_tilde.inverse()
        midpoint[label] = mv @ gam + mv @ canonical_part
    k_checked = (2.0 * k_tilde) if mutant == WRONG_K else k_tilde
    companion = 0.5 * (AdjointableOperator.central_multiplier(
        system.descriptor, system.module_rank, v_inv) @ k_checked)
    res = _identity_residual(reconstruction_operator(system, midpoint, companion))
    report.add_conclusion("midpoint family is an operator dual with the halved companion",
                          res <= 1e-6, res)
    return report


def _row_bessel_parametrization(system, seed, tol, samples, aux, mutant):
    """Bessel families are exactly the componentwise restrictions of one map."""
    report = TheoremReport("T12", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True, pad_outputs=True)
    report.info["instance"] = _describe(system, generated)
    ds = system.direct_sum
    plain = ds.stack_operator(dict(system.family))
    component_defect = max(
        _rel_op(ds.component_operator(plain, label), system.family[label])
        for label in system.measure.labels)
    report.add_conclusion("family recovered from its own transform",
                          component_defect <= 10 * tol, component_defect)
    theta = _aux_operator(aux, "theta",
                          lambda: rand_operator(system.descriptor, system.module_rank,
                                                ds.total_rank, _rng(seed, 19)),
                          report)
    if theta.out_rank != ds.total_rank:
        report.add_hypothesis("free map has matching total rank", False, 1.0)
        return report
    family = {label: ds.component_operator(theta, label) for label in system.measure.labels}
    new_sys = system.with_family(family)
    upper = optimal_scalar_bounds(new_sys, tol).scalar_upper
    c_norm = system.controls.C.norm()
    cp_norm = system.controls.Cp.norm()
    cap = theta.norm() * float(np.sqrt(c_norm * cp_norm))
    gap = upper - cap
    report.add_conclusion("component family Bessel with the norm cap",
                          gap <= tol * max(1.0, cap), max(0.0, gap))
    report.info["bessel_cap"] = [upper, cap]
    return report


def _row_right_inverse_dual(system, seed, tol, samples, aux, mutant):
    """A right inverse of K T* restricts componentwise to an operator dual."""
    report = TheoremReport("T66", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    k = _aux_operator(aux, "K",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank,
                                                       _rng(seed, 20)),
                      report)
    t = system.analysis_operator
    s_inv = system.frame_operator.inverse()
    theta_free = rand_operator(system.descriptor, system.module_rank, t.out_rank, _rng(seed, 21))
    kernel_proj = AdjointableOperator.identity(system.descriptor, t.out_rank) - (
        t @ s_inv @ t.adjoint())
    theta = t @ s_inv @ k.inverse() + kernel_proj @ theta_free
    ri_res = _identity_residual((k @ t.adjoint()) @ theta)
    report.add_hypothesis("map is a right inverse of the companion-composed synthesis",
                          ri_res <= 1e-6, ri_res)
    if not report.hypotheses_pass:
        return report
    ds = system.direct_sum
    family = {label: ds.component_operator(theta, label) for label in system.measure.labels}
    root_inv = system.mixed_control_root.inverse()
    k_corrected = k @ root_inv
    k_checked = (2.0 * k_corrected) if mutant == WRONG_K else k_corrected
    res = _identity_residual(reconstruction_operator(system, family, k_checked))
    report.add_conclusion("component family is an operator dual with the corrected companion",
                          res <= 1e-6, res)
    nominal = _identity_residual(reconstruction_operator(system, family, k))
    report.info["nominal_companion_residual"] = nominal
    report.info["nominal_companion_matches"] = bool(nominal <= 1e-6)
    return report


def _row_dual_parametrization(system, seed, tol, samples, aux, mutant):
    """Every operator dual is the stated combination of the family and a Bessel family."""
    report = TheoremReport("DUAL-PARAM", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        base = random_system(seed, commuting=True)
        system = base.with_controls(base.controls.C, base.controls.C)
    report.info["instance"] = _describe(system, generated)
    report.add_hypothesis("single repeated control", system.controls_equal,
                          (system.controls.C - system.controls.Cp).norm())
    bounds = _frame_hypotheses(report, system, tol)
    if bounds is None:
        return report
    uniform = len({op.out_rank for op in system.family.values()}) == 1
    report.add_hypothesis("uniform output rank", uniform, 0.0 if uniform else 1.0)
    if not report.hypotheses_pass:
        return report
    rng = _rng(seed, 22)
    k = _aux_operator(aux, "K",
                      lambda: rand_invertible_operator(system.descriptor, system.module_rank, rng),
                      report)
    c = system.controls.C
    c_inv = c.inverse()
    s = system.frame_operator
    s_inv = s.inverse()
    t = system.analysis_operator
    ds = system.direct_sum
    bessel = {label: rand_operator(system.descriptor, system.module_rank,
                                   system.family[label].out_rank, _rng(seed, 23))
              for label in system.measure.labels}
    t_g = ds.stack_operator({label: op @ c for label, op in bessel.items()})
    kernel_proj = AdjointableOperator.identity(system.descriptor, t.out_rank) - (
        t @ s_inv @ t.adjoint())
    phi = t @ s_inv @ k.inverse() + kernel_proj @ t_g
    constructed = {label: ds.component_operator(phi, label) for label in system.measure.labels}

    cross = None
    for label, weight in system.measure.atoms:
        term = weight * (c @ system.family[label].adjoint() @ bessel[label] @ c)
        cross = term if cross is None else cross + term
    formula_defect = 0.0
    for label in system.measure.labels:
        lam = system.family[label]
        formula = (lam @ c @ s_inv @ k.inverse()) + (bessel[label] @ c) - (
            lam @ c @ s_inv @ cross)
        formula_defect = max(formula_defect, _rel_op(constructed[label], formula))
    report.add_conclusion("construction matches the displayed formula",
                          formula_defect <= 1e-6, formula_defect)

    companion = k @ c_inv
    dual_res = _identity_residual(reconstruction_operator(system, constructed, companion))
    report.add_conclusion("constructed family is an operator dual", dual_res <= 1e-6, dual_res)

    replay = ds.stack_operator(dict(constructed))
    phi_replay = t @ s_inv @ k.inverse() + kernel_proj @ replay
    replay_family = {label: ds.component_operator(phi_replay, label)
                     for label in system.measure.labels}
    completeness = max(_rel_op(replay_family[label], constructed[label])
                       for label in system.measure.labels)
    report.add_conclusion("given dual reproduces itself through the parametrization",
                          completeness <= 1e-6, completeness)
    return report


def _row_any_frame_controlled(system, seed, tol, samples, aux, mutant):
    """A plain frame stays a frame under any commuting positive invertible controls."""
    report = TheoremReport("ANY-FRAME-CONTROLLED", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True)
    report.info["instance"] = _describe(system, generated)
    identity = AdjointableOperator.identity(system.descriptor, system.module_rank)
    plain = system.with_controls(identity, identity)
    plain_bounds = optimal_scalar_bounds(plain, tol)
    report.add_hypothesis("plain system is a frame", plain_bounds.is_frame,
                          0.0 if plain_bounds.is_frame else 1.0)
    ctr = system.controls
    report.add_hypothesis("controls commute", ctr.commute_each_other, ctr.commute_defect)
    report.add_hypothesis("controls commute with family", ctr.commute_with_family,
                          ctr.family_defect)
    if not report.hypotheses_pass:
        return report
    controlled_bounds = optimal_scalar_bounds(system, tol)
    report.add_conclusion("controlled system is a frame", controlled_bounds.is_frame,
                          0.0 if controlled_bounds.is_frame else 1.0)
    mixed = (system.controls.Cp @ system.controls.C).eigenvalues_hermitian()
    lo_floor = plain_bounds.scalar_lower ** 2 * float(mixed[0])
    hi_cap = plain_bounds.scalar_upper ** 2 * float(mixed[-1])
    lo_gap = lo_floor - controlled_bounds.scalar_lower ** 2
    hi_gap = controlled_bounds.scalar_upper ** 2 - hi_cap
    report.add_conclusion("controlled lower bound above the spectral floor",
                          lo_gap <= tol * max(1.0, lo_floor), max(0.0, lo_gap))
    report.add_conclusion("controlled upper bound below the spectral cap",
                          hi_gap <= tol * max(1.0, hi_cap), max(0.0, hi_gap))
    c_norm = system.controls.C.norm()
    cp_norm = system.controls.Cp.norm()
    nominal = [plain_bounds.scalar_lower * c_norm * cp_norm,
               plain_bounds.scalar_upper * c_norm * cp_norm]
    report.info["nominal_bounds"] = nominal
    report.info["nominal_bounds_certify"] = bool(
        nominal[0] ** 2 <= controlled_bounds.scalar_lower ** 2 + tol
        and controlled_bounds.scalar_upper ** 2 <= nominal[1] ** 2 + tol)
    return report


def _row_invertible_precomposition(system, seed, tol, samples, aux, mutant):
    """Precomposition with an invertible map commuting with the controls."""
    report = TheoremReport("LAMBDA-T", tolerance=tol, seed=seed)
    generated = system is None
    if generated:
        system = random_system(seed, commuting=True, scalar_controls=True)
    report.info["instance"] = _describe(system, generated)
    bounds = _frame_hypotheses(report, system, tol, need_commuting=False)
    if bounds is None:
        return report
    t_op = _aux_operator(aux, "T",
                         lambda: rand_invertible_operator(system.descriptor, system.module_rank,
                                                          _rng(seed, 24)),
                         report)
    svals = np.linalg.svd(t_op.flat(), compute_uv=False)
    report.add_hypothesis("factor invertible", float(svals[-1]) > tol, float(svals[-1]))
    defect = max(_rel_op(t_op @ system.controls.C, system.controls.C @ t_op),
                 _rel_op(t_op @ system.controls.Cp, system.controls.Cp @ t_op))
    report.add_hypothesis("factor commutes with the controls", defect <= 100 * tol, defect)
    if not report.hypotheses_pass:
        return report
    new_sys = system.with_family({label: op @ t_op for label, op in system.family.items()})
    transported = FrameBounds.from_scalars(bounds.scalar_lower * float(svals[-1]),
                                           bounds.scalar_upper * float(svals[0]),
                                           system.descriptor, tol)
    sub = check_frame(new_sys, transported, mode="exact_scalar", tol=tol * 10)
    report.add_conclusion("composed family certified with transported bounds",
                          sub.status == PASS, sub.conclusion_residual)
    return report


_ROWS: dict = {
    "T2.3": _row_transform,
    "FO-PROPS": _row_frame_operator_props,
    "SCC-PROPS": _row_scc_props,
    "T-T3": _row_equal_controls_equivalence,
    "T-TT": _row_transform_bounds,
    "BESSEL-COMP": _row_bessel_composition,
    "TH-SURJ": _row_surjective_synthesis,
    "F-KT": _row_surjective_composition,
    "HOM-TRANSPORT": _row_hom_transport,
    "LEFT-COMP": _row_left_composition,
    "RIGHT-COMP": _row_right_composition,
    "DUAL-SIM": _row_dual_similarity,
    "EQ-FRAME-OP": _row_equal_frame_operator,
    "OP-DUAL-CORR": _row_operator_dual_correspondence,
    "SUBMODULE": _row_submodule,
    "T33": _row_mutual_duality,
    "T55": _row_right_inverses,
    "MIDPOINT-DUAL": _row_midpoint_dual,
    "T12": _row_bessel_parametrization,
    "T66": _row_right_inverse_dual,
    "DUAL-PARAM": _row_dual_parametrization,
    "ANY-FRAME-CONTROLLED": _row_any_frame_controlled,
    "LAMBDA-T": _row_invertible_precomposition,
}

THEOREM_IDS = tuple(_ROWS)


def verify_theorem(theorem_id: str, system: Optional[GFrameSystem] = None, seed: int = 0,
                   tol: float = DEFAULT_TOL, samples: int = 100,
                   aux: Optional[Mapping[str, AdjointableOperator]] = None,
                   mutant: Optional[str] = None) -> TheoremReport:
    """Run one theorem row and return its report."""
    if theorem_id not in _ROWS:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    if mutant is not None and mutant not in MUTANTS:
        raise InputError(f"unknown mutant {mutant!r}")
    return _ROWS[theorem_id](system, seed, tol, samples, aux, mutant)


def run_suite(system: Optional[GFrameSystem] = None, seeds=(0,), tol: float = DEFAULT_TOL,
              samples: int = 100, aux=None) -> list:
    """All rows over all seeds, ordered by (theorem id, seed)."""
    reports = []
    for theorem_id in sorted(THEOREM_IDS):
        for seed in seeds:
            reports.append(verify_theorem(theorem_id, system, seed, tol, samples, aux))
    return reports

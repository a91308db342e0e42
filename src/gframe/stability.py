"""Perturbation checks for frame families under one repeated control.

Every check takes two systems, a reference and a perturbed one, refuses them
with an InputError unless they share the measure, the module and one repeated
control, decides the stated smallness hypothesis exactly, and then certifies
the perturbed family's bounds with exact semidefinite tests on its frame
operator.  A hypothesis bounds norms of Gram elements <K x, x> for all x, so
by the rank-one argument of ``hilbert.loewner_gap`` it orders Gram operators;
a failed one keeps the document of its witness vector in info["witness"].
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .algebra import DEFAULT_TOL, tolerance_scale, within_tolerance
from .errors import DomainError, InputError
from .frames import GFrameSystem, certify_window, optimal_scalar_bounds
from .hilbert import AdjointableOperator, ModuleVector, loewner_gap
from .reports import TheoremReport, frame_line, gap
from .serialize import vector_to_dict

EQUIVALENCE_M = "equivalence_M"
SUM = "sum"
WEIGHTED = "weighted"
ADDITIVE = "additive"
ADDITIVE_COROLLARY = "additive_corollary"


def _require_pair(sys_a: GFrameSystem, sys_b: GFrameSystem) -> None:
    if not sys_a.controls_equal or not sys_b.controls_equal:
        raise InputError("stability checks require a single repeated control")
    shared = sys_a.controls.C
    if not within_tolerance((shared - sys_b.controls.C).norm(), DEFAULT_TOL, shared.norm):
        raise InputError("both systems must share the control")
    if sys_a.measure != sys_b.measure:
        raise InputError("systems must share the measure")
    if sys_a.descriptor != sys_b.descriptor or sys_a.module_rank != sys_b.module_rank:
        raise InputError("systems must share the module")
    for label, m_a, m_b in zip(sys_a.measure.labels, sys_a.stacked_family.ranks,
                               sys_b.stacked_family.ranks):
        if m_a != m_b:
            raise InputError(f"output rank mismatch at atom {label!r}")


def _difference_system(sys_a: GFrameSystem, sys_b: GFrameSystem) -> GFrameSystem:
    family = sys_a.stacked_family
    return sys_a.with_family(family.with_stack(family.stack - sys_b.stacked_family.stack))


def _worst_gap(lhs: AdjointableOperator, rhs: AdjointableOperator) -> tuple:
    """The largest ``loewner_gap`` of lhs <= rhs over the channels, and its witness."""
    gaps, witnesses = loewner_gap(lhs, rhs)
    channel = int(np.argmax(gaps))
    return float(gaps[channel]), ModuleVector(lhs.descriptor, witnesses[channel])


def check_equivalence_M(sys_a: GFrameSystem, sys_b: GFrameSystem,
                        tol: float = DEFAULT_TOL) -> TheoremReport:
    """Two-sided equivalence between a frame and a perturbed family.

    Forward: with both families certified, the constant
    min((b_A/e_B + 1)^2, (f_B/a_A + 1)^2) dominates the distance ratio
    ||gram_D(x)|| / min(||gram_A(x)||, ||gram_B(x)||), whose supremum over x is
    info["min_m"] = max(lambda_max(K_D; K_A), lambda_max(K_D; K_B)).  Backward:
    that constant feeds the (1 + sqrt(M)) window certified on the perturbed system.
    """
    report = TheoremReport("STAB-EQUIV-M", tolerance=tol)
    _require_pair(sys_a, sys_b)
    bounds_a = optimal_scalar_bounds(sys_a, tol)
    bounds_b = optimal_scalar_bounds(sys_b, tol)
    with report.gate():
        report.require(frame_line("first system is a frame", bounds_a),
                       frame_line("second system is a frame", bounds_b))
        a, b = bounds_a.scalar_lower, bounds_a.scalar_upper
        e, f = bounds_b.scalar_lower, bounds_b.scalar_upper
        m_star = min((b / e + 1.0) ** 2, (f / a + 1.0) ** 2)
        k_diff = _difference_system(sys_a, sys_b).gram_operator
        roots = [sys.gram_operator.sqrt_positive().inverse() for sys in (sys_a, sys_b)]
        min_m = max(float((root @ k_diff @ root).eigenvalues_hermitian()[-1]) for root in roots)
        report.conclude(gap("distance dominated by the two-sided constant",
                            min_m - m_star, tol * tolerance_scale(m_star)))
        factor = 1.0 + float(np.sqrt(m_star))
        certify_window(report, sys_b, a / factor, factor * b, tol,
                       "derived window certified on the perturbed system")
        report.info["m_constant"] = m_star
        report.info["min_m"] = min_m
    return report


def sum_frame_check(sys_frame: GFrameSystem, sys_bessel: GFrameSystem,
                    tol: float = DEFAULT_TOL) -> TheoremReport:
    """Adding a small Bessel family keeps the frame property."""
    report = TheoremReport("STAB-SUM", tolerance=tol)
    _require_pair(sys_frame, sys_bessel)
    bounds = optimal_scalar_bounds(sys_frame, tol)
    bessel = optimal_scalar_bounds(sys_bessel, tol)
    a, b = bounds.scalar_lower, bounds.scalar_upper
    e = bessel.scalar_upper
    with report.gate():
        report.require(frame_line("first system is a frame", bounds),
                       ("Bessel bound below the lower frame bound", a >= e - tol, max(0.0, e - a)))
        family = sys_frame.stacked_family
        summed = family.with_stack(family.stack + sys_bessel.stacked_family.stack)
        certify_window(report, sys_frame.with_family(summed), a - e, b + e, tol,
                       "summed window certified")
    return report


def weighted_perturbation_check(sys_t: GFrameSystem, sys_r: GFrameSystem,
                                alpha_w, beta_w, lam: float, mu: float,
                                tol: float = DEFAULT_TOL) -> TheoremReport:
    """Weighted two-constant perturbation with per-atom positive weights.

    On rank-one x the hypothesis reads sqrt(v^H K_D v) <= lam sqrt(v^H K_T v)
    + mu sqrt(v^H K_R v), D = T - R of the weighted families.  Its right side
    squared is at least v^H (lam^2 K_T + mu^2 K_R + 2 lam mu K_T # K_R) v, as
    [[K_T, K_T # K_R], [K_T # K_R, K_R]] is positive for the geometric mean #; so
    K_D below that suffices (exactly, when K_R is a multiple of K_T).  The witness
    of that test either violates the hypothesis or leaves it undecided.
    ``sys_r`` is the perturbed system; it must share sys_t's control and measure.
    The weights ``alpha_w`` and ``beta_w`` are mappings by atom label or arrays
    in the measure's order.
    """
    if not (0 <= lam < 1 and 0 <= mu < 1):
        raise InputError("weighted check needs constants in [0, 1)")
    report = TheoremReport("STAB-WEIGHTED", tolerance=tol)
    _require_pair(sys_t, sys_r)
    alphas = sys_t.measure.per_atom(alpha_w, "weights alpha_w")
    betas = sys_t.measure.per_atom(beta_w, "weights beta_w")
    if alphas.min() <= 0 or betas.min() <= 0:
        raise InputError("weight families must be positive")
    bounds = optimal_scalar_bounds(sys_t, tol)
    with report.gate():
        report.require(frame_line("reference system is a frame", bounds))
        weighted_t = sys_t.with_family(sys_t.stacked_family.scaled(alphas))
        weighted_r = sys_t.with_family(sys_r.stacked_family.scaled(betas))
        diff = _difference_system(weighted_t, weighted_r)
        k_t, k_r = weighted_t.gram_operator, weighted_r.gram_operator
        root = k_t.sqrt_positive()
        inverse_root = root.inverse()
        mean = root @ (inverse_root @ k_r @ inverse_root).sqrt_positive() @ root  # K_T # K_R
        sufficient, x = _worst_gap(diff.gram_operator,
                                   (lam * lam) * k_t + (mu * mu) * k_r + (2 * lam * mu) * mean)
        violation = (math.sqrt(diff.gram(x).norm()) - lam * math.sqrt(weighted_t.gram(x).norm())
                     - mu * math.sqrt(weighted_r.gram(x).norm()))
        report.info.update(weighted_sufficient_gap=sufficient, weighted_witness_violation=violation)
        if violation > tol * 100 * tolerance_scale(bounds.scalar_upper):
            report.info["witness"] = vector_to_dict(x)
        report.require(gap("weighted smallness", sufficient,
                           tol * 100 * tolerance_scale(bounds.scalar_upper ** 2)))
        lower = (bounds.scalar_lower * (1.0 - lam) * float(alphas.min())
                 / ((1.0 + mu) * float(betas.max())))
        upper = (bounds.scalar_upper * (1.0 + lam) * float(alphas.max())
                 / ((1.0 - mu) * float(betas.min())))
        certify_window(report, sys_r, lower, upper, tol, "weighted window certified")
    return report


def additive_perturbation_check(sys_t: GFrameSystem, sys_r: GFrameSystem,
                                alpha: float, beta: float, kind: str = ADDITIVE,
                                tol: float = DEFAULT_TOL) -> TheoremReport:
    """Additive perturbation with constants measured against the Gram and the inner product.

    The hypothesis, for all x with D = T - R, is exactly K_D <= alpha K_T + beta I.
    The corollary kind is the same check with constants (0, alpha): it drops the Gram
    term and measures the whole distance against the inner product alone, K_D <= alpha I.
    The certified window uses the (1 -+ sqrt(rho)) factors from the two-constant
    argument; the variant with squared outer factors is reported for reference only.
    ``sys_r`` is the perturbed system; it must share sys_t's control and measure.
    """
    if kind not in (ADDITIVE, ADDITIVE_COROLLARY):
        raise InputError(f"additive check got kind {kind!r}")
    gram_part, inner_part = (alpha, beta) if kind == ADDITIVE else (0.0, alpha)
    if gram_part < 0 or inner_part < 0:
        raise InputError("additive check needs nonnegative constants")
    report = TheoremReport("STAB-ADDITIVE", tolerance=tol)
    _require_pair(sys_t, sys_r)
    bounds = optimal_scalar_bounds(sys_t, tol)
    with report.gate():
        report.require(frame_line("reference system is a frame", bounds))
        nu, delta = bounds.scalar_lower, bounds.scalar_upper
        rho = gram_part + inner_part / (nu * nu)
        rhs = (gram_part * sys_t.gram_operator
               + AdjointableOperator.scalar(sys_t.descriptor, sys_t.module_rank, inner_part))
        if rho >= 1.0:
            raise DomainError(f"perturbation size {rho:.6g} reaches 1; the window degenerates")
        excess, x = _worst_gap(_difference_system(sys_t, sys_r).gram_operator, rhs)
        threshold = tol * 100 * tolerance_scale(delta ** 2)
        if excess > threshold:
            report.info["witness"] = vector_to_dict(x)
        report.require(gap("additive smallness", excess, threshold))
        root = float(np.sqrt(rho))
        certify_window(report, sys_r, nu * (1.0 - root), delta * (1.0 + root), tol,
                       "additive window certified")
        squared = [nu * (1.0 - root) ** 2, delta * (1.0 + root) ** 2]
        r_bounds = optimal_scalar_bounds(sys_r, tol)
        report.info["squared_factor_window"] = squared
        report.info["squared_factor_window_certifies"] = bool(
            squared[0] <= r_bounds.scalar_lower + tol and r_bounds.scalar_upper <= squared[1] + tol)
        report.info["rho"] = rho
    return report


def _finite_number(value, name: str) -> float:
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise InputError(f"perturbation parameter {name} must be a finite number, got {value!r}")
    return number


def _atom_constants(params: Mapping, key: str, labels: tuple) -> np.ndarray:
    """One constant per atom, in label order, from a number or from an object with a
    number for every atom and no other key."""
    value = params.get(key, 1.0)
    if not isinstance(value, Mapping):
        return np.full(len(labels), _finite_number(value, key))
    atoms = set(labels)
    unknown = [label for label in value if label not in atoms]
    if unknown:
        raise InputError(f"perturbation parameter {key} names no atom {unknown[0]!r}")
    missing = [label for label in labels if label not in value]
    if missing:
        raise InputError(f"perturbation parameter {key} has no value for atoms {missing}")
    return np.array([_finite_number(value[label], f"{key}[{label!r}]") for label in labels])


# The parameters each kind reads.
_PARAMETERS = {EQUIVALENCE_M: (), SUM: (), WEIGHTED: ("lambda", "mu", "alpha_w", "beta_w"),
               ADDITIVE: ("alpha", "beta"), ADDITIVE_COROLLARY: ("alpha", "beta")}


def run_perturbation(kind: str, sys_a: GFrameSystem, sys_b: GFrameSystem, params: Mapping,
                     tol: float = DEFAULT_TOL) -> TheoremReport:
    """Dispatch a perturbation run described by plain JSON-friendly parameters.

    The constants must be finite numbers; ``alpha_w`` and ``beta_w`` may also
    be objects with a number for every atom and no other key.  Anything else,
    and a parameter the kind does not read, is an InputError.
    """
    def constant(key: str) -> float:
        return _finite_number(params.get(key, 0.0), key)

    if not isinstance(kind, str) or kind not in _PARAMETERS:
        raise InputError(f"unknown perturbation kind {kind!r}")
    unread = [key for key in params if key not in _PARAMETERS[kind]]
    if unread:
        raise InputError(f"perturbation kind {kind!r} reads no parameter {unread[0]!r}")
    if kind == EQUIVALENCE_M:
        return check_equivalence_M(sys_a, sys_b, tol=tol)
    if kind == SUM:
        return sum_frame_check(sys_a, sys_b, tol=tol)
    if kind == WEIGHTED:
        labels = sys_a.measure.labels
        return weighted_perturbation_check(
            sys_a, sys_b, _atom_constants(params, "alpha_w", labels),
            _atom_constants(params, "beta_w", labels), lam=constant("lambda"), mu=constant("mu"),
            tol=tol)
    return additive_perturbation_check(sys_a, sys_b, alpha=constant("alpha"),
                                       beta=constant("beta"), kind=kind, tol=tol)

"""Perturbation checks for frame families under one repeated control.

Every check compares two families over the same measure and control, verifies
the stated smallness hypothesis on seeded samples (plus spectral adversaries),
and then certifies the perturbed family's bounds with exact semidefinite
tests on its frame operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraElement, element_norms
from .errors import DomainError, InputError
from .frames import FrameBounds, GFrameSystem, check_frame, optimal_scalar_bounds, sample_coords
from .hilbert import AdjointableOperator, ModuleVector, pairing
from .reports import PASS, TheoremReport

EQUIVALENCE_M = "equivalence_M"
SUM = "sum"
WEIGHTED = "weighted"
ADDITIVE = "additive"
ADDITIVE_COROLLARY = "additive_corollary"
KINDS = (EQUIVALENCE_M, SUM, WEIGHTED, ADDITIVE, ADDITIVE_COROLLARY)


@dataclass(frozen=True)
class PerturbationParams:
    """Constants for one perturbation run; fields are read per kind."""

    kind: str
    lam: float = 0.0
    mu: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    alpha_w: Optional[Mapping[str, float]] = None
    beta_w: Optional[Mapping[str, float]] = None
    m_constant: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown perturbation kind {self.kind!r}")
        if self.kind == WEIGHTED and not (0 <= self.lam < 1 and 0 <= self.mu < 1):
            raise InputError("weighted check needs constants in [0, 1)")
        if self.kind in (ADDITIVE, ADDITIVE_COROLLARY) and (self.alpha < 0 or self.beta < 0):
            raise InputError("additive check needs nonnegative constants")


def _require_pair(sys_a: GFrameSystem, sys_b: GFrameSystem) -> None:
    if not sys_a.controls_equal or not sys_b.controls_equal:
        raise InputError("stability checks require a single repeated control")
    if (sys_a.controls.C - sys_b.controls.C).norm() > DEFAULT_TOL * max(1.0, sys_a.controls.C.norm()):
        raise InputError("both systems must share the control")
    if sys_a.measure.atoms != sys_b.measure.atoms:
        raise InputError("systems must share the measure")
    if sys_a.descriptor != sys_b.descriptor or sys_a.module_rank != sys_b.module_rank:
        raise InputError("systems must share the module")
    for label in sys_a.measure.labels:
        if sys_a.family[label].out_rank != sys_b.family[label].out_rank:
            raise InputError(f"output rank mismatch at atom {label!r}")


def _difference_system(sys_a: GFrameSystem, sys_b: GFrameSystem) -> GFrameSystem:
    diff = {label: sys_a.family[label] - sys_b.family[label] for label in sys_a.measure.labels}
    return sys_a.with_family(diff)


def family_distance(sys_a: GFrameSystem, sys_b: GFrameSystem, x: ModuleVector) -> AlgebraElement:
    """Gram element of the member-wise difference family at x."""
    _require_pair(sys_a, sys_b)
    return _difference_system(sys_a, sys_b).gram(x)


def _gram_norms(system: GFrameSystem, coords: np.ndarray) -> np.ndarray:
    """||gram(x)|| for every vector of a coordinate stack, in one batched evaluation."""
    return element_norms(system.descriptor, system.gram_batch(coords))


def _certify_window(report: TheoremReport, system: GFrameSystem, lower: float, upper: float,
                    tol: float, label: str) -> None:
    window = FrameBounds.from_scalars(max(lower, 0.0), upper, system.descriptor, tol)
    sub = check_frame(system, window, mode="exact_scalar", tol=tol * 10)
    report.add_conclusion(label, sub.status == PASS, sub.conclusion_residual)
    report.info.setdefault("certified_windows", {})[label] = [max(lower, 0.0), upper]


def check_equivalence_M(sys_a: GFrameSystem, sys_b: GFrameSystem, samples: int = 200,
                        seed: int = 0, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Two-sided equivalence between a frame and a perturbed family.

    Forward: with both families certified, the constant
    min((b_A/e_B + 1)^2, (f_B/a_A + 1)^2) dominates the sampled distance ratio.
    Backward: that constant feeds the (1 + sqrt(M)) window which is certified
    on the perturbed frame operator.
    """
    report = TheoremReport("STAB-EQUIV-M", tolerance=tol, seed=seed)
    _require_pair(sys_a, sys_b)
    bounds_a = optimal_scalar_bounds(sys_a, tol)
    bounds_b = optimal_scalar_bounds(sys_b, tol)
    report.add_hypothesis("first system is a frame", bounds_a.is_frame,
                          0.0 if bounds_a.is_frame else 1.0)
    report.add_hypothesis("second system is a frame", bounds_b.is_frame,
                          0.0 if bounds_b.is_frame else 1.0)
    if not report.hypotheses_pass:
        return report
    a, b = bounds_a.scalar_lower, bounds_a.scalar_upper
    e, f = bounds_b.scalar_lower, bounds_b.scalar_upper
    m_star = min((b / e + 1.0) ** 2, (f / a + 1.0) ** 2)
    diff = _difference_system(sys_a, sys_b)
    coords = sample_coords(sys_a, samples, seed, extra_ops=(sys_b.frame_operator,
                                                            diff.frame_operator))
    dist = _gram_norms(diff, coords)
    floor = np.minimum(_gram_norms(sys_a, coords), _gram_norms(sys_b, coords))
    kept = floor > tol
    worst_ratio = float(np.max(dist[kept] / floor[kept], initial=0.0))
    gap = worst_ratio - m_star
    report.add_conclusion("distance dominated by the two-sided constant",
                          gap <= tol * max(1.0, m_star), max(0.0, gap))
    factor = 1.0 + float(np.sqrt(m_star))
    _certify_window(report, sys_b, a / factor, factor * b, tol,
                    "derived window certified on the perturbed system")
    report.info["m_constant"] = m_star
    report.info["sampled_min_m"] = worst_ratio
    return report


def sum_frame_check(sys_frame: GFrameSystem, sys_bessel: GFrameSystem,
                    tol: float = DEFAULT_TOL, seed: int = 0) -> TheoremReport:
    """Adding a small Bessel family keeps the frame property."""
    report = TheoremReport("STAB-SUM", tolerance=tol, seed=seed)
    _require_pair(sys_frame, sys_bessel)
    bounds = optimal_scalar_bounds(sys_frame, tol)
    bessel = optimal_scalar_bounds(sys_bessel, tol)
    report.add_hypothesis("first system is a frame", bounds.is_frame,
                          0.0 if bounds.is_frame else 1.0)
    a, b = bounds.scalar_lower, bounds.scalar_upper
    e = bessel.scalar_upper
    report.add_hypothesis("Bessel bound below the lower frame bound", a >= e - tol,
                          max(0.0, e - a))
    if not report.hypotheses_pass:
        return report
    summed = {label: sys_frame.family[label] + sys_bessel.family[label]
              for label in sys_frame.measure.labels}
    sys_sum = sys_frame.with_family(summed)
    _certify_window(report, sys_sum, a - e, b + e, tol, "summed window certified")
    return report


def weighted_perturbation_check(sys_t: GFrameSystem, family_r: Mapping[str, AdjointableOperator],
                                alpha_w: Mapping[str, float], beta_w: Mapping[str, float],
                                lam: float, mu: float, samples: int = 200, seed: int = 0,
                                tol: float = DEFAULT_TOL) -> TheoremReport:
    """Weighted two-constant perturbation with per-atom positive weights."""
    params = PerturbationParams(WEIGHTED, lam=lam, mu=mu, alpha_w=alpha_w, beta_w=beta_w)
    report = TheoremReport("STAB-WEIGHTED", tolerance=tol, seed=seed)
    sys_r = sys_t.with_family(dict(family_r))
    _require_pair(sys_t, sys_r)
    alphas = [float(alpha_w[label]) for label in sys_t.measure.labels]
    betas = [float(beta_w[label]) for label in sys_t.measure.labels]
    if min(alphas) <= 0 or min(betas) <= 0:
        raise InputError("weight families must be positive")
    bounds = optimal_scalar_bounds(sys_t, tol)
    report.add_hypothesis("reference system is a frame", bounds.is_frame,
                          0.0 if bounds.is_frame else 1.0)
    if not report.hypotheses_pass:
        return report
    weighted_t = sys_t.with_family({label: float(alpha_w[label]) * op
                                    for label, op in sys_t.family.items()})
    weighted_r = sys_t.with_family({label: float(beta_w[label]) * family_r[label]
                                    for label in sys_t.measure.labels})
    diff = _difference_system(weighted_t, weighted_r)
    coords = sample_coords(sys_t, samples, seed, extra_ops=(weighted_r.frame_operator,
                                                            diff.frame_operator))
    lhs = np.sqrt(_gram_norms(diff, coords))
    rhs = (params.lam * np.sqrt(_gram_norms(weighted_t, coords))
           + params.mu * np.sqrt(_gram_norms(weighted_r, coords)))
    worst = float(np.max(lhs - rhs, initial=0.0))
    scale = max(1.0, bounds.scalar_upper)
    report.add_hypothesis("sampled weighted smallness", worst <= tol * 100 * scale, max(0.0, worst))
    if not report.hypotheses_pass:
        return report
    lower = bounds.scalar_lower * (1.0 - params.lam) * min(alphas) / ((1.0 + params.mu) * max(betas))
    upper = bounds.scalar_upper * (1.0 + params.lam) * max(alphas) / ((1.0 - params.mu) * min(betas))
    _certify_window(report, sys_r, lower, upper, tol, "weighted window certified")
    return report


def additive_perturbation_check(sys_t: GFrameSystem, family_r: Mapping[str, AdjointableOperator],
                                alpha: float, beta: float, kind: str = ADDITIVE,
                                samples: int = 200, seed: int = 0,
                                tol: float = DEFAULT_TOL) -> TheoremReport:
    """Additive perturbation with constants measured against the Gram and the inner product.

    The corollary kind drops the Gram term and measures the whole distance
    against the inner product alone.  The certified window uses the
    (1 -+ sqrt(rho)) factors from the two-constant argument; the variant with
    squared outer factors is reported for reference only.
    """
    if kind not in (ADDITIVE, ADDITIVE_COROLLARY):
        raise InputError(f"additive check got kind {kind!r}")
    PerturbationParams(kind, alpha=alpha, beta=beta)
    report = TheoremReport("STAB-ADDITIVE", tolerance=tol, seed=seed)
    sys_r = sys_t.with_family(dict(family_r))
    _require_pair(sys_t, sys_r)
    bounds = optimal_scalar_bounds(sys_t, tol)
    report.add_hypothesis("reference system is a frame", bounds.is_frame,
                          0.0 if bounds.is_frame else 1.0)
    if not report.hypotheses_pass:
        return report
    nu, delta = bounds.scalar_lower, bounds.scalar_upper
    if kind == ADDITIVE:
        rho = alpha + beta / (nu * nu)
    else:
        rho = alpha / (nu * nu)
    if rho >= 1.0:
        raise DomainError(f"perturbation size {rho:.6g} reaches 1; the window degenerates")
    diff = _difference_system(sys_t, sys_r)
    coords = sample_coords(sys_t, samples, seed, extra_ops=(sys_r.frame_operator,
                                                            diff.frame_operator))
    xx = element_norms(sys_t.descriptor, pairing(sys_t.descriptor, coords))
    if kind == ADDITIVE:
        rhs = alpha * _gram_norms(sys_t, coords) + beta * xx
    else:
        rhs = alpha * xx
    worst = float(np.max(_gram_norms(diff, coords) - rhs, initial=0.0))
    scale = max(1.0, delta ** 2)
    report.add_hypothesis("sampled additive smallness", worst <= tol * 100 * scale,
                          max(0.0, worst))
    if not report.hypotheses_pass:
        return report
    root = float(np.sqrt(rho))
    _certify_window(report, sys_r, nu * (1.0 - root), delta * (1.0 + root), tol,
                    "additive window certified")
    squared = [nu * (1.0 - root) ** 2, delta * (1.0 + root) ** 2]
    r_bounds = optimal_scalar_bounds(sys_r, tol)
    report.info["squared_factor_window"] = squared
    report.info["squared_factor_window_certifies"] = bool(
        squared[0] <= r_bounds.scalar_lower + tol and r_bounds.scalar_upper <= squared[1] + tol)
    report.info["rho"] = rho
    return report


def run_perturbation(kind: str, sys_a: GFrameSystem, sys_b: GFrameSystem, params: Mapping,
                     samples: int = 200, seed: int = 0, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Dispatch a perturbation run described by plain JSON-friendly parameters."""
    if kind == EQUIVALENCE_M:
        return check_equivalence_M(sys_a, sys_b, samples=samples, seed=seed, tol=tol)
    if kind == SUM:
        return sum_frame_check(sys_a, sys_b, tol=tol, seed=seed)
    if kind == WEIGHTED:
        labels = sys_a.measure.labels
        alpha_w = params.get("alpha_w", 1.0)
        beta_w = params.get("beta_w", 1.0)
        if not isinstance(alpha_w, Mapping):
            alpha_w = {label: float(alpha_w) for label in labels}
        if not isinstance(beta_w, Mapping):
            beta_w = {label: float(beta_w) for label in labels}
        return weighted_perturbation_check(
            sys_a, dict(sys_b.family), alpha_w, beta_w,
            lam=float(params.get("lambda", 0.0)), mu=float(params.get("mu", 0.0)),
            samples=samples, seed=seed, tol=tol)
    if kind in (ADDITIVE, ADDITIVE_COROLLARY):
        return additive_perturbation_check(
            sys_a, dict(sys_b.family), alpha=float(params.get("alpha", 0.0)),
            beta=float(params.get("beta", 0.0)), kind=kind, samples=samples, seed=seed, tol=tol)
    raise InputError(f"unknown perturbation kind {kind!r}")

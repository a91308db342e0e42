"""Controlled operator-valued frame systems and their calculus.

A system bundles a finite atomic measure, a family of adjointable operators
Lambda_w: A^n -> A^{m_w}, and a pair of positive invertible controls (C, C').
The twisted Gram of the system at x is the weighted sum of
<Lambda_w C x, Lambda_w C' x>; sandwiching it between A<x,x>A* and B<x,x>B*
is the frame property this module certifies, together with the induced
frame operator, transforms, duals and multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraDescriptor,
    AlgebraElement,
    conjugate_by,
    element_norms,
    min_hermitian_eigenvalues,
)
from .errors import DomainError, InputError, UnsupportedConfigurationError
from .hilbert import (
    AdjointableOperator,
    DirectSumSpace,
    DirectSumVector,
    ModuleVector,
    as_channels,
    compose_all,
    pairing,
    spectral_norms,
    vector_from_flat_row,
    weighted_sum,
)
from .measure import MeasureSpace
from .reports import PASS, TheoremReport
from .sampling import rand_vector

FRAME = "frame"
BESSEL_ONLY = "bessel_only"


@dataclass(frozen=True)
class ControlPair:
    """Positive invertible control operators, checked when built.

    The commutation defects, and the flags derived from them, are computed
    the first time they are read: only some statements need commuting
    controls, and those checks cost one 2-norm per atom, channel and control.
    """

    C: AdjointableOperator
    Cp: AdjointableOperator
    family: tuple
    tol: float

    @staticmethod
    def build(C: AdjointableOperator, Cp: AdjointableOperator,
              family: Mapping[str, AdjointableOperator], tol: float = DEFAULT_TOL) -> "ControlPair":
        for name, ctrl in (("C", C), ("C'", Cp)):
            if ctrl.in_rank != ctrl.out_rank:
                raise InputError(f"control {name} must be square")
            if not ctrl.is_hermitian(tol):
                raise InputError(f"control {name} must be self-adjoint")
            eigs = ctrl.eigenvalues_hermitian()
            if eigs[0] <= tol * max(1.0, eigs[-1]):
                raise InputError(f"control {name} must be positive and invertible")
        return ControlPair(C, Cp, tuple(family.values()), tol)

    @cached_property
    def commute_defect(self) -> float:
        """Relative commutator ||C C' - C' C|| / max(1, ||C|| ||C'||)."""
        fc, fcp = self.C.flat(), self.Cp.flat()
        scale = max(1.0, float(np.linalg.norm(fc, 2) * np.linalg.norm(fcp, 2)))
        return float(np.linalg.norm(fc @ fcp - fcp @ fc, 2)) / scale

    @cached_property
    def family_defect(self) -> float:
        return _family_commutation_defect(list(self.family), self.C, self.Cp)

    @property
    def commute_each_other(self) -> bool:
        return self.commute_defect <= self.tol

    @property
    def commute_with_family(self) -> bool:
        return self.family_defect <= self.tol


# Complex entries per batched temporary (64 KiB).  Batching atoms bounds the
# memory of the stacked family checks; larger temporaries measurably raised
# the peak resident memory of whole CLI runs.
_BATCH_ENTRIES = 1 << 12


def _padded_channels(ops: list) -> np.ndarray:
    """Channels of the members stacked along a leading atom axis.

    Members are zero-padded to a common output rank; zero columns leave
    every Lambda_w* Lambda_w unchanged.
    """
    first = ops[0].blocks
    width = max(op.out_rank for op in ops)
    padded = np.zeros((len(ops), first.shape[0], width) + first.shape[2:], dtype=np.complex128)
    for idx, op in enumerate(ops):
        padded[idx, :, :op.out_rank] = op.blocks
    return as_channels(ops[0].descriptor, padded)


def _family_commutation_defect(family: list, C: AdjointableOperator,
                               Cp: AdjointableOperator) -> float:
    """Worst relative commutator ||G_w X - X G_w|| of G_w = Lambda_w* Lambda_w with X = C, C'.

    Each quantity is one batched 2-norm over a batch of atoms, channel by
    channel; batches hold all atoms unless that would exceed _BATCH_ENTRIES.
    """
    controls = (C.channels(), Cp.channels())
    cscales = [max(1.0, float(spectral_norms(ctrl).max())) for ctrl in controls]
    widest = max(op.out_rank for op in family)
    step = max(1, _BATCH_ENTRIES * C.in_rank // (controls[0].size * max(widest, C.in_rank)))
    worst = 0.0
    for start in range(0, len(family), step):
        members = _padded_channels(family[start:start + step])
        grams = members @ members.conj().swapaxes(-1, -2)
        gscale = np.maximum(1.0, spectral_norms(grams).max(axis=-1))
        for ctrl, cscale in zip(controls, cscales):
            defects = spectral_norms(grams @ ctrl - ctrl @ grams).max(axis=-1)
            worst = max(worst, float(np.max(defects / gscale)) / cscale)
    return worst


@dataclass(frozen=True)
class FrameBounds:
    """Frame bounds, scalar and element form, with the certification verdict."""

    scalar_lower: float
    scalar_upper: float
    lower: Optional[AlgebraElement]
    upper: Optional[AlgebraElement]
    verdict: str

    @staticmethod
    def from_scalars(a: float, b: float, descriptor: AlgebraDescriptor,
                     tol: float = DEFAULT_TOL) -> "FrameBounds":
        verdict = FRAME if a > tol * max(1.0, b) else BESSEL_ONLY
        lower = AlgebraElement.scalar(descriptor, a) if verdict == FRAME else None
        upper = AlgebraElement.scalar(descriptor, b) if b > 0 else None
        return FrameBounds(float(a), float(b), lower, upper, verdict)

    @staticmethod
    def from_elements(lower: AlgebraElement, upper: AlgebraElement) -> "FrameBounds":
        a = 1.0 / lower.invert().norm()
        b = upper.norm()
        return FrameBounds(a, b, lower, upper, FRAME)

    @property
    def is_frame(self) -> bool:
        return self.verdict == FRAME


@dataclass(frozen=True)
class DualCertificate:
    """Reconstruction evidence for a (operator) dual family."""

    dual_family: dict
    corresponding_k: Optional[AdjointableOperator]
    reconstruction_residual: float
    operator_residual: float
    tolerance: float
    details: dict

    @property
    def passed(self) -> bool:
        """The exact operator residual decides; a sampled residual above tolerance also fails."""
        return max(self.operator_residual, self.reconstruction_residual) <= self.tolerance


class GFrameSystem:
    """Measure + operator family + control pair over one standard module."""

    def __init__(self, measure: MeasureSpace, family: Mapping[str, AdjointableOperator],
                 C: AdjointableOperator, Cp: AdjointableOperator, tol: float = DEFAULT_TOL):
        if set(family) != set(measure.labels):
            raise InputError("family labels must match measure atoms exactly")
        ordered = {label: family[label] for label in measure.labels}
        ops = list(ordered.values())
        descriptor = ops[0].descriptor
        n = ops[0].in_rank
        if n < 1:
            raise InputError("module rank must be >= 1")
        for op in ops:
            if op.descriptor != descriptor or op.in_rank != n:
                raise InputError("family members must share descriptor and input rank")
        if C.descriptor != descriptor or C.in_rank != n or Cp.descriptor != descriptor or Cp.in_rank != n:
            raise InputError("controls must act on the same module as the family")
        self.measure = measure
        self.family = ordered
        self.descriptor = descriptor
        self.module_rank = n
        self.tol = tol
        self.controls = ControlPair.build(C, Cp, ordered, tol)

    # -- basic structure -----------------------------------------------------

    @cached_property
    def direct_sum(self) -> DirectSumSpace:
        return DirectSumSpace(
            descriptor=self.descriptor,
            labels=self.measure.labels,
            weights=self.measure.weights,
            ranks=tuple(op.out_rank for op in self.family.values()),
        )

    @cached_property
    def controls_equal(self) -> bool:
        diff = (self.controls.C - self.controls.Cp).norm()
        scale = max(1.0, self.controls.C.norm())
        return diff <= self.tol * scale

    @property
    def commuting(self) -> bool:
        return self.controls.commute_each_other and self.controls.commute_with_family

    @property
    def supports_transform(self) -> bool:
        """True when analysis/synthesis factorisations are exact."""
        return self.controls.commute_each_other and (
            self.controls.commute_with_family or self.controls_equal
        )

    def with_controls(self, C: AdjointableOperator, Cp: AdjointableOperator) -> "GFrameSystem":
        return GFrameSystem(self.measure, self.family, C, Cp, self.tol)

    def with_family(self, family: Mapping[str, AdjointableOperator]) -> "GFrameSystem":
        return GFrameSystem(self.measure, family, self.controls.C, self.controls.Cp, self.tol)

    # -- frame operator and Gram ----------------------------------------------

    @cached_property
    def uncontrolled_operator(self) -> AdjointableOperator:
        """Weighted sum of Lambda_w* Lambda_w: one product of the stacked flattenings."""
        return weighted_sum(self.measure.weights, list(self.family.values()))

    @cached_property
    def frame_operator(self) -> AdjointableOperator:
        """Weighted sum of C' Lambda_w* Lambda_w C as one operator on A^n."""
        return self.controls.Cp @ self.uncontrolled_operator @ self.controls.C

    @cached_property
    def gram_operator(self) -> AdjointableOperator:
        """K = C'* (weighted sum of Lambda_w* Lambda_w) C, so that gram(x) = <K x, x>.

        The controls are self-adjoint only to within tol, so K keeps C'*
        instead of reusing the frame operator.
        """
        return self.controls.Cp.adjoint() @ self.uncontrolled_operator @ self.controls.C

    def gram_batch(self, coords: np.ndarray) -> np.ndarray:
        """Twisted Gram values of a stack of vectors given as (s, n) + coordinate-shape data."""
        return pairing(self.descriptor, coords, self.gram_operator)

    def gram(self, x: ModuleVector) -> AlgebraElement:
        """Twisted Gram element: weighted sum of <Lambda_w C x, Lambda_w C' x>."""
        if x.descriptor != self.descriptor or x.rank != self.module_rank:
            raise InputError("vector incompatible with the system")
        return AlgebraElement(self.descriptor, self.gram_batch(x.coords[None])[0])

    # -- transforms ------------------------------------------------------------

    @cached_property
    def mixed_control_root(self) -> AdjointableOperator:
        """(C' C)^(1/2); requires commuting controls so the product is positive."""
        if not self.supports_transform:
            raise UnsupportedConfigurationError(
                "analysis/synthesis need commuting controls (or C = C')"
            )
        product = self.controls.Cp @ self.controls.C
        return product.sqrt_positive(max(self.tol, 1e-8))

    @cached_property
    def analysis_operator(self) -> AdjointableOperator:
        """Transform into the weighted direct sum, stacked as a map A^n -> A^M."""
        root = self.mixed_control_root
        comps = {label: op @ root for label, op in self.family.items()}
        return self.direct_sum.stack_operator(comps)

    @cached_property
    def synthesis_operator(self) -> AdjointableOperator:
        return self.analysis_operator.adjoint()

    def analysis(self, x: ModuleVector) -> DirectSumVector:
        """Per-atom components Lambda_w (C'C)^(1/2) x in the weighted direct sum."""
        root = self.mixed_control_root
        rx = root(x)
        comps = {label: op(rx) for label, op in self.family.items()}
        return DirectSumVector(self.direct_sum, comps)

    def synthesis(self, y: DirectSumVector) -> ModuleVector:
        """Weighted sum of (C C')^(1/2) Lambda_w* y_w; adjoint of analysis."""
        return self.synthesis_operator(self.direct_sum.stack(y.components))


def optimal_scalar_bounds(system: GFrameSystem, tol: float = DEFAULT_TOL) -> FrameBounds:
    """Tight scalar bounds from the spectrum of the flattened frame operator.

    Requires the frame operator to be self-adjoint positive (commuting
    controls, or C = C'); otherwise the scalar sandwich does not apply and an
    UnsupportedConfigurationError is raised.
    """
    s = system.frame_operator
    scale = max(1.0, s.norm())
    if s.hermitian_defect() > tol * scale * 10:
        raise UnsupportedConfigurationError(
            "scalar bounds need a self-adjoint frame operator; "
            "controls do not commute with the family"
        )
    eigs = s.eigenvalues_hermitian()
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min < -tol * scale * 10:
        raise UnsupportedConfigurationError("frame operator is not positive")
    a = float(np.sqrt(max(lam_min, 0.0)))
    b = float(np.sqrt(max(lam_max, 0.0)))
    return FrameBounds.from_scalars(a, b, system.descriptor, tol)


def sample_coords(system: GFrameSystem, samples: int, seed: int, extra_ops: tuple = ()) -> np.ndarray:
    """Seeded Gaussian vectors plus extreme-eigenvector witnesses, stacked as coordinates.

    The witnesses come from the frame operator and from each extra operator.
    """
    rng = np.random.default_rng(seed)
    out = [rand_vector(system.descriptor, system.module_rank, rng).coords for _ in range(samples)]
    for op in (system.frame_operator,) + tuple(extra_ops):
        f = op.flat()
        _, vecs = np.linalg.eigh(0.5 * (f + f.conj().T))
        for idx in (0, vecs.shape[1] - 1):
            out.append(vector_from_flat_row(system.descriptor, system.module_rank,
                                            vecs[:, idx].conj()).coords)
    return np.stack(out)


def check_frame(system: GFrameSystem, bounds: FrameBounds, mode: str = "exact_scalar",
                samples: int = 200, seed: int = 0, tol: float = DEFAULT_TOL) -> TheoremReport:
    """Certify the two-sided frame inequality against the given bounds.

    ``exact_scalar`` runs positive-semidefiniteness tests on the flattened
    frame operator against the scalar bounds.  ``sampled_general`` checks the
    element-bound sandwich on seeded sample vectors (plus eigenvector
    adversaries) and records the first witness of a violation.
    """
    report = TheoremReport("FRAME-CHECK", tolerance=tol, seed=seed)
    report.info["mode"] = mode
    if mode == "exact_scalar":
        s = system.frame_operator
        scale = max(1.0, s.norm())
        report.add_hypothesis("frame operator self-adjoint",
                              s.hermitian_defect() <= tol * scale * 10,
                              s.hermitian_defect() / scale)
        if not report.hypotheses_pass:
            return report
        eigs = s.eigenvalues_hermitian()
        low_gap = float(eigs[0]) - bounds.scalar_lower ** 2
        up_gap = bounds.scalar_upper ** 2 - float(eigs[-1])
        report.add_conclusion("lower bound PSD", low_gap >= -tol * scale, max(0.0, -low_gap))
        report.add_conclusion("upper bound PSD", up_gap >= -tol * scale, max(0.0, -up_gap))
        if low_gap < -tol * scale or up_gap < -tol * scale:
            report.info["witness_eigenvalues"] = [float(eigs[0]), float(eigs[-1])]
        return report
    if mode != "sampled_general":
        raise InputError(f"unknown check mode {mode!r}")
    if bounds.lower is None or bounds.upper is None:
        raise InputError("sampled mode needs element bounds")
    report.add_hypothesis("element bounds present", True)
    desc = system.descriptor
    coords = sample_coords(system, samples, seed)
    gram = system.gram_batch(coords)
    xx = pairing(desc, coords)
    scale = np.maximum(1.0, np.maximum(element_norms(desc, gram), element_norms(desc, xx)))
    sides = (gram - conjugate_by(bounds.lower, xx), conjugate_by(bounds.upper, xx) - gram)
    lam = np.stack([min_hermitian_eigenvalues(desc, diff) for diff in sides], axis=1)
    violation = np.maximum(0.0, -lam) / scale[:, None]
    worst = float(violation.max())
    report.add_conclusion("sampled sandwich", worst <= tol * 10, worst)
    if worst > tol * 10:
        sample, side = divmod(int(np.argmax(violation)), 2)
        report.info["witness"] = {"sample": sample, "side": ("lower", "upper")[side]}
    return report


def certify_window(report: TheoremReport, system: GFrameSystem, lower: float, upper: float,
                   tol: float, label: str) -> None:
    """Conclude ``label`` when the exact scalar test certifies the window [lower, upper].

    A negative lower end is clamped to zero; info["certified_windows"] records
    every window tried.
    """
    window = FrameBounds.from_scalars(max(lower, 0.0), upper, system.descriptor, tol)
    sub = check_frame(system, window, mode="exact_scalar", tol=tol * 10)
    report.add_conclusion(label, sub.status == PASS, sub.conclusion_residual)
    report.info.setdefault("certified_windows", {})[label] = [max(lower, 0.0), upper]


def reconstruction_operator(system: GFrameSystem, dual: Mapping[str, AdjointableOperator],
                            k: Optional[AdjointableOperator] = None) -> AdjointableOperator:
    """Weighted sum of C' Lambda_w* Gamma_w [K] C as one operator."""
    labels = system.measure.labels
    inner = weighted_sum(system.measure.weights, [dual[label] for label in labels],
                         [system.family[label] for label in labels])
    chain = inner @ k if k is not None else inner
    return system.controls.Cp @ chain @ system.controls.C


def _reconstruction_residuals(system: GFrameSystem, op: AdjointableOperator,
                              samples: int, seed: int) -> tuple:
    """Worst ||op(x) - x|| over seeded unit vectors, and the exact ||op - I||."""
    identity = AdjointableOperator.identity(system.descriptor, system.module_rank)
    defect = op - identity
    rng = np.random.default_rng(seed)
    worst = 0.0
    if samples > 0:
        coords = np.stack([rand_vector(system.descriptor, system.module_rank, rng, unit=True).coords
                           for _ in range(samples)])
        squares = element_norms(system.descriptor,
                                pairing(system.descriptor, coords, defect.adjoint() @ defect))
        worst = float(np.sqrt(squares.max()))
    return worst, defect.norm()


def canonical_dual(system: GFrameSystem, samples: int = 100, seed: int = 0,
                   tol: float = 1e-8) -> DualCertificate:
    """Dual family Lambda_w S^(-1) with verified reconstruction."""
    if not system.commuting:
        raise UnsupportedConfigurationError(
            "canonical dual reconstruction needs commuting controls")
    bounds = optimal_scalar_bounds(system)
    if not bounds.is_frame:
        raise DomainError("system is not a frame; frame operator is singular")
    s_inv = system.frame_operator.inverse()
    dual = dict(zip(system.family, compose_all(list(system.family.values()), s_inv)))
    recon = reconstruction_operator(system, dual)
    sampled, op_res = _reconstruction_residuals(system, recon, samples, seed)
    return DualCertificate(
        dual_family=dual,
        corresponding_k=None,
        reconstruction_residual=sampled,
        operator_residual=op_res,
        tolerance=tol,
        details={"operator_residual": op_res, "samples": samples, "seed": seed},
    )


def operator_dual_check(system: GFrameSystem, dual: Mapping[str, AdjointableOperator],
                        k: AdjointableOperator, samples: int = 100, seed: int = 0,
                        tol: float = 1e-8) -> DualCertificate:
    """Certify x = integral of C' Lambda_w* Gamma_w K C x, and its converse.

    The converse exchanges the two families and replaces K by K*; both
    directions are sampled and the worst relative residual is reported.
    """
    k.inverse()  # raises DomainError if K is singular
    forward = reconstruction_operator(system, dual, k)
    sampled, op_res = _reconstruction_residuals(system, forward, samples, seed)
    swapped = GFrameSystem(system.measure, dual, system.controls.C, system.controls.Cp, system.tol)
    backward = reconstruction_operator(swapped, system.family, k.adjoint())
    sampled_back, op_res_back = _reconstruction_residuals(swapped, backward, samples, seed + 1)
    return DualCertificate(
        dual_family=dict(dual),
        corresponding_k=k,
        reconstruction_residual=max(sampled, sampled_back),
        operator_residual=max(op_res, op_res_back),
        tolerance=tol,
        details={
            "forward_residual": sampled,
            "converse_residual": sampled_back,
            "operator_residual": op_res,
            "converse_operator_residual": op_res_back,
            "samples": samples,
            "seed": seed,
        },
    )


def bessel_constant(family: Mapping[str, AdjointableOperator], measure: MeasureSpace,
                    C: Optional[AdjointableOperator] = None,
                    Cp: Optional[AdjointableOperator] = None) -> float:
    """Optimal scalar Bessel constant of the (optionally controlled) family."""
    ops = list(family.values())
    descriptor = ops[0].descriptor
    n = ops[0].in_rank
    if C is None:
        C = AdjointableOperator.identity(descriptor, n)
    if Cp is None:
        Cp = C
    system = GFrameSystem(measure, family, C, Cp)
    return optimal_scalar_bounds(system).scalar_upper


def multiplier(gamma: Mapping[str, complex], lam: Mapping[str, AdjointableOperator],
               theta: Mapping[str, AdjointableOperator], measure: MeasureSpace) -> AdjointableOperator:
    """Weighted sum of gamma_w Lambda_w* Theta_w for a bounded scalar symbol."""
    coeffs = _symbol_weights(gamma, measure, lam, theta)
    labels = measure.labels
    return weighted_sum(coeffs, [theta[label] for label in labels], [lam[label] for label in labels])


def _symbol_weights(gamma: Mapping[str, complex], measure: MeasureSpace, *families) -> list:
    """Per-atom weight * gamma_w, after checking every family covers every atom."""
    for label in measure.labels:
        if any(label not in data for data in (gamma,) + families):
            raise InputError(f"multiplier data missing atom {label!r}")
    return [weight * complex(gamma[label]) for label, weight in measure.atoms]


def multiplier_report(gamma: Mapping[str, complex], lam: Mapping[str, AdjointableOperator],
                      theta: Mapping[str, AdjointableOperator], measure: MeasureSpace,
                      tol: float = DEFAULT_TOL) -> dict:
    """Multiplier with its norm bound and the adjoint identity.

    The enforced norm bound is the product of the symbol sup-norm with the two
    scalar Bessel constants.  The squared variant of that product is reported
    alongside for reference, not enforced.  The adjoint is compared against
    the conjugate-symbol multiplier with the two families exchanged; the
    unswapped variant is reported as well and flagged when it differs.
    """
    op = multiplier(gamma, lam, theta, measure)
    sup = max((abs(complex(v)) for v in gamma.values()), default=0.0)
    b_lam = bessel_constant(lam, measure)
    b_theta = bessel_constant(theta, measure)
    bound = sup * b_lam * b_theta
    gamma_conj = {label: np.conj(complex(v)) for label, v in gamma.items()}
    swapped = multiplier(gamma_conj, theta, lam, measure)
    unswapped = multiplier(gamma_conj, lam, theta, measure)
    adj_flat = op.flat().conj().T
    scale = max(1.0, op.norm())
    swapped_res = float(np.linalg.norm(adj_flat - swapped.flat(), 2)) / scale
    unswapped_res = float(np.linalg.norm(adj_flat - unswapped.flat(), 2)) / scale
    return {
        "operator": op,
        "op_norm": op.norm(),
        "bound_product": bound,
        "bound_squared": (sup ** 2) * (b_lam ** 2) * (b_theta ** 2),
        "norm_within_bound": op.norm() <= bound + tol * max(1.0, bound),
        "adjoint_swapped_residual": swapped_res,
        "adjoint_unswapped_residual": unswapped_res,
        "statement_form_matches": unswapped_res <= tol * 10,
    }


def controlled_multiplier(gamma: Mapping[str, complex], theta: Mapping[str, AdjointableOperator],
                          lam: Mapping[str, AdjointableOperator], C: AdjointableOperator,
                          Cp: AdjointableOperator, measure: MeasureSpace) -> AdjointableOperator:
    """Weighted sum of gamma_w C theta_w* Lambda_w C'."""
    coeffs = _symbol_weights(gamma, measure, lam, theta)
    labels = measure.labels
    inner = weighted_sum(coeffs, [lam[label] for label in labels], [theta[label] for label in labels])
    return C @ inner @ Cp


def controlled_multiplier_report(gamma: Mapping[str, complex],
                                 theta: Mapping[str, AdjointableOperator],
                                 lam: Mapping[str, AdjointableOperator],
                                 C: AdjointableOperator, Cp: AdjointableOperator,
                                 measure: MeasureSpace, tol: float = DEFAULT_TOL) -> dict:
    """Controlled multiplier with the Bessel-constant norm bound.

    The constants come from the squared-control systems: theta with controls
    (C, C) and lambda with controls (C', C').
    """
    op = controlled_multiplier(gamma, theta, lam, C, Cp, measure)
    sup = max((abs(complex(v)) for v in gamma.values()), default=0.0)
    b_theta = bessel_constant(theta, measure, C, C)
    b_lam = bessel_constant(lam, measure, Cp, Cp)
    bound = sup * b_theta * b_lam
    return {
        "operator": op,
        "op_norm": op.norm(),
        "bound_product": bound,
        "bessel_theta": b_theta,
        "bessel_lambda": b_lam,
        "norm_within_bound": op.norm() <= bound + tol * max(1.0, bound),
    }

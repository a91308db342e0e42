"""Controlled operator-valued frame systems and their calculus.

A system bundles a finite atomic measure, a family of adjointable operators
Lambda_w: A^n -> A^{m_w}, and a pair of positive invertible controls (C, C').
The twisted Gram of the system at x is the weighted sum of
<Lambda_w C x, Lambda_w C' x>; sandwiching it between A<x,x>A* and B<x,x>B*
is the frame property this module certifies, together with the induced
frame operator, transforms, duals and multipliers.

A family is stored in one form (``Family``): the unweighted ``hilbert.stack``
of its members, A^n -> A^(m_1 + ... + m_W), with the atom ranks m_w, and only
``Family`` reads which columns belong to which atom.  Frame operators,
transforms, duals, multipliers and member-wise algebra are products of that
stack (``Family.weighted_sum``, ``scaled``, ``@``); member norms and the
commutation check read its member groups, one per output rank.  The per-label
mapping of members is cut from the stack only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MATRIX,
    AlgebraElement,
    channel_layout,
    frobenius_bound,
    hermitian_transpose,
    tolerance_scale,
    two_norm,
    within_tolerance,
)
from .errors import DomainError, InputError, UnsupportedConfigurationError
from .hilbert import (
    AdjointableOperator,
    ModuleVector,
    loewner_gap,
    pairing,
    stack,
)
from .measure import MeasureSpace
from .reports import PASS, TheoremReport, gap

FRAME = "frame"
BESSEL_ONLY = "bessel_only"


class Family:
    """Operators Lambda_w: A^n -> A^{m_w}, one for each atom label, in the measure's order.

    A family is held as its stack: the unweighted ``hilbert.stack`` of the
    members, A^n -> A^(m_1 + ... + m_W), with ``ranks`` the m_w saying where
    each member's columns lie.  Only this class reads that layout.  Member-wise
    algebra is stack algebra: ``family @ R`` precomposes every member with R,
    ``scaled`` multiplies member w by its own scalar (sqrt(w) maps the stack
    into the weighted direct sum), ``weighted_sum`` is one GEMM per channel,
    and ``with_stack`` puts a summed or otherwise computed stack on the same
    atoms and ranks.  ``members`` maps each label to its operator when first
    read; ``member_groups`` views them all, grouped by output rank.
    """

    def __init__(self, labels, ranks, stack: AdjointableOperator):
        self.labels, self.ranks = tuple(labels), tuple(ranks)
        if len(self.ranks) != len(self.labels) or sum(self.ranks) != stack.out_rank:
            raise InputError("a stacked family needs one rank per label, summing to "
                             "the stack's output rank")
        self.stack = stack
        self.descriptor, self.in_rank = stack.descriptor, stack.in_rank

    @staticmethod
    def of(family, labels) -> "Family":
        """``family`` over the atom labels ``labels``: a Family on them, or a mapping by label."""
        labels = tuple(labels)
        if isinstance(family, Family):
            if family.labels != labels:
                raise InputError("family labels must match measure atoms exactly")
            return family
        if set(family) != set(labels):
            raise InputError("family labels must match measure atoms exactly")
        ops = [family[label] for label in labels]
        return Family(labels, [op.out_rank for op in ops], stack(ops))

    @cached_property
    def members(self) -> dict:
        """The members by label, cut from the stack's channel columns when first read."""
        width = channel_layout(self.descriptor)[1]
        pieces = np.split(self.stack.channels, np.cumsum(self.ranks)[:-1] * width, axis=2)
        return {label: AdjointableOperator(self.descriptor, piece)
                for label, piece in zip(self.labels, pieces)}

    def member_groups(self) -> list:
        """(atoms, channels) for each output rank m, gathered from the stack without padding.

        ``atoms`` are the atoms of rank m and ``channels`` their members'
        channels, (atoms, c, n w, m w).
        """
        width = channel_layout(self.descriptor)[1]
        ranks = np.asarray(self.ranks)
        firsts = (ranks.cumsum() - ranks) * width
        groups = []
        for m in sorted(set(self.ranks)):
            atoms = np.flatnonzero(ranks == m)
            columns = self.stack.channels[:, :, firsts[atoms, None] + np.arange(m * width)]
            groups.append((atoms, columns.transpose(2, 0, 1, 3)))
        return groups

    def member_norms(self) -> np.ndarray:
        """||Lambda_w|| for every atom: one batched 2-norm per group of ``member_groups``."""
        norms = np.empty(len(self.ranks))
        for atoms, chans in self.member_groups():
            norms[atoms] = two_norm(chans).max(axis=-1)
        return norms

    def with_stack(self, t: AdjointableOperator) -> "Family":
        """The family on the same atoms and ranks whose stack is t."""
        return Family(self.labels, self.ranks, t)

    def __matmul__(self, right: AdjointableOperator) -> "Family":
        """Every member precomposed with ``right``: Lambda_w @ right."""
        return self.with_stack(self.stack @ right)

    def _channels(self, scales=None) -> np.ndarray:
        """Channels of the stack, member w's columns times scales[w]."""
        if scales is None:
            return self.stack.channels
        if len(scales) != len(self.ranks):
            raise InputError("a family needs one scale per atom")
        columns = np.asarray(scales)
        if self.stack.channels.shape[2] != columns.size:  # some member has more than one column
            width = channel_layout(self.descriptor)[1]
            columns = np.repeat(columns, np.asarray(self.ranks) * width)
        return self.stack.channels * columns

    def scaled(self, scales) -> "Family":
        """The family whose member w is scales[w] Lambda_w."""
        return self.with_stack(AdjointableOperator(self.descriptor, self._channels(scales)))

    def weighted_sum(self, weights, right: Optional["Family"] = None) -> AdjointableOperator:
        """Sum over atoms of c_w R_w* Lambda_w, for R the family ``right``.

        It is the adjoint of R's stack after the stack of ``scaled(c)``, one
        GEMM per channel.  Without ``right`` it is the sum of w Lambda_w*
        Lambda_w, X X^H for X the channels of ``scaled(sqrt w)``, so w must be
        >= 0.
        """
        if right is not None and (right.descriptor != self.descriptor
                                  or right.in_rank != self.in_rank or right.ranks != self.ranks):
            raise InputError("a weighted sum pairs families with the same algebra, input rank "
                             "and output ranks")
        x = self._channels(np.sqrt(weights) if right is None else weights)
        y = x if right is None else right._channels()
        return AdjointableOperator(self.descriptor, x @ hermitian_transpose(y))


@dataclass(frozen=True)
class ControlPair:
    """Positive invertible control operators, checked when built.

    Every check of the pair is at DEFAULT_TOL.  The commutation defects and
    flags are computed when first read.  A flag reads its defect when that is
    kept, and otherwise passes on ``frobenius_bound`` of the commutators: only
    a bound above tol takes the defect's 2-norm per atom, channel and control.
    """

    C: AdjointableOperator
    Cp: AdjointableOperator
    family: Family

    @staticmethod
    def build(C: AdjointableOperator, Cp: AdjointableOperator, family: Family) -> "ControlPair":
        for name, ctrl in (("C", C), ("C'", Cp)):
            if ctrl.in_rank != ctrl.out_rank:
                raise InputError(f"control {name} must be square")
            if not ctrl.is_hermitian():
                raise InputError(f"control {name} must be self-adjoint")
            eigs = ctrl.eigenvalues_hermitian()
            if eigs[0] <= DEFAULT_TOL * tolerance_scale(eigs[-1]):
                raise InputError(f"control {name} must be positive and invertible")
        return ControlPair(C, Cp, family)

    @cached_property
    def _commutator(self) -> AdjointableOperator:
        return self.Cp @ self.C - self.C @ self.Cp

    @cached_property
    def commute_defect(self) -> float:
        """Relative commutator ||C' C - C C'|| / tolerance_scale(||C|| ||C'||)."""
        scale = tolerance_scale(self.C.norm() * self.Cp.norm())
        return self._commutator.norm() / scale

    @cached_property
    def family_defect(self) -> float:
        return _family_commutation_defect(self.family, self.C, self.Cp)

    @cached_property
    def commute_each_other(self) -> bool:
        return ("commute_defect" not in self.__dict__
                and frobenius_bound(self._commutator.channels) <= DEFAULT_TOL
                or self.commute_defect <= DEFAULT_TOL)

    @cached_property
    def commute_with_family(self) -> bool:
        return ("family_defect" not in self.__dict__
                and all(frobenius_bound(x) <= DEFAULT_TOL
                        for _, pair in _family_commutators(self.family, self.C, self.Cp) for x in pair)
                or self.family_defect <= DEFAULT_TOL)


def _family_commutators(family: Family, C: AdjointableOperator, Cp: AdjointableOperator):
    """Per output rank of ``member_groups``: Grams G_w = Lambda_w* Lambda_w, G_w X - X G_w, X = C, C'."""
    for _, members in family.member_groups():
        grams = members @ hermitian_transpose(members)
        yield grams, [grams @ ctrl.channels - ctrl.channels @ grams for ctrl in (C, Cp)]


def _family_commutation_defect(family: Family, C: AdjointableOperator,
                               Cp: AdjointableOperator) -> float:
    """Worst relative commutator ||G_w X - X G_w|| of G_w = Lambda_w* Lambda_w with X = C, C'.

    Each quantity is one batched 2-norm over the atoms of one output rank of
    ``_family_commutators``.  The scales, ||G_w|| and the controls' kept
    norms, are read only for a group with a non-zero commutator, and a
    defect is divided by its scale only where it is non-zero: a zero member
    has a zero commutator and defect 0, whatever the scale.
    """
    worst = 0.0
    for grams, commutators in _family_commutators(family, C, Cp):
        defects = [two_norm(x).max(axis=-1) for x in commutators]
        if any(map(np.any, defects)):
            gscale = tolerance_scale(two_norm(grams).max(axis=-1))
            worst = max(worst, *(float(np.max(np.divide(d, gscale, out=np.zeros_like(d), where=d != 0)))
                                 / tolerance_scale(ctrl.norm()) for d, ctrl in zip(defects, (C, Cp))))
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
    def from_scalars(a: float, b: float, tol: float = DEFAULT_TOL) -> "FrameBounds":
        """Scalar bounds a and b, with element bounds None: ``check_frame`` reads a and b."""
        verdict = FRAME if a > tol * tolerance_scale(b) else BESSEL_ONLY
        return FrameBounds(float(a), float(b), None, None, verdict)

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
    """A dual family with its exact reconstruction residual ||R - I||."""

    dual: Family
    operator_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.operator_residual <= self.tolerance


class GFrameSystem:
    """Measure + operator family + control pair over one standard module.

    The family is given as a mapping by atom label or as a ``Family``, and
    kept as a ``Family`` (``stacked_family``).  The system's own checks (the
    controls, their commutation and equality) are at DEFAULT_TOL.
    """

    def __init__(self, measure: MeasureSpace, family, C: AdjointableOperator,
                 Cp: AdjointableOperator):
        family = Family.of(family, measure.labels)
        descriptor, n = family.descriptor, family.in_rank
        if C.descriptor != descriptor or C.in_rank != n or Cp.descriptor != descriptor or Cp.in_rank != n:
            raise InputError("controls must act on the same module as the family")
        self.measure = measure
        self.stacked_family = family
        self.descriptor = descriptor
        self.module_rank = n
        self.controls = ControlPair.build(C, Cp, family)

    @property
    def family(self) -> dict:
        """The members by atom label, in the measure's order."""
        return self.stacked_family.members

    # -- basic structure -----------------------------------------------------

    @cached_property
    def controls_equal(self) -> bool:
        return within_tolerance((self.controls.C - self.controls.Cp).norm(), DEFAULT_TOL,
                                self.controls.C.norm)

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
        return GFrameSystem(self.measure, self.stacked_family, C, Cp)

    def with_family(self, family) -> "GFrameSystem":
        return GFrameSystem(self.measure, family, self.controls.C, self.controls.Cp)

    # -- frame operator and Gram ----------------------------------------------

    @cached_property
    def uncontrolled_operator(self) -> AdjointableOperator:
        """Weighted sum of Lambda_w* Lambda_w: one product of the family's stack."""
        return self.stacked_family.weighted_sum(self.measure.weights)

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
        return product.sqrt_positive(1e-8)

    @cached_property
    def analysis_operator(self) -> AdjointableOperator:
        """x -> (Lambda_w (C'C)^(1/2) x)_w into the weighted direct sum, as one product."""
        scaled = self.stacked_family.scaled(np.sqrt(self.measure.weights))
        return scaled.stack @ self.mixed_control_root

    @cached_property
    def synthesis_operator(self) -> AdjointableOperator:
        return self.analysis_operator.adjoint()


def optimal_scalar_bounds(system: GFrameSystem, tol: float = DEFAULT_TOL) -> FrameBounds:
    """Tight scalar bounds from the spectrum of the flattened frame operator.

    Requires the frame operator to be self-adjoint positive (commuting
    controls, or C = C'); otherwise the scalar sandwich does not apply and an
    UnsupportedConfigurationError is raised.
    """
    s = system.frame_operator
    if not s.is_hermitian(tol * 10):
        raise UnsupportedConfigurationError(
            "scalar bounds need a self-adjoint frame operator; "
            "controls do not commute with the family"
        )
    eigs = s.eigenvalues_hermitian()
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if not within_tolerance(-lam_min, tol * 10, s.norm):
        raise UnsupportedConfigurationError("frame operator is not positive")
    a = float(np.sqrt(max(lam_min, 0.0)))
    b = float(np.sqrt(max(lam_max, 0.0)))
    return FrameBounds.from_scalars(a, b, tol)


def _is_unit_multiple(a: Optional[AlgebraElement]) -> bool:
    return a is None or np.array_equal(a.data, a.data.flat[0] * AlgebraElement.one(a.descriptor).data)


def _element_violation(system: GFrameSystem, a: AlgebraElement, lower: bool) -> tuple:
    """Largest eigenvalue of a<x,x>a* - gram(x) (lower) or gram(x) - a<x,x>a*, at x.

    x comes from ``loewner_gap`` against the Gram operator K.  A non-central a
    in M_d moves some unit w off span(w), and flat(x) = w v^H, for v an extreme
    eigenvector of K, violates its side unless K = 0 (upper side).
    """
    desc, n, k = system.descriptor, system.module_rank, system.gram_operator
    if desc.kind == MATRIX and not _is_unit_multiple(a):
        eye = np.eye(desc.dim)
        _, cols = np.nonzero(a.data - np.diag(np.diagonal(a.data)))
        moved = np.flatnonzero(np.diagonal(a.data) != a.data[0, 0])
        w = eye[cols[0]] if cols.size else (eye[0] + eye[moved[0]]) / np.sqrt(2.0)
        bound, left = AdjointableOperator.zero(desc, n, n), AlgebraElement(desc, np.outer(w, eye[0]))
    else:
        bound = AdjointableOperator.identity(desc, n).times_central(a.adjoint() * a)
        left = AlgebraElement.one(desc)
    gaps, witnesses = loewner_gap(bound, k) if lower else loewner_gap(k, bound)
    x = left * ModuleVector(desc, witnesses[int(np.argmax(gaps))])
    sandwich = a * x.inner(x) * a.adjoint()
    excess = sandwich - system.gram(x) if lower else system.gram(x) - sandwich
    return float(excess.eigenvalues_hermitian()[-1]), x


def check_frame(system: GFrameSystem, bounds: FrameBounds,
                tol: float = DEFAULT_TOL) -> TheoremReport:
    """Certify A<x,x>A* <= gram(x) <= B<x,x>B* for every x against the given bounds.

    Multiples of the unit get PSD tests of the frame operator against the
    scalar bounds.  Other bounds are exact too: for C^k, channel by channel,
    |l_j|^2 <= lambda_min(K_j) and lambda_max(K_j) <= |u_j|^2 for the Gram operator
    K; in M_d a non-central bound fails at a rank-one vector in info["witnesses"].
    """
    report = TheoremReport("FRAME-CHECK", tolerance=tol)
    s = system.frame_operator
    scale = tolerance_scale(s.norm())
    with report.gate():
        report.require(("frame operator self-adjoint", s.hermitian_defect() <= tol * scale * 10,
                        s.hermitian_defect() / scale))
        if _is_unit_multiple(bounds.lower) and _is_unit_multiple(bounds.upper):
            eigs = s.eigenvalues_hermitian()
            report.conclude(gap("lower bound PSD", bounds.scalar_lower ** 2 - float(eigs[0]),
                                tol * scale),
                            gap("upper bound PSD", float(eigs[-1]) - bounds.scalar_upper ** 2,
                                tol * scale))
            if not report.conclusion_passed:
                report.info["witness_eigenvalues"] = [float(eigs[0]), float(eigs[-1])]
            return report
        for side, a, value in (("lower", bounds.lower, bounds.scalar_lower),
                               ("upper", bounds.upper, bounds.scalar_upper)):
            a = AlgebraElement.scalar(system.descriptor, value) if a is None else a
            violation, x = _element_violation(system, a, side == "lower")
            report.conclude(gap(f"{side} element bound", violation, tol * scale))
            if violation > tol * scale:
                report.info.setdefault("witnesses", {})[side] = x
    return report


def certify_window(report: TheoremReport, system: GFrameSystem, lower: float, upper: float,
                   tol: float, label: str) -> None:
    """Conclude ``label`` when ``check_frame`` at ``tol`` certifies the window [lower, upper].

    A negative lower end is clamped to zero; info["certified_windows"] records
    every window tried.
    """
    window = FrameBounds.from_scalars(max(lower, 0.0), upper, tol)
    sub = check_frame(system, window, tol=tol)
    report.conclude((label, sub.status == PASS, sub.conclusion_residual))
    report.info.setdefault("certified_windows", {})[label] = [max(lower, 0.0), upper]


def reconstruction_operator(system: GFrameSystem, dual,
                            k: Optional[AdjointableOperator] = None) -> AdjointableOperator:
    """Weighted sum of C' Lambda_w* Gamma_w [K] C as one operator.

    ``dual`` is a Family or a mapping by atom label.
    """
    dual = Family.of(dual, system.measure.labels)
    inner = dual.weighted_sum(system.measure.weights, right=system.stacked_family)
    chain = inner @ k if k is not None else inner
    return system.controls.Cp @ chain @ system.controls.C


def canonical_dual(system: GFrameSystem, tol: float = 1e-8) -> DualCertificate:
    """Dual family Lambda_w S^(-1), the family's stack times S^(-1), with the exact ||R - I||."""
    if not system.commuting:
        raise UnsupportedConfigurationError(
            "canonical dual reconstruction needs commuting controls")
    bounds = optimal_scalar_bounds(system)
    if not bounds.is_frame:
        raise DomainError("system is not a frame; frame operator is singular")
    dual = system.stacked_family @ system.frame_operator.inverse()
    identity = AdjointableOperator.identity(system.descriptor, system.module_rank)
    residual = (reconstruction_operator(system, dual) - identity).norm()
    return DualCertificate(dual=dual, operator_residual=residual, tolerance=tol)


def bessel_constant(family, measure: MeasureSpace) -> float:
    """Optimal scalar Bessel constant sqrt(lambda_max(U)), U = sum of w Lambda_w* Lambda_w.

    U is X X^H, positive by construction.  ``family`` is a Family or a mapping
    by atom label.
    """
    u = Family.of(family, measure.labels).weighted_sum(measure.weights)
    return float(np.sqrt(max(float(u.eigenvalues_hermitian()[-1]), 0.0)))


def multiplier(gamma, lam, theta, measure: MeasureSpace) -> AdjointableOperator:
    """Weighted sum of gamma_w Lambda_w* Theta_w for a bounded scalar symbol.

    ``gamma`` is a mapping by atom label or an array in the measure's order;
    ``lam`` and ``theta`` are Families or mappings by atom label.
    """
    coeffs = _symbol_weights(gamma, measure)
    lam, theta = Family.of(lam, measure.labels), Family.of(theta, measure.labels)
    return theta.weighted_sum(coeffs, right=lam)


def _symbol_array(gamma, measure: MeasureSpace) -> np.ndarray:
    """The symbol as a complex array in the measure's order, checked to cover every atom."""
    return measure.per_atom(gamma, "multiplier data", np.complex128)


def _symbol_weights(gamma, measure: MeasureSpace) -> np.ndarray:
    """weight * gamma_w for every atom, in the measure's order."""
    return measure.weights * _symbol_array(gamma, measure)


def multiplier_report(gamma, lam, theta, measure: MeasureSpace,
                      tol: float = DEFAULT_TOL) -> dict:
    """Multiplier with its norm bound and the adjoint identity.

    ``gamma`` is a mapping by atom label or an array in the measure's order.
    The enforced norm bound is the product of the symbol's sup-norm over the
    measure's atoms with the two scalar Bessel constants.  The squared variant
    of that product is reported alongside for reference, not enforced.  The
    adjoint is compared against the conjugate-symbol multiplier with the two
    families exchanged; the unswapped variant is reported as well and flagged
    when it differs.  When ``theta`` is ``lam`` the two Bessel constants are
    one, and so are the two variants, so each is computed once.  ``passed``
    holds when the norm bound holds and the swapped adjoint identity holds to
    within 100 tol.
    """
    same = theta is lam
    lam, theta = Family.of(lam, measure.labels), Family.of(theta, measure.labels)
    symbol = _symbol_array(gamma, measure)
    op = multiplier(symbol, lam, theta, measure)
    sup = float(np.abs(symbol).max())
    b_lam = bessel_constant(lam, measure)
    b_theta = b_lam if same else bessel_constant(theta, measure)
    bound = sup * b_lam * b_theta
    adj = op.adjoint()
    scale = tolerance_scale(op.norm())
    swapped_res = (adj - multiplier(symbol.conj(), theta, lam, measure)).norm() / scale
    unswapped_res = (swapped_res if same else
                     (adj - multiplier(symbol.conj(), lam, theta, measure)).norm() / scale)
    within_bound = op.norm() <= bound + tol * tolerance_scale(bound)
    return {
        "operator": op,
        "op_norm": op.norm(),
        "bound_product": bound,
        "bound_squared": (sup ** 2) * (b_lam ** 2) * (b_theta ** 2),
        "norm_within_bound": within_bound,
        "adjoint_swapped_residual": swapped_res,
        "adjoint_unswapped_residual": unswapped_res,
        "statement_form_matches": unswapped_res <= tol * 10,
        "passed": within_bound and swapped_res <= tol * 100,
    }


def controlled_multiplier(gamma, theta, lam, C: AdjointableOperator,
                          Cp: AdjointableOperator, measure: MeasureSpace) -> AdjointableOperator:
    """Weighted sum of gamma_w C theta_w* Lambda_w C'.

    ``gamma`` is a mapping by atom label or an array in the measure's order;
    the families are Families or mappings.
    """
    coeffs = _symbol_weights(gamma, measure)
    lam, theta = Family.of(lam, measure.labels), Family.of(theta, measure.labels)
    return C @ lam.weighted_sum(coeffs, right=theta) @ Cp

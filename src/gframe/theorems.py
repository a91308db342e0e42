"""Executable theorem suite for controlled frame systems.

Each row builds (or accepts) a desk-scale instance, evaluates the statement's
hypotheses as numeric predicates, and then evaluates the conclusion as
residuals against a tolerance.  Rows are deterministic given (id, seed) and
independent of each other.

Seeded instances are drawn through a ``_Draws``: within one invocation each
option set is drawn once and the same system is handed to every row that asks
for it, so a row derives new systems (``with_family``/``with_controls``) and
never mutates the one it is given.

Derived families are stack algebra on ``Family``: ``family @ R``,
``Family.scaled``, sums of stacks, and ``_components`` of a map into the
weighted direct sum; member-wise maxima are ``Family.member_norms``.  Rows
read single members only for member operations that are not stack products.

A row is a body registered with ``_row``: the runner draws the default
instance, applies ``break_commutation`` where documented and records the frame
hypotheses; the body adds its own hypotheses and conclusions.  The first
failed batch of hypotheses ends the row as ``not_applicable``.

Documented mutants (``scale_member``, ``break_commutation``, ``wrong_k``)
inject a violation mid-pipeline; the mutant matrix below records which row
each mutant is expected to flip and to which status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    DIAGONAL,
    MATRIX,
    AlgebraDescriptor,
    AlgebraElement,
    channel_layout,
    element_norms,
    finite_spectrum,
    tolerance_scale,
)
from .errors import DomainError, InputError, UnsupportedConfigurationError
from .frames import (
    Family,
    FrameBounds,
    GFrameSystem,
    certify_window,
    optimal_scalar_bounds,
    reconstruction_operator,
)
from .generate import random_system
from .hilbert import AdjointableOperator, stack
from .measure import MeasureSpace, atom_labels
from .reports import FAIL, NOT_APPLICABLE, TheoremReport, frame_line, gap, within
from .sampling import (
    complex_gaussian,
    rand_invertible_operator,
    rand_operator,
    rand_positive_operator,
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
    """||x - y|| / tolerance_scale(||x||, ||y||), which reads neither norm when x = y."""
    diff = (x - y).norm()
    return diff / tolerance_scale(x.norm(), y.norm()) if diff else 0.0


def _rel_members(x: Family, y: Family) -> float:
    """The largest ``_rel_op`` of the members of two families on the same atoms and ranks."""
    diff = x.with_stack(x.stack - y.stack).member_norms()
    return float(np.max(diff / tolerance_scale(x.member_norms(), y.member_norms())))


def _identity_residual(op: AdjointableOperator) -> float:
    return (op - AdjointableOperator.identity(op.descriptor, op.in_rank)).norm()


def _singular_range(op: AdjointableOperator) -> tuple:
    """(smallest, largest) singular value of the flattening."""
    svals = op.singular_values()
    return float(svals[-1]), float(svals[0])


def _commute_lines(system: GFrameSystem) -> tuple:
    ctr = system.controls
    each, family = ctr.commute_defect, ctr.family_defect  # kept, so the flags read them
    return (("controls commute", ctr.commute_each_other, each),
            ("controls commute with family", ctr.commute_with_family, family))


def _uniform_rank_line(system: GFrameSystem) -> tuple:
    ranks = set(system.stacked_family.ranks)
    return "uniform output rank", len(ranks) == 1, float(len(ranks) - 1)


def _control_commutation(op: AdjointableOperator, system: GFrameSystem) -> float:
    ctr = system.controls
    return max(_rel_op(op @ ctr.C, ctr.C @ op), _rel_op(op @ ctr.Cp, ctr.Cp @ op))


def _stacked(system: GFrameSystem, family: Family) -> AdjointableOperator:
    """A family on the system's atoms as one map into its weighted direct sum."""
    return family.scaled(np.sqrt(system.measure.weights)).stack


def _components(system: GFrameSystem, t: AdjointableOperator) -> Family:
    """The family whose map into the system's weighted direct sum is t."""
    return system.stacked_family.with_stack(t).scaled(1.0 / np.sqrt(system.measure.weights))


def _composed(system: GFrameSystem, right: AdjointableOperator) -> GFrameSystem:
    """The system with every member precomposed with ``right``."""
    return system.with_family(system.stacked_family @ right)


def _right_inverse(t: AdjointableOperator, s_inv: AdjointableOperator,
                   k: AdjointableOperator, theta: AdjointableOperator) -> AdjointableOperator:
    """R_0 + N theta = t S^-1 (K^-1 - t* theta) + theta, the right inverses of K t*.

    R_0 = t S^-1 K^-1 and N = I - t S^-1 t*.  N lives on the weighted direct
    sum, so it is applied, never formed: every intermediate is n x n or n x N.
    """
    return t @ (s_inv @ (k.inverse() - t.adjoint() @ theta)) + theta


def _uncontrolled(system: GFrameSystem) -> GFrameSystem:
    identity = AdjointableOperator.identity(system.descriptor, system.module_rank)
    return system.with_controls(identity, identity)


def _scale_first_member(system: GFrameSystem, factor: float = 2.0) -> GFrameSystem:
    family = system.stacked_family
    return system.with_family(family.scaled([factor] + [1.0] * (len(family.ranks) - 1)))


def _bump_control(system: GFrameSystem, draw: _Draws, generated: bool) -> GFrameSystem:
    """Add a positive bump to C that breaks its commutation with C' and the family.

    A generated instance on which every operator commutes is first redrawn at
    rank 2 over M_2.
    """
    if generated and system.module_rank * channel_layout(system.descriptor)[1] < 2:
        system = draw(rank=2, dim=2)
    r = rand_operator(system.descriptor, system.module_rank, system.module_rank,
                      _rng(draw.seed, 9999))
    bump = (0.4 / max(1.0, r.norm() ** 2)) * (r.adjoint() @ r)
    return system.with_controls(system.controls.C + bump, system.controls.Cp)


def _describe(system: GFrameSystem, generated: bool) -> dict:
    return {"generated": generated,
            "algebra": {"kind": system.descriptor.kind, "dim": system.descriptor.dim},
            "module_rank": system.module_rank, "atoms": len(system.measure.labels)}


@dataclass
class _Row:
    """What a row body sees: its report, its instance and the run settings."""

    report: TheoremReport
    system: Optional[GFrameSystem]
    draw: _Draws
    tol: float
    aux: Optional[Mapping[str, AdjointableOperator]]
    mutant: Optional[str]
    bounds: Optional[FrameBounds] = None

    @property
    def seed(self) -> int:
        return self.draw.seed

    def require(self, *lines) -> None:
        """Record hypothesis lines; end the row if one failed (``TheoremReport.require``)."""
        self.report.require(*lines)

    def conclude(self, *lines) -> None:
        self.report.conclude(*lines)

    def frame_hypotheses(self, system: GFrameSystem, commuting: bool = True,
                         lines: tuple = ()) -> FrameBounds:
        """Require ``lines``, the commutation flags (when asked) and the frame property."""
        self.require(*lines, *(_commute_lines(system) if commuting else ()))
        bounds = self.scalar_bounds(system, "frame operator self-adjoint positive")
        self.require(frame_line("frame property (positive lower bound)", bounds))
        self.report.info["scalar_bounds"] = [bounds.scalar_lower, bounds.scalar_upper]
        return bounds

    def scalar_bounds(self, system: GFrameSystem, name: str) -> FrameBounds:
        """Optimal scalar bounds; when they do not apply, the failed hypothesis ``name``."""
        try:
            return optimal_scalar_bounds(system, self.tol)
        except UnsupportedConfigurationError:
            self.require((name, False, 1.0))

    def bounded_below(self, name: str, op: AdjointableOperator) -> tuple:
        """Require a smallest singular value above tol; return (smallest, largest)."""
        low, high = _singular_range(op)
        self.require((name, low > self.tol, low))
        return low, high

    def operator(self, key: str, fallback: Callable) -> AdjointableOperator:
        """The auxiliary operator ``key`` when supplied, else ``fallback()``; info says which."""
        supplied = bool(self.aux) and key in self.aux
        self.report.info.setdefault("aux_supplied" if supplied else "aux_generated", []).append(key)
        return self.aux[key] if supplied else fallback()

    def invertible(self, key: str, salt: int, rank: Optional[int] = None) -> AdjointableOperator:
        """Auxiliary ``key``, by default a seeded invertible operator on A^rank (A^n)."""
        return self.operator(key, lambda: rand_invertible_operator(
            self.system.descriptor, rank or self.system.module_rank, _rng(self.seed, salt)))

    def checked(self, k: AdjointableOperator) -> AdjointableOperator:
        """The companion operator as the conclusions see it: doubled by the wrong_k mutant."""
        return 2.0 * k if self.mutant == WRONG_K else k


class _Draws:
    """The seeded commuting random systems of one invocation, each drawn once.

    ``draw(**options)`` is ``random_system(seed, commuting=True, **options)``,
    and the same options return the same system.  Open one per invocation
    and drop it with the invocation, so that no drawn system is kept between
    invocations.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._systems: dict = {}

    def __call__(self, **options) -> GFrameSystem:
        key = tuple(sorted(options.items()))
        if key not in self._systems:
            self._systems[key] = random_system(self.seed, commuting=True, **options)
        return self._systems[key]


def _drawn(**options) -> Callable[[_Draws], GFrameSystem]:
    """Default instance: the seeded commuting random system with these options."""
    return lambda draw: draw(**options)


def _repeated_control(draw: _Draws) -> GFrameSystem:
    base = draw()
    return base.with_controls(base.controls.C, base.controls.C)


_ROWS: dict = {}
_COMMUTING, _PLAIN = "commuting", "plain"


def _row(theorem_id: str, instance: Optional[Callable] = _drawn(scalar_controls=True),
         frame: Optional[str] = _COMMUTING, same_control: bool = False,
         breaks: Optional[Callable] = None):
    """Register a row body under ``theorem_id``.

    ``instance(draw)`` draws the default system (None: the body builds its
    own); ``breaks(system, draw, generated)`` applies ``break_commutation``;
    ``same_control`` requires C = C'; ``frame`` selects the frame hypotheses
    in their commuting form, their plain form, or none.
    """
    def register(body: Callable[[_Row], None]):
        def run(system, draw, tol, aux, mutant) -> TheoremReport:
            row = _Row(TheoremReport(theorem_id, tolerance=tol, seed=draw.seed), system, draw,
                       tol, aux, mutant)
            with row.report.gate():
                if instance is not None:
                    generated = system is None
                    system = instance(draw) if generated else system
                    if breaks is not None and mutant == BREAK_COMMUTATION:
                        system = breaks(system, draw, generated)
                    row.system = system
                    row.report.info["instance"] = _describe(system, generated)
                    lines = ((("single repeated control", system.controls_equal,
                               (system.controls.C - system.controls.Cp).norm()),)
                             if same_control else ())
                    if frame is None:
                        row.require(*lines)
                    else:
                        row.bounds = row.frame_hypotheses(system, frame == _COMMUTING, lines)
                body(row)
            return row.report

        _ROWS[theorem_id] = run
        return body
    return register


@_row("T2.3", _drawn(pad_outputs=True))
def _transform(row: _Row) -> None:
    """Transform row: injectivity, closed range, norm bound, surjective adjoint."""
    system, tol, bounds = row.system, row.tol, row.bounds
    if row.mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
    t, s = system.analysis_operator, system.frame_operator
    scale = tolerance_scale(s.norm())
    sigma_min, sigma_max = _singular_range(t)
    row.conclude(within("transform factorizes the frame operator", _rel_op(t.adjoint() @ t, s),
                        10 * tol),
                 ("injective with closed range", sigma_min > tol * scale, 0.0),
                 gap("norm bounded by the upper frame bound", sigma_max - bounds.scalar_upper,
                     tol * tolerance_scale(bounds.scalar_upper)),
                 gap("adjoint surjective (bounded below)", bounds.scalar_lower - sigma_min,
                     tol * scale))


def _spectral_conclusions(row: _Row, op: AdjointableOperator) -> None:
    """Self-adjoint, positive, invertible.

    Boundedness needs no line: op's norm is finite once it is returned, since
    ``finite_spectrum`` raises a DomainError on a spectrum that is not.
    """
    tol, scale = row.tol, tolerance_scale(op.norm())
    eigs = op.eigenvalues_hermitian()
    row.conclude(within("self-adjoint", op.hermitian_defect() / scale, 10 * tol),
                 gap("positive", -float(eigs[0]) / scale, 10 * tol),
                 ("invertible", eigs[0] > tol * scale, 0.0))


@_row("FO-PROPS", _drawn(), breaks=_bump_control)
def _frame_operator_props(row: _Row) -> None:
    """Frame operator is bounded, positive, self-adjoint, invertible, norm-sandwiched."""
    system, bounds = row.system, row.bounds
    if row.mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
    _spectral_conclusions(row, system.frame_operator)
    certify_window(row.report, system, bounds.scalar_lower, bounds.scalar_upper, row.tol,
                   "frame operator within the squared bounds")


@_row("SCC-PROPS", _drawn(), breaks=_bump_control)
def _scc_props(row: _Row) -> None:
    """Synthesis-after-analysis equals the frame operator and shares its properties."""
    composed = row.system.synthesis_operator @ row.system.analysis_operator
    row.conclude(within("factorization matches block assembly",
                        _rel_op(composed, row.system.frame_operator), 10 * row.tol))
    _spectral_conclusions(row, composed)


def _equal_controls_instance(draw: _Draws) -> GFrameSystem:
    base = draw()
    c = rand_positive_operator(base.descriptor, base.module_rank, _rng(draw.seed, 1), shift=0.6)
    return base.with_controls(c, c)


@_row("T-T3", _equal_controls_instance, frame=None, same_control=True)
def _equal_controls_equivalence(row: _Row) -> None:
    """Frame with and without one repeated control, with transported bounds."""
    system, tol = row.system, row.tol
    c, plain = system.controls.C, _uncontrolled(system)
    bounds_c, bounds_plain = optimal_scalar_bounds(system, tol), optimal_scalar_bounds(plain, tol)
    row.require(frame_line("controlled system is a frame", bounds_c),
                frame_line("plain system is a frame", bounds_plain))
    norm_c, norm_c_inv = c.norm(), c.inverse().norm()
    certify_window(row.report, plain, bounds_c.scalar_lower / norm_c,
                   bounds_c.scalar_upper * norm_c_inv, tol, "controlled-to-plain bounds certified")
    certify_window(row.report, system, bounds_plain.scalar_lower / norm_c_inv,
                   bounds_plain.scalar_upper * norm_c, tol, "plain-to-controlled bounds certified")


@_row("T-TT", _drawn())
def _transform_bounds(row: _Row) -> None:
    """Optimal scalar frame bounds coincide with the transform's spectral data."""
    system, tol = row.system, row.tol
    s = system.frame_operator
    scale = tolerance_scale(s.norm())
    eigs = s.eigenvalues_hermitian()
    upper_defect = abs(system.analysis_operator.norm() ** 2 - float(eigs[-1])) / scale
    lower_defect = abs(1.0 / s.inverse().norm() - float(eigs[0])) / scale
    row.conclude(within("upper bound is the squared transform norm", upper_defect, 100 * tol),
                 within("lower bound is the inverse-norm reciprocal", lower_defect, 100 * tol))


@_row("BESSEL-COMP", frame=None)
def _bessel_composition(row: _Row) -> None:
    """Composing a Bessel family with the adjoints of another stays Bessel."""
    system, tol = row.system, row.tol
    rng, family = _rng(row.seed, 2), system.stacked_family
    second = family.with_stack(stack([rand_operator(system.descriptor, system.module_rank, m, rng)
                                      for m in family.ranks]))
    sys_gamma = system.with_family(second)
    b_lam = row.scalar_bounds(system, "first family Bessel")
    b_gam = row.scalar_bounds(sys_gamma, "second family Bessel")
    sup_lam = float(family.member_norms().max())
    b1 = max(b_lam.scalar_upper, sup_lam)
    composed = {label: op.adjoint() @ second.members[label]
                for label, op in system.family.items()}
    certify_window(row.report, sys_gamma.with_family(composed), 0.0, b1 * b_gam.scalar_upper,
                   tol, "composed family Bessel with the product bound")
    row.report.info["bessel_constants"] = [b1, b_gam.scalar_upper]


@_row("TH-SURJ", _drawn(pad_outputs=True), frame=None)
def _surjective_synthesis(row: _Row) -> None:
    """A surjective plain synthesis map forces the frame property."""
    system, tol = row.system, row.tol
    theta = _stacked(system, system.stacked_family).adjoint()
    sigma, _ = row.bounded_below("synthesis map surjective", theta)
    row.require(*_commute_lines(system))
    bounds = optimal_scalar_bounds(system, tol)
    mixed = (system.controls.Cp @ system.controls.C).eigenvalues_hermitian()
    row.conclude(frame_line("controlled system is a frame", bounds))
    certify_window(row.report, system, sigma * float(np.sqrt(max(mixed[0], 0.0))),
                   bounds.scalar_upper, tol, "lower bound above the surjectivity constant")
    row.report.info["surjectivity_constant"] = sigma


@_row("F-KT", frame=_PLAIN)
def _surjective_composition(row: _Row) -> None:
    """Surjectivity of the cross Gram map transfers the frame property."""
    system, tol = row.system, row.tol
    r = rand_invertible_operator(system.descriptor, system.module_rank, _rng(row.seed, 3))
    family = system.stacked_family
    gamma = family @ r
    f_op = family.weighted_sum(system.measure.weights, right=gamma)
    row.bounded_below("cross Gram map surjective", f_op)
    k_op = _stacked(system, gamma).adjoint()
    row.conclude(within("factors through plain transform and synthesis",
                        _rel_op(f_op, k_op @ _stacked(system, family)), 10 * tol),
                 frame_line("second family is a frame", row.scalar_bounds(
                     system.with_family(gamma), "scalar bounds apply to the second family")))


def _atoms(rng: np.random.Generator, count: int) -> MeasureSpace:
    weights = rng.uniform(0.3, 1.2, size=count)
    return MeasureSpace(atom_labels(count), weights)


def _rank_two_system(desc: AlgebraDescriptor, rng: np.random.Generator,
                     entry: Callable) -> GFrameSystem:
    """Three atoms, members on A^2 with block (i, j) = entry(i, j), scalar controls."""
    measure = _atoms(rng, 3)
    family = {label: AdjointableOperator.from_blocks(desc, [[entry(i, j) for j in range(2)]
                                                           for i in range(2)])
              for label in measure.labels}
    c, cp = (AdjointableOperator.scalar(desc, 2, float(rng.uniform(0.6, 1.5))) for _ in "cc")
    return GFrameSystem(measure, family, c, cp)


def _hom_instances(draw: _Draws) -> list:
    """Three transport classes: identity, unitary conjugation, entry permutation.

    Each class is (name, system, phi) with phi an algebra morphism acting on
    the trailing element axes, so that it maps stacks of algebra values and,
    block by block, operator blocks (the intertwiner on their module vectors).
    """
    rng = _rng(draw.seed, 4)
    base = draw(scalar_controls=True)
    q, r = np.linalg.qr(complex_gaussian(rng, (2, 2)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def unitary_entry(i, j):
        c0, c1, c2 = complex_gaussian(rng, (3,))
        return 0.9 * float(i == j) * np.eye(2) + c0 * np.eye(2) + c1 * u + c2 * (u @ u)

    def permutation_entry(i, j):
        z, w = complex_gaussian(rng, (2,))
        return np.array([z, z, w]) + (1.0 if i == j else 0.0)

    sys_u = _rank_two_system(AlgebraDescriptor(MATRIX, 2), rng, unitary_entry)
    sys_p = _rank_two_system(AlgebraDescriptor(DIAGONAL, 3), rng, permutation_entry)
    perm = np.array([1, 0, 2])
    return [("identity", base, lambda a: a),
            ("unitary", sys_u, lambda a: u @ a @ u.conj().T),
            ("permutation", sys_p, lambda a: a[..., perm])]


@_row("HOM-TRANSPORT", instance=None, frame=None)
def _hom_transport(row: _Row) -> None:
    """Frame data transported through an algebra morphism with an intertwiner.

    The identities are (sesqui)linear over C, so the C-basis of A^n decides
    them: all basis pairs, and the Gram identity through its polarization.
    """
    tol = row.tol
    row.report.info["instance"] = {"generated": True,
                                   "classes": ["identity", "unitary", "permutation"]}
    for name, system, phi in _hom_instances(row.draw):
        bounds = optimal_scalar_bounds(system, tol)
        row.require(frame_line(f"{name}: frame property", bounds))
        desc, n, s = system.descriptor, system.module_rank, system.frame_operator
        size = n * desc.entry_count
        # Row i of ``basis`` is the i-th basis vector e_i, so block (i, j) of
        # basis* T basis is <T e_i, e_j>: all basis pairs, with no pair stack.
        blocks = np.eye(size).reshape((size, n) + desc.shape)
        basis, moved = (AdjointableOperator.from_blocks(desc, b) for b in (blocks, phi(blocks)))

        def worst(a, b):  # the blocks of a against phi of the blocks of b
            return float(element_norms(desc, a.blocks - phi(b.blocks)).max())

        def transported(op):  # <op phi e_i, phi e_j> against phi <op e_i, e_j>
            return worst(moved.adjoint() @ op @ moved, basis.adjoint() @ op @ basis)

        family = system.stacked_family.stack
        row.require(within(f"{name}: inner products intertwined",
                           transported(AdjointableOperator.identity(desc, n)), 100 * tol),
                    within(f"{name}: intertwiner commutes with the family",
                           worst(family @ moved, family @ basis), 100 * tol))
        row.conclude(
            within(f"{name}: transported Gram identity", transported(system.gram_operator),
                   100 * tol),
            within(f"{name}: transported frame-operator pairing", transported(s), 100 * tol))


def _certify_transported(row: _Row, system: GFrameSystem, low: float, high: float) -> None:
    """Certify the row's frame bounds scaled by a factor's extreme singular values."""
    certify_window(row.report, system, row.bounds.scalar_lower * low,
                   row.bounds.scalar_upper * high, row.tol,
                   "composed family certified with transported bounds")


def _commuting_factor(row: _Row, key: str, salt: int, invertible: str, commutes: str) -> tuple:
    """Auxiliary factor required invertible and commuting with the controls."""
    theta = row.invertible(key, salt)
    low, high = row.bounded_below(invertible, theta)
    row.require(within(commutes, _control_commutation(theta, row.system), 100 * row.tol))
    return theta, low, high


@_row("LEFT-COMP", frame=_PLAIN)
def _left_composition(row: _Row) -> None:
    """Composing every member on the left with an invertible map keeps the frame."""
    system = row.system
    row.require(_uniform_rank_line(system))
    theta = row.invertible("theta_left", 6, system.stacked_family.ranks[0])
    low, high = row.bounded_below("left factor invertible", theta)
    left = system.with_family({label: theta @ op for label, op in system.family.items()})
    _certify_transported(row, left, low, high)


@_row("RIGHT-COMP", frame=_PLAIN)
def _right_composition(row: _Row) -> None:
    """Precomposition with an invertible map conjugates the frame operator."""
    system = row.system
    theta, low, high = _commuting_factor(row, "theta_right", 7, "right factor invertible",
                                         "right factor commutes with controls")
    conjugated = theta.adjoint() @ system.frame_operator @ theta
    if row.mutant == SCALE_MEMBER:
        system = _scale_first_member(system)
    new_sys = _composed(system, theta)
    row.conclude(within("new frame operator is the conjugated one",
                        _rel_op(new_sys.frame_operator, conjugated), 100 * row.tol))
    _certify_transported(row, new_sys, low, high)


@_row("DUAL-SIM")
def _dual_similarity(row: _Row) -> None:
    """Duals of the Q*-composed family correspond to duals of the family via Q."""
    system, tol = row.system, row.tol
    q = row.invertible("Q", 8)
    row.bounded_below("similarity operator invertible", q)
    sys_q = _composed(system, q.adjoint())
    s_q_inv, s_inv = sys_q.frame_operator.inverse(), system.frame_operator.inverse()
    forward = sys_q.stacked_family @ s_q_inv @ q
    backward = system.stacked_family @ s_inv @ q.inverse()
    row.conclude(
        within("dual of the composed family transfers back",
               _identity_residual(reconstruction_operator(system, forward)), 100 * tol),
        within("dual of the family transfers forward",
               _identity_residual(reconstruction_operator(sys_q, backward)), 100 * tol))


@_row("EQ-FRAME-OP")
def _equal_frame_operator(row: _Row) -> None:
    """Similarity by S1^(1/2) S2^(-1/2) matches the two frame operators."""
    system = row.system
    r = rand_invertible_operator(system.descriptor, system.module_rank, _rng(row.seed, 9))
    sys_gamma = _composed(system, r)
    name = "second family is a frame"
    row.require(frame_line(name, row.scalar_bounds(sys_gamma, name)))
    s_lam = system.frame_operator
    q = s_lam.sqrt_positive() @ sys_gamma.frame_operator.inverse().sqrt_positive()
    matched = _composed(sys_gamma, q.adjoint())
    row.conclude(within("similar family reproduces the first frame operator",
                        _rel_op(matched.frame_operator, s_lam), 100 * row.tol))


@_row("OP-DUAL-CORR")
def _operator_dual_correspondence(row: _Row) -> None:
    """Operator duals move across Q*-composition with conjugated companion operators."""
    system, tol = row.system, row.tol
    k, q = row.invertible("K", 10), row.invertible("Q", 11)
    row.bounded_below("companion operator invertible", k)
    row.bounded_below("similarity operator invertible", q)
    s_inv, k_inv = system.frame_operator.inverse(), k.inverse()
    gamma = system.stacked_family @ s_inv @ k_inv
    row.require(within("operator dual identity holds",
                       _identity_residual(reconstruction_operator(system, gamma, k)), 100 * tol))
    k_checked = row.checked(k)
    q_adj, q_inv = q.adjoint(), q.inverse()
    sys_q = _composed(system, q_adj)
    gamma_q = gamma @ q_adj
    forward = reconstruction_operator(sys_q, gamma_q, q_adj.inverse() @ k_checked @ q_inv)
    s_q_inv = sys_q.frame_operator.inverse()
    back = sys_q.stacked_family @ s_q_inv @ k_inv @ q_adj
    backward = reconstruction_operator(system, back, q_adj.inverse() @ k_checked @ q)
    row.conclude(within("transferred dual with conjugated operator",
                        _identity_residual(forward), 100 * tol),
                 within("converse transfer with conjugated operator",
                        _identity_residual(backward), 100 * tol))


def _block_diagonal(top: AdjointableOperator, bottom: AdjointableOperator) -> AdjointableOperator:
    (count, rows, cols), (_, more_rows, more_cols) = top.channels.shape, bottom.channels.shape
    chans = np.zeros((count, rows + more_rows, cols + more_cols), dtype=np.complex128)
    chans[:, :rows, :cols], chans[:, rows:, cols:] = top.channels, bottom.channels
    return AdjointableOperator(top.descriptor, chans)


def _block_diag_system(seed: int) -> tuple:
    """Frame whose members and companions respect a 2 + 1 coordinate split."""
    rng = _rng(seed, 12)
    kind = MATRIX if rng.integers(2) else DIAGONAL
    d = int(rng.integers(1, 3)) if kind == MATRIX else int(rng.integers(2, 4))
    desc = AlgebraDescriptor(kind, d)
    n, r = 3, 2
    h_top = rand_positive_operator(desc, r, rng, shift=0.5)
    h_bot = rand_positive_operator(desc, n - r, rng, shift=0.5)
    measure = _atoms(rng, 4)
    # Each atom draws (a, b) for its top block, then for its bottom one; its
    # blocks are the roots of a h + b I, one eigendecomposition per h.
    rows = [(float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.3, 0.8)))
            for _ in range(2 * len(measure.labels))]
    tops = h_top.positive_roots([(b, a) for a, b in rows[0::2]])
    bots = h_bot.positive_roots([(b, a) for a, b in rows[1::2]])
    family = {label: _block_diagonal(top, bot) for label, top, bot in zip(measure.labels, tops, bots)}
    c, cp = (AdjointableOperator.scalar(desc, n, float(rng.uniform(0.6, 1.4))) for _ in "cc")
    k = _block_diagonal(rand_invertible_operator(desc, r, rng),
                        rand_invertible_operator(desc, n - r, rng))
    return GFrameSystem(measure, family, c, cp), k, r


@_row("SUBMODULE", instance=None, frame=None)
def _submodule(row: _Row) -> None:
    """Restriction to an orthogonally complemented submodule."""
    tol = row.tol
    sys_full, k, r = _block_diag_system(row.seed)
    desc, n = sys_full.descriptor, sys_full.module_rank
    if row.mutant == BREAK_COMMUTATION:  # couple the first member across the split
        family = sys_full.stacked_family
        blocks = family.stack.blocks.copy()  # the first member's columns come first
        blocks[0, r] = 0.5 * AlgebraElement.one(desc).data
        coupled = AdjointableOperator.from_blocks(desc, blocks)
        sys_full = sys_full.with_family(family.with_stack(coupled))
    row.report.info["instance"] = _describe(sys_full, True)
    row.report.info["submodule_rank"] = r
    row.frame_hypotheses(sys_full)
    s_inv = sys_full.frame_operator.inverse()
    inclusion = AdjointableOperator(  # the first r coordinates of A^n
        desc, AdjointableOperator.identity(desc, n).channels[:, :r * channel_layout(desc)[1]])
    projection = inclusion.adjoint()
    sys_r = GFrameSystem(sys_full.measure, sys_full.stacked_family @ inclusion,
                         projection @ sys_full.controls.C @ inclusion,
                         projection @ sys_full.controls.Cp @ inclusion)
    s_r_inv_p = sys_r.frame_operator.inverse() @ projection
    family = sys_full.stacked_family

    def split_defect(op):  # P X against (P X i) P: zero when X preserves the split
        return _rel_op(projection @ op, (projection @ op @ inclusion) @ projection)

    row.require(
        within("family respects the submodule split",
               max(split_defect(op.adjoint() @ op) for op in sys_full.family.values()), 100 * tol),
        within("companion operator preserves the submodule", split_defect(k), 100 * tol),
        within("restricted inverse intertwines the members",  # ||X L_w*|| = ||L_w X*||
               _rel_members(family @ s_r_inv_p.adjoint(), family @ (projection @ s_inv).adjoint()),
               1e-6))
    k_inv = k.inverse()
    gamma = family @ s_inv @ k_inv
    row.require(within("operator dual identity on the full module",
                       _identity_residual(reconstruction_operator(sys_full, gamma, k)), 100 * tol))
    gamma_r = gamma @ inclusion
    restricted = reconstruction_operator(sys_r, gamma_r, projection @ k @ inclusion)
    row.conclude(frame_line("restricted family is a frame for the submodule",
                            optimal_scalar_bounds(sys_r, tol)),
                 within("restricted dual reconstructs on the submodule",
                        _identity_residual(restricted), 1e-6),
                 within("restricted inverse agrees with the projected inverse",
                        _rel_op(s_r_inv_p, projection @ s_inv), 1e-6))


@_row("T33")
def _mutual_duality(row: _Row) -> None:
    """A single reconstruction identity makes two Bessel families operator duals."""
    system, tol = row.system, row.tol
    k, s_inv = row.invertible("K", 13), system.frame_operator.inverse()
    k_inv = k.inverse()
    gamma = system.stacked_family @ s_inv @ k_inv
    sys_gamma = system.with_family(gamma)
    gamma_bounds = row.scalar_bounds(sys_gamma, "both families Bessel")
    row.require(within("reconstruction identity",
                       _identity_residual(reconstruction_operator(system, gamma, k)), 100 * tol))
    floor = _singular_range(k_inv)[0] / system.analysis_operator.norm()
    certify_window(row.report, sys_gamma, floor, gamma_bounds.scalar_upper, tol,
                   "second family frame with the derived lower bound")
    converse = reconstruction_operator(sys_gamma, system.stacked_family, row.checked(k).adjoint())
    row.conclude(within("first family is a dual with the adjoint companion",
                        _identity_residual(converse), 100 * tol))


@_row("T55", _repeated_control, same_control=True)
def _right_inverse_characterization(row: _Row) -> None:
    """All right inverses of K T* arise from one particular inverse plus a kernel part.

    R(theta) = R_0 + N theta is affine, so K T* R(theta) = I for every theta
    exactly when K T* R_0 = I and K T* N = 0.
    """
    system, tol, k = row.system, row.tol, row.invertible("K", 14)
    row.bounded_below("companion operator invertible", k)
    t, s = system.analysis_operator, system.frame_operator
    row.require(within("transform factorizes the frame operator", _rel_op(t.adjoint() @ t, s),
                       100 * tol))
    s_inv, kt_star = s.inverse(), row.checked(k) @ t.adjoint()
    kts = kt_star @ t @ s_inv  # K t* R_0 = kts K^-1 and K t* N = K t* - kts t*, n x N
    worst = max(_identity_residual(kts @ k.inverse()), (kt_star - kts @ t.adjoint()).norm())
    g_ls = _least_squares_inverse(k @ t.adjoint())
    row.conclude(within("constructed right inverses verified", worst, max(1e-9, 100 * tol)),
                 within("least-squares right inverse verified",
                        _identity_residual(kt_star @ g_ls), max(1e-9, 100 * tol)),
                 within("least-squares inverse decomposes into the stated form",
                        _rel_op(g_ls, _right_inverse(t, s_inv, k, g_ls)), 1e-8))


def _least_squares_inverse(op: AdjointableOperator) -> AdjointableOperator:
    """op's Moore-Penrose inverse, channel by channel, or a DomainError.

    ``np.linalg.pinv`` does not return on a complex stack that holds an
    infinity, so op's entries are tested before it runs, and
    ``finite_spectrum`` tests its result.
    """
    if not np.isfinite(op.channels).all():
        raise DomainError("least-squares inverse needs finite entries")
    return AdjointableOperator(op.descriptor, finite_spectrum(np.linalg.pinv, op.channels))


def _central_element(descriptor: AlgebraDescriptor, rng: np.random.Generator) -> AlgebraElement:
    if descriptor.kind == MATRIX:
        z = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        return AlgebraElement.scalar(descriptor, z)
    mags = rng.uniform(0.5, 1.5, size=descriptor.dim)
    return AlgebraElement(descriptor, mags * np.exp(2j * np.pi * rng.uniform(size=descriptor.dim)))


@_row("MIDPOINT-DUAL")
def _midpoint_dual(row: _Row) -> None:
    """Averaging a dual with the companion-corrected canonical dual stays a dual."""
    system, k = row.system, row.invertible("K", 16)
    desc, n = system.descriptor, system.module_rank
    s_inv, t = system.frame_operator.inverse(), system.analysis_operator
    k_tilde = k @ system.mixed_control_root.inverse()
    theta_free = rand_operator(desc, n, t.out_rank, _rng(row.seed, 17))
    gamma = _components(system, _right_inverse(t, s_inv, k, theta_free))
    row.require(within("starting family is an operator dual",
                       _identity_residual(reconstruction_operator(system, gamma, k_tilde)), 1e-6))
    v = _central_element(desc, _rng(row.seed, 18))
    canonical = system.stacked_family @ s_inv @ k_tilde.inverse()
    midpoint = gamma.with_stack((gamma.stack + canonical.stack).times_central(v))
    companion = 0.5 * row.checked(k_tilde).times_central(v.invert())
    row.conclude(within("midpoint family is an operator dual with the halved companion",
                        _identity_residual(reconstruction_operator(system, midpoint, companion)),
                        1e-6))


@_row("T12", _drawn(scalar_controls=True, pad_outputs=True), frame=None)
def _bessel_parametrization(row: _Row) -> None:
    """Bessel families are exactly the componentwise restrictions of one map."""
    system, tol = row.system, row.tol
    stacked = _stacked(system, system.stacked_family)
    row.conclude(within("family recovered from its own transform",
                        _rel_members(_components(system, stacked), system.stacked_family),
                        10 * tol))
    theta = row.operator("theta", lambda: rand_operator(system.descriptor, system.module_rank,
                                                        stacked.out_rank, _rng(row.seed, 19)))
    if theta.out_rank != stacked.out_rank:
        row.require(("free map has matching total rank", False, 1.0))
    components = system.with_family(_components(system, theta))
    upper = row.scalar_bounds(components, "component family Bessel").scalar_upper
    cap = theta.norm() * float(np.sqrt(system.controls.C.norm() * system.controls.Cp.norm()))
    certify_window(row.report, components, 0.0, cap, tol,
                   "component family Bessel with the norm cap")
    row.report.info["bessel_cap"] = [upper, cap]


@_row("T66", _drawn())
def _right_inverse_dual(row: _Row) -> None:
    """A right inverse of K T* restricts componentwise to an operator dual."""
    system, k = row.system, row.invertible("K", 20)
    t = system.analysis_operator
    theta_free = rand_operator(system.descriptor, system.module_rank, t.out_rank,
                               _rng(row.seed, 21))
    theta = _right_inverse(t, system.frame_operator.inverse(), k, theta_free)
    row.require(within("map is a right inverse of the companion-composed synthesis",
                       _identity_residual((k @ t.adjoint()) @ theta), 1e-6))
    family = _components(system, theta)
    k_corrected = k @ system.mixed_control_root.inverse()
    row.conclude(within("component family is an operator dual with the corrected companion",
                        _identity_residual(reconstruction_operator(system, family,
                                                                   row.checked(k_corrected))),
                        1e-6))
    nominal = _identity_residual(reconstruction_operator(system, family, k))
    row.report.info["nominal_companion_residual"] = nominal
    row.report.info["nominal_companion_matches"] = bool(nominal <= 1e-6)


@_row("DUAL-PARAM", _repeated_control, same_control=True)
def _dual_parametrization(row: _Row) -> None:
    """Every operator dual is the stated combination of the family and a Bessel family."""
    system = row.system
    row.require(_uniform_rank_line(system))
    desc, n = system.descriptor, system.module_rank
    k, c, s_inv = row.invertible("K", 22), system.controls.C, system.frame_operator.inverse()
    rng = _rng(row.seed, 23)
    family = system.stacked_family
    bessel = family.with_stack(stack([rand_operator(desc, n, m, rng) for m in family.ranks]))
    t, bessel_c = system.analysis_operator, bessel @ c
    constructed = _components(system, _right_inverse(t, s_inv, k, _stacked(system, bessel_c)))
    cross = c @ bessel.weighted_sum(system.measure.weights, right=family) @ c
    tail = c @ s_inv @ (k.inverse() - cross)
    formula = family.with_stack((family @ tail).stack + bessel_c.stack)
    replay = _components(system, _right_inverse(t, s_inv, k, _stacked(system, constructed)))
    row.conclude(
        within("construction matches the displayed formula",
               _rel_members(constructed, formula), 1e-6),
        within("constructed family is an operator dual",
               _identity_residual(reconstruction_operator(system, constructed, k @ c.inverse())),
               1e-6),
        within("given dual reproduces itself through the parametrization",
               _rel_members(replay, constructed), 1e-6))


@_row("ANY-FRAME-CONTROLLED", _drawn(), frame=None)
def _any_frame_controlled(row: _Row) -> None:
    """A plain frame stays a frame under any commuting positive invertible controls."""
    system, tol = row.system, row.tol
    plain = optimal_scalar_bounds(_uncontrolled(system), tol)
    row.require(frame_line("plain system is a frame", plain), *_commute_lines(system))
    controlled = optimal_scalar_bounds(system, tol)
    mixed = np.sqrt(np.maximum(
        (system.controls.Cp @ system.controls.C).eigenvalues_hermitian(), 0.0))
    row.conclude(frame_line("controlled system is a frame", controlled))
    certify_window(row.report, system, plain.scalar_lower * float(mixed[0]),
                   plain.scalar_upper * float(mixed[-1]), tol,
                   "controlled bounds within the spectral floor and cap")
    norms = system.controls.C.norm() * system.controls.Cp.norm()
    nominal = [plain.scalar_lower * norms, plain.scalar_upper * norms]
    row.report.info["nominal_bounds"] = nominal
    row.report.info["nominal_bounds_certify"] = bool(
        nominal[0] ** 2 <= controlled.scalar_lower ** 2 + tol
        and controlled.scalar_upper ** 2 <= nominal[1] ** 2 + tol)


@_row("LAMBDA-T", frame=_PLAIN)
def _invertible_precomposition(row: _Row) -> None:
    """Precomposition with an invertible map commuting with the controls."""
    t_op, low, high = _commuting_factor(row, "T", 24, "factor invertible",
                                        "factor commutes with the controls")
    _certify_transported(row, _composed(row.system, t_op), low, high)


THEOREM_IDS = tuple(_ROWS)


def known_theorem_id(theorem_id: str) -> str:
    """``theorem_id`` when a row is registered under it, else an InputError listing the ids."""
    if theorem_id not in _ROWS:
        raise InputError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    return theorem_id


def verify_theorem(theorem_id: str, system: Optional[GFrameSystem] = None, seed: int = 0,
                   tol: float = DEFAULT_TOL,
                   aux: Optional[Mapping[str, AdjointableOperator]] = None,
                   mutant: Optional[str] = None, *,
                   draws: Optional[_Draws] = None) -> TheoremReport:
    """Run one theorem row and return its report.

    ``draws`` shares the seeded instances of one invocation between its rows;
    by default the row draws its own.
    """
    run = _ROWS[known_theorem_id(theorem_id)]
    if mutant is not None and mutant not in MUTANTS:
        raise InputError(f"unknown mutant {mutant!r}")
    if draws is None:
        draws = _Draws(seed)
    elif draws.seed != seed:
        raise ValueError(f"draws for seed {draws.seed} passed to a row with seed {seed}")
    return run(system, draws, tol, aux, mutant)

"""Seeded commuting systems: members from one eigendecomposition of the seed operator.

The reference below is the per-atom draw, reproduced with the library's own
operators: p_w(h) composed from h and h^2, then one square root per atom.
The generator must give the same labels, weights, ranks and controls bit for
bit, and the same members to rounding.
"""

import numpy as np
import pytest

from gframe.algebra import DEFAULT_TOL, DIAGONAL, MATRIX, AlgebraDescriptor, polynomial_roots
from gframe.errors import DomainError
from gframe.generate import random_system
from gframe.hilbert import AdjointableOperator
from gframe.measure import atom_labels
from gframe.sampling import rand_operator, rand_positive_operator, rand_unitary_operator

SEEDS = range(40)
OPTIONS = [{}, {"pad_outputs": True}, {"scalar_controls": True}, {"algebra": "diagonal"},
           {"algebra": "matrix", "dim": 3}]
OPTION_IDS = ["default", "pad_outputs", "scalar_controls", "diagonal", "matrix-dim3"]


def _reference(seed, rank=None, atoms=None, algebra=None, dim=None, scalar_controls=False,
               pad_outputs=False):
    """The per-atom commuting draw: labels, weights, members, C, C' and each atom's p_w(h)."""
    rng = np.random.default_rng(seed)
    if algebra is None:
        algebra = MATRIX if rng.integers(2) else DIAGONAL
    if dim is None:
        dim = int(rng.integers(1, 4))
    if rank is None:
        rank = int(rng.integers(1, 5))
    if atoms is None:
        atoms = int(rng.integers(2, 9))
    desc = AlgebraDescriptor(algebra, dim)
    weights = rng.uniform(0.2, 1.5, size=atoms)
    h0 = rand_positive_operator(desc, rank, rng, shift=0.5)
    h = (1.0 / max(h0.norm(), 1e-12)) * h0 + AdjointableOperator.scalar(desc, rank, 0.25)

    def polynomial(coeffs):
        total, power = AdjointableOperator.scalar(desc, rank, coeffs[0]), h
        for c in coeffs[1:]:
            total = total + float(c) * power
            power = power @ h
        return total

    members, polys = {}, {}
    for label in atom_labels(atoms):
        polys[label] = polynomial(
            (rng.uniform(0.3, 1.2), rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.3)))
        member = polys[label].sqrt_positive()
        if pad_outputs and rng.integers(2):
            unitary = rand_unitary_operator(desc, rank + int(rng.integers(1, 3)), rng).channels
            member = AdjointableOperator(desc, unitary[:, :member.channels.shape[2]]) @ member
        members[label] = member
    if scalar_controls:
        c = AdjointableOperator.scalar(desc, rank, float(rng.uniform(0.5, 2.0)))
        cp = AdjointableOperator.scalar(desc, rank, float(rng.uniform(0.5, 2.0)))
    else:
        c = polynomial((rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.8)))
        cp = polynomial((rng.uniform(0.4, 1.0), rng.uniform(0.1, 0.8)))
    return {"labels": tuple(members), "weights": weights, "members": members, "C": c, "Cp": cp,
            "polys": polys}


def _relative(x: AdjointableOperator, y: AdjointableOperator) -> float:
    return (x - y).norm() / y.norm()


@pytest.mark.parametrize("options", OPTIONS, ids=OPTION_IDS)
def test_draw_matches_the_per_atom_roots(options):
    worst = 0.0
    for seed in SEEDS:
        system, want = random_system(seed, **options), _reference(seed, **options)
        assert system.measure.labels == want["labels"]
        assert system.measure.weights.tobytes() == want["weights"].tobytes()
        assert system.controls.C.channels.tobytes() == want["C"].channels.tobytes()
        assert system.controls.Cp.channels.tobytes() == want["Cp"].channels.tobytes()
        for label, member in system.family.items():
            reference = want["members"][label]
            assert member.channels.shape == reference.channels.shape
            worst = max(worst, _relative(member, reference))
    assert worst <= 1e-13


@pytest.mark.parametrize("options", OPTIONS, ids=OPTION_IDS)
def test_drawn_systems_commute_and_members_square_to_their_polynomials(options):
    for seed in SEEDS:
        system, want = random_system(seed, **options), _reference(seed, **options)
        assert system.controls.family_defect <= 1e-14
        assert system.controls.commute_defect <= 1e-14
        for label, member in system.family.items():
            # A padded member is an isometry after the root, so Lambda* Lambda = root^2 = p_w(h).
            assert _relative(member.adjoint() @ member, want["polys"][label]) <= 1e-13
            if member.out_rank == member.in_rank:
                assert member.is_positive()


def test_some_members_are_padded():
    # The pad_outputs draws above include members into a larger module.
    padded = [member for seed in SEEDS
              for member in random_system(seed, pad_outputs=True).family.values()
              if member.out_rank > member.in_rank]
    assert padded


def test_draw_is_deterministic():
    for options in OPTIONS:
        first, second = random_system(5, **options), random_system(5, **options)
        assert [m.channels.tobytes() for m in first.family.values()] == \
               [m.channels.tobytes() for m in second.family.values()]


@pytest.mark.parametrize("desc", [AlgebraDescriptor(MATRIX, 2), AlgebraDescriptor(DIAGONAL, 3)],
                         ids=lambda d: d.kind)
def test_positive_roots_are_the_roots_of_each_polynomial(desc):
    rng = np.random.default_rng(3)
    h = rand_positive_operator(desc, 3, rng, shift=0.5)
    h2 = h @ h
    rows = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.25, 0.125), (2.0, 0.0, 0.0)]
    roots = h.positive_roots(rows)
    assert len(roots) == len(rows)
    identity = AdjointableOperator.identity(desc, 3)
    for (c0, c1, c2), root in zip(rows, roots):
        poly = c0 * identity + c1 * h + c2 * h2
        assert root.is_positive()
        assert _relative(root @ root, poly) <= 1e-13
    assert _relative(roots[1], h.sqrt_positive()) <= 1e-13


def test_positive_roots_refuse_a_polynomial_negative_on_the_spectrum():
    desc = AlgebraDescriptor(MATRIX, 2)
    h = rand_positive_operator(desc, 3, np.random.default_rng(4), shift=0.5)
    eigs = h.eigenvalues_hermitian()
    middle = 0.5 * float(eigs[0] + eigs[-1])
    assert h.positive_roots([(1.0, 1.0)])
    # x - middle is positive at the top of the spectrum and negative at its bottom.
    with pytest.raises(DomainError, match="requires a positive"):
        h.positive_roots([(1.0, 1.0), (-middle, 1.0)])
    with pytest.raises(DomainError, match="requires a positive"):
        polynomial_roots(h.channels, [(-middle, 1.0)], h.norm(), h.hermitian_defect(),
                         DEFAULT_TOL, "operator")


def test_positive_roots_refuse_a_non_hermitian_operator():
    desc = AlgebraDescriptor(DIAGONAL, 2)
    rng = np.random.default_rng(5)
    h = rand_positive_operator(desc, 3, rng, shift=0.5)
    skewed = h + 1e-3 * rand_operator(desc, 3, 3, rng)
    assert not skewed.is_hermitian()
    with pytest.raises(DomainError, match="requires a positive"):
        skewed.positive_roots([(1.0, 1.0, 0.0)])
    with pytest.raises(DomainError, match="requires a positive"):
        rand_operator(desc, 3, 2, rng).positive_roots([(1.0, 0.0)])


@pytest.mark.parametrize("size", [1.0, 1e6])
def test_refusal_is_relative_to_each_polynomial_like_the_composed_root(size):
    # p(x) = size * (x - lowest - gap) is -size * gap at the bottom of h's spectrum. Like
    # sqrt_positive of the composed p(h), positive_roots judges that against p's own size:
    # a gap of 1e-3 tol is accepted and one of 1e3 tol refused, whatever the size.
    desc = AlgebraDescriptor(MATRIX, 2)
    h = rand_positive_operator(desc, 3, np.random.default_rng(6), shift=0.5)
    lowest = float(h.eigenvalues_hermitian()[0])
    identity = AdjointableOperator.identity(desc, 3)
    for gap, refused in ((1e-3 * DEFAULT_TOL, False), (1e3 * DEFAULT_TOL, True)):
        row = (-size * (lowest + gap), size)
        composed = size * h - size * (lowest + gap) * identity
        for root in (lambda: h.positive_roots([row]), composed.sqrt_positive):
            if refused:
                with pytest.raises(DomainError, match="requires a positive"):
                    root()
            else:
                assert root()

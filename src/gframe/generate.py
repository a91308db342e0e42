"""System generators: the exactly-solvable unit-interval family and seeded
random systems for the property suites.

The commuting generator makes every member sqrt(p_w(h)), for a positive
quadratic p_w of one seed operator h, from one eigendecomposition of h, and
both controls c_0 + c_1 h, so the commutation flags hold to machine precision
and the frame operator is simultaneously diagonalizable with the controls.
The non-commuting generator draws everything independently; such systems still
assemble a frame operator but cannot be certified by the scalar-bound machinery.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import DIAGONAL, MATRIX, AlgebraDescriptor
from .errors import InputError
from .frames import Family, GFrameSystem
from .hilbert import AdjointableOperator
from .measure import MeasureSpace, atom_labels, simpson_unit_interval
from .sampling import rand_operator, rand_positive_operator, rand_unitary_operator


def unit_interval_system(alpha: float, beta: float, rank: int, nodes: int) -> GFrameSystem:
    """Diagonal-algebra family Lambda_w = w * diag(1, 1/2, ..., 1/rank) on [0, 1].

    Controls are alpha * I and beta * I; the measure is the composite Simpson
    rule, exact for the quadratic integrand, so the frame operator equals
    (alpha * beta / 3) * diag(1/n^2) up to roundoff.
    """
    if alpha <= 0 or beta <= 0:
        raise InputError("control scales must be positive")
    if rank < 1:
        raise InputError("rank must be >= 1")
    measure, positions = simpson_unit_interval(nodes)
    desc = AlgebraDescriptor(DIAGONAL, rank)
    base = np.array([1.0 / (n + 1) for n in range(rank)], dtype=np.complex128)
    stack = AdjointableOperator.from_blocks(desc, np.outer(positions, base)[None])
    family = Family(measure.labels, [1] * nodes, stack)
    c = AdjointableOperator.scalar(desc, 1, alpha)
    cp = AdjointableOperator.scalar(desc, 1, beta)
    return GFrameSystem(measure, family, c, cp)


def random_system(seed: int, rank: Optional[int] = None, atoms: Optional[int] = None,
                  algebra: Optional[str] = None, dim: Optional[int] = None,
                  commuting: bool = True, scalar_controls: bool = False,
                  pad_outputs: bool = False) -> GFrameSystem:
    """Deterministic system from one seed, desk-scale; commuting members come from one eigh.

    Unset shape parameters are drawn from the seed (rank <= 4, dim <= 3,
    atoms <= 8).  ``scalar_controls`` forces C and C' to positive multiples of
    the identity; ``pad_outputs`` lets some members map to a larger module.
    """
    rng = np.random.default_rng(seed)
    if algebra is None:
        algebra = MATRIX if rng.integers(2) else DIAGONAL
    if dim is None:
        dim = int(rng.integers(1, 4))
    if rank is None:
        rank = int(rng.integers(1, 5))
    if atoms is None:
        atoms = int(rng.integers(2, 9))
    if rank < 1 or atoms < 1:
        raise InputError("rank and atom count must be >= 1")
    desc = AlgebraDescriptor(algebra, dim)
    weights = rng.uniform(0.2, 1.5, size=atoms)
    measure = MeasureSpace.from_columns(atom_labels(atoms), weights)

    if commuting:
        h0 = rand_positive_operator(desc, rank, rng, shift=0.5)
        h = (1.0 / max(h0.norm(), 1e-12)) * h0 + AdjointableOperator.scalar(desc, rank, 0.25)
        coeffs, pads = [], {}  # every atom's draws in the rng's order, then one eigh for all roots
        for label in measure.labels:
            coeffs.append((rng.uniform(0.3, 1.2), rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.3)))
            if pad_outputs and rng.integers(2):
                # a unitary on A^m after the inclusion of A^rank: the unitary's first rows
                unitary = rand_unitary_operator(desc, rank + int(rng.integers(1, 3)), rng).channels
                pads[label] = AdjointableOperator(desc, unitary[:, :h.channels.shape[2]])
        family = dict(zip(measure.labels, h.positive_roots(coeffs)))
        for label, pad in pads.items():
            family[label] = pad @ family[label]
        if scalar_controls:
            c = AdjointableOperator.scalar(desc, rank, float(rng.uniform(0.5, 2.0)))
            cp = AdjointableOperator.scalar(desc, rank, float(rng.uniform(0.5, 2.0)))
        else:
            # c_0 + c_1 h, with c_0 drawn before c_1
            c = AdjointableOperator.scalar(desc, rank, rng.uniform(0.4, 1.0))
            c = c + float(rng.uniform(0.1, 0.8)) * h
            cp = AdjointableOperator.scalar(desc, rank, rng.uniform(0.4, 1.0))
            cp = cp + float(rng.uniform(0.1, 0.8)) * h
        return GFrameSystem(measure, family, c, cp)

    family = {}
    for label in measure.labels:
        m = rank + int(rng.integers(1, 3)) if pad_outputs and rng.integers(2) else rank
        family[label] = rand_operator(desc, rank, m, rng)
    c = rand_positive_operator(desc, rank, rng, shift=0.3)
    cp = rand_positive_operator(desc, rank, rng, shift=0.3)
    return GFrameSystem(measure, family, c, cp)

"""Seeded random algebra elements, module vectors and operators.

All property suites draw from these helpers with an explicit numpy Generator
so every reported number is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import MATRIX, AlgebraDescriptor
from .hilbert import AdjointableOperator, ModuleVector, _coord_shape


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rand_vector(descriptor: AlgebraDescriptor, rank: int, rng: np.random.Generator,
                unit: bool = False) -> ModuleVector:
    """Coordinates with independent standard complex Gaussian entries."""
    x = ModuleVector(descriptor, complex_gaussian(rng, (rank,) + _coord_shape(descriptor)))
    if unit:
        n = x.norm()
        if n > 0:
            x = (1.0 / n) * x
    return x


def rand_operator(descriptor: AlgebraDescriptor, in_rank: int, out_rank: int,
                  rng: np.random.Generator) -> AdjointableOperator:
    shape = (in_rank, out_rank) + _coord_shape(descriptor)
    return AdjointableOperator(descriptor, complex_gaussian(rng, shape))


def rand_positive_operator(descriptor: AlgebraDescriptor, rank: int, rng: np.random.Generator,
                           shift: float = 0.5) -> AdjointableOperator:
    """q* q + shift * I, positive and invertible by construction."""
    q = rand_operator(descriptor, rank, rank, rng)
    return (q.adjoint() @ q) + AdjointableOperator.scalar(descriptor, rank, shift)


def rand_invertible_operator(descriptor: AlgebraDescriptor, rank: int,
                             rng: np.random.Generator) -> AdjointableOperator:
    """Random operator pushed away from singularity by a scalar shift."""
    q = rand_operator(descriptor, rank, rank, rng)
    shift = float(q.norm()) * 0.25 + 0.5
    return q + AdjointableOperator.scalar(descriptor, rank, shift + 0.75j * shift)


def rand_unitary_operator(descriptor: AlgebraDescriptor, rank: int,
                          rng: np.random.Generator) -> AdjointableOperator:
    """QR-based unitary; for the diagonal kind one unitary per channel."""
    d = descriptor.dim
    if descriptor.kind == MATRIX:
        q, r = np.linalg.qr(complex_gaussian(rng, (rank * d, rank * d)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        return AdjointableOperator.from_flat(descriptor, rank, rank, q)
    blocks = np.zeros((rank, rank, d), dtype=np.complex128)
    for channel in range(d):
        q, r = np.linalg.qr(complex_gaussian(rng, (rank, rank)))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        blocks[:, :, channel] = q
    return AdjointableOperator(descriptor, blocks)

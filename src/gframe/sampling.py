"""Seeded random algebra elements, module vectors and operators.

All property suites draw from these helpers with an explicit numpy Generator
so every reported number is reproducible from its seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraDescriptor, element_norms, freeze
from .hilbert import AdjointableOperator, ModuleVector, pairing


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def rand_coords(descriptor: AlgebraDescriptor, rank: int, rng: np.random.Generator,
                count: int, unit: bool = False) -> np.ndarray:
    """A (count, rank) + element-shape stack of independent standard complex Gaussians.

    One draw, equal to ``count`` successive single draws; ``unit`` multiplies each vector by
    the reciprocal of its norm, read from the batched inner products <x, x>.
    """
    pairs = rng.standard_normal((count, 2, rank) + descriptor.shape)
    coords = (pairs[:, 0] + 1j * pairs[:, 1]) / np.sqrt(2.0)
    if unit:
        norms = np.sqrt(element_norms(descriptor, pairing(descriptor, coords)))
        coords = (1.0 / norms).reshape((count,) + (1,) * (coords.ndim - 1)) * coords
    return coords


def rand_vector(descriptor: AlgebraDescriptor, rank: int, rng: np.random.Generator,
                unit: bool = False) -> ModuleVector:
    """One vector of ``rand_coords``."""
    return ModuleVector(descriptor, rand_coords(descriptor, rank, rng, 1, unit)[0])


def rand_operator(descriptor: AlgebraDescriptor, in_rank: int, out_rank: int,
                  rng: np.random.Generator) -> AdjointableOperator:
    shape = (in_rank, out_rank) + descriptor.shape
    return AdjointableOperator.from_blocks(descriptor, complex_gaussian(rng, shape))


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
    """QR-based unitary, one per channel."""
    count, width = descriptor.layout
    size = rank * width
    chans = np.empty((count, size, size), dtype=np.complex128)
    for channel in range(count):
        q, r = np.linalg.qr(complex_gaussian(rng, (size, size)))
        chans[channel] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return AdjointableOperator(descriptor, freeze(chans))

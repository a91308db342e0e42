"""Standard Hilbert modules A^n and their adjointable operators.

A module vector is an n-tuple of algebra elements with the A-valued inner
product <x, y> = sum_i x_i y_i*.  An adjointable operator A^n -> A^m is an
n x m array of algebra blocks acting on the right, (Tx)_j = sum_i x_i t_ij,
which makes T(a x) = a T(x) automatic.

An operator holds only its ``channels``: the (n d) x (m d) flattening for M_d,
k matrices of shape n x m for C^k, so S after T is flat(T) @ flat(S) and T* is
flat(T)^H, channel by channel.  ``from_blocks`` builds one from its blocks and
``blocks`` views them, for files and for ``flat``, the tests' raw-numpy
oracle.  Products, the module action, inner products and T x are stacked
matrix products over the channels, with a vector as a 1 x n row of blocks
(``apply_stack`` and ``pairing`` take whole stacks of vectors).  Spectra,
inverses and roots are the algebra module's channel kernel, the same
functions an element calls.

A family of operators A^n -> A^{m_w} is held as one operator, its stack
A^n -> A^(m_1 + ... + m_W): the members' channel columns side by side.
``stack`` builds it from the members; which columns belong to which member,
and every member-wise product, is ``frames.Family``'s business.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    MATRIX,
    AlgebraDescriptor,
    AlgebraElement,
    as_channels,
    channel_layout,
    eigenvalues_hermitian,
    finite_spectrum,
    frobenius_bound,
    from_channels,
    hermitian_defect,
    hermitian_part,
    hermitian_transpose,
    inverse,
    polynomial_roots,
    singular_values,
    tolerance_scale,
    within_tolerance,
)
from .errors import DomainError, InputError


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of the standard module A^n."""

    descriptor: AlgebraDescriptor
    coords: np.ndarray  # (n, d, d) for matrix kind, (n, k) for diagonal kind

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.complex128)
        want = self.descriptor.shape
        if arr.ndim != len(want) + 1 or arr.shape[1:] != want:
            raise InputError(f"coordinate array shape {arr.shape} invalid for {self.descriptor}")
        if arr.shape[0] < 1:
            raise InputError("module rank must be >= 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def rank(self) -> int:
        return self.coords.shape[0]

    @staticmethod
    def from_elements(elements: Sequence[AlgebraElement]) -> "ModuleVector":
        if not elements:
            raise InputError("empty coordinate list")
        desc = elements[0].descriptor
        for e in elements:
            if e.descriptor != desc:
                raise InputError("coordinates must share one descriptor")
        return ModuleVector(desc, np.stack([e.data for e in elements]))

    @staticmethod
    def zero(descriptor: AlgebraDescriptor, rank: int) -> "ModuleVector":
        return ModuleVector(descriptor, np.zeros((rank,) + descriptor.shape))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return ModuleVector(self.descriptor, self.coords + other.coords)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return ModuleVector(self.descriptor, self.coords - other.coords)

    def __rmul__(self, other) -> "ModuleVector":
        """Left module action a * x (algebra element) or complex scaling."""
        if isinstance(other, AlgebraElement):
            if other.descriptor != self.descriptor:
                raise InputError("algebra mismatch in module action")
            rows = other.channels() @ as_channels(self.descriptor, self.coords[None])
            return ModuleVector(self.descriptor, from_channels(self.descriptor, rows)[0])
        return ModuleVector(self.descriptor, complex(other) * self.coords)

    def _check_compatible(self, other: "ModuleVector") -> None:
        if self.descriptor != other.descriptor or self.rank != other.rank:
            raise InputError("module vectors have incompatible shape")

    def inner(self, other: "ModuleVector") -> AlgebraElement:
        """A-valued inner product sum_i x_i y_i*; ``pairing`` checks that the shapes agree."""
        values = pairing(self.descriptor, self.coords[None], other=other.coords[None])
        return AlgebraElement(self.descriptor, values[0])

    def norm(self) -> float:
        """Scalar norm ||<x, x>||^(1/2)."""
        return float(np.sqrt(max(self.inner(self).norm(), 0.0)))

    def flat(self) -> np.ndarray:
        """d x (n d) row-block matrix of the coordinates."""
        blocks = self.coords if self.descriptor.kind == MATRIX else _embed_diag(self.coords)
        n, d, _ = blocks.shape
        return blocks.transpose(1, 0, 2).reshape(d, n * d)


def _embed_diag(arr: np.ndarray) -> np.ndarray:
    """Embed (..., k) diagonal data as (..., k, k) diagonal matrices."""
    k = arr.shape[-1]
    return arr[..., :, None] * np.eye(k, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class AdjointableOperator:
    """A-linear map A^n -> A^m, (Tx)_j = sum_i x_i t_ij, held as its channel stack."""

    descriptor: AlgebraDescriptor
    channels: np.ndarray  # (1, n d, m d) matrix kind, (k, n, m) diagonal kind

    def __post_init__(self):
        arr = np.array(self.channels, dtype=np.complex128, order="C")
        count, width = channel_layout(self.descriptor)
        if arr.ndim != 3 or arr.shape[0] != count or arr.shape[1] % width or arr.shape[2] % width:
            raise InputError(f"channel array shape {arr.shape} invalid for {self.descriptor}")
        if min(arr.shape[1:]) < 1:
            raise InputError("operator ranks must be >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "channels", arr)

    @property
    def blocks(self) -> np.ndarray:
        """The blocks t_ij, (n, m) + element shape: a read-only view of the channels."""
        return from_channels(self.descriptor, self.channels)

    @property
    def in_rank(self) -> int:
        return self.channels.shape[1] // channel_layout(self.descriptor)[1]

    @property
    def out_rank(self) -> int:
        return self.channels.shape[2] // channel_layout(self.descriptor)[1]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_blocks(descriptor: AlgebraDescriptor, blocks) -> "AdjointableOperator":
        """The operator with block (i, j) blocks[i, j]: (n, m, d, d) for M_d, (n, m, k) for C^k."""
        arr = np.asarray(blocks, dtype=np.complex128)
        if arr.ndim != 2 + len(descriptor.shape) or arr.shape[2:] != descriptor.shape:
            raise InputError(f"block array shape {arr.shape} invalid for {descriptor}")
        return AdjointableOperator(descriptor, as_channels(descriptor, arr))

    @staticmethod
    def identity(descriptor: AlgebraDescriptor, rank: int) -> "AdjointableOperator":
        count, width = channel_layout(descriptor)
        eye = np.eye(rank * width, dtype=np.complex128)
        return AdjointableOperator(descriptor, np.broadcast_to(eye, (count,) + eye.shape))

    @staticmethod
    def zero(descriptor: AlgebraDescriptor, in_rank: int, out_rank: int) -> "AdjointableOperator":
        return AdjointableOperator.from_blocks(
            descriptor, np.zeros((in_rank, out_rank) + descriptor.shape))

    @staticmethod
    def scalar(descriptor: AlgebraDescriptor, rank: int, value: complex) -> "AdjointableOperator":
        return AdjointableOperator.identity(descriptor, rank) * complex(value)

    # -- algebra of operators ------------------------------------------------

    def block(self, i: int, j: int) -> AlgebraElement:
        return AlgebraElement(self.descriptor, self.blocks[i, j])

    def __call__(self, x: ModuleVector) -> ModuleVector:
        """T x; ``apply_stack`` checks the vector's shape, which fixes its algebra."""
        return ModuleVector(self.descriptor, apply_stack(self, x.coords[None])[0])

    def adjoint(self) -> "AdjointableOperator":
        return AdjointableOperator(self.descriptor, hermitian_transpose(self.channels))

    def __add__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        self._check_same_shape(other)
        return AdjointableOperator(self.descriptor, self.channels + other.channels)

    def __sub__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        self._check_same_shape(other)
        return AdjointableOperator(self.descriptor, self.channels - other.channels)

    def __mul__(self, scalar) -> "AdjointableOperator":
        return AdjointableOperator(self.descriptor, self.channels * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AdjointableOperator":
        return AdjointableOperator(self.descriptor, -self.channels)

    def __matmul__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        """Composition self after other: (self @ other)(x) = self(other(x))."""
        return compose(self, other)

    def times_central(self, v: AlgebraElement) -> "AdjointableOperator":
        """x -> (T x) v, blocks t_ij v. A-linear exactly when v is central."""
        desc = self.descriptor
        if v.descriptor != desc:
            raise InputError("algebra mismatch for multiplier element")
        if desc.kind == MATRIX:
            z = np.trace(v.data) / desc.dim
            if not within_tolerance((v - AlgebraElement.scalar(desc, z)).norm(), DEFAULT_TOL,
                                    v.norm):
                raise InputError("multiplier element must be central (scalar) in the matrix algebra")
        count, width = channel_layout(desc)
        rows = self.channels.reshape(count, -1, width) @ v.channels()
        return AdjointableOperator(desc, rows.reshape(self.channels.shape))

    def _check_same_shape(self, other: "AdjointableOperator") -> None:
        if self.descriptor != other.descriptor or self.channels.shape != other.channels.shape:
            raise InputError("operator shape mismatch")

    def flat(self) -> np.ndarray:
        """(n d) x (m d) complex matrix with block (i, j) equal to t_ij.

        The oracle the tests compare the channels against; no computation
        reads it.
        """
        blocks = self.blocks if self.descriptor.kind == MATRIX else _embed_diag(self.blocks)
        n, m, d, _ = blocks.shape
        return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)

    # -- spectral data -------------------------------------------------------

    # The channels are read-only and the class is frozen, so each spectral
    # quantity below is computed on first use by the channel kernel, one
    # batched LAPACK call over the channels, and kept on the instance.

    @cached_property
    def _singular_values(self) -> np.ndarray:
        svals = singular_values(self.channels)
        svals.setflags(write=False)
        return svals

    @cached_property
    def _hermitian_defect(self) -> float:
        return hermitian_defect(self.channels)

    @cached_property
    def _hermitian_bound(self) -> float:
        return frobenius_bound(self.channels - hermitian_transpose(self.channels))

    @cached_property
    def _eigenvalues_hermitian(self) -> np.ndarray:
        eigs = eigenvalues_hermitian(self.channels)
        eigs.setflags(write=False)
        return eigs

    def singular_values(self) -> np.ndarray:
        """Descending singular values of the operator over all channels, read-only.

        The last one, when positive, certifies m ||x|| <= ||Tx|| for all x
        and the surjectivity of the adjoint.
        """
        return self._singular_values

    def norm(self) -> float:
        """Operator norm: the largest singular value of any channel."""
        return float(self._singular_values[0])

    def hermitian_defect(self) -> float:
        return self._hermitian_defect

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        """Square, with a Hermitian defect within tol * tolerance_scale(norm); passed on the
        kept ``frobenius_bound`` of T - T*, and only a bound above tol reads the defect."""
        return self.in_rank == self.out_rank and (self._hermitian_bound <= tol or within_tolerance(
            self.hermitian_defect(), tol, self.norm))

    def eigenvalues_hermitian(self) -> np.ndarray:
        """Ascending spectrum of the Hermitian part over all channels, read-only."""
        return self._eigenvalues_hermitian

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        return self.is_hermitian(tol) and within_tolerance(
            -self.eigenvalues_hermitian()[0], tol, self.norm)

    def inverse(self) -> "AdjointableOperator":
        """Inverse, channel by channel; refused beyond condition number DEFAULT_COND_CAP."""
        if self.in_rank != self.out_rank:
            raise DomainError("only square operators can be inverted")
        return AdjointableOperator(
            self.descriptor, inverse(self.channels, self._singular_values, "operator"))

    def sqrt_positive(self, tol: float = DEFAULT_TOL) -> "AdjointableOperator":
        """Positive square root of a positive operator: ``positive_roots`` of the row (0, 1)."""
        return self.positive_roots(((0.0, 1.0),), tol)[0]

    def positive_roots(self, coeffs, tol: float = DEFAULT_TOL) -> list:
        """Roots of the positive c_0 + c_1 T + ..., one per coefficient row: ``polynomial_roots``."""
        if not self.is_hermitian(tol):
            raise DomainError("operator square root requires a positive operator")
        return [AdjointableOperator(self.descriptor, root)
                for root in polynomial_roots(self.channels, coeffs, tol, "operator")]


def compose(s: AdjointableOperator, t: AdjointableOperator) -> AdjointableOperator:
    """Composition s after t, blocks (s t)_ik = sum_j t_ij s_jk."""
    if s.descriptor != t.descriptor:
        raise InputError("algebra mismatch in composition")
    if t.out_rank != s.in_rank:
        raise InputError("rank mismatch in composition")
    return AdjointableOperator(s.descriptor, t.channels @ s.channels)


def stack(ops: Sequence[AdjointableOperator]) -> AdjointableOperator:
    """A^n -> A^(m_1 + ... + m_W), with the output coordinates of each ops[w] in turn.

    The m_w may differ; ``frames.Family`` holds the result with the m_w.
    """
    if not ops:
        raise InputError("a stack needs at least one member")
    if len({(op.descriptor, op.in_rank) for op in ops}) != 1:
        raise InputError("stack members must share the algebra and the input rank")
    chans = np.concatenate([op.channels for op in ops], axis=2)
    return AdjointableOperator(ops[0].descriptor, chans)


def _vector_stack(descriptor: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    shape = descriptor.shape
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.ndim != len(shape) + 2 or coords.shape[2:] != shape:
        raise InputError(f"vector stack shape {coords.shape} invalid for {descriptor}")
    return coords


def apply_stack(t: AdjointableOperator, coords: np.ndarray) -> np.ndarray:
    """T x for a whole stack of vectors, given and returned as (s, n) + coordinate-shape data."""
    coords = _vector_stack(t.descriptor, coords)
    if coords.shape[1] != t.in_rank:
        raise InputError("operator/vector stack shape mismatch")
    rows = as_channels(t.descriptor, coords[:, None]) @ t.channels
    return from_channels(t.descriptor, rows)[:, 0]


def pairing(descriptor: AlgebraDescriptor, coords: np.ndarray,
            t: Optional[AdjointableOperator] = None,
            other: Optional[np.ndarray] = None) -> np.ndarray:
    """<T x, y> for a whole stack of vector pairs.

    ``coords`` holds the s vectors x of A^n as an (s, n) + coordinate-shape
    array, ``other`` the y's in the same shape (y = x when omitted); T is the
    identity when ``t`` is None.  The result is the (s,) + element-shape array
    of the s algebra values, each flat(x) flat(T) flat(y)^H, evaluated channel
    by channel.
    """
    coords = _vector_stack(descriptor, coords)
    if t is not None and (t.descriptor != descriptor or t.in_rank != coords.shape[1]
                          or t.out_rank != t.in_rank):
        raise InputError("pairing needs a square operator on the vectors' module")
    rows = as_channels(descriptor, coords[:, None])
    if other is None:
        cols = rows
    elif np.shape(other) != coords.shape:
        raise InputError("paired vector stacks must have the same shape")
    else:
        cols = as_channels(descriptor, _vector_stack(descriptor, other)[:, None])
    left = rows if t is None else rows @ t.channels
    values = from_channels(descriptor, left @ hermitian_transpose(cols))
    return values.reshape(coords.shape[:1] + descriptor.shape)


def positive_part_checks(t: AdjointableOperator, tol: float = DEFAULT_TOL) -> dict:
    """Self-adjointness, positivity, invertibility and the spectral range of t."""
    square = t.in_rank == t.out_rank
    self_adjoint = t.is_hermitian(tol)
    if self_adjoint:
        vals = t.eigenvalues_hermitian()
        lower, upper = float(vals[0]), float(vals[-1])
        floor = tol * tolerance_scale(upper)
        positive = lower >= -floor
        invertible = vals.min() > floor if positive else float(np.min(np.abs(vals))) > floor
    else:
        svals = t.singular_values()
        lower, upper = float(svals[-1]), float(svals[0])
        positive = False
        invertible = square and lower > tol * tolerance_scale(upper)
    return {
        "self_adjoint": bool(self_adjoint),
        "positive": bool(positive),
        "invertible": bool(invertible),
        "lower": lower,
        "upper": upper,
    }


def loewner_gap(lhs: AdjointableOperator, rhs: AdjointableOperator) -> tuple:
    """Per channel, the largest eigenvalue of the Hermitian part of lhs - rhs, and its witness.

    A channel's witness, in the (channels, n) + coordinate-shape stack, is a
    unit eigenvector for that eigenvalue, conjugated and placed in the first
    row of that channel, zeros elsewhere: <(lhs - rhs) x, x> has the gap as an
    entry.  On rank-one x, flat(x) = w v^H, every <T x, x> is w (v^H T v) w^H,
    so a "for all x" inequality between the two forms holds iff no gap is > 0.
    """
    if lhs.in_rank != lhs.out_rank:
        raise InputError("Loewner comparison needs square operators")
    lhs._check_same_shape(rhs)
    chans = lhs.channels - rhs.channels
    vals, vecs = finite_spectrum(np.linalg.eigh, hermitian_part(chans))
    index = np.arange(chans.shape[0])
    rows = np.zeros((index.size, index.size, channel_layout(lhs.descriptor)[1], chans.shape[-1]),
                    dtype=np.complex128)
    rows[index, index, 0] = vecs[:, :, -1].conj()
    return vals[:, -1], from_channels(lhs.descriptor, rows)[:, 0]

"""Standard Hilbert modules A^n and their adjointable operators.

A module vector is an n-tuple of algebra elements with the A-valued inner
product <x, y> = sum_i x_i y_i*.  An adjointable operator A^n -> A^m is an
n x m array of algebra blocks acting on the right, (Tx)_j = sum_i x_i t_ij,
which makes T(a x) = a T(x) automatic.

``flat`` maps everything to plain complex matrices: a vector becomes the
d x (n d) row of its coordinate blocks, an operator the (n d) x (m d) block
matrix of its entries.  Under this convention flat(S after T) =
flat(T) @ flat(S) and flat(T*) = flat(T)^H, so norms, spectra and positivity
of operators are read off the flattened matrix.

The diagonal algebra C^k is k independent copies of C, so its flattening is
a permutation of k block-diagonal channels.  ``channels`` is the view the
products use: one (n d) x (m d) channel (the flattening) for M_d, and k
channels of shape n x m for C^k.  Compositions, weighted sums and pairings
run as stacked matrix products over that view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from .algebra import (
    DEFAULT_COND_CAP,
    DEFAULT_TOL,
    MATRIX,
    AlgebraDescriptor,
    AlgebraElement,
)
from .errors import DomainError, InputError


def _coord_shape(descriptor: AlgebraDescriptor) -> tuple:
    d = descriptor.dim
    return (d, d) if descriptor.kind == MATRIX else (d,)


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of the standard module A^n."""

    descriptor: AlgebraDescriptor
    coords: np.ndarray  # (n, d, d) for matrix kind, (n, k) for diagonal kind

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=np.complex128)
        want = (None,) + _coord_shape(self.descriptor)
        if arr.ndim != len(want) or arr.shape[1:] != want[1:]:
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
        return ModuleVector(descriptor, np.zeros((rank,) + _coord_shape(descriptor)))

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
            if self.descriptor.kind == MATRIX:
                return ModuleVector(self.descriptor, np.einsum("ab,ibc->iac", other.data, self.coords))
            return ModuleVector(self.descriptor, other.data * self.coords)
        return ModuleVector(self.descriptor, complex(other) * self.coords)

    def _check_compatible(self, other: "ModuleVector") -> None:
        if self.descriptor != other.descriptor or self.rank != other.rank:
            raise InputError("module vectors have incompatible shape")

    def inner(self, other: "ModuleVector") -> AlgebraElement:
        """A-valued inner product sum_i x_i y_i*."""
        self._check_compatible(other)
        if self.descriptor.kind == MATRIX:
            data = np.einsum("iab,icb->ac", self.coords, other.coords.conj())
        else:
            data = np.einsum("ia,ia->a", self.coords, other.coords.conj())
        return AlgebraElement(self.descriptor, data)

    def norm(self) -> float:
        """Scalar norm ||<x, x>||^(1/2)."""
        return float(np.sqrt(max(self.inner(self).norm(), 0.0)))

    def modulus(self, tol: float = DEFAULT_TOL) -> AlgebraElement:
        """A-valued modulus <x, x>^(1/2)."""
        return self.inner(self).sqrt_positive(tol)

    def flat(self) -> np.ndarray:
        """d x (n d) row-block matrix of the coordinates."""
        blocks = self.coords if self.descriptor.kind == MATRIX else _embed_diag(self.coords)
        n, d, _ = blocks.shape
        return blocks.transpose(1, 0, 2).reshape(d, n * d)


def _embed_diag(arr: np.ndarray) -> np.ndarray:
    """Embed (..., k) diagonal data as (..., k, k) diagonal matrices."""
    k = arr.shape[-1]
    return arr[..., :, None] * np.eye(k, dtype=np.complex128)


def as_channels(descriptor: AlgebraDescriptor, blocks: np.ndarray) -> np.ndarray:
    """(..., n, m) + coordinate shape -> (..., 1, n d, m d) for M_d, (..., k, n, m) for C^k."""
    if descriptor.kind == MATRIX:
        *lead, n, m, d, _ = blocks.shape
        return blocks.swapaxes(-3, -2).reshape(*lead, 1, n * d, m * d)
    return blocks.swapaxes(-1, -2).swapaxes(-2, -3)


def _from_channels(descriptor: AlgebraDescriptor, chans: np.ndarray) -> np.ndarray:
    """Inverse of ``as_channels``: (..., c, rows, cols) -> (..., n, m) + coordinate shape."""
    if descriptor.kind == MATRIX:
        d = descriptor.dim
        *lead, _, rows, cols = chans.shape
        return chans.reshape(*lead, rows // d, d, cols // d, d).swapaxes(-3, -2)
    return chans.swapaxes(-3, -2).swapaxes(-2, -1)


def _hermitian_transpose(chans: np.ndarray) -> np.ndarray:
    return chans.conj().swapaxes(-1, -2)


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., rows, cols) stack.

    A single row or column has one singular value, its Euclidean length, so
    that case skips the SVD.
    """
    if 1 in mats.shape[-2:]:
        return np.linalg.norm(mats, axis=(-2, -1))
    return np.linalg.norm(mats, 2, axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class AdjointableOperator:
    """A-linear map A^n -> A^m given by blocks t_ij, (Tx)_j = sum_i x_i t_ij."""

    descriptor: AlgebraDescriptor
    blocks: np.ndarray  # (n, m, d, d) matrix kind, (n, m, k) diagonal kind

    def __post_init__(self):
        arr = np.asarray(self.blocks, dtype=np.complex128)
        want_tail = _coord_shape(self.descriptor)
        if arr.ndim != 2 + len(want_tail) or arr.shape[2:] != want_tail:
            raise InputError(f"block array shape {arr.shape} invalid for {self.descriptor}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InputError("operator ranks must be >= 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "blocks", arr)

    @property
    def in_rank(self) -> int:
        return self.blocks.shape[0]

    @property
    def out_rank(self) -> int:
        return self.blocks.shape[1]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(descriptor: AlgebraDescriptor, rank: int) -> "AdjointableOperator":
        shape = (rank, rank) + _coord_shape(descriptor)
        blocks = np.zeros(shape, dtype=np.complex128)
        one = AlgebraElement.one(descriptor).data
        for i in range(rank):
            blocks[i, i] = one
        return AdjointableOperator(descriptor, blocks)

    @staticmethod
    def zero(descriptor: AlgebraDescriptor, in_rank: int, out_rank: int) -> "AdjointableOperator":
        return AdjointableOperator(
            descriptor, np.zeros((in_rank, out_rank) + _coord_shape(descriptor))
        )

    @staticmethod
    def scalar(descriptor: AlgebraDescriptor, rank: int, value: complex) -> "AdjointableOperator":
        return AdjointableOperator.identity(descriptor, rank) * complex(value)

    @staticmethod
    def central_multiplier(descriptor: AlgebraDescriptor, rank: int, v: AlgebraElement,
                           tol: float = DEFAULT_TOL) -> "AdjointableOperator":
        """Multiplication x -> x v. A-linear exactly when v is central."""
        if v.descriptor != descriptor:
            raise InputError("algebra mismatch for multiplier element")
        if descriptor.kind == MATRIX:
            z = np.trace(v.data) / descriptor.dim
            defect = (v - AlgebraElement.scalar(descriptor, z)).norm()
            if defect > tol * max(1.0, v.norm()):
                raise InputError("multiplier element must be central (scalar) in the matrix algebra")
        blocks = np.zeros((rank, rank) + _coord_shape(descriptor), dtype=np.complex128)
        for i in range(rank):
            blocks[i, i] = v.data
        return AdjointableOperator(descriptor, blocks)

    # -- algebra of operators ------------------------------------------------

    def block(self, i: int, j: int) -> AlgebraElement:
        return AlgebraElement(self.descriptor, self.blocks[i, j])

    def __call__(self, x: ModuleVector) -> ModuleVector:
        if x.descriptor != self.descriptor or x.rank != self.in_rank:
            raise InputError("operator/vector shape mismatch")
        if self.descriptor.kind == MATRIX:
            out = np.einsum("iab,ijbc->jac", x.coords, self.blocks)
        else:
            out = np.einsum("ia,ija->ja", x.coords, self.blocks)
        return ModuleVector(self.descriptor, out)

    def adjoint(self) -> "AdjointableOperator":
        if self.descriptor.kind == MATRIX:
            adj = self.blocks.conj().transpose(1, 0, 3, 2)
        else:
            adj = self.blocks.conj().transpose(1, 0, 2)
        return AdjointableOperator(self.descriptor, adj)

    def __add__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        self._check_same_shape(other)
        return AdjointableOperator(self.descriptor, self.blocks + other.blocks)

    def __sub__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        self._check_same_shape(other)
        return AdjointableOperator(self.descriptor, self.blocks - other.blocks)

    def __mul__(self, scalar) -> "AdjointableOperator":
        return AdjointableOperator(self.descriptor, self.blocks * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AdjointableOperator":
        return AdjointableOperator(self.descriptor, -self.blocks)

    def __matmul__(self, other: "AdjointableOperator") -> "AdjointableOperator":
        """Composition self after other: (self @ other)(x) = self(other(x))."""
        return compose(self, other)

    def _check_same_shape(self, other: "AdjointableOperator") -> None:
        if self.descriptor != other.descriptor or self.blocks.shape != other.blocks.shape:
            raise InputError("operator shape mismatch")

    # -- flattening oracle ---------------------------------------------------

    def flat(self) -> np.ndarray:
        """(n d) x (m d) complex matrix with block (i, j) equal to t_ij."""
        blocks = self.blocks if self.descriptor.kind == MATRIX else _embed_diag(self.blocks)
        n, m, d, _ = blocks.shape
        return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)

    def channels(self) -> np.ndarray:
        """Per-channel matrices: (1, n d, m d), the flattening, for M_d; (k, n, m) for C^k."""
        return as_channels(self.descriptor, self.blocks)

    @staticmethod
    def from_channels(descriptor: AlgebraDescriptor, chans: np.ndarray) -> "AdjointableOperator":
        return AdjointableOperator(descriptor, _from_channels(descriptor, chans))

    @staticmethod
    def from_flat(descriptor: AlgebraDescriptor, in_rank: int, out_rank: int,
                  matrix: np.ndarray, tol: float = 1e-8) -> "AdjointableOperator":
        """Inverse of ``flat``.

        For the diagonal kind the blocks must be diagonal up to tol relative
        to the matrix norm; off-diagonal residue beyond that is an error.
        """
        d = descriptor.dim
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.shape != (in_rank * d, out_rank * d):
            raise InputError("flattened matrix has wrong shape")
        blocks4 = matrix.reshape(in_rank, d, out_rank, d).transpose(0, 2, 1, 3)
        if descriptor.kind == MATRIX:
            return AdjointableOperator(descriptor, blocks4)
        diag = np.einsum("ijaa->ija", blocks4)
        off = blocks4 - _embed_diag(diag)
        scale = max(1.0, float(np.linalg.norm(matrix, 2)))
        if np.max(np.abs(off)) > tol * scale:
            raise InputError("flattened matrix does not respect the diagonal algebra")
        return AdjointableOperator(descriptor, diag)

    # -- spectral data -------------------------------------------------------

    # The blocks are read-only and the class is frozen, so each spectral
    # quantity below is computed on first use and kept on the instance.

    @cached_property
    def _norm(self) -> float:
        return float(np.linalg.norm(self.flat(), 2))

    @cached_property
    def _hermitian_defect(self) -> float:
        f = self.flat()
        return float(np.linalg.norm(f - f.conj().T, 2))

    @cached_property
    def _eigenvalues_hermitian(self) -> np.ndarray:
        f = self.flat()
        eigs = np.linalg.eigvalsh(0.5 * (f + f.conj().T))
        eigs.setflags(write=False)
        return eigs

    def norm(self) -> float:
        """Operator norm: largest singular value of the flattening."""
        return self._norm

    def bounded_below_constant(self) -> float:
        """Smallest singular value of the flattening.

        A positive value m certifies m ||x|| <= ||Tx|| for all x and the
        surjectivity of the adjoint.
        """
        return float(np.linalg.svd(self.flat(), compute_uv=False)[-1])

    def hermitian_defect(self) -> float:
        return self._hermitian_defect

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.hermitian_defect() <= tol * max(1.0, self.norm())

    def eigenvalues_hermitian(self) -> np.ndarray:
        """Ascending spectrum of the Hermitian part of the flattening, read-only."""
        return self._eigenvalues_hermitian

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        if self.in_rank != self.out_rank:
            return False
        floor = tol * max(1.0, self.norm())
        return (self.hermitian_defect() <= floor
                and bool(self.eigenvalues_hermitian()[0] >= -floor))

    def inverse(self, cond_cap: float = DEFAULT_COND_CAP) -> "AdjointableOperator":
        if self.in_rank != self.out_rank:
            raise DomainError("only square operators can be inverted")
        f = self.flat()
        svals = np.linalg.svd(f, compute_uv=False)
        if svals[-1] <= 0.0 or svals[-1] < svals[0] / cond_cap:
            cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
            raise DomainError(f"operator is singular or ill-conditioned (condition estimate {cond:.3e})")
        return AdjointableOperator.from_flat(self.descriptor, self.in_rank, self.out_rank, np.linalg.inv(f))

    def sqrt_positive(self, tol: float = DEFAULT_TOL) -> "AdjointableOperator":
        """Positive square root of a positive operator, via the flattening.

        Positivity is ``is_positive``'s test, read from the one eigendecomposition
        that also gives the root.
        """
        if self.in_rank != self.out_rank:
            raise DomainError("operator square root requires a positive operator")
        f = self.flat()
        floor = tol * max(1.0, float(np.linalg.norm(f, 2)))
        f_adj = f.conj().T
        vals, vecs = np.linalg.eigh(0.5 * (f + f_adj))
        if np.linalg.norm(f - f_adj, 2) > floor or vals[0] < -floor:
            raise DomainError("operator square root requires a positive operator")
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        return AdjointableOperator.from_flat(self.descriptor, self.in_rank, self.out_rank, root)


def compose(s: AdjointableOperator, t: AdjointableOperator) -> AdjointableOperator:
    """Composition s after t, blocks (s t)_ik = sum_j t_ij s_jk."""
    if s.descriptor != t.descriptor:
        raise InputError("algebra mismatch in composition")
    if t.out_rank != s.in_rank:
        raise InputError("rank mismatch in composition")
    return AdjointableOperator.from_channels(s.descriptor, t.channels() @ s.channels())


def _stacked_channels(descriptor: AlgebraDescriptor, ops: Sequence[AdjointableOperator]) -> np.ndarray:
    """Channels of the operators placed side by side, built with a single copy.

    This is the channel view of the one operator A^n -> A^(m_1 + ... + m_W)
    whose output coordinates are those of every operator in turn.
    """
    if descriptor.kind == MATRIX:
        cols = np.concatenate([op.blocks.swapaxes(1, 2) for op in ops], axis=2)
        n, d, m, _ = cols.shape
        return cols.reshape(1, n * d, m * d)
    return np.concatenate([op.blocks.transpose(2, 0, 1) for op in ops], axis=2)


def weighted_sum(weights: Sequence, left: Sequence[AdjointableOperator],
                 right: Optional[Sequence[AdjointableOperator]] = None) -> AdjointableOperator:
    """Sum over atoms of c_w R_w* L_w, computed as one product of stacked flattenings.

    flat(R_w* L_w) = flat(L_w) flat(R_w)^H, so the sum is X Y^H where X
    stacks the columns of c_w flat(L_w) over all atoms and Y those of
    flat(R_w): one GEMM per channel.  L_w and R_w map A^n -> A^{m_w}, and the
    output ranks m_w may differ between atoms.  Without ``right`` the sum is
    that of w L_w* L_w, formed as X X^H from sqrt(w)-scaled flattenings, so
    the weights must be nonnegative.
    """
    if not left or len(weights) != len(left) or (right is not None and len(right) != len(left)):
        raise InputError("weighted sum needs one weight and one operator per atom on each side")
    descriptor = left[0].descriptor
    ranks = [op.out_rank for op in left]
    if right is not None and [op.out_rank for op in right] != ranks:
        raise InputError("weighted sum pairs operators with different output ranks")
    try:
        x = _stacked_channels(descriptor, left)
        y = x if right is None else _stacked_channels(descriptor, right)
    except ValueError as exc:
        raise InputError("weighted sum members must share the algebra and the input rank") from exc
    if y.shape != x.shape:
        raise InputError("weighted sum members must share the algebra and the input rank")
    width = descriptor.dim if descriptor.kind == MATRIX else 1
    coeffs = np.repeat(np.asarray(weights), [m * width for m in ranks])
    x *= np.sqrt(coeffs) if right is None else coeffs
    return AdjointableOperator.from_channels(descriptor, x @ _hermitian_transpose(y))


def compose_all(ops: Sequence[AdjointableOperator], t: AdjointableOperator) -> list:
    """[op after t for op in ops], computed as one product of stacked flattenings.

    flat(op t) = flat(t) flat(op), so placing the columns of every flat(op)
    side by side gives all the compositions as one GEMM per channel, whose
    columns are split back per operator.  The output ranks of ``ops`` may
    differ; each must map A^m -> A^{m_w} where t maps A^n -> A^m.
    """
    if not ops or any(op.descriptor != t.descriptor or op.in_rank != t.out_rank for op in ops):
        raise InputError("compose_all needs operators whose algebra and input rank match t")
    width = t.descriptor.dim if t.descriptor.kind == MATRIX else 1
    cuts = np.cumsum([op.out_rank * width for op in ops])[:-1]
    product = t.channels() @ _stacked_channels(t.descriptor, ops)
    return [AdjointableOperator.from_channels(t.descriptor, part)
            for part in np.split(product, cuts, axis=-1)]


def _vector_stack(descriptor: AlgebraDescriptor, coords: np.ndarray) -> np.ndarray:
    shape = _coord_shape(descriptor)
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.ndim != len(shape) + 2 or coords.shape[2:] != shape:
        raise InputError(f"vector stack shape {coords.shape} invalid for {descriptor}")
    return coords


def apply_stack(t: AdjointableOperator, coords: np.ndarray) -> np.ndarray:
    """T x for a whole stack of vectors, given and returned as (s, n) + coordinate-shape data."""
    coords = _vector_stack(t.descriptor, coords)
    if coords.shape[1] != t.in_rank:
        raise InputError("operator/vector stack shape mismatch")
    rows = as_channels(t.descriptor, coords[:, None]) @ t.channels()
    return _from_channels(t.descriptor, rows)[:, 0]


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
    left = rows if t is None else rows @ t.channels()
    values = _from_channels(descriptor, left @ _hermitian_transpose(cols))
    return values.reshape(coords.shape[:1] + _coord_shape(descriptor))


def positive_part_checks(t: AdjointableOperator, tol: float = DEFAULT_TOL) -> dict:
    """Self-adjointness, positivity, invertibility and the spectral range of t."""
    square = t.in_rank == t.out_rank
    self_adjoint = square and t.is_hermitian(tol)
    if self_adjoint:
        vals = t.eigenvalues_hermitian()
        lower, upper = float(vals[0]), float(vals[-1])
        positive = lower >= -tol * max(1.0, upper)
        invertible = vals.min() > tol * max(1.0, upper) if positive else (
            float(np.min(np.abs(vals))) > tol * max(1.0, upper))
    else:
        svals = np.linalg.svd(t.flat(), compute_uv=False)
        lower, upper = float(svals[-1]), float(svals[0])
        positive = False
        invertible = square and lower > tol * max(1.0, upper)
    return {
        "self_adjoint": bool(self_adjoint),
        "positive": bool(positive),
        "invertible": bool(invertible),
        "lower": lower,
        "upper": upper,
    }


def vector_from_flat_row(descriptor: AlgebraDescriptor, rank: int, row: np.ndarray) -> ModuleVector:
    """Module vector whose flattening has ``row`` as first row and zeros below.

    Used to turn an eigenvector of a flattened operator into a module-level
    witness: <S x, x> then has row^H F(S) row as its (0, 0) entry.
    """
    d = descriptor.dim
    row = np.asarray(row, dtype=np.complex128).reshape(rank, d)
    if descriptor.kind == MATRIX:
        coords = np.zeros((rank, d, d), dtype=np.complex128)
        coords[:, 0, :] = row
    else:
        coords = row.astype(np.complex128)
    return ModuleVector(descriptor, coords)


@dataclass(frozen=True)
class DirectSumSpace:
    """Weighted direct sum of standard modules, one summand per atom.

    The inner product of families is the weight-summed componentwise inner
    product.  ``stack`` embeds a family isometrically into one standard module
    A^M by scaling each component with sqrt(weight), so operators into the
    direct sum can be handled as ordinary adjointable operators into A^M.
    """

    descriptor: AlgebraDescriptor
    labels: tuple
    weights: tuple
    ranks: tuple

    def __post_init__(self):
        if not self.labels:
            raise InputError("direct sum needs at least one summand")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("duplicate summand labels")
        if any(w <= 0 for w in self.weights):
            raise InputError("weights must be positive")

    @property
    def total_rank(self) -> int:
        return int(sum(self.ranks))

    def _offsets(self):
        off = [0]
        for r in self.ranks:
            off.append(off[-1] + r)
        return off

    def stack(self, components: Mapping[str, ModuleVector]) -> ModuleVector:
        """sqrt(weight)-scaled concatenation of the components."""
        parts = []
        for label, weight, rank in zip(self.labels, self.weights, self.ranks):
            x = components[label]
            if x.rank != rank or x.descriptor != self.descriptor:
                raise InputError(f"component {label!r} has wrong shape")
            parts.append(np.sqrt(weight) * x.coords)
        return ModuleVector(self.descriptor, np.concatenate(parts, axis=0))

    def stack_operator(self, component_ops: Mapping[str, AdjointableOperator]) -> AdjointableOperator:
        """Operator A^n -> A^M whose component at each atom is the given map."""
        blocks = []
        for label, weight in zip(self.labels, self.weights):
            op = component_ops[label]
            blocks.append(np.sqrt(weight) * op.blocks)
        return AdjointableOperator(self.descriptor, np.concatenate(blocks, axis=1))

    def component_operator(self, t: AdjointableOperator, label: str) -> AdjointableOperator:
        """Projection of a map into the direct sum onto one summand."""
        idx = self.labels.index(label)
        offsets = self._offsets()
        piece = t.blocks[:, offsets[idx]:offsets[idx + 1]]
        return AdjointableOperator(self.descriptor, piece / np.sqrt(self.weights[idx]))

    def inner(self, x: Mapping[str, ModuleVector], y: Mapping[str, ModuleVector]) -> AlgebraElement:
        total = AlgebraElement.zero(self.descriptor)
        for label, weight in zip(self.labels, self.weights):
            total = total + weight * x[label].inner(y[label])
        return total

    def norm(self, x: Mapping[str, ModuleVector]) -> float:
        return float(np.sqrt(max(self.inner(x, x).norm(), 0.0)))


@dataclass(frozen=True, eq=False)
class DirectSumVector:
    """A family {x_w} in a weighted direct sum."""

    space: DirectSumSpace
    components: dict

    def inner(self, other: "DirectSumVector") -> AlgebraElement:
        return self.space.inner(self.components, other.components)

    def norm(self) -> float:
        return self.space.norm(self.components)

    def __getitem__(self, label: str) -> ModuleVector:
        return self.components[label]

"""Finite-dimensional C*-algebra scalars.

Two kinds of algebra are supported: the full matrix algebra M_d(C) and the
diagonal algebra C^k (componentwise product).  Elements of either kind carry
their descriptor, and every operation checks descriptor compatibility.  All
values are immutable; operations are pure functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InputError

MATRIX = "matrix"
DIAGONAL = "diagonal"

DEFAULT_TOL = 1e-9
DEFAULT_COND_CAP = 1e12


def tolerance_scale(*norms):
    """The scale a tolerance is relative to: the largest of the norms, never below 1.

    Every threshold is ``tol * tolerance_scale(...)`` times a fixed factor,
    and every relative residual is divided by it.  Scalars give a Python
    float; if any norm is an array the scale is taken elementwise.  The
    scalar path is a plain ``max``: the theorem suite calls it thousands of
    times per pass.
    """
    for norm in norms:
        if isinstance(norm, np.ndarray):
            return functools.reduce(np.maximum, norms, 1.0)
    return float(max(1.0, *norms))


@dataclass(frozen=True)
class AlgebraDescriptor:
    """Identifies the scalar algebra: M_d(C) (kind="matrix") or C^k (kind="diagonal")."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (MATRIX, DIAGONAL):
            raise InputError(f"unknown algebra kind {self.kind!r}")
        if self.dim < 1:
            raise InputError("algebra dimension must be >= 1")

    @property
    def entry_count(self) -> int:
        return self.dim * self.dim if self.kind == MATRIX else self.dim


def _check_same(a: "AlgebraElement", b: "AlgebraElement") -> None:
    if a.descriptor != b.descriptor:
        raise InputError(
            f"algebra mismatch: {a.descriptor} vs {b.descriptor}"
        )


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One element of a finite-dimensional C*-algebra.

    ``data`` is a (d, d) complex array for the matrix kind and a length-k
    complex vector for the diagonal kind.
    """

    descriptor: AlgebraDescriptor
    data: np.ndarray

    def __post_init__(self):
        d = self.descriptor
        want = (d.dim, d.dim) if d.kind == MATRIX else (d.dim,)
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != want:
            raise InputError(f"entry shape {arr.shape} does not match {want}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(descriptor: AlgebraDescriptor) -> "AlgebraElement":
        shape = (descriptor.dim, descriptor.dim) if descriptor.kind == MATRIX else (descriptor.dim,)
        return AlgebraElement(descriptor, np.zeros(shape, dtype=np.complex128))

    @staticmethod
    def one(descriptor: AlgebraDescriptor) -> "AlgebraElement":
        if descriptor.kind == MATRIX:
            return AlgebraElement(descriptor, np.eye(descriptor.dim, dtype=np.complex128))
        return AlgebraElement(descriptor, np.ones(descriptor.dim, dtype=np.complex128))

    @staticmethod
    def scalar(descriptor: AlgebraDescriptor, value: complex) -> "AlgebraElement":
        """value times the unit element."""
        return AlgebraElement.one(descriptor) * complex(value)

    @staticmethod
    def diag(values: Iterable[complex]) -> "AlgebraElement":
        vals = np.asarray(list(values), dtype=np.complex128)
        return AlgebraElement(AlgebraDescriptor(DIAGONAL, len(vals)), vals)

    @staticmethod
    def matrix(rows) -> "AlgebraElement":
        arr = np.asarray(rows, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InputError("matrix element must be square")
        return AlgebraElement(AlgebraDescriptor(MATRIX, arr.shape[0]), arr)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return AlgebraElement(self.descriptor, self.data + other.data)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same(self, other)
        return AlgebraElement(self.descriptor, self.data - other.data)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.descriptor, -self.data)

    def __mul__(self, other):
        """Algebra product, or scaling by a complex number."""
        if isinstance(other, AlgebraElement):
            _check_same(self, other)
            if self.descriptor.kind == MATRIX:
                return AlgebraElement(self.descriptor, self.data @ other.data)
            return AlgebraElement(self.descriptor, self.data * other.data)
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.descriptor, self.data * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.descriptor, complex(other) * self.data)
        return NotImplemented

    # -- involution, norm, order -------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        if self.descriptor.kind == MATRIX:
            return AlgebraElement(self.descriptor, self.data.conj().T)
        return AlgebraElement(self.descriptor, self.data.conj())

    def _finite_matrix(self) -> np.ndarray:
        if not np.all(np.isfinite(self.data)):
            raise DomainError("non-finite entries")
        return self.data

    def norm(self) -> float:
        """C*-norm: largest singular value (matrix) or max modulus (diagonal)."""
        if self.descriptor.kind == MATRIX:
            return float(two_norm(self._finite_matrix()))
        return float(np.max(np.abs(self.data)))

    def hermitian_defect(self) -> float:
        return (self - self.adjoint()).norm()

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return self.hermitian_defect() <= tol * tolerance_scale(self.norm())

    def eigenvalues_hermitian(self) -> np.ndarray:
        """Real spectrum of the Hermitian part, ascending."""
        if self.descriptor.kind == MATRIX:
            h = 0.5 * (self.data + self.data.conj().T)
            return np.linalg.eigvalsh(h)
        return np.sort(self.data.real)

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian within tol with spectrum bounded below by -tol * tolerance_scale(norm)."""
        if not self.is_hermitian(tol):
            return False
        thresh = tol * tolerance_scale(self.norm())
        return bool(self.eigenvalues_hermitian()[0] >= -thresh)

    def sqrt_positive(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Positive square root via spectral decomposition, negative eigenvalues clamped."""
        if not self.is_positive(tol):
            raise DomainError("square root requires a positive element")
        if self.descriptor.kind == MATRIX:
            h = 0.5 * (self.data + self.data.conj().T)
            vals, vecs = np.linalg.eigh(h)
            vals = np.clip(vals, 0.0, None)
            root = (vecs * np.sqrt(vals)) @ vecs.conj().T
            return AlgebraElement(self.descriptor, root)
        vals = np.clip(self.data.real, 0.0, None)
        return AlgebraElement(self.descriptor, np.sqrt(vals).astype(np.complex128))

    def invert(self) -> "AlgebraElement":
        """Inverse, refused when the condition number exceeds DEFAULT_COND_CAP."""
        if self.descriptor.kind == MATRIX:
            svals = np.linalg.svd(self._finite_matrix(), compute_uv=False)
            sigma_min, scale = float(svals[-1]), float(svals[0])
        else:
            moduli = np.abs(self.data)
            sigma_min, scale = float(np.min(moduli)), float(np.max(moduli))
        if sigma_min <= 0.0 or sigma_min < scale / DEFAULT_COND_CAP:
            cond = np.inf if sigma_min == 0.0 else scale / sigma_min
            raise DomainError(
                f"element is singular or ill-conditioned (condition estimate {cond:.3e})"
            )
        if self.descriptor.kind == MATRIX:
            return AlgebraElement(self.descriptor, np.linalg.inv(self.data))
        return AlgebraElement(self.descriptor, 1.0 / self.data)


def finite_spectrum(routine, mats: np.ndarray, **options):
    """``routine(mats, **options)``, a numpy.linalg spectral routine, or a DomainError.

    LAPACK raises on NaN entries and returns NaN on infinite ones.  The test
    reads the result, so on success it is one sum over the spectrum, taken in
    Python: on spectra this small that costs less than a numpy reduction.
    """
    try:
        result = routine(mats, **options)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"spectral computation failed: {exc}") from exc
    values = result[0] if isinstance(result, tuple) else result
    if not math.isfinite(sum(values.ravel().tolist())):
        raise DomainError("spectral computation overflowed: entries too large or not finite")
    return result


def two_norm(mats: np.ndarray):
    """Largest singular value of a matrix, or of each matrix in a (..., rows, cols) stack.

    LAPACK returns singular values in descending order, so this is
    ``np.linalg.norm(mats, 2, axis=(-2, -1))`` bit for bit, without the
    wrapper that costs as much as the SVD on small matrices.
    """
    return finite_spectrum(np.linalg.svd, mats, compute_uv=False)[..., 0]


def element_norms(descriptor: AlgebraDescriptor, data: np.ndarray) -> np.ndarray:
    """C*-norms of a stack of element data, shaped (..., d, d) or (..., k)."""
    if descriptor.kind == MATRIX:
        return two_norm(data)
    return np.max(np.abs(data), axis=-1)


def is_positive_by_norm_shift(a: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Positivity via the norm-shift criterion: ||a - t*1|| <= t for t = ||a||.

    Equivalent to the spectral test for Hermitian elements; the comparison is
    slackened by tol*max(1, ||a||) so the two tests agree at the same threshold.
    """
    if not a.is_hermitian(tol):
        raise InputError("norm-shift positivity requires a Hermitian element")
    t = a.norm()
    shifted = a - AlgebraElement.scalar(a.descriptor, t)
    return shifted.norm() <= t + tol * tolerance_scale(t)


def leq(a: AlgebraElement, b: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Order relation a <= b, i.e. b - a positive.  Both sides must be Hermitian."""
    _check_same(a, b)
    if not a.is_hermitian(tol) or not b.is_hermitian(tol):
        raise InputError("order comparison requires Hermitian elements")
    return (b - a).is_positive(tol)

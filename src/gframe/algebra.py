"""Finite-dimensional C*-algebras, their elements, and the one channel kernel.

The algebra is M_d(C) or the diagonal C^k, and this is the only module that
knows how a kind is laid out.  An element's data has the descriptor's
``shape``, (d, d) or (k,), and a module vector holds one such block per
coordinate.  An operator holds its channels, the per-channel matrices of its
blocks: the flattening for M_d, k matrices for C^k (k independent copies of
C).  ``as_channels`` reads blocks as channels and ``from_channels`` undoes
it.  An element is a 1 x 1 block, channels (1, d, d) or (k, 1, 1), so
elements and operators share the spectral functions of a channel stack, and
each LAPACK call in them goes through ``finite_spectrum``.  Values are
immutable and check that their descriptors agree.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, InputError

MATRIX = "matrix"
DIAGONAL = "diagonal"

DEFAULT_TOL = 1e-9
DEFAULT_COND_CAP = 1e12


def _are_numbers(values) -> bool:
    """Whether every value is a real number other than a boolean, judged on the set of their types."""
    return all(issubclass(kind, numbers.Real) and not issubclass(kind, bool)
               for kind in set(map(type, values)))


def tolerance_scale(*norms):
    """The scale a tolerance is relative to: the largest of the norms, never below 1.

    Every threshold is ``tol * tolerance_scale(...)`` times a fixed factor,
    and every relative residual is divided by it.  Scalars give a Python
    float; if any norm is an array the scale is taken elementwise.  The
    scalar path is a plain ``max``: the theorem suite calls it thousands of
    times per pass.  The floor at 1 makes ``value <= tol`` enough for
    ``value <= tol * tolerance_scale(norm)``, which ``within_tolerance`` uses.
    """
    for norm in norms:
        if isinstance(norm, np.ndarray):
            return functools.reduce(np.maximum, norms, 1.0)
    return float(max(1.0, *norms))


def within_tolerance(value: float, tol: float, norm) -> bool:
    """``value <= tol * tolerance_scale(norm())``, calling ``norm`` only when value > tol.

    Exact because the scale is never below 1: the norm cannot move a value
    already within tol.  This is the one place that relies on that floor.
    """
    return bool(value <= tol or value <= tol * tolerance_scale(norm()))


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

    @functools.cached_property
    def shape(self) -> tuple:
        """The shape of an element's data: (d, d) for M_d, (k,) for C^k."""
        return (self.dim, self.dim) if self.kind == MATRIX else (self.dim,)

    @property
    def entry_count(self) -> int:
        return math.prod(self.shape)


def channel_layout(descriptor: AlgebraDescriptor) -> tuple:
    """(number of channels, rows and columns per module coordinate in a channel)."""
    if descriptor.kind == MATRIX:
        return 1, descriptor.dim
    return descriptor.dim, 1


def as_channels(descriptor: AlgebraDescriptor, blocks: np.ndarray) -> np.ndarray:
    """(..., n, m) + element shape -> (..., 1, n d, m d) for M_d, (..., k, n, m) for C^k."""
    if descriptor.kind == MATRIX:
        *lead, n, m, d, _ = blocks.shape
        return blocks.swapaxes(-3, -2).reshape(*lead, 1, n * d, m * d)
    return blocks.swapaxes(-1, -2).swapaxes(-2, -3)


def from_channels(descriptor: AlgebraDescriptor, chans: np.ndarray) -> np.ndarray:
    """Inverse of ``as_channels``: (..., c, rows, cols) -> (..., n, m) + element shape."""
    if descriptor.kind == MATRIX:
        d = descriptor.dim
        *lead, _, rows, cols = chans.shape
        return chans.reshape(*lead, rows // d, d, cols // d, d).swapaxes(-3, -2)
    return chans.swapaxes(-3, -2).swapaxes(-2, -1)


# -- the spectral kernel: functions of a (channels, rows, cols) stack ----------

# The spectrum size up to which testing each value with math.isfinite in
# Python is faster than np.isfinite, whose fixed cost about 40 such tests match.
_PYTHON_TEST_SIZE = 40


def finite_spectrum(routine, mats: np.ndarray, **options):
    """``routine(mats, **options)``, a numpy.linalg routine or ``np.abs``, or a DomainError.

    LAPACK raises on NaN entries and returns NaN on infinite ones.  The test
    reads each value of the result: up to _PYTHON_TEST_SIZE real values in
    Python, which costs less than a numpy reduction there; larger stacks, such
    as the 1 x 1 norms of many atoms, and complex ones take ``np.isfinite``.
    """
    try:
        result = routine(mats, **options)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"spectral computation failed: {exc}") from exc
    values = result[0] if isinstance(result, tuple) else result
    if not (all(map(math.isfinite, values.ravel().tolist()))
            if values.size <= _PYTHON_TEST_SIZE and values.dtype.kind == "f"
            else np.isfinite(values).all()):
        raise DomainError("spectral computation overflowed: entries too large or not finite")
    return result


def two_norm(mats: np.ndarray):
    """Largest singular value of a matrix, or of each matrix in a (..., rows, cols) stack.

    A 1 x 1 matrix's singular value is its modulus, which is exact and
    overflows only when the norm does.  An all-zero stack (one count, in
    which NaN and infinities are non-zero) gives zeros without LAPACK.  Every
    other shape takes one batched SVD; LAPACK returns singular values in
    descending order, so that is ``np.linalg.norm(mats, 2, axis=(-2, -1))``
    bit for bit, without the wrapper that costs as much as the SVD on small
    matrices.
    """
    if mats.shape[-2:] == (1, 1):
        return finite_spectrum(np.abs, mats)[..., 0, 0]
    if not np.count_nonzero(mats):
        return np.zeros(mats.shape[:-2], dtype=mats.real.dtype)
    return finite_spectrum(np.linalg.svd, mats, compute_uv=False)[..., 0]


def hermitian_transpose(chans: np.ndarray) -> np.ndarray:
    return chans.conj().swapaxes(-1, -2)


def hermitian_part(chans: np.ndarray) -> np.ndarray:
    return 0.5 * (chans + hermitian_transpose(chans))


def singular_values(chans: np.ndarray) -> np.ndarray:
    """Descending singular values over all channels, for C^k the k spectra together; zeros
    without LAPACK for an all-zero stack, as in ``two_norm``."""
    if not np.count_nonzero(chans):
        return np.zeros(math.prod(chans.shape[:-2]) * min(chans.shape[-2:]), dtype=chans.real.dtype)
    return np.sort(finite_spectrum(np.linalg.svd, chans, compute_uv=False), axis=None)[::-1]


def hermitian_defect(chans: np.ndarray) -> float:
    """The norm of T - T*: the largest channel 2-norm of the difference, for square channels."""
    if chans.shape[-2] != chans.shape[-1]:
        raise DomainError(f"Hermitian defect of non-square {chans.shape[-2]} x {chans.shape[-1]} channels")
    return float(two_norm(chans - hermitian_transpose(chans)).max())


def eigenvalues_hermitian(chans: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian part over all channels."""
    herm = hermitian_part(chans)
    eigs = np.sort(finite_spectrum(np.linalg.eigvalsh, herm), axis=None)
    # eigvalsh can return finite values for a NaN on the diagonal; the
    # trace, which is the sum of the eigenvalues, keeps the NaN.
    if not math.isfinite(sum(herm.diagonal(0, -2, -1).real.ravel().tolist())):
        raise DomainError("spectral computation overflowed: entries too large or not finite")
    return eigs


def inverse(chans: np.ndarray, svals: np.ndarray, what: str) -> np.ndarray:
    """Inverse channel by channel, refused beyond condition number DEFAULT_COND_CAP.

    ``svals`` are the stack's ``singular_values``; ``what`` names it in the error.
    """
    if svals[-1] <= 0.0 or svals[-1] < svals[0] / DEFAULT_COND_CAP:
        cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
        raise DomainError(f"{what} is singular or ill-conditioned (condition estimate {cond:.3e})")
    return np.linalg.inv(chans)


def polynomial_roots(chans: np.ndarray, coeffs, norm: float, defect: float, tol: float,
                     what: str) -> Iterator[np.ndarray]:
    """Roots V diag(sqrt(max(p_w(mu), 0))) V* of p_w(T) = sum_j coeffs[w][j] T^j, one per row,
    made when read, from one eigh T = V diag(mu) V*.  Refuses a Hermitian defect above tol *
    tolerance_scale(norm) or a p_w(mu) below -tol * tolerance_scale(sum_j |c_j| norm^j)."""
    mu, vecs = finite_spectrum(np.linalg.eigh, hermitian_part(chans))
    refused, values = defect > tol * tolerance_scale(norm), []
    for row in coeffs:
        value = bound = 0.0
        for c in reversed(row):  # Horner's rule for p_w(mu) and for the bound
            value, bound = value * mu + c, bound * norm + abs(c)
        refused |= value.min() < -tol * tolerance_scale(bound)
        values.append(value)
    if refused:
        raise DomainError(f"{what} square root requires a positive {what}")
    vecs_h = hermitian_transpose(vecs)
    return ((vecs * np.sqrt(np.clip(value, 0.0, None))[:, None, :]) @ vecs_h for value in values)


def element_norms(descriptor: AlgebraDescriptor, data: np.ndarray) -> np.ndarray:
    """C*-norms of a stack of element data, shaped (...,) + the element shape.

    Each element is a 1 x 1 block, so its norm is the largest ``two_norm``
    of its channels: one SVD for M_d, the largest entry modulus for C^k.  A
    non-finite entry raises ``finite_spectrum``'s DomainError in both kinds.
    """
    lead = data.shape[:data.ndim - len(descriptor.shape)]
    blocks = data.reshape(lead + (1, 1) + descriptor.shape)
    return two_norm(as_channels(descriptor, blocks)).max(axis=-1)


def _check_same(a: "AlgebraElement", b: "AlgebraElement") -> None:
    if a.descriptor != b.descriptor:
        raise InputError(f"algebra mismatch: {a.descriptor} vs {b.descriptor}")


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """One element of a finite-dimensional C*-algebra.

    ``data`` has the descriptor's shape: a (d, d) complex array for M_d and a
    length-k complex vector for C^k.  Products, the adjoint and the spectral
    data are computed on ``channels()`` by the channel kernel.
    """

    descriptor: AlgebraDescriptor
    data: np.ndarray

    def __post_init__(self):
        want = self.descriptor.shape
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.shape != want:
            raise InputError(f"entry shape {arr.shape} does not match {want}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(descriptor: AlgebraDescriptor) -> "AlgebraElement":
        return AlgebraElement(descriptor, np.zeros(descriptor.shape, dtype=np.complex128))

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

    # -- channels ------------------------------------------------------------

    def channels(self) -> np.ndarray:
        """The element as a 1 x 1 block: channels (1, d, d) for M_d, (k, 1, 1) for C^k."""
        return as_channels(self.descriptor, self.data[None, None])

    def _from_channels(self, chans: np.ndarray) -> "AlgebraElement":
        return AlgebraElement(self.descriptor, from_channels(self.descriptor, chans)[0, 0])

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
            return self._from_channels(self.channels() @ other.channels())
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.descriptor, self.data * complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, np.number)):
            return AlgebraElement(self.descriptor, complex(other) * self.data)
        return NotImplemented

    # -- involution, norm, order -------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        return self._from_channels(hermitian_transpose(self.channels()))

    def norm(self) -> float:
        """C*-norm: the largest singular value of any channel."""
        return float(singular_values(self.channels())[0])

    def hermitian_defect(self) -> float:
        return hermitian_defect(self.channels())

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return within_tolerance(self.hermitian_defect(), tol, self.norm)

    def eigenvalues_hermitian(self) -> np.ndarray:
        """Real spectrum of the Hermitian part, ascending."""
        return eigenvalues_hermitian(self.channels())

    def is_positive(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian within tol with spectrum bounded below by -tol * tolerance_scale(norm)."""
        return self.is_hermitian(tol) and within_tolerance(
            -self.eigenvalues_hermitian()[0], tol, self.norm)

    def sqrt_positive(self, tol: float = DEFAULT_TOL) -> "AlgebraElement":
        """Positive square root via spectral decomposition, negative eigenvalues clamped."""
        root = next(polynomial_roots(self.channels(), ((0.0, 1.0),), self.norm(),
                                     self.hermitian_defect(), tol, "element"))
        return self._from_channels(root)

    def invert(self) -> "AlgebraElement":
        """Inverse, refused when the condition number exceeds DEFAULT_COND_CAP."""
        chans = self.channels()
        return self._from_channels(inverse(chans, singular_values(chans), "element"))


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

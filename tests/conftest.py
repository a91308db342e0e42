"""Shared fixtures and independent oracles.

The oracles here recompute quantities with plain numpy loops and closed-form
formulas, never through the library's own assembly paths, so tests compare
two independent routes.
"""

import numpy as np
import pytest

from gframe.algebra import AlgebraDescriptor, AlgebraElement
from gframe.frames import GFrameSystem
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator, ModuleVector
from gframe.measure import MeasureSpace
from gframe.sampling import rand_invertible_operator


# Seeded random systems for oracle parity: both algebra kinds, non-commuting
# controls, and members whose output ranks differ (pad_outputs).
ORACLE_SYSTEMS = (
    dict(seed=21, rank=3, algebra="matrix", dim=2),
    dict(seed=22, rank=2, algebra="diagonal", dim=3),
    dict(seed=23, rank=2, algebra="matrix", dim=2, commuting=False),
    dict(seed=24, rank=3, algebra="diagonal", dim=3, commuting=False),
    dict(seed=25, rank=2, algebra="matrix", dim=2, pad_outputs=True),
    dict(seed=26, rank=3, algebra="diagonal", dim=2, commuting=False, pad_outputs=True),
)


def count_operators(monkeypatch) -> list:
    """A list that grows by (in rank, out rank) for every AdjointableOperator built from now on."""
    built = []
    original = AdjointableOperator.__post_init__

    def counted(self):
        original(self)
        built.append((self.in_rank, self.out_rank))

    monkeypatch.setattr(AdjointableOperator, "__post_init__", counted)
    return built


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop matrix product."""
    n, m = a.shape[0], b.shape[1]
    out = np.zeros((n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(m):
            acc = 0.0 + 0.0j
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def eig2x2_hermitian(m: np.ndarray):
    """Eigenvalues of a 2x2 Hermitian matrix by the quadratic formula."""
    tr = float(np.real(m[0, 0] + m[1, 1]))
    det = float(np.real(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    disc = np.sqrt(max(tr * tr / 4.0 - det, 0.0))
    return tr / 2.0 - disc, tr / 2.0 + disc


def positive_by_norm_shift(a: AlgebraElement, tol: float = 1e-9) -> bool:
    """Positivity of a Hermitian element by the norm-shift criterion ||a - t 1|| <= t, t = ||a||.

    It reads two norms and never the spectrum, so it checks ``is_positive``
    by another route.  The comparison is slackened by tol * max(1, t), so the
    two agree at the same threshold.
    """
    if not a.is_hermitian(tol):
        raise ValueError("the norm-shift criterion needs a Hermitian element")
    t = a.norm()
    return (a - AlgebraElement.scalar(a.descriptor, t)).norm() <= t + tol * max(1.0, t)


def vector_from_doc(doc: dict) -> ModuleVector:
    """The module vector of a ``serialize.vector_to_dict`` document, decoded with numpy."""
    first = doc["coords"][0]
    desc = AlgebraDescriptor(first["kind"], first["dim"])
    pairs = np.array([coord["entries"] for coord in doc["coords"]], dtype=np.float64)
    coords = pairs[..., 0] + 1j * pairs[..., 1]
    return ModuleVector(desc, coords.reshape((doc["rank"],) + desc.shape))


def brute_force_frame_operator_flat(system: GFrameSystem) -> np.ndarray:
    """Weighted sum of flattened factor products, using raw numpy only."""
    fc = system.controls.C.flat()
    fcp = system.controls.Cp.flat()
    total = None
    for label, weight in system.measure.atoms:
        fl = system.family[label].flat()
        term = weight * (fc @ fl @ fl.conj().T @ fcp)
        total = term if total is None else total + term
    return total


def brute_force_multiplier_flat(gamma, lam, theta, measure) -> np.ndarray:
    total = None
    for label, weight in measure.atoms:
        term = weight * complex(gamma[label]) * (theta[label].flat() @ lam[label].flat().conj().T)
        total = term if total is None else total + term
    return total


def brute_force_controlled_multiplier_flat(gamma, theta, lam, c, cp, measure) -> np.ndarray:
    """flat of the weighted sum of gamma_w C theta_w* Lambda_w C', atom by atom."""
    total = None
    for label, weight in measure.atoms:
        term = weight * complex(gamma[label]) * (
            cp.flat() @ lam[label].flat() @ theta[label].flat().conj().T @ c.flat())
        total = term if total is None else total + term
    return total


def brute_force_reconstruction_flat(system: GFrameSystem, dual, k=None) -> np.ndarray:
    """flat of the weighted sum of C' Lambda_w* Gamma_w K C, atom by atom."""
    fk = np.eye(system.controls.C.flat().shape[0]) if k is None else k.flat()
    total = None
    for label, weight in system.measure.atoms:
        term = weight * (system.controls.C.flat() @ fk @ dual[label].flat()
                         @ system.family[label].flat().conj().T @ system.controls.Cp.flat())
        total = term if total is None else total + term
    return total


def brute_force_right_inverse_residual(seed: int, k_factor: float = 1.0) -> float:
    """T55's exact residual on its default instance, from the flattening.

    max(||K T* R_0 - I||, ||K T* N||) for R_0 = T S^-1 K0^-1 and N = I - T S^-1 T*,
    where K0 is the row's companion and K = k_factor K0 the one it checks.
    """
    base = random_system(seed, commuting=True)
    system = base.with_controls(base.controls.C, base.controls.C)
    k0 = rand_invertible_operator(system.descriptor, system.module_rank,
                                  np.random.default_rng([seed, 14])).flat()
    t, s_inv = system.analysis_operator.flat(), np.linalg.inv(system.frame_operator.flat())
    kt_star = t.conj().T @ (k_factor * k0)  # flat(A after B) = flat(B) flat(A)
    particular = np.linalg.inv(k0) @ s_inv @ t
    kernel = np.eye(t.shape[1]) - t.conj().T @ s_inv @ t
    return max(np.linalg.norm(particular @ kt_star - np.eye(t.shape[0]), 2),
               np.linalg.norm(kernel @ kt_star, 2))


def brute_force_dual_family(system: GFrameSystem) -> dict:
    """Canonical dual members Lambda_w S^-1, one compose per atom."""
    s_inv = system.frame_operator.inverse()
    return {label: op @ s_inv for label, op in system.family.items()}


def brute_force_gram(system: GFrameSystem, x):
    """Weighted sum of <Lambda_w C x, Lambda_w C' x>, one operator application at a time."""
    cx, cpx = system.controls.C(x), system.controls.Cp(x)
    total = None
    for label, weight in system.measure.atoms:
        op = system.family[label]
        term = weight * op(cx).inner(op(cpx))
        total = term if total is None else total + term
    return total


@pytest.fixture
def m2():
    return AlgebraDescriptor("matrix", 2)


@pytest.fixture
def diag3():
    return AlgebraDescriptor("diagonal", 3)


@pytest.fixture
def identity_system(m2):
    """Single atom of weight one, identity member, identity controls."""
    measure = MeasureSpace(["w0"], [1.0])
    eye = AdjointableOperator.identity(m2, 2)
    return GFrameSystem(measure, {"w0": eye}, eye, eye)


@pytest.fixture
def unit_interval():
    return unit_interval_system(1.0, 1.0, 3, 11)


@pytest.fixture
def unit_interval_23():
    return unit_interval_system(2.0, 3.0, 3, 11)


def tight_line_system(scale: float = 1.0, rank: int = 3, nodes: int = 11) -> GFrameSystem:
    """Diagonal family w -> scale * w * identity; tight bounds scale/sqrt(3)."""
    from gframe.measure import simpson_unit_interval

    measure, positions = simpson_unit_interval(nodes)
    desc = AlgebraDescriptor("diagonal", rank)
    family = {}
    for label, w in zip(measure.labels, positions):
        family[label] = AdjointableOperator.from_blocks(
            desc, (scale * w * np.ones(rank, dtype=np.complex128)).reshape(1, 1, rank))
    eye = AdjointableOperator.identity(desc, 1)
    return GFrameSystem(measure, family, eye, eye)

"""Controlled operator-valued frame systems over finite-dimensional Hilbert
C*-modules: algebra and module primitives, frame operators and bounds, duals,
multipliers, an executable theorem suite, and perturbation checks."""

__version__ = "0.1.0"

from .algebra import AlgebraDescriptor, AlgebraElement
from .errors import (
    DomainError,
    GFrameError,
    InputError,
    UnsupportedConfigurationError,
)
from .frames import (
    ControlPair,
    DualCertificate,
    Family,
    FrameBounds,
    GFrameSystem,
    canonical_dual,
    check_frame,
    controlled_multiplier,
    multiplier,
    optimal_scalar_bounds,
)
from .hilbert import (
    AdjointableOperator,
    ModuleVector,
    compose,
    positive_part_checks,
    stack,
)
from .measure import MeasureSpace, simpson_unit_interval
from .reports import TheoremReport
from .stability import (
    additive_perturbation_check,
    check_equivalence_M,
    sum_frame_check,
    weighted_perturbation_check,
)
from .theorems import THEOREM_IDS, verify_theorem

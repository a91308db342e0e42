"""Finite atomic measure spaces and quadrature rules.

Every integral in the library is a finite weighted sum over labelled atoms.
``simpson_unit_interval`` supplies composite Simpson weights on [0, 1], exact
for polynomial integrands of degree up to three.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping

import numpy as np

from .algebra import AlgebraElement
from .errors import InputError


@dataclass(frozen=True)
class MeasureSpace:
    """Ordered finite family of (label, weight) atoms with positive weights."""

    atoms: tuple  # tuple of (label, weight)

    def __post_init__(self):
        try:
            columns = tuple(zip(*self.atoms, strict=True))
            if not columns:
                raise InputError("measure space needs at least one atom")
            labels, weights = columns
            weights = np.fromiter(weights, np.float64, count=len(weights))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"atom weights must be numbers: {exc}") from exc
        labels = tuple(map(str, labels))
        if len(set(labels)) != len(labels):
            raise InputError("atom labels must be unique")
        # Finiteness first: an ordered comparison with NaN may set the invalid
        # flag, which the commands' errstate raises.
        if not (np.isfinite(weights).all() and weights.min() > 0):
            raise InputError("atom weights must be positive and finite")
        object.__setattr__(self, "atoms", tuple(zip(labels, weights.tolist())))

    @cached_property
    def labels(self) -> tuple:
        return tuple(map(itemgetter(0), self.atoms))

    @cached_property
    def weights(self) -> tuple:
        return tuple(map(itemgetter(1), self.atoms))

    def integrate(self, values: Mapping[str, AlgebraElement]) -> AlgebraElement:
        """Weighted sum of an algebra-valued function given per atom."""
        total = None
        for label, weight in self.atoms:
            if label not in values:
                raise InputError(f"integrand missing atom {label!r}")
            term = weight * values[label]
            total = term if total is None else total + term
        return total


def atom_label(index: int, count: int) -> str:
    """Zero-padded atom label so lexicographic order matches atom order."""
    width = max(1, len(str(count - 1)))
    return f"w{index:0{width}d}"


def simpson_unit_interval(nodes: int) -> tuple:
    """Composite Simpson rule on [0, 1] with an odd number of nodes.

    Returns (measure, positions) where positions[i] is the abscissa of the
    atom with the same index.  Weights sum to one and the rule is exact for
    cubics, so smooth low-degree integrands incur only roundoff error.
    """
    if nodes < 3 or nodes % 2 == 0:
        raise InputError("Simpson rule needs an odd node count >= 3")
    h = 1.0 / (nodes - 1)
    coeffs = [1.0] + [4.0 if i % 2 == 1 else 2.0 for i in range(1, nodes - 1)] + [1.0]
    weights = [c * h / 3.0 for c in coeffs]
    positions = tuple(i * h for i in range(nodes))
    atoms = tuple((atom_label(i, nodes), weights[i]) for i in range(nodes))
    return MeasureSpace(atoms), positions

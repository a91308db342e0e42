"""Finite atomic measure spaces and quadrature rules.

Every integral in the library is a finite weighted sum over labelled atoms.
A measure holds its atoms as two columns in the atom order: the labels, and
the weights as one float64 array.  Every other per-atom quantity (a
multiplier's symbol, a perturbation's weights) is an array in the same order:
a mapping by label is converted once, by ``MeasureSpace.per_atom``, where it
enters the library.  ``simpson_unit_interval`` supplies composite Simpson
weights on [0, 1], exact for polynomial integrands of degree up to three.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .algebra import AlgebraElement, _are_numbers
from .errors import InputError


class MeasureSpace:
    """Ordered finite family of labelled atoms with positive real weights.

    ``MeasureSpace(labels, weights)`` has atom i labelled labels[i] with
    weight weights[i].  ``labels`` is kept as a tuple of unique strings and
    ``weights`` as a read-only float64 array in the same order, both fixed at
    construction; ``atoms`` gives the (label, weight) pairs.  Two measures are
    equal when their labels and weights are.
    """

    def __init__(self, labels, weights):
        """Check and keep the two columns: string labels, unique, and positive finite weights."""
        labels = tuple(labels)
        if not labels:
            raise InputError("measure space needs at least one atom")
        try:
            if len(weights) != len(labels):
                raise InputError("a measure space needs one weight per atom label")
            if not _are_numbers(weights):
                label, weight = next((label, weight) for label, weight in zip(labels, weights)
                                     if not _are_numbers([weight]))
                raise InputError(f"weight of atom {label!r} must be a number, got {weight!r}")
            weights = np.fromiter(weights, np.float64, count=len(weights))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"atom weights must be numbers: {exc}") from exc
        if not all(issubclass(kind, str) for kind in set(map(type, labels))):
            label = next(label for label in labels if not isinstance(label, str))
            raise InputError(f"atom labels must be strings, got {label!r}")
        if len(set(labels)) != len(labels):
            raise InputError("atom labels must be unique")
        # Finiteness first: an ordered comparison with NaN may set the invalid
        # flag, which the commands' errstate raises.
        if not (np.isfinite(weights).all() and weights.min() > 0):
            raise InputError("atom weights must be positive and finite")
        weights.setflags(write=False)
        self.labels, self.weights = labels, weights

    @property
    def atoms(self) -> tuple:
        """The (label, weight) pairs in the atom order, the weights as Python floats."""
        return tuple(zip(self.labels, self.weights.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash((self.labels, self.weights.tobytes()))

    def __repr__(self) -> str:
        return f"MeasureSpace({self.labels!r}, {self.weights.tolist()!r})"

    def per_atom(self, values, what: str, dtype=np.float64) -> np.ndarray:
        """``values`` as one array in the atom order.

        ``values`` is a mapping by atom label, which must cover every atom and
        is converted once, or an array in the atom order.  A missing atom or
        an array of another length is an InputError that names ``what``.
        """
        if isinstance(values, Mapping):
            try:
                values = [values[label] for label in self.labels]
            except KeyError as exc:
                raise InputError(f"{what} missing atom {exc.args[0]!r}") from None
        try:
            array = np.asarray(values, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise InputError(f"{what} must be numbers: {exc}") from exc
        if array.shape != self.weights.shape:
            raise InputError(f"{what} needs one value per atom, {self.weights.size} in all, "
                             f"got an array of shape {array.shape}")
        return array

    def integrate(self, values: Mapping[str, AlgebraElement]) -> AlgebraElement:
        """Weighted sum of an algebra-valued function given per atom."""
        total = None
        for label, weight in self.atoms:
            if label not in values:
                raise InputError(f"integrand missing atom {label!r}")
            term = weight * values[label]
            total = term if total is None else total + term
        return total


def atom_labels(count: int) -> list:
    """Zero-padded labels of count atoms, in order, so lexicographic order matches atom order."""
    width = max(1, len(str(count - 1)))
    return [f"w{index:0{width}d}" for index in range(count)]


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
    return MeasureSpace(atom_labels(nodes), weights), positions

"""Verdict oracles for the benchmark.

An oracle inspects one CLI invocation, its exit code and its JSON report, and
returns the problems it found (an empty list means the verdict is right).
No oracle calls gframe: expected values come from closed forms or from raw
numpy on the input JSON.  ``corrupted()`` returns the same oracle with a wrong
expectation; the benchmark requires it to report a problem on the same
output, so no oracle can pass vacuously.
"""

from __future__ import annotations

import math

import numpy as np


# -- raw numpy view of the JSON formats ------------------------------------

def _entries(element: dict) -> np.ndarray:
    pairs = np.asarray(element["entries"], dtype=np.float64)
    return pairs[:, 0] + 1j * pairs[:, 1]


def _element_matrix(element: dict) -> np.ndarray:
    d = int(element["dim"])
    values = _entries(element)
    if element["kind"] == "matrix":
        return values.reshape(d, d)
    return np.diag(values)


def operator_flat(doc: dict) -> np.ndarray:
    """(n d) x (m d) matrix whose block (i, j) is the element t_ij."""
    blocks = np.array([[_element_matrix(e) for e in row] for row in doc["blocks"]])
    n, m, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(n * d, m * d)


def frame_operator_flat(system: dict) -> np.ndarray:
    """flat(S) = sum over atoms of w flat(C) flat(L) flat(L)^H flat(C')."""
    c = operator_flat(system["controls"]["C"])
    cp = operator_flat(system["controls"]["Cp"])
    total = np.zeros_like(c)
    for atom in system["measure"]["atoms"]:
        lam = operator_flat(system["family"][atom["label"]])
        total += atom["weight"] * (c @ lam @ lam.conj().T @ cp)
    return total


def spectral_bounds(flat_s: np.ndarray) -> tuple:
    """Tight scalar frame bounds: square roots of the extreme eigenvalues."""
    eigs = np.linalg.eigvalsh(0.5 * (flat_s + flat_s.conj().T))
    return math.sqrt(max(eigs[0], 0.0)), math.sqrt(max(eigs[-1], 0.0))


# -- oracles ----------------------------------------------------------------

def _result(doc: dict, key: str):
    results = doc.get("results")
    if not isinstance(results, dict) or key not in results:
        raise KeyError(key)
    return results[key]


class Status:
    """Exit code and report status."""

    def __init__(self, rc: int = 0, status: str = "pass"):
        self.rc, self.status = rc, status

    def problems(self, rc: int, doc: dict) -> list:
        out = []
        if rc != self.rc:
            out.append(f"exit code {rc}, expected {self.rc}")
        if doc.get("status") != self.status:
            out.append(f"status {doc.get('status')!r}, expected {self.status!r}")
        return out

    def corrupted(self) -> "Status":
        return Status(1, "fail")


class Equal:
    """A result field equals a known value."""

    def __init__(self, key: str, expected):
        self.key, self.expected = key, expected

    def problems(self, rc: int, doc: dict) -> list:
        try:
            value = _result(doc, self.key)
        except KeyError:
            return [f"missing result {self.key!r}"]
        if value != self.expected or type(value) is not type(self.expected):
            return [f"{self.key} = {value!r}, expected {self.expected!r}"]
        return []

    def corrupted(self) -> "Equal":
        value = self.expected
        if isinstance(value, bool):
            return Equal(self.key, not value)
        if isinstance(value, int):
            return Equal(self.key, value + 1)
        return Equal(self.key, f"{value}-corrupted")


class Close:
    """A result number within a relative tolerance of its expected value."""

    def __init__(self, key: str, expected: float, rel: float):
        self.key, self.expected, self.rel = key, float(expected), rel

    def problems(self, rc: int, doc: dict) -> list:
        try:
            value = float(_result(doc, self.key))
        except (KeyError, TypeError, ValueError):
            return [f"missing or non-numeric result {self.key!r}"]
        if not abs(value - self.expected) <= self.rel * abs(self.expected):
            return [f"{self.key} = {value!r}, expected {self.expected!r} within {self.rel:g} relative"]
        return []

    def corrupted(self) -> "Close":
        return Close(self.key, self.expected * (1.0 + 1e3 * self.rel), self.rel)


class AtMost:
    """A result number at most a limit."""

    def __init__(self, key: str, limit: float):
        self.key, self.limit = key, limit

    def problems(self, rc: int, doc: dict) -> list:
        try:
            value = float(_result(doc, self.key))
        except (KeyError, TypeError, ValueError):
            return [f"missing or non-numeric result {self.key!r}"]
        if not value <= self.limit:
            return [f"{self.key} = {value!r} exceeds {self.limit!r}"]
        return []

    def corrupted(self) -> "AtMost":
        return AtMost(self.key, -1.0)


class OperatorClose:
    """The reported operator matches a reference flattening entrywise."""

    def __init__(self, key: str, flat_ref: np.ndarray, rel: float):
        self.key, self.flat_ref, self.rel = key, flat_ref, rel

    def problems(self, rc: int, doc: dict) -> list:
        try:
            flat = operator_flat(_result(doc, self.key))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return [f"unreadable operator {self.key!r}: {exc!r}"]
        if flat.shape != self.flat_ref.shape:
            return [f"{self.key} has shape {flat.shape}, expected {self.flat_ref.shape}"]
        scale = float(np.max(np.abs(self.flat_ref)))
        err = float(np.max(np.abs(flat - self.flat_ref)))
        if not err <= self.rel * scale:
            return [f"{self.key} differs from the numpy reference by {err:.3e}"]
        return []

    def corrupted(self) -> "OperatorClose":
        ref = self.flat_ref.copy()
        ref[0, 0] += 1e3 * self.rel * float(np.max(np.abs(ref)))
        return OperatorClose(self.key, ref, self.rel)


class AllRows:
    """A theorem report lists at least one row and every row has the status."""

    def __init__(self, status: str = "pass"):
        self.status = status

    def problems(self, rc: int, doc: dict) -> list:
        rows = doc.get("results")
        if not isinstance(rows, list) or not rows:
            return ["no theorem rows"]
        return [f"{row.get('theorem_id')} is {row.get('status')!r}, expected {self.status!r}"
                for row in rows if row.get("status") != self.status]

    def corrupted(self) -> "AllRows":
        return AllRows("fail")

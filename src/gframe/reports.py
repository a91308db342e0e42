"""Structured pass/fail records for executable checks.

Check lines are ``(name, passed, residual)`` triples, written out or built by
``within``, ``gap`` and ``frame_line``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CheckLine:
    """One named residual with its verdict."""

    name: str
    passed: bool
    residual: float

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "residual": float(self.residual)}


def within(name: str, residual: float, threshold: float) -> tuple:
    """Check line that passes when the residual is at most the threshold."""
    return name, residual <= threshold, residual


def gap(name: str, value: float, threshold: float) -> tuple:
    """Check line for an inequality: passes when value <= threshold, residual max(0, value)."""
    return name, value <= threshold, max(0.0, value)


def frame_line(name: str, bounds) -> tuple:
    """Check line for the frame verdict of a ``FrameBounds``."""
    return name, bounds.is_frame, 0.0 if bounds.is_frame else 1.0


def _lines(lines) -> list:
    return [CheckLine(name, bool(passed), float(residual)) for name, passed, residual in lines]


class _Ended(Exception):
    """A failed hypothesis ended the statement; only ``TheoremReport.gate`` catches this."""


@dataclass
class TheoremReport:
    """Record of one theorem check: hypotheses, then conclusion residuals.

    The conclusion is evaluated only when every hypothesis passes; otherwise
    the status is ``not_applicable``.
    """

    theorem_id: str
    tolerance: float
    seed: int | None = None  # set, and reported, only where a check draws from a seed
    hypotheses: list = field(default_factory=list)
    conclusions: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def require(self, *lines) -> None:
        """Record hypothesis lines; end the statement if one of them failed."""
        self.hypotheses += _lines(lines)
        if not self.hypotheses_pass:
            raise _Ended

    def conclude(self, *lines) -> None:
        self.conclusions += _lines(lines)

    @contextmanager
    def gate(self):
        """Run a statement body; a failed ``require`` ends the body here."""
        try:
            yield
        except _Ended:
            pass

    @property
    def hypotheses_pass(self) -> bool:
        return all(line.passed for line in self.hypotheses)

    @property
    def conclusion_passed(self) -> bool:
        return bool(self.conclusions) and all(line.passed for line in self.conclusions)

    @property
    def conclusion_residual(self) -> float:
        return max((line.residual for line in self.conclusions), default=0.0)

    @property
    def status(self) -> str:
        if not self.hypotheses_pass:
            return NOT_APPLICABLE
        return PASS if self.conclusion_passed else FAIL

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "status": self.status,
            "tolerance": float(self.tolerance),
            **({} if self.seed is None else {"seed": int(self.seed)}),
            "hypotheses": [line.to_dict() for line in self.hypotheses],
            "conclusions": [line.to_dict() for line in self.conclusions],
            "info": self.info,
        }

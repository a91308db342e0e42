"""One verdict path: check lines, the hypothesis gate and the CLI's exit codes.

``reports.py`` builds every check line and owns the rule that a failed
hypothesis ends a statement; ``cli._finish`` turns every verdict into a
report and an exit code.  The AST tests keep the retired copies of both from
coming back.
"""

import ast
from pathlib import Path

import pytest

from gframe.errors import DomainError
from gframe.frames import FrameBounds
from gframe.reports import FAIL, NOT_APPLICABLE, PASS, TheoremReport, frame_line, gap, within

SRC = Path(__file__).resolve().parent.parent / "src" / "gframe"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _called_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_retired_names_stay_gone():
    retired = {"PerturbationParams", "_RowEnded", "KINDS", "controlled_multiplier_report",
               "add_hypothesis", "add_conclusion",
               # The dense C^k model: every kernel reads the channels instead.
               "from_flat", "vector_from_flat_row", "modulus", "cond_cap",
               # Sampled "for all x" checks: every one is a loewner_gap test now.
               "sample_coords", "_sampled", "_gram_norms", "conjugate_by",
               "min_hermitian_eigenvalues", "extreme_witnesses",
               # The weighted direct sum: stack and unstack are its only model.
               "DirectSumSpace", "DirectSumVector", "direct_sum", "compose_all",
               "stack_operator", "component_operator", "analysis", "synthesis",
               # A family is one stack: no per-atom padding or restacking.
               "_padded_channels", "_stacked_channels",
               # The layout of a kind lives in algebra.py: descriptor.shape and
               # the channel kernel, which elements and operators share.
               "_coord_shape", "_finite_matrix"}
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            # Definitions, names, and parameters or keyword arguments (``arg``).
            defined = (getattr(node, "name", None) or getattr(node, "id", None)
                       or getattr(node, "arg", None))
            if defined in retired or getattr(node, "attr", None) in retired:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_spectral_call_goes_through_finite_spectrum():
    # An svd, eigh or eigvalsh of numpy.linalg is only ever handed to
    # finite_spectrum as its routine, never called or passed elsewhere.
    found = []
    for name, tree in _trees().items():
        guarded = {id(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and _called_name(node) == "finite_spectrum"
                   and node.args}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("svd", "eigh", "eigvalsh")
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                  and id(node) not in guarded]
    assert found == []


def test_no_einsum():
    # Products over coordinates are channel products (apply_stack, pairing).
    found = [f"{name}:{node.lineno}" for name, tree in _trees().items() for node in ast.walk(tree)
             if getattr(node, "attr", None) == "einsum" or getattr(node, "id", None) == "einsum"]
    assert found == []


def test_only_the_gate_reads_the_hypothesis_verdict():
    # A statement ends through require/gate, never through its own early exit.
    readers = [f"{name}:{node.lineno}" for name, tree in _trees().items() if name != "reports.py"
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "hypotheses_pass"]
    assert readers == []


def test_cli_reports_and_exit_codes_come_from_finish():
    tree = _trees()["cli.py"]
    callers = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            callers += [func.name for node in ast.walk(func)
                        if isinstance(node, ast.Call) and _called_name(node) == "_report"]
    assert callers == ["_finish"]


def test_require_records_the_failed_batch_and_ends_the_statement():
    report = TheoremReport("T", tolerance=1e-9, seed=0)
    reached = []
    with report.gate():
        report.require(("first", True, 0.0))
        report.require(("second", False, 2.0), ("third", True, 0.0))
        reached.append(True)
        report.conclude(("never", True, 0.0))
    assert reached == []
    assert [(line.name, line.passed) for line in report.hypotheses] == [
        ("first", True), ("second", False), ("third", True)]
    assert report.conclusions == []
    assert report.status == NOT_APPLICABLE


def test_gate_passes_other_errors_through():
    report = TheoremReport("T", tolerance=1e-9, seed=0)
    with pytest.raises(DomainError):
        with report.gate():
            report.require(("holds", True, 0.0))
            raise DomainError("degenerate")


def test_conclusions_decide_once_hypotheses_hold():
    report = TheoremReport("T", tolerance=1e-9, seed=0)
    with report.gate():
        report.require(("holds", True, 0.0))
        report.conclude(within("small", 1e-12, 1e-9))
    assert report.status == PASS
    with report.gate():
        report.conclude(gap("inequality", 0.5, 1e-9))
    assert report.status == FAIL
    assert report.conclusion_residual == 0.5


def test_check_line_constructors():
    assert within("w", 0.25, 0.5) == ("w", True, 0.25)
    assert within("w", 0.75, 0.5) == ("w", False, 0.75)
    assert gap("g", -3.0, 0.0) == ("g", True, 0.0)
    assert gap("g", 3.0, 1.0) == ("g", False, 3.0)
    assert frame_line("f", FrameBounds.from_scalars(1.0, 2.0)) == ("f", True, 0.0)
    assert frame_line("f", FrameBounds.from_scalars(0.0, 2.0)) == ("f", False, 1.0)

"""One tolerance rule: every threshold is tol * tolerance_scale(norms) times a fixed factor.

The AST test keeps hand-written ``max(1.0, ...)`` floors from coming back;
the signature tests keep the system's own checks at DEFAULT_TOL.
"""

import ast
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np

from gframe import algebra
from gframe.frames import ControlPair, GFrameSystem, multiplier_report
from gframe.generate import random_system
from gframe.hilbert import AdjointableOperator

SRC = Path(__file__).resolve().parent.parent / "src" / "gframe"


def _is_one(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value == 1.0


def _floor_sites():
    """(module, enclosing function) of every max or maximum call given a 1.0."""
    sites = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):
            # ast.walk reaches outer functions first, so the innermost one wins.
            if isinstance(func, ast.FunctionDef):
                owner.update({id(node): func.name for node in ast.walk(func)})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            args = [elt for arg in node.args
                    for elt in (arg.elts if isinstance(arg, (ast.Tuple, ast.List)) else [arg])]
            if callee in ("max", "maximum") and any(_is_one(arg) for arg in args):
                sites.add((path.name, owner.get(id(node))))
    return sites


def test_floors_go_through_tolerance_scale():
    # The two floors left are not tolerances: the bump that breaks commutation
    # and the clip of the multiplier's random symbol into the unit disc.
    assert _floor_sites() == {("algebra.py", "tolerance_scale"),
                              ("theorems.py", "_bump_control"),
                              ("cli.py", "_cmd_multiplier")}


def test_system_checks_take_no_tolerance():
    assert "tol" not in inspect.signature(GFrameSystem).parameters
    assert "tol" not in inspect.signature(ControlPair.build).parameters
    assert "tol" not in {field.name for field in dataclasses.fields(ControlPair)}
    assert "tol" not in inspect.signature(AdjointableOperator.times_central).parameters
    assert not hasattr(random_system(0), "tol")


def test_tolerance_scale_scalars():
    tolerance_scale = algebra.tolerance_scale
    assert tolerance_scale(0.25) == 1.0
    assert tolerance_scale(0.5, 3.0, 2.0) == 3.0
    scale = tolerance_scale(np.float64(7.0))
    assert scale == 7.0 and type(scale) is float
    assert type(tolerance_scale(np.float64(0.5))) is float


def test_tolerance_scale_arrays():
    tolerance_scale = algebra.tolerance_scale
    scale = tolerance_scale(np.array([0.5, 2.0, 0.1]), np.array([3.0, 0.25, 0.2]))
    np.testing.assert_array_equal(scale, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(tolerance_scale(1.5, np.array([0.5, 4.0])), [1.5, 4.0])


def test_control_flags_are_python_bools():
    # validate writes these flags with json.dumps, which rejects np.bool_.
    for kwargs in ({"seed": 0}, {"seed": 5, "commuting": False}, {"seed": 3, "algebra": "matrix"}):
        ctr = random_system(**kwargs).controls
        flags = [ctr.commute_each_other, ctr.commute_with_family]
        assert all(type(flag) is bool for flag in flags)
        json.dumps(flags)


def test_multiplier_report_owns_the_pass_rule():
    # Theta_w = Lambda_w C leaves an adjoint residual of a few ulps (on common
    # BLAS builds), which the rule accepts at the default tolerance.
    system = random_system(2, algebra="matrix")
    rng = np.random.default_rng(0)
    symbol = {label: complex(rng.standard_normal(), rng.standard_normal()) / 4
              for label in system.measure.labels}
    theta = {label: op @ system.controls.C for label, op in system.family.items()}
    verdicts = []
    for tol in (algebra.DEFAULT_TOL, 1e-20):
        rep = multiplier_report(symbol, dict(system.family), theta, system.measure, tol=tol)
        assert rep["passed"] == (rep["norm_within_bound"]
                                 and rep["adjoint_swapped_residual"] <= tol * 100)
        verdicts.append(rep["passed"])
    assert verdicts[0] is True

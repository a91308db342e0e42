"""Every function and method that the benchmark's tracer wraps exists in gframe.

``perfbench/layers.py`` looks each target up by name, in a module or in a
class ``__dict__``, so a renamed or deleted target fails the traced
benchmark run.  This test installs the same wrappers on the imported gframe
modules, calls one wrapped method, and checks that ``restore`` puts every
module and class attribute back.  ``perfbench/run.py`` is not loaded: it sets
the BLAS thread variables when imported.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(modules) -> list:
    """The modules and every class that they define."""
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("gframe.")}
    return [*modules, *sorted(classes, key=lambda cls: (cls.__module__, cls.__qualname__))]


def test_every_perfbench_target_exists_and_is_restored():
    layers, tracing = _load("layers"), _load("tracer")
    gf = SimpleNamespace(**{name: importlib.import_module(f"gframe.{name}")
                            for name in layers.LAYERS})
    owners = _owners(list(vars(gf).values()))
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(vars(gf).values())
    try:
        layers.install(tracer, gf)
        wrapped = [owner for owner, attrs in zip(owners, before) if dict(vars(owner)) != attrs]
        assert gf.algebra.AlgebraElement in wrapped and gf.cli in wrapped
        gf.algebra.AlgebraElement.diag([3, -4]).norm()
        assert tracer.stats["algebra.norm"][0] == 1
    finally:
        tracer.restore()
    for owner, attrs in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == attrs.keys(), owner
        assert all(after[key] is value for key, value in attrs.items()), owner

"""The exit contract on malformed input: 0 pass, 1 check failed, 2 input error.

Hypothesis mutates three documents the commands read: a desk system file, a
perturbation descriptor and an --aux document.  A mutation picks a location
and swaps its type, deletes it, wraps it in a list, adds a key or an element,
nests it deeply, or puts an extreme number there.  The commands also get
drawn --tol and --seed values.  Every run must return 0, 1 or 2, raise
nothing and print no traceback.  A command line that the parser refuses (a
--seed of NaN) is argparse's usage error, exit 2, and is not run.
"""

import copy
import functools
import io
import json
import math
import operator
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gframe import cli
from gframe.generate import random_system
from gframe.sampling import rand_invertible_operator
from gframe.serialize import operator_to_dict, system_to_dict

EXTREMES = (1e308, 5e-324, 1e200, -0.0, math.nan, 10 ** 400)
SWAPS = ("text", True, None, 7, 1.5, [], {})
NESTING = (2, 64, 5000)
OPTION_VALUES = ("-1", "0", "nan", "inf", str(2 ** 64), "1e-9", "3")
FILE_COMMANDS = ("validate", "bounds", "frame-op", "dual", "reconstruct", "multiplier")
SEEDED = ("dual", "reconstruct", "multiplier", "theorem")  # the commands with a --seed option
PERTURB_PARAMS = {"equivalence_M": {}, "sum": {}, "weighted": {"lambda": 0.1, "mu": 0.1},
                  "additive": {"alpha": 0.05, "beta": 0.05},
                  "additive_corollary": {"alpha": 0.05}}
CONTRACT = dict(derandomize=True, database=None, deadline=None)
# Stands for a deeply nested value until the document is written.
NEST_MARK = "\u0000nest"


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """The clean documents, and the directory the mutated ones are written to."""
    system = random_system(1, rank=2, atoms=3, algebra="matrix", dim=2)
    system = system.with_controls(system.controls.C, system.controls.C)
    k = rand_invertible_operator(system.descriptor, system.module_rank, np.random.default_rng(5))
    folder = tmp_path_factory.mktemp("exit-contract")
    clean = {"system": system_to_dict(system), "aux": {"K": operator_to_dict(k)}}
    for name, doc in clean.items():
        (folder / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return folder, clean


def _locations(doc, path=()):
    """Every location in a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one to three mutations, as JSON text."""
    box, marks = {"root": copy.deepcopy(doc)}, {}
    for _ in range(draw(st.integers(1, 3))):
        path = ("root",) + draw(st.sampled_from(list(_locations(box["root"]))))
        parent, key = functools.reduce(operator.getitem, path[:-1], box), path[-1]
        kind = draw(st.sampled_from(("swap", "delete", "wrap", "extra", "nest", "extreme")))
        if kind == "delete" and parent is box:
            return ""  # the whole document deleted: an empty file
        if kind == "delete":
            del parent[key]
        elif kind == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
        elif kind == "wrap":
            parent[key] = [parent[key]]
        elif kind == "extra":
            value = copy.deepcopy(draw(st.sampled_from(SWAPS + EXTREMES)))
            target = parent[key]
            if isinstance(target, dict):
                target[draw(st.sampled_from(("extra", "kind", "0")))] = value
            elif isinstance(target, list):
                target.append(value)
            else:
                parent[key] = {"extra": value}
        elif kind == "nest":
            mark = f"{NEST_MARK}{len(marks)}"
            marks[mark] = (draw(st.sampled_from(NESTING)), json.dumps(parent[key]))
            parent[key] = mark
        else:
            parent[key] = draw(st.sampled_from(EXTREMES))
    text = json.dumps(box["root"])
    for mark, (depth, inner) in marks.items():
        text = text.replace(json.dumps(mark), "[" * depth + inner + "]" * depth)
    return text


def _options(draw, command):
    """--tol, and --seed where the command has one: each left at its default half the time."""
    names = ("--tol", "--seed") if command in SEEDED else ("--tol",)
    values = [draw(st.sampled_from((None,) * len(OPTION_VALUES) + OPTION_VALUES)) for _ in names]
    return [f"{name}={value}" for name, value in zip(names, values) if value is not None]


def _assert_contract(argv):
    """Run one command line and check its exit code and its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli._parser().parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue() + out.getvalue(), argv
    assert (code == 2) == err.getvalue().startswith("gframe: error:"), (argv, err.getvalue())


@settings(max_examples=150, **CONTRACT)
@given(st.data())
def test_mutated_system_file(docs, data):
    folder, clean = docs
    path = folder / "mutated-system.json"
    path.write_text(data.draw(mutated(clean["system"])), encoding="utf-8")
    command = data.draw(st.sampled_from(FILE_COMMANDS + ("perturb", "theorem")))
    if command == "perturb":
        kind = data.draw(st.sampled_from(sorted(PERTURB_PARAMS)))
        run = folder / "mutated-system-run.json"
        run.write_text(json.dumps({"kind": kind, "systemA": str(folder / "system.json"),
                                   "systemB": str(path), "params": PERTURB_PARAMS[kind]}),
                       encoding="utf-8")
        argv = ["perturb", str(run)]
    elif command == "theorem":
        argv = ["theorem", str(path), "--id", "T55", "--aux", str(folder / "aux.json")]
    else:
        argv = [command, str(path)]
    _assert_contract(argv + _options(data.draw, command))


@settings(max_examples=60, **CONTRACT)
@given(st.data())
def test_mutated_perturbation_descriptor(docs, data):
    folder, _ = docs
    kind = data.draw(st.sampled_from(sorted(PERTURB_PARAMS)))
    system = str(folder / "system.json")
    descriptor = {"kind": kind, "systemA": system, "systemB": system,
                  "params": PERTURB_PARAMS[kind]}
    path = folder / "mutated-run.json"
    path.write_text(data.draw(mutated(descriptor)), encoding="utf-8")
    _assert_contract(["perturb", str(path)] + _options(data.draw, "perturb"))


@settings(max_examples=60, **CONTRACT)
@given(st.data())
def test_mutated_aux_document(docs, data):
    folder, clean = docs
    path = folder / "mutated-aux.json"
    path.write_text(data.draw(mutated(clean["aux"])), encoding="utf-8")
    _assert_contract(["theorem", str(folder / "system.json"), "--id", "T55", "--aux", str(path)]
                     + _options(data.draw, "theorem"))

import gc
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gframe import cli, frames
from gframe.cli import main
from gframe.hilbert import AdjointableOperator
from gframe.serialize import dump_json, load_system, operator_to_dict, system_to_dict
from gframe.generate import random_system, unit_interval_system


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_example_and_validate(tmp_path, capsys):
    path = str(tmp_path / "ui.json")
    code, _, _ = _run(capsys, "example", "--alpha", "2", "--beta", "3",
                      "--rank", "3", "--nodes", "11", "--out", path)
    assert code == 0
    code, out, _ = _run(capsys, "validate", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["results"]["algebra"] == {"kind": "diagonal", "dim": 3}
    assert doc["tool"]["name"] == "gframe"


def test_example_parity_gate(tmp_path, capsys):
    code, _, err = _run(capsys, "example", "--alpha", "1", "--beta", "1",
                        "--rank", "3", "--nodes", "4")
    assert code == 2
    assert "odd" in err


def test_bounds_unit_interval(tmp_path, capsys):
    path = str(tmp_path / "ui.json")
    _run(capsys, "example", "--alpha", "1", "--beta", "1", "--rank", "3",
         "--nodes", "11", "--out", path)
    code, out, _ = _run(capsys, "bounds", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["scalar_lower"] == pytest.approx(1 / np.sqrt(27), abs=1e-9)
    assert doc["results"]["scalar_upper"] == pytest.approx(1 / np.sqrt(3), abs=1e-9)


def test_frame_op_dual_reconstruct_multiplier(tmp_path, capsys):
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "4", "--out", path)
    for argv in (["frame-op"], ["dual", "--samples", "20"], ["reconstruct", "--samples", "20"],
                 ["multiplier"]):
        code, out, _ = _run(capsys, *argv, path)
        assert code == 0, (argv, out)
        assert json.loads(out)["status"] == "pass"


# validate, bounds and frame-op read no seed and draw no samples, and multiplier
# draws none: they take neither option, so passing one is a usage error.
@pytest.mark.parametrize("command,option", [
    *((command, option) for command in ("validate", "bounds", "frame-op")
      for option in ("--seed", "--samples")),
    ("multiplier", "--samples"),
])
def test_unread_options_exit_two(tmp_path, capsys, command, option):
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "4", "--out", path)
    with pytest.raises(SystemExit) as exc:
        main([command, path, option, "5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 5" in captured.err and captured.out == ""


def test_theorem_command_single_and_all(tmp_path, capsys):
    code, out, _ = _run(capsys, "theorem", "--id", "T55", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["status"] == "pass"
    assert doc["results"][0]["info"]["right_inverse_count"] == 20
    code, _, err = _run(capsys, "theorem", "--id", "NOPE")
    assert code == 2 and "unknown theorem id" in err


def test_theorem_accepts_system_and_aux(tmp_path, capsys):
    path = str(tmp_path / "ui.json")
    _run(capsys, "example", "--alpha", "1", "--beta", "1", "--rank", "3",
         "--nodes", "11", "--out", path)
    system = load_system(path)
    theta = {"theta_right": {
        "in_rank": 1, "out_rank": 1,
        "blocks": [[{"kind": "diagonal", "dim": 3,
                     "entries": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}]]}}
    aux_path = tmp_path / "aux.json"
    aux_path.write_text(json.dumps(theta), encoding="utf-8")
    code, out, _ = _run(capsys, "theorem", path, "--id", "RIGHT-COMP",
                        "--aux", str(aux_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["info"]["aux_supplied"] == ["theta_right"]


def test_malformed_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = _run(capsys, "bounds", str(bad))
    assert code == 2
    assert "line" in err
    code, _, _ = _run(capsys, "bounds", str(tmp_path / "missing.json"))
    assert code == 2


def test_noncommuting_bounds_exits_two(tmp_path, capsys):
    path = str(tmp_path / "nc.json")
    _run(capsys, "random", "--seed", "3", "--rank", "2", "--algebra", "matrix",
         "--dim", "2", "--non-commuting", "--out", path)
    code, _, err = _run(capsys, "bounds", path)
    assert code == 2
    assert "commute" in err


def test_perturb_command(tmp_path, capsys):
    sys_a = random_system(11, commuting=True)
    sys_a = sys_a.with_controls(sys_a.controls.C, sys_a.controls.C)
    sys_b = sys_a.with_family({label: 0.95 * op for label, op in sys_a.family.items()})
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(dump_json(system_to_dict(sys_a)), encoding="utf-8")
    path_b.write_text(dump_json(system_to_dict(sys_b)), encoding="utf-8")
    desc = tmp_path / "run.json"
    desc.write_text(json.dumps({
        "kind": "equivalence_M", "params": {},
        "systemA": str(path_a), "systemB": str(path_b),
        "samples": 40, "seed": 0}), encoding="utf-8")
    code, out, _ = _run(capsys, "perturb", str(desc))
    assert code == 0
    assert json.loads(out)["results"]["theorem_id"] == "STAB-EQUIV-M"


def test_random_determinism(tmp_path, capsys):
    p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    _run(capsys, "random", "--seed", "9", "--out", p1)
    _run(capsys, "random", "--seed", "9", "--out", p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_exit_code_one_on_failed_check(tmp_path, capsys):
    # a Bessel-only system: bounds command reports fail and exits 1
    path = str(tmp_path / "zero.json")
    system = random_system(2, commuting=True)
    zeroed = system.with_family({label: 0.0 * op for label, op in system.family.items()})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(system_to_dict(zeroed)))
    code, out, _ = _run(capsys, "bounds", path)
    assert code == 1
    assert json.loads(out)["results"]["verdict"] == "bessel_only"


def _assert_input_error(code, err):
    assert code == 2
    assert err.startswith("gframe: error:")
    assert "Traceback" not in err


def _perturb_descriptor(tmp_path, **fields):
    sys_a = random_system(11, commuting=True)
    sys_a = sys_a.with_controls(sys_a.controls.C, sys_a.controls.C)
    path = tmp_path / "a.json"
    path.write_text(dump_json(system_to_dict(sys_a)), encoding="utf-8")
    desc = tmp_path / "run.json"
    doc = {"kind": "equivalence_M", "params": {}, "systemA": str(path), "systemB": str(path),
           "seed": 0}
    doc.update(fields)
    desc.write_text(json.dumps(doc), encoding="utf-8")
    return str(desc)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_dual_rejects_sample_counts_below_one(tmp_path, capsys, samples):
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "4", "--out", path)
    for command in ("dual", "reconstruct"):
        code, out, err = _run(capsys, command, path, "--samples", samples)
        _assert_input_error(code, err)
        assert out == ""


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan"])
def test_nonpositive_tolerance_exits_two(tmp_path, capsys, tol):
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "4", "--out", path)
    code, _, err = _run(capsys, "dual", path, f"--tol={tol}")
    _assert_input_error(code, err)
    code, _, err = _run(capsys, "perturb", _perturb_descriptor(tmp_path), f"--tol={tol}")
    _assert_input_error(code, err)


# Booleans, strings and fractions used to run as int(value): 1, 7 and 7.  The
# descriptor's seed is still parsed; its samples key is not read at all.
@pytest.mark.parametrize("fields", [
    pytest.param({"seed": value}, id=f"seed={value!r}") for value in (True, "7", 7.9)])
def test_perturb_descriptor_rejects_non_integral_seeds(tmp_path, capsys, fields):
    code, _, err = _run(capsys, "perturb", _perturb_descriptor(tmp_path, **fields))
    _assert_input_error(code, err)
    assert next(iter(fields)) in err


# The perturbation hypotheses are exact, so nothing reads a sample count: a
# descriptor's samples key is ignored like any other unknown key, whatever its value.
@pytest.mark.parametrize("samples", [
    pytest.param(0, id="0"),
    pytest.param(-3, id="-3"),
    pytest.param(50, id="50"),
    *(pytest.param(value, id=f"samples={value!r}") for value in (True, "7", 7.9)),
])
def test_perturb_descriptor_ignores_samples(tmp_path, capsys, samples):
    code, without, _ = _run(capsys, "perturb", _perturb_descriptor(tmp_path))
    assert code == 0
    code, out, _ = _run(capsys, "perturb", _perturb_descriptor(tmp_path, samples=samples))
    assert code == 0
    assert out == without
    assert "samples" not in json.loads(out)["config"]


def test_perturb_descriptor_accepts_integral_floats(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _, err = _run(capsys, "perturb", _perturb_descriptor(tmp_path, seed=3.0),
                        "--out", str(out))
    assert code in (0, 1) and "Traceback" not in err
    assert json.loads(out.read_text(encoding="utf-8"))["config"]["seed"] == 3


def test_nan_entry_in_system_file_exits_two(tmp_path, capsys):
    doc = system_to_dict(random_system(3, algebra="diagonal"))
    label = next(iter(doc["family"]))
    doc["family"][label]["blocks"][0][0]["entries"][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = _run(capsys, "validate", str(path))
    _assert_input_error(code, err)
    assert "finite" in err


FILE_COMMANDS = ("validate", "bounds", "frame-op", "dual", "reconstruct", "multiplier")


def _write_system_doc(tmp_path, doc) -> str:
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("family", [[1], [], 3], ids=str)
def test_non_object_family_exits_two(tmp_path, capsys, family):
    doc = system_to_dict(random_system(1))
    doc["family"] = family
    path = _write_system_doc(tmp_path, doc)
    for command in FILE_COMMANDS:
        code, out, err = _run(capsys, command, path)
        _assert_input_error(code, err)
        assert "family must be a JSON object" in err and out == "", command


def _overflowing_system(tmp_path) -> str:
    # 1e200 is finite, so the file loads; the frame operator it builds overflows.
    doc = system_to_dict(random_system(1))
    label = next(iter(doc["family"]))
    doc["family"][label]["blocks"][0][0]["entries"][0] = [1e200, 0.0]
    return _write_system_doc(tmp_path, doc)


def test_overflowing_family_entry_exits_two(tmp_path, capsys):
    path = _overflowing_system(tmp_path)
    for command in FILE_COMMANDS:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out, err = _run(capsys, command, path)
        _assert_input_error(code, err)
        assert "arithmetic failed" in err and out == "", command
        assert seen == [], command


def test_overflow_is_an_input_error_when_warnings_are_errors(tmp_path, capsys):
    # Under python -W error a numpy RuntimeWarning would escape main as an exception.
    path = _overflowing_system(tmp_path)
    for command in FILE_COMMANDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, command, path)
        _assert_input_error(code, err)
        assert err.count("\n") == 1 and out == "", command


@pytest.mark.parametrize("text", ["{", "[1, 2]"])
def test_malformed_aux_file_exits_two(tmp_path, capsys, text):
    aux = tmp_path / "aux.json"
    aux.write_text(text, encoding="utf-8")
    code, _, err = _run(capsys, "theorem", "--id", "T55", "--aux", str(aux))
    _assert_input_error(code, err)


@pytest.mark.parametrize("text", ["[]", "3", '"kind"',
                                  '{"kind": "sum", "systemA": 3, "systemB": 3}',
                                  '{"kind": "sum", "systemA": "a", "systemB": "b", "params": "x"}'])
def test_non_object_perturb_descriptor_exits_two(tmp_path, capsys, monkeypatch, text):
    # Valid system files "a" and "b" exist, so each exit 2 comes from a shape
    # check of the descriptor, not from a missing file.
    monkeypatch.chdir(tmp_path)
    for name in "ab":
        (tmp_path / name).write_text(dump_json(system_to_dict(random_system(11))), encoding="utf-8")
    desc = tmp_path / "run.json"
    desc.write_text(text, encoding="utf-8")
    code, _, err = _run(capsys, "perturb", str(desc))
    _assert_input_error(code, err)
    assert "must be" in err


@pytest.mark.parametrize("kind, params", [
    ("weighted", {"lambda": "x"}),
    ("weighted", {"mu": float("nan")}),
    ("weighted", {"alpha_w": "abc"}),
    ("weighted", {"alpha_w": {"w0": 1.0}}),
    ("weighted", {"beta_w": [1.0]}),
    ("additive", {"alpha": [1]}),
    ("additive", {"beta": True}),
    ("additive_corollary", {"alpha": 10 ** 400}),
])
def test_malformed_perturbation_params_exit_two(tmp_path, capsys, kind, params):
    code, out, err = _run(capsys, "perturb", _perturb_descriptor(tmp_path, kind=kind, params=params))
    _assert_input_error(code, err)
    assert "perturbation parameter" in err
    assert out == ""


def test_additive_corollary_ignores_beta(tmp_path, capsys):
    # The corollary's statement never reads beta, so its sign is not checked there.
    params = {"alpha": 0.01, "beta": -1.0}
    code, out, err = _run(capsys, "perturb",
                          _perturb_descriptor(tmp_path, kind="additive_corollary", params=params))
    assert code in (0, 1), err
    assert json.loads(out)["results"]["theorem_id"] == "STAB-ADDITIVE"
    code, out, err = _run(capsys, "perturb", _perturb_descriptor(tmp_path, kind="additive", params=params))
    _assert_input_error(code, err)
    assert "nonnegative" in err
    assert out == ""


def test_per_atom_weights_cover_every_atom(tmp_path, capsys):
    labels = random_system(11, commuting=True).measure.labels
    params = {"alpha_w": {label: 1.0 for label in labels}, "beta_w": 1, "lambda": 0.1}
    code, out, _ = _run(capsys, "perturb",
                        _perturb_descriptor(tmp_path, kind="weighted", params=params))
    assert code == 0
    assert json.loads(out)["results"]["theorem_id"] == "STAB-WEIGHTED"


def test_theorem_suite_on_non_commuting_system_reports_every_row(tmp_path, capsys):
    path = str(tmp_path / "nc.json")
    _run(capsys, "random", "--seed", "3", "--rank", "2", "--algebra", "matrix", "--dim", "2",
         "--non-commuting", "--out", path)
    code, out, err = _run(capsys, "theorem", path, "--id", "all")
    assert code == 1, err
    rows = json.loads(out)["results"]
    assert len(rows) == 23
    assert {row["status"] for row in rows} <= {"pass", "not_applicable"}


def _huge_entry(doc):
    label = next(iter(doc["family"]))
    doc["family"][label]["blocks"][0][0]["entries"][0] = [10 ** 400, 0.0]


def _huge_weight(doc):
    doc["measure"]["atoms"][0]["weight"] = 10 ** 400


# json.dumps cannot write 1e400 (it writes Infinity), so the test puts this
# marker in and swaps the literal into the text.
INFINITE = "INFINITE"


def _infinite_dim(doc):
    doc["algebra"]["dim"] = INFINITE


def _infinite_in_rank(doc):
    next(iter(doc["family"].values()))["in_rank"] = INFINITE


def _infinite_module_rank(doc):
    doc["module_rank"] = INFINITE


def _family_list(doc):
    doc["family"] = list(doc["family"].values())


@pytest.mark.parametrize("mutate", [
    _huge_entry,
    _huge_weight,
    _infinite_dim,
    _infinite_in_rank,
    _infinite_module_rank,
    _family_list,
], ids=["huge-entry", "huge-weight", "dim-1e400", "in-rank-1e400", "module-rank-1e400",
        "family-list"])
def test_out_of_range_numbers_in_system_file_exit_two(tmp_path, capsys, mutate):
    doc = system_to_dict(random_system(3, algebra="diagonal"))
    mutate(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace(f'"{INFINITE}"', "1e400"), encoding="utf-8")
    code, out, err = _run(capsys, "validate", str(path))
    _assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("value", ['"2"', "true", "2.7"], ids=["string", "boolean", "fraction"])
def test_non_integer_module_rank_exits_two(tmp_path, capsys, value):
    doc = system_to_dict(random_system(3, rank=2))
    doc["module_rank"] = "RANK"
    path = tmp_path / "rank.json"
    path.write_text(json.dumps(doc).replace('"RANK"', value), encoding="utf-8")
    code, out, err = _run(capsys, "validate", str(path))
    _assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("value", ['"0.5"', "true"], ids=["string", "boolean"])
def test_non_numeric_weight_exits_two(tmp_path, capsys, value):
    doc = system_to_dict(unit_interval_system(1, 1, 1, 3))
    doc["measure"]["atoms"][0]["weight"] = "WEIGHT"
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(doc).replace('"WEIGHT"', value), encoding="utf-8")
    code, out, err = _run(capsys, "bounds", str(path))
    _assert_input_error(code, err)
    assert "weight" in err
    assert out == ""


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"a": ' + "7" * 5000 + "}"],
                         ids=["deep-nesting", "integer-past-digit-limit"])
def test_unparsable_json_exits_two(tmp_path, capsys, text):
    path = tmp_path / "odd.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "bounds", str(path))
    _assert_input_error(code, err)
    assert out == ""


def test_overflowing_descriptor_seed_exits_two(tmp_path, capsys):
    # The samples key is ignored; an overflowing seed exits 2 before any file is read.
    desc = tmp_path / "run.json"
    desc.write_text('{"kind": "sum", "systemA": "a", "systemB": "b", "samples": 1e400, '
                    '"seed": 1e400}', encoding="utf-8")
    code, _, err = _run(capsys, "perturb", str(desc))
    _assert_input_error(code, err)
    assert "seed" in err


PERTURB_KINDS = [
    ("equivalence_M", {}),
    ("weighted", {"lambda": 0.1, "mu": 0.1}),
    ("additive", {"alpha": 0.05, "beta": 0.05}),
    ("sum", {}),
]


def _count_commutation_checks(monkeypatch) -> list:
    calls = []
    original = frames._family_commutation_defect

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(frames, "_family_commutation_defect", counted)
    return calls


@pytest.mark.parametrize("command", ["bounds", "frame-op", "multiplier"])
def test_commands_without_commutation_hypotheses_skip_the_check(tmp_path, capsys, monkeypatch,
                                                                command):
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "4", "--out", path)
    calls = _count_commutation_checks(monkeypatch)
    code, _, err = _run(capsys, command, path)
    assert code == 0, err
    assert len(calls) == 0


@pytest.mark.parametrize("kind, params", PERTURB_KINDS, ids=[kind for kind, _ in PERTURB_KINDS])
def test_perturb_skips_the_commutation_check(tmp_path, capsys, monkeypatch, kind, params):
    desc = _perturb_descriptor(tmp_path, kind=kind, params=params)
    calls = _count_commutation_checks(monkeypatch)
    code, _, err = _run(capsys, "perturb", desc)
    assert code in (0, 1), err
    assert len(calls) == 0


def test_validate_runs_the_commutation_check_once(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "4", "--non-commuting", "--out", path)
    calls = _count_commutation_checks(monkeypatch)
    code, out, err = _run(capsys, "validate", path)
    assert code == 0, err
    assert len(calls) == 1
    assert json.loads(out)["results"]["controls_commute_with_family"] is False


@pytest.mark.parametrize("algebra", ["diagonal", "matrix"])
def test_no_command_reads_the_dense_flattening(tmp_path, capsys, monkeypatch, algebra):
    # Every kernel works on the channel view; flat() is the tests' oracle only.
    path = str(tmp_path / "sys.json")
    _run(capsys, "random", "--seed", "5", "--rank", "2", "--atoms", "4", "--algebra", algebra,
         "--dim", "2", "--out", path)
    runs = [[command, path] for command in ("validate", "bounds", "frame-op", "multiplier")]
    runs += [[command, path, "--samples", "10"] for command in ("dual", "reconstruct")]
    runs.append(["theorem", path, "--id", "all", "--samples", "10"])
    # The stability checks need C' = C.
    system = load_system(path)
    repeated = tmp_path / "repeated.json"
    repeated.write_text(dump_json(system_to_dict(system.with_controls(system.controls.C,
                                                                      system.controls.C))),
                        encoding="utf-8")
    for kind, params in PERTURB_KINDS + [("additive_corollary", {"alpha": 0.01})]:
        desc = tmp_path / f"run-{kind}.json"
        desc.write_text(json.dumps({"kind": kind, "params": params, "systemA": str(repeated),
                                    "systemB": str(repeated), "samples": 10}), encoding="utf-8")
        runs.append(["perturb", str(desc)])
    flat, calls = AdjointableOperator.flat, []
    monkeypatch.setattr(AdjointableOperator, "flat", lambda self: calls.append(1) or flat(self))
    for argv in runs:
        code, _, err = _run(capsys, *argv)
        assert code in (0, 1), (argv, err)
        assert calls == [], argv


def _not_self_adjoint(c):
    return c + AdjointableOperator.scalar(c.descriptor, c.in_rank, 1j)


def _not_positive(c):
    return -c


@pytest.mark.parametrize("control, spoil, message", [
    ("C", _not_self_adjoint, "self-adjoint"),
    ("Cp", _not_positive, "positive"),
], ids=["C-not-self-adjoint", "Cp-not-positive"])
def test_invalid_controls_are_rejected_on_load(tmp_path, capsys, control, spoil, message):
    system = random_system(11, commuting=True)
    doc = system_to_dict(system)
    doc["controls"][control] = operator_to_dict(spoil(getattr(system.controls, control)))
    path = tmp_path / "bad.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    runs = [("bounds", str(path)),
            ("perturb", _perturb_descriptor(tmp_path, systemA=str(path), systemB=str(path)))]
    for argv in runs:
        code, out, err = _run(capsys, *argv)
        _assert_input_error(code, err)
        assert message in err
        assert out == ""


def test_multiplier_symbol_is_the_one_normal_at_a_time_stream(tmp_path, capsys):
    path = str(tmp_path / "example.json")
    _run(capsys, "example", "--alpha", "2", "--beta", "3", "--rank", "2", "--nodes", "1001",
         "--out", path)
    code, out, err = _run(capsys, "multiplier", path, "--seed", "7")
    assert code == 0, err
    rng = np.random.default_rng(7)
    expected = {}
    for label in load_system(path).measure.labels:
        z = rng.standard_normal() + 1j * rng.standard_normal()
        z = z / max(1.0, abs(z))
        expected[label] = [z.real, z.imag]
    assert json.loads(out)["results"]["symbol"] == expected


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    path = str(tmp_path / "example.json")
    _run(capsys, "example", "--alpha", "2", "--beta", "3", "--rank", "2", "--nodes", "5",
         "--out", path)
    code, out, err = _run(capsys, "dual", path, "--seed", "5", "--samples", "3")
    assert code == 0, err
    assert json.loads(out)["config"]["seed"] == 5
    code, out, err = _run(capsys, "dual", path)
    assert code == 0, err
    config = json.loads(out)["config"]
    assert config["seed"] == 0 and config["samples"] == 200


def _entry_system(tmp_path, pair: str) -> str:
    """A system file whose first member's first entry is the JSON text ``pair``."""
    doc = system_to_dict(unit_interval_system(1, 1, 1, 3))
    next(iter(doc["family"].values()))["blocks"][0][0]["entries"][0] = "PAIR"
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc).replace('"PAIR"', pair), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("pair", ['["1.5", 0.0]', '[0.0, "1"]', "[true, 0.0]", "[0.0, false]",
                                  '["1.5", true]'],
                         ids=["string-re", "string-im", "true-re", "false-im", "string-and-true"])
def test_non_numeric_entries_exit_two(tmp_path, capsys, pair):
    path = _entry_system(tmp_path, pair)
    for command in FILE_COMMANDS:
        code, out, err = _run(capsys, command, path)
        _assert_input_error(code, err)
        assert "complex entries must be [re, im] pairs of numbers" in err and out == "", command


def _weight(value):
    return lambda doc: doc["measure"]["atoms"][0].__setitem__("weight", value)


def _member(doc):
    return next(iter(doc["family"].values()))


def _pair(value):
    return lambda doc: _member(doc)["blocks"][0][0]["entries"].__setitem__(0, value)


def _blocks(value):
    return lambda doc: _member(doc).__setitem__("blocks", value)


DECODE_CASES = {
    "nan-weight": (_weight(float("nan")), "atom weights must be positive and finite"),
    "inf-weight": (_weight(float("inf")), "atom weights must be positive and finite"),
    "zero-weight": (_weight(0.0), "atom weights must be positive and finite"),
    "negative-weight": (_weight(-1.0), "atom weights must be positive and finite"),
    "true-weight": (_weight(True), "weight of atom 'w0' must be a number, got True"),
    "true-rank": (lambda doc: _member(doc).__setitem__("in_rank", True),
                  "operator in_rank must be an integer, got True"),
    "true-dim": (lambda doc: _member(doc)["blocks"][0][0].__setitem__("dim", True),
                 "algebra dim must be an integer, got True"),
    "ragged-pair": (_pair([[0.0, 1.0], [2.0, 3.0]]),
                    "complex entries must be [re, im] pairs of numbers"),
    "short-pair": (_pair([1.0]), "complex entries must be [re, im] pairs of numbers"),
    "three-element-pair": (_pair([1.0, 2.0, 3.0]),
                           "complex entries must be [re, im] pairs of numbers"),
    "integer-blocks": (_blocks(3), "bad operator document: object of type 'int' has no len()"),
    "null-blocks": (_blocks(None),
                    "bad operator document: object of type 'NoneType' has no len()"),
}


@pytest.mark.parametrize("case", sorted(DECODE_CASES))
def test_malformed_system_files_keep_their_messages(tmp_path, capsys, case):
    mutate, message = DECODE_CASES[case]
    doc = system_to_dict(unit_interval_system(1, 1, 2, 3))
    mutate(doc)
    path = _write_system_doc(tmp_path, doc)
    for command in FILE_COMMANDS:
        code, out, err = _run(capsys, command, path)
        _assert_input_error(code, err)
        assert message in err and out == "", command


def _collector_runs(tmp_path, capsys) -> list:
    """Every file command on the example and on a matrix system, the theorem suite,
    one perturbation run and one run that exits 2."""
    example, matrix = str(tmp_path / "example.json"), str(tmp_path / "matrix.json")
    _run(capsys, "example", "--alpha", "2", "--beta", "3", "--rank", "3", "--nodes", "11",
         "--out", example)
    _run(capsys, "random", "--seed", "3", "--algebra", "matrix", "--out", matrix)
    runs = [[command, system] for system in (example, matrix) for command in FILE_COMMANDS]
    runs.append(["theorem", "--id", "all"])
    runs.append(["perturb", _perturb_descriptor(tmp_path)])
    runs.append(["validate", _entry_system(tmp_path, '["1.5", true]')])
    return runs


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # The collector is paused while a command runs; that defers no garbage
    # only as long as no command creates reference cycles.
    codes = []
    for argv in _collector_runs(tmp_path, capsys):
        gc.collect()
        codes.append(main(argv))
        assert gc.collect() == 0, argv
    capsys.readouterr()
    assert codes[-1] == 2 and set(codes[:-1]) <= {0, 1}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_is_paused_per_command_and_restored(tmp_path, capsys, monkeypatch, enabled):
    runs = _collector_runs(tmp_path, capsys)
    seen = []

    def recording(command):
        def run(args):
            seen.append(gc.isenabled())
            return command(args)
        return run

    for name, command in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, recording(command))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv in [runs[0], runs[-1]]:
            main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [False, False]

"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass line when it completes; pytest's failure output
carries the fail case otherwise.  Criteria 2-4 share one pool of 50 seeded
commuting systems (rank <= 4, algebra dimension <= 3, up to 8 atoms).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gframe.algebra import element_norms
from gframe.cli import main as cli_main
from gframe.frames import optimal_scalar_bounds
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import apply_stack, pairing
from gframe.frames import canonical_dual
from gframe.reports import PASS
from gframe.sampling import rand_coords, rand_operator, rand_vector
from gframe.serialize import save_system
from gframe.stability import (
    additive_perturbation_check,
    check_equivalence_M,
    run_perturbation,
    sum_frame_check,
    weighted_perturbation_check,
)
from gframe.theorems import DOCUMENTED_MUTANTS, THEOREM_IDS, verify_theorem

from conftest import (
    brute_force_frame_operator_flat,
    brute_force_multiplier_flat,
    brute_force_right_inverse_residual,
    positive_by_norm_shift,
    tight_line_system,
)

SYSTEM_COUNT = 50


@pytest.fixture(scope="module")
def system_pool():
    return [random_system(seed, commuting=True) for seed in range(SYSTEM_COUNT)]


def test_criterion_1_unit_interval_example(tmp_path, capsys):
    start = time.monotonic()
    system = unit_interval_system(2.0, 3.0, 3, 11)
    s = system.frame_operator.blocks.reshape(-1)
    expected = 2.0 * np.array([1.0, 0.25, 1.0 / 9.0])
    assert np.max(np.abs(s - expected)) <= 1e-12

    path = str(tmp_path / "ui.json")
    assert cli_main(["example", "--alpha", "2", "--beta", "3", "--rank", "3",
                     "--nodes", "11", "--out", path]) == 0
    assert cli_main(["bounds", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["scalar_lower"] == pytest.approx(np.sqrt(2.0 / 9.0), abs=1e-9)
    assert doc["results"]["scalar_upper"] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"[acceptance 1] PASS unit-interval example exact, bounds match ({elapsed:.3f}s)")


def test_criterion_2_frame_operator_properties(system_pool):
    start = time.monotonic()
    for seed, system in enumerate(system_pool):
        s = system.frame_operator
        scale = max(1.0, s.norm())
        assert s.hermitian_defect() <= 1e-10 * scale, seed
        eigs = s.eigenvalues_hermitian()
        assert eigs[0] >= -1e-9 * scale, seed
        assert eigs[0] > 1e-9 * scale, seed  # invertible at desk scale
        bounds = optimal_scalar_bounds(system, 1e-9)
        assert bounds.is_frame, seed
        assert bounds.scalar_lower ** 2 <= s.norm() + 1e-9 * scale, seed
        assert s.norm() <= bounds.scalar_upper ** 2 + 1e-9 * scale, seed
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"[acceptance 2] PASS frame-operator properties on {SYSTEM_COUNT} systems "
          f"({elapsed:.2f}s)")


def test_criterion_3_reconstruction(system_pool):
    worst = 0.0
    for seed, system in enumerate(system_pool):
        cert = canonical_dual(system, tol=1e-8)
        worst = max(worst, cert.operator_residual)
        assert cert.operator_residual <= 1e-8, seed
        assert cert.passed, seed
    print(f"[acceptance 3] PASS canonical-dual reconstruction, worst residual {worst:.2e}")


def test_criterion_4_analysis_synthesis(system_pool):
    worst_adj, worst_fact = 0.0, 0.0
    for seed, system in enumerate(system_pool):
        desc, rng = system.descriptor, np.random.default_rng(seed)
        t, root = system.analysis_operator, system.mixed_control_root
        # <T* y, x> against the weighted sum of <y_w, Lambda_w (C'C)^(1/2) x>, where y
        # stacks the components y_w scaled by sqrt(w).
        x = rand_coords(desc, system.module_rank, rng, 5)
        atoms = [(w, op, rand_coords(desc, op.out_rank, rng, 5))
                 for w, op in zip(system.measure.weights, system.family.values())]
        y = np.concatenate([np.sqrt(w) * comp for w, _, comp in atoms], axis=1)
        lhs = pairing(desc, apply_stack(t.adjoint(), y), other=x)
        rhs = sum(w * pairing(desc, comp, other=apply_stack(op @ root, x)) for w, op, comp in atoms)
        scale = np.maximum(1.0, np.maximum(element_norms(desc, lhs), element_norms(desc, rhs)))
        defect = float((element_norms(desc, lhs - rhs) / scale).max())
        worst_adj = max(worst_adj, defect)
        assert defect <= 1e-10, seed
        s = system.frame_operator
        composed = system.synthesis_operator @ system.analysis_operator
        fact = (composed - s).norm() / max(1.0, s.norm())
        worst_fact = max(worst_fact, fact)
        assert fact <= 1e-10, seed
        bounds = optimal_scalar_bounds(system)
        assert system.analysis_operator.norm() <= bounds.scalar_upper + 1e-9, seed
    print(f"[acceptance 4] PASS analysis/synthesis: adjointness {worst_adj:.2e}, "
          f"factorization {worst_fact:.2e}")


# Golden behaviour of the theorem suite: every row for seeds 0-9 and the whole
# mutant matrix, written once from the row implementations it pins.  It holds
# each report's status and its ordered hypothesis and conclusion lines; info is
# not compared.  Regenerating it would make it pin nothing.
SNAPSHOT = Path(__file__).parent / "data" / "theorem_snapshot.json"
SNAPSHOT_SEEDS = range(10)
# Residuals at or below this are rounding noise and must stay there; larger
# ones (the suite has none between about 1e-12 and 1e-3) must match to
# SNAPSHOT_RTOL, tight enough to notice a change of the drawn instance.
SNAPSHOT_NOISE = 1e-9
SNAPSHOT_RTOL = 1e-6


def _snapshot_runs():
    """(key, theorem id, mutant, seed) of every snapshot report."""
    runs = [(theorem_id, None) for theorem_id in THEOREM_IDS]
    runs += [(theorem_id, mutant) for theorem_id, mutant, _ in DOCUMENTED_MUTANTS]
    return [(f"{theorem_id}|{mutant or '-'}|{seed}", theorem_id, mutant, seed)
            for theorem_id, mutant in runs for seed in SNAPSHOT_SEEDS]


def _snapshot_entry(report):
    def lines(checks):
        return [[line.name, line.passed, line.residual] for line in checks]
    return {"status": report.status, "hypotheses": lines(report.hypotheses),
            "conclusions": lines(report.conclusions)}


def _snapshot_mismatch(got, want):
    """Why a report entry differs from its snapshot entry, or None."""
    if got["status"] != want["status"]:
        return f"status {got['status']} != {want['status']}"
    for part in ("hypotheses", "conclusions"):
        flags = [line[:2] for line in got[part]]
        if flags != [line[:2] for line in want[part]]:
            return f"{part} {flags} != {[line[:2] for line in want[part]]}"
        for (name, _, res), (_, _, ref) in zip(got[part], want[part]):
            if ref <= SNAPSHOT_NOISE:
                if res > SNAPSHOT_NOISE:
                    return f"{name!r}: residual {res:.3e} above {SNAPSHOT_NOISE:g}"
            elif abs(res - ref) > SNAPSHOT_RTOL * ref:
                return f"{name!r}: residual {res!r} != {ref!r}"
    return None


def test_criterion_5_theorem_suite_and_mutants():
    snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    runs = _snapshot_runs()
    assert sorted(snapshot) == sorted(key for key, *_ in runs)
    expected = {(theorem_id, mutant): status for theorem_id, mutant, status in DOCUMENTED_MUTANTS}
    flips = 0
    for key, theorem_id, mutant, seed in runs:
        report = verify_theorem(theorem_id, seed=seed, mutant=mutant)
        assert report.status == expected.get((theorem_id, mutant), PASS), (key, report.to_dict())
        flips += mutant is not None
        mismatch = _snapshot_mismatch(_snapshot_entry(report), snapshot[key])
        assert mismatch is None, (key, mismatch)
    print(f"[acceptance 5] PASS theorem suite {len(THEOREM_IDS)} rows x 10 seeds, "
          f"{flips} mutant runs flipped as documented, {len(runs)} reports match the snapshot")


# Golden behaviour of the perturbation statements, written once like the theorem
# snapshot: all five kinds on seeds 1, 3 and 5, each a random system with C' = C
# against a 1.01x copy and a 0.05x copy of itself.  The pairs reach pass, fail
# and not_applicable.
PERTURB_SNAPSHOT = Path(__file__).parent / "data" / "perturb_snapshot.json"
PERTURB_PARAMS = {"equivalence_M": {}, "sum": {}, "weighted": {"lambda": 0.1, "mu": 0.1},
                  "additive": {"alpha": 0.05, "beta": 0.05},
                  "additive_corollary": {"alpha": 0.05}}


def _perturb_runs():
    """(key, kind, reference system, perturbed system, seed) of every snapshot report."""
    runs = []
    for seed in (1, 3, 5):
        base = random_system(seed)
        sys_a = base.with_controls(base.controls.C, base.controls.C)
        for factor in (1.01, 0.05):
            sys_b = sys_a.with_family({label: factor * op for label, op in sys_a.family.items()})
            runs += [(f"{kind}|{factor}|{seed}", kind, sys_a, sys_b, seed) for kind in PERTURB_PARAMS]
    return runs


def test_perturbation_snapshot():
    snapshot = json.loads(PERTURB_SNAPSHOT.read_text(encoding="utf-8"))
    runs = _perturb_runs()
    assert sorted(snapshot) == sorted(key for key, *_ in runs)
    for key, kind, sys_a, sys_b, _ in runs:
        report = run_perturbation(kind, sys_a, sys_b, PERTURB_PARAMS[kind])
        mismatch = _snapshot_mismatch(_snapshot_entry(report), snapshot[key])
        assert mismatch is None, (key, mismatch)
    statuses = sorted({entry["status"] for entry in snapshot.values()})
    assert statuses == ["fail", "not_applicable", "pass"]
    print(f"[acceptance 5] PASS {len(runs)} perturbation reports match the snapshot")


# Golden behaviour of the six file commands, written once like the theorem
# snapshot: each command's exit code and its report without the tool version,
# on three generated systems and three systems whose members have mixed output
# ranks.  The comparison walks the report: keys, list lengths, strings and
# booleans must be equal, integers too, and floats follow the theorem snapshot's
# rule (by modulus, as entries can be negative).  Report bytes are not compared.
CLI_SNAPSHOT = Path(__file__).parent / "data" / "cli_snapshot.json"
CLI_COMMANDS = ("validate", "bounds", "frame-op", "dual", "reconstruct", "multiplier")
CLI_GENERATED = {
    "example": ["example", "--alpha", "2", "--beta", "3", "--rank", "3", "--nodes", "11"],
    "random-matrix": ["random", "--seed", "5", "--algebra", "matrix", "--dim", "3"],
    "random-diagonal": ["random", "--seed", "7", "--algebra", "diagonal", "--dim", "3"],
}
CLI_MIXED = {
    "mixed-diagonal": dict(seed=27, rank=2, algebra="diagonal", dim=3, pad_outputs=True),
    "mixed-matrix": dict(seed=25, rank=2, algebra="matrix", dim=2, pad_outputs=True),
    "mixed-rank-one": dict(seed=3, rank=1, algebra="diagonal", dim=3, pad_outputs=True),
}


def _cli_snapshot_entries():
    """{input: {command: {"exit", "report"}}} for every snapshot run, made in the working directory."""
    for name, argv in CLI_GENERATED.items():
        assert cli_main(argv + ["--out", f"{name}.json"]) == 0
    for name, options in CLI_MIXED.items():
        save_system(random_system(**options), f"{name}.json")
    entries = {}
    for name in (*CLI_GENERATED, *CLI_MIXED):
        entries[name] = {}
        for command in CLI_COMMANDS:
            out = Path(f"{command}-{name}.json")
            code = cli_main([command, f"{name}.json", "--out", str(out)])
            report = json.loads(out.read_text(encoding="utf-8"))
            del report["tool"]["version"]
            entries[name][command] = {"exit": code, "report": report}
    return entries


def _tree_mismatch(got, want, path="report"):
    """Where ``got`` differs from ``want`` beyond the snapshot rule, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
        return next(filter(None, (_tree_mismatch(got[key], want[key], f"{path}/{key}")
                                  for key in want)), None)
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        return next(filter(None, (_tree_mismatch(g, w, f"{path}/{i}")
                                  for i, (g, w) in enumerate(zip(got, want)))), None)
    if isinstance(want, float) and type(got) in (int, float):
        if abs(want) <= SNAPSHOT_NOISE:
            return None if abs(got) <= SNAPSHOT_NOISE else f"{path}: {got!r} above noise"
        return None if abs(got - want) <= SNAPSHOT_RTOL * abs(want) else f"{path}: {got!r} != {want!r}"
    return None if type(got) is type(want) and got == want else f"{path}: {got!r} != {want!r}"


def test_file_command_snapshot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    snapshot = json.loads(CLI_SNAPSHOT.read_text(encoding="utf-8"))
    got = _cli_snapshot_entries()
    assert sorted(got) == sorted(snapshot)
    for name, commands in snapshot.items():
        assert sorted(got[name]) == sorted(commands)
        for command, want in commands.items():
            assert got[name][command]["exit"] == want["exit"], (name, command)
            mismatch = _tree_mismatch(got[name][command]["report"], want["report"])
            assert mismatch is None, (name, command, mismatch)
    print(f"[acceptance 5] PASS {len(snapshot) * len(CLI_COMMANDS)} file-command reports "
          "match the snapshot")


def test_criterion_6_right_inverse_characterization():
    for seed in range(5):
        report = verify_theorem("T55", seed=seed)
        assert report.status == PASS, report.to_dict()
        by_name = {line.name: line for line in report.conclusions}
        assert "right_inverse_count" not in report.info
        residual = by_name["constructed right inverses verified"].residual
        assert residual <= 1e-9
        assert residual == pytest.approx(brute_force_right_inverse_residual(seed), abs=1e-12)
        assert by_name["least-squares right inverse verified"].residual <= 1e-9
        assert by_name["least-squares inverse decomposes into the stated form"].residual <= 1e-8
    print("[acceptance 6] PASS right-inverse characterization, every free map, 5 systems")


def test_criterion_7_stability():
    # twenty near-identical pairs certified with the two-sided constant
    for seed in range(20):
        base = random_system(seed, commuting=True)
        sys_a = base.with_controls(base.controls.C, base.controls.C)
        rng = np.random.default_rng(1000 + seed)
        perturbed = {}
        for label, op in sys_a.family.items():
            noise = rand_operator(sys_a.descriptor, op.in_rank, op.out_rank, rng)
            perturbed[label] = op + (0.01 / max(1.0, noise.norm())) * noise
        report = check_equivalence_M(sys_a, sys_a.with_family(perturbed))
        assert report.status == PASS, (seed, report.to_dict())

    tight = tight_line_system()
    bounds = optimal_scalar_bounds(tight)
    a, b = bounds.scalar_lower, bounds.scalar_upper
    violations = 0

    for c in (0.5, 1.0, 2.0):
        bessel = tight.with_family({label: (c - 1.0) * op for label, op in tight.family.items()})
        report = sum_frame_check(tight, bessel)
        assert report.status == PASS, (c, report.to_dict())
        window = report.info["certified_windows"]["summed window certified"]
        if not (window[0] <= c * a + 1e-12 and c * b <= window[1] + 1e-12):
            violations += 1

    ui = unit_interval_system(1.0, 1.0, 3, 11)
    ui_bounds = optimal_scalar_bounds(ui)
    ones = {label: 1.0 for label in ui.measure.labels}
    for c, lam, mu in ((0.5, 0.55, 0.0), (1.0, 0.0, 0.0), (2.0, 0.6, 0.25)):
        family = {label: c * op for label, op in ui.family.items()}
        report = weighted_perturbation_check(ui, ui.with_family(family), ones, ones, lam=lam,
                                             mu=mu)
        assert report.status == PASS, (c, report.to_dict())
        window = report.info["certified_windows"]["weighted window certified"]
        if not (window[0] <= c * ui_bounds.scalar_lower + 1e-12
                and c * ui_bounds.scalar_upper <= window[1] + 1e-12):
            violations += 1

    for c, alpha in ((0.5, 0.2501), (1.0, 0.0)):
        family = {label: c * op for label, op in tight.family.items()}
        report = additive_perturbation_check(tight, tight.with_family(family), alpha=alpha,
                                             beta=0.0)
        assert report.status == PASS, (c, report.to_dict())
        window = report.info["certified_windows"]["additive window certified"]
        if not (window[0] <= c * a + 1e-12 and c * b <= window[1] + 1e-12):
            violations += 1
    # c = 2 leaves the additive hypothesis class: the precondition gate must fire
    from gframe.errors import DomainError
    with pytest.raises(DomainError):
        additive_perturbation_check(
            tight, tight.with_family({label: 2.0 * op for label, op in tight.family.items()}),
            alpha=1.0, beta=0.0)

    assert violations == 0
    print("[acceptance 7] PASS stability: 20 equivalence pairs, "
          "sum/weighted/additive windows contain exact scaled bounds, 0 violations")


def test_criterion_8_oracle_equivalence():
    fixtures = [unit_interval_system(2.0, 3.0, 3, 11),
                unit_interval_system(1.0, 1.0, 4, 21)]
    fixtures += [random_system(seed, commuting=True) for seed in range(6)]
    fixtures += [random_system(seed, rank=2, algebra="matrix", dim=2, commuting=False)
                 for seed in range(2)]
    worst = 0.0
    for system in fixtures:
        oracle = brute_force_frame_operator_flat(system)
        assembled = system.frame_operator.flat()
        scale = max(1.0, float(np.linalg.norm(oracle, 2)))
        worst = max(worst, float(np.linalg.norm(assembled - oracle, 2)) / scale)
    from gframe.frames import multiplier
    rng = np.random.default_rng(0)
    for system in fixtures[:4]:
        family = dict(system.family)
        symbol = {label: complex(rng.standard_normal(), rng.standard_normal())
                  for label in family}
        op = multiplier(symbol, family, family, system.measure)
        oracle = brute_force_multiplier_flat(symbol, family, family, system.measure)
        scale = max(1.0, float(np.linalg.norm(oracle, 2)))
        worst = max(worst, float(np.linalg.norm(op.flat() - oracle, 2)) / scale)
    for seed in range(3):
        base = random_system(seed, commuting=True)
        sys_a = base.with_controls(base.controls.C, base.controls.C)
        sys_b = sys_a.with_family({label: 0.7 * op for label, op in sys_a.family.items()})
        diff = sys_a.with_family({label: sys_a.family[label] - sys_b.family[label]
                                  for label in sys_a.measure.labels})
        oracle = brute_force_frame_operator_flat(diff)
        for _ in range(5):
            x = rand_vector(sys_a.descriptor, sys_a.module_rank, rng)
            fx = x.flat()
            expected = fx @ oracle @ fx.conj().T
            got = diff.gram(x).data
            got = got if got.ndim == 2 else np.diag(got)
            scale = max(1.0, float(np.linalg.norm(expected, 2)))
            worst = max(worst, float(np.linalg.norm(got - expected, 2)) / scale)
    assert worst <= 1e-11
    print(f"[acceptance 8] PASS oracle equivalence, worst relative deviation {worst:.2e}")


def test_criterion_9_positivity_cross_check():
    from gframe.algebra import AlgebraDescriptor, AlgebraElement

    rng = np.random.default_rng(2024)
    disagreements = 0
    for i in range(1000):
        kind = "matrix" if i % 2 == 0 else "diagonal"
        dim = int(rng.integers(1, 5))
        desc = AlgebraDescriptor(kind, dim)
        if kind == "matrix":
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            data = 0.5 * (m + m.conj().T) + rng.uniform(-1, 1) * np.eye(dim)
        else:
            data = rng.standard_normal(dim).astype(np.complex128)
        h = AlgebraElement(desc, data)
        if positive_by_norm_shift(h) != h.is_positive():
            disagreements += 1
    assert disagreements == 0
    print("[acceptance 9] PASS positivity cross-check, 1000 Hermitian samples, "
          "0 disagreements")


def test_criterion_10_determinism(tmp_path):
    out1, out2 = str(tmp_path / "suite1.json"), str(tmp_path / "suite2.json")
    assert cli_main(["theorem", "--id", "all", "--seed", "0", "--out", out1]) == 0
    assert cli_main(["theorem", "--id", "all", "--seed", "0", "--out", out2]) == 0
    bytes1 = Path(out1).read_bytes()
    bytes2 = Path(out2).read_bytes()
    assert bytes1 == bytes2
    sys1, sys2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli_main(["random", "--seed", "17", "--out", sys1]) == 0
    assert cli_main(["random", "--seed", "17", "--out", sys2]) == 0
    assert Path(sys1).read_bytes() == Path(sys2).read_bytes()
    print("[acceptance 10] PASS determinism, byte-identical reports and system files")

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

from gframe.cli import main as cli_main
from gframe.frames import optimal_scalar_bounds
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import DirectSumVector
from gframe.frames import canonical_dual
from gframe.reports import PASS
from gframe.sampling import rand_operator, rand_vector
from gframe.stability import (
    additive_perturbation_check,
    check_equivalence_M,
    sum_frame_check,
    weighted_perturbation_check,
)
from gframe.theorems import DOCUMENTED_MUTANTS, THEOREM_IDS, verify_theorem

from conftest import (
    brute_force_frame_operator_flat,
    brute_force_multiplier_flat,
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
        cert = canonical_dual(system, samples=100, seed=seed, tol=1e-8)
        worst = max(worst, cert.reconstruction_residual)
        assert cert.reconstruction_residual <= 1e-8, seed
    print(f"[acceptance 3] PASS canonical-dual reconstruction, worst residual {worst:.2e}")


def test_criterion_4_analysis_synthesis(system_pool):
    worst_adj, worst_fact = 0.0, 0.0
    for seed, system in enumerate(system_pool):
        rng = np.random.default_rng(seed)
        ds = system.direct_sum
        for _ in range(5):
            x = rand_vector(system.descriptor, system.module_rank, rng)
            comps = {label: rand_vector(system.descriptor, rank, rng)
                     for label, rank in zip(ds.labels, ds.ranks)}
            y = DirectSumVector(ds, comps)
            lhs = system.synthesis(y).inner(x)
            rhs = y.inner(system.analysis(x))
            scale = max(1.0, lhs.norm(), rhs.norm())
            defect = (lhs - rhs).norm() / scale
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


def test_criterion_6_right_inverse_characterization():
    for seed in range(5):
        report = verify_theorem("T55", seed=seed)
        assert report.status == PASS, report.to_dict()
        by_name = {line.name: line for line in report.conclusions}
        assert report.info["right_inverse_count"] == 20
        assert by_name["constructed right inverses verified"].residual <= 1e-9
        assert by_name["least-squares right inverse verified"].residual <= 1e-9
        assert by_name["least-squares inverse decomposes into the stated form"].residual <= 1e-8
    print("[acceptance 6] PASS right-inverse characterization, 20 inverses per system, "
          "5 systems")


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
        report = check_equivalence_M(sys_a, sys_a.with_family(perturbed),
                                     samples=60, seed=seed)
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
        report = weighted_perturbation_check(ui, family, ones, ones, lam=lam, mu=mu,
                                             samples=60, seed=int(10 * c))
        assert report.status == PASS, (c, report.to_dict())
        window = report.info["certified_windows"]["weighted window certified"]
        if not (window[0] <= c * ui_bounds.scalar_lower + 1e-12
                and c * ui_bounds.scalar_upper <= window[1] + 1e-12):
            violations += 1

    for c, alpha in ((0.5, 0.2501), (1.0, 0.0)):
        family = {label: c * op for label, op in tight.family.items()}
        report = additive_perturbation_check(tight, family, alpha=alpha, beta=0.0,
                                             samples=60, seed=int(10 * c))
        assert report.status == PASS, (c, report.to_dict())
        window = report.info["certified_windows"]["additive window certified"]
        if not (window[0] <= c * a + 1e-12 and c * b <= window[1] + 1e-12):
            violations += 1
    # c = 2 leaves the additive hypothesis class: the precondition gate must fire
    from gframe.errors import DomainError
    with pytest.raises(DomainError):
        additive_perturbation_check(
            tight, {label: 2.0 * op for label, op in tight.family.items()},
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
    from gframe.stability import family_distance
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
            got = family_distance(sys_a, sys_b, x).data
            got = got if got.ndim == 2 else np.diag(got)
            scale = max(1.0, float(np.linalg.norm(expected, 2)))
            worst = max(worst, float(np.linalg.norm(got - expected, 2)) / scale)
    assert worst <= 1e-11
    print(f"[acceptance 8] PASS oracle equivalence, worst relative deviation {worst:.2e}")


def test_criterion_9_positivity_cross_check():
    from gframe.algebra import AlgebraDescriptor, AlgebraElement, is_positive_by_norm_shift

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
        if is_positive_by_norm_shift(h) != h.is_positive():
            disagreements += 1
    assert disagreements == 0
    print("[acceptance 9] PASS positivity cross-check, 1000 Hermitian samples, "
          "0 disagreements")


def test_criterion_10_determinism(tmp_path):
    out1, out2 = str(tmp_path / "suite1.json"), str(tmp_path / "suite2.json")
    assert cli_main(["theorem", "--id", "all", "--seed", "0", "--out", out1]) == 0
    assert cli_main(["theorem", "--id", "all", "--seed", "0", "--out", out2]) == 0
    bytes1 = open(out1, "rb").read()
    bytes2 = open(out2, "rb").read()
    assert bytes1 == bytes2
    sys1, sys2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli_main(["random", "--seed", "17", "--out", sys1]) == 0
    assert cli_main(["random", "--seed", "17", "--out", sys2]) == 0
    assert open(sys1, "rb").read() == open(sys2, "rb").read()
    print("[acceptance 10] PASS determinism, byte-identical reports and system files")

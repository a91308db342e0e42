import json

import numpy as np
import pytest

from gframe import theorems
from gframe.algebra import DIAGONAL, MATRIX, AlgebraDescriptor
from gframe.cli import main
from gframe.errors import DomainError, InputError
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator
from gframe.reports import FAIL, NOT_APPLICABLE, PASS
from gframe.sampling import rand_invertible_operator, rand_operator, rand_positive_operator
from gframe.serialize import load_system, save_system
from gframe.theorems import (
    DOCUMENTED_MUTANTS,
    MUTANTS,
    THEOREM_IDS,
    WRONG_K,
    _Draws,
    run_suite,
    verify_theorem,
)

from conftest import brute_force_right_inverse_residual, count_operators


def test_row_registry_is_complete():
    assert len(THEOREM_IDS) == 23
    assert "T55" in THEOREM_IDS and "HOM-TRANSPORT" in THEOREM_IDS


def test_unknown_id_and_mutant_rejected():
    with pytest.raises(InputError):
        verify_theorem("NO-SUCH-ROW")
    with pytest.raises(InputError):
        verify_theorem("T55", mutant="nonsense")


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_rows_pass_on_seeded_instances(theorem_id):
    for seed in (0, 1):
        report = verify_theorem(theorem_id, seed=seed)
        assert report.status == PASS, (theorem_id, seed, report.to_dict())


def test_report_shape():
    report = verify_theorem("FO-PROPS", seed=0)
    doc = report.to_dict()
    assert doc["theorem_id"] == "FO-PROPS"
    assert doc["status"] == PASS
    assert {"name", "passed", "residual"} <= set(doc["hypotheses"][0])
    assert doc["tolerance"] == pytest.approx(1e-9)
    assert doc["seed"] == 0


def test_frame_operator_row_on_identity_frame(identity_system):
    report = verify_theorem("FO-PROPS", system=identity_system, seed=0)
    assert report.status == PASS
    assert report.conclusion_residual <= 1e-14


def test_right_composition_unit_interval_closed_form():
    system = unit_interval_system(1.0, 1.0, 3, 11)
    theta = AdjointableOperator.from_blocks(
        system.descriptor, np.array([1.0, 2.0, 3.0], dtype=np.complex128).reshape(1, 1, 3))
    report = verify_theorem("RIGHT-COMP", system=system, seed=0,
                            aux={"theta_right": theta})
    assert report.status == PASS
    composed = system.with_family({label: op @ theta for label, op in system.family.items()})
    s_new = composed.frame_operator.blocks.reshape(-1)
    assert np.max(np.abs(s_new - 1.0 / 3.0)) <= 1e-14


def test_t55_decides_every_free_map():
    # R(theta) is affine, so one residual for R(0) and one for the kernel part
    # decide every free map: no map is drawn, and none are counted.
    for mutant, k_factor, status in ((None, 1.0, PASS), ("wrong_k", 2.0, FAIL)):
        report = verify_theorem("T55", seed=3, mutant=mutant)
        assert report.status == status
        assert "right_inverse_count" not in report.info
        by_name = {line.name: line for line in report.conclusions}
        residual = by_name["constructed right inverses verified"].residual
        assert residual == pytest.approx(brute_force_right_inverse_residual(3, k_factor),
                                         rel=1e-9, abs=1e-12)
        assert by_name["least-squares inverse decomposes into the stated form"].residual <= 1e-8


def test_t66_records_nominal_companion_mismatch():
    report = verify_theorem("T66", seed=0)
    assert report.status == PASS
    assert isinstance(report.info["nominal_companion_matches"], bool)
    assert report.info["nominal_companion_residual"] >= 0.0


def test_any_frame_controlled_reports_nominal_bounds():
    report = verify_theorem("ANY-FRAME-CONTROLLED", seed=0)
    assert report.status == PASS
    assert len(report.info["nominal_bounds"]) == 2


def test_hypothesis_failure_yields_not_applicable():
    system = random_system(3, rank=2, algebra="matrix", dim=2, commuting=False)
    report = verify_theorem("FO-PROPS", system=system, seed=0)
    assert report.status == NOT_APPLICABLE
    assert report.conclusions == []


@pytest.mark.parametrize("shape, unmet", [
    (dict(seed=3, rank=2, algebra="matrix", dim=2, commuting=False), ("BESSEL-COMP", "T12")),
    (dict(seed=11, commuting=True), ("F-KT", "EQ-FRAME-OP", "T33")),
])
def test_unmet_hypotheses_never_raise(shape, unmet):
    # scalar bounds do not apply to a family that does not commute with the controls
    system = random_system(**shape)
    reports = {theorem_id: verify_theorem(theorem_id, system=system, seed=0)
               for theorem_id in THEOREM_IDS}
    for theorem_id in unmet:
        report = reports[theorem_id]
        assert report.status == NOT_APPLICABLE, report.to_dict()
        assert not report.hypotheses[-1].passed


def test_t55_records_a_supplied_companion():
    system = random_system(0, commuting=True)
    k = AdjointableOperator.scalar(system.descriptor, system.module_rank, 2.0)
    report = verify_theorem("T55", seed=0, aux={"K": k})
    assert report.status == PASS, report.to_dict()
    assert report.info["aux_supplied"] == ["K"]
    assert "aux_generated" not in report.info
    assert verify_theorem("T55", seed=0).info["aux_generated"] == ["K"]


def test_documented_mutants_flip_their_rows():
    assert set(m for _, m, _ in DOCUMENTED_MUTANTS) == set(MUTANTS)
    for theorem_id, mutant, expected in DOCUMENTED_MUTANTS:
        report = verify_theorem(theorem_id, seed=0, mutant=mutant)
        assert report.status == expected, (theorem_id, mutant, report.to_dict())
        assert report.status != PASS


def test_undocumented_mutants_change_no_report():
    # A mutant injects a violation only into the rows the matrix documents.
    documented = {(theorem_id, mutant) for theorem_id, mutant, _ in DOCUMENTED_MUTANTS}
    for seed in range(3):
        draws = _Draws(seed)
        for theorem_id in THEOREM_IDS:
            plain = verify_theorem(theorem_id, seed=seed, draws=draws).to_dict()
            for mutant in MUTANTS:
                if (theorem_id, mutant) not in documented:
                    mutated = verify_theorem(theorem_id, seed=seed, mutant=mutant, draws=draws)
                    assert mutated.to_dict() == plain, (theorem_id, mutant, seed)


def test_run_suite_ordering_and_determinism():
    first = run_suite(seeds=(0,))
    second = run_suite(seeds=(0,))
    assert [rep.theorem_id for rep in first] == sorted(THEOREM_IDS)
    assert [rep.to_dict() for rep in first] == [rep.to_dict() for rep in second]


# Every row, then every documented mutant: mutants see systems the rows already used.
_JOBS = [(theorem_id, None) for theorem_id in THEOREM_IDS] + [
    (theorem_id, mutant) for theorem_id, mutant, _ in DOCUMENTED_MUTANTS]


@pytest.mark.parametrize("seed", range(10))
def test_shared_draws_give_the_reports_of_fresh_draws(seed):
    fresh = [verify_theorem(tid, seed=seed, mutant=mutant).to_dict() for tid, mutant in _JOBS]
    for jobs in (_JOBS, _JOBS[::-1]):
        draws = _Draws(seed)
        shared = {job: verify_theorem(job[0], seed=seed, mutant=job[1], draws=draws).to_dict()
                  for job in jobs}
        assert [shared[job] for job in _JOBS] == fresh


def test_each_option_set_is_drawn_once_per_invocation(monkeypatch, tmp_path):
    drawn = []

    def counting(seed, **options):
        drawn.append((seed, tuple(sorted(options.items()))))
        return random_system(seed, **options)

    monkeypatch.setattr(theorems, "random_system", counting)
    argv = ["theorem", "--id", "all", "--seed", "3", "--out", str(tmp_path / "t.json")]
    assert main(argv) == 0
    first = list(drawn)
    assert len(first) == len(set(first)) == 4
    assert {options for _, options in first} == {
        (("commuting", True),),
        (("commuting", True), ("scalar_controls", True)),
        (("commuting", True), ("pad_outputs", True)),
        (("commuting", True), ("pad_outputs", True), ("scalar_controls", True))}
    assert main(argv) == 0
    assert drawn[len(first):] == first

    del drawn[:]
    run_suite(seeds=(0, 1))
    assert len(drawn) == len(set(drawn)) == 8


def test_draws_are_tied_to_one_seed():
    with pytest.raises(ValueError):
        verify_theorem("T2.3", seed=1, draws=_Draws(0))


@pytest.mark.parametrize("seed", [0, 3])
def test_dual_param_draws_distinct_bessel_members(monkeypatch, seed):
    # The row's Bessel family is its only rand_operator draw; one stream gives
    # every atom its own member.
    original, drawn = theorems.rand_operator, []
    monkeypatch.setattr(theorems, "rand_operator",
                        lambda *args: drawn.append(original(*args)) or drawn[-1])
    report = verify_theorem("DUAL-PARAM", seed=seed)
    assert report.status == PASS
    assert len(drawn) == report.info["instance"]["atoms"] >= 2
    for i, first in enumerate(drawn):
        for second in drawn[i + 1:]:
            assert not np.array_equal(first.blocks, second.blocks)


def test_hom_transport_rejects_a_non_morphism(monkeypatch):
    # The transpose on M_2 reverses products (an anti-morphism), so it cannot
    # intertwine the inner products: the basis pairs show it, and the row is
    # not_applicable with only the unitary class's hypotheses failed.
    drawn = theorems._hom_instances

    def transposed(draw):
        return [(name, system, (lambda a: np.swapaxes(a, -1, -2)) if name == "unitary" else phi)
                for name, system, phi in drawn(draw)]

    monkeypatch.setattr(theorems, "_hom_instances", transposed)
    for seed in range(3):
        report = verify_theorem("HOM-TRANSPORT", seed=seed)
        assert report.status == NOT_APPLICABLE
        failed = {line.name: line.residual for line in report.hypotheses if not line.passed}
        assert set(failed) <= {"unitary: inner products intertwined",
                               "unitary: intertwiner commutes with the family"}
        assert failed["unitary: inner products intertwined"] == pytest.approx(1.0)
        assert report.conclusions and all(line.name.startswith("identity:")
                                          for line in report.conclusions)


def test_t55_never_hands_a_non_finite_stack_to_pinv(monkeypatch):
    # np.linalg.pinv does not return on a complex stack that holds an infinity,
    # so T55 must test K T*'s entries first.  The stand-in fails the test
    # instead of hanging it if a non-finite stack ever reaches the routine.
    real_pinv, seen = np.linalg.pinv, []

    def stand_in(mats, **options):
        if not np.isfinite(mats).all():
            pytest.fail("np.linalg.pinv was called on a non-finite stack")
        seen.append(mats.shape)
        return real_pinv(mats, **options)

    monkeypatch.setattr(np.linalg, "pinv", stand_in)
    assert verify_theorem("T55", seed=0).status == PASS
    assert seen  # the row reaches the routine with its finite product
    system = random_system(0, commuting=True)
    chans = system.analysis_operator.channels.copy()
    for bad in (np.inf, complex(0, np.inf), np.nan):
        chans[0, 0, 0] = bad
        with pytest.raises(DomainError, match="finite entries"):
            theorems._least_squares_inverse(AdjointableOperator(system.descriptor, chans))
    assert len(seen) == 1


def _per_atom_block_members(seed: int) -> list:
    """SUBMODULE's members as drawn one root per block: sqrt(a h + b I) of the composed operator."""
    rng = theorems._rng(seed, 12)
    kind = MATRIX if rng.integers(2) else DIAGONAL
    d = int(rng.integers(1, 3)) if kind == MATRIX else int(rng.integers(2, 4))
    desc = AlgebraDescriptor(kind, d)
    h_top = rand_positive_operator(desc, 2, rng, shift=0.5)
    h_bot = rand_positive_operator(desc, 1, rng, shift=0.5)
    measure = theorems._atoms(rng, 4)
    members = []
    for _ in measure.labels:
        blocks = [(float(rng.uniform(0.4, 1.0)) * h
                   + AdjointableOperator.scalar(desc, h.in_rank, float(rng.uniform(0.3, 0.8))))
                  .sqrt_positive() for h in (h_top, h_bot)]
        members.append(theorems._block_diagonal(*blocks))
    return members


@pytest.mark.parametrize("seed", range(8))
def test_submodule_members_match_the_per_atom_roots(seed):
    # The two blocks' roots come from one eigendecomposition each, in the
    # per-atom draw order: the members move only in their last bits.
    system, _, r = theorems._block_diag_system(seed)
    assert r == 2
    for got, want in zip(system.family.values(), _per_atom_block_members(seed), strict=True):
        assert np.abs(got.channels - want.channels).max() <= 1e-13 * want.norm()
        assert got.is_positive()


@pytest.mark.parametrize("shape", [
    dict(seed=0),
    dict(seed=3),
    dict(seed=25, rank=2, algebra="matrix", dim=2, pad_outputs=True),
    dict(seed=27, rank=2, algebra="diagonal", dim=3, pad_outputs=True),
], ids=["seed-0", "seed-3", "padded-matrix", "padded-diagonal"])
def test_right_inverse_matches_the_dense_kernel(shape):
    # R(theta) = R_0 + N theta, with N = I - T S^-1 T* formed densely on the
    # weighted direct sum, as brute_force_right_inverse_residual forms it.
    system = random_system(**shape)
    desc, n, t = system.descriptor, system.module_rank, system.analysis_operator
    assert "pad_outputs" not in shape or len(set(system.stacked_family.ranks)) > 1
    rng = np.random.default_rng([shape["seed"], 60])
    k, theta = rand_invertible_operator(desc, n, rng), rand_operator(desc, n, t.out_rank, rng)
    got = theorems._right_inverse(t, system.frame_operator.inverse(), k, theta).flat()
    flat_t, s_inv = t.flat(), np.linalg.inv(system.frame_operator.flat())
    kernel = np.eye(flat_t.shape[1]) - flat_t.conj().T @ s_inv @ flat_t
    want = np.linalg.inv(k.flat()) @ s_inv @ flat_t + theta.flat() @ kernel
    assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)
    residual = got @ flat_t.conj().T @ k.flat() - np.eye(flat_t.shape[0])  # K T* R(theta) - I
    assert np.linalg.norm(residual, 2) <= 1e-9


RIGHT_INVERSE_ROWS = ("T55", "T66", "MIDPOINT-DUAL", "DUAL-PARAM")


@pytest.mark.parametrize("mutant", [None, WRONG_K])
@pytest.mark.parametrize("theorem_id", RIGHT_INVERSE_ROWS)
def test_right_inverse_rows_build_no_operator_on_the_direct_sum(monkeypatch, theorem_id, mutant):
    # N = I - T S^-1 T* and the central multiplier act on the weighted direct
    # sum A^(m_1 + ... + m_W); the rows apply them and build neither.
    expected = FAIL if (theorem_id, mutant, FAIL) in DOCUMENTED_MUTANTS else PASS
    for seed in range(10):
        draws = _Draws(seed)
        built = count_operators(monkeypatch)
        report = verify_theorem(theorem_id, seed=seed, mutant=mutant, draws=draws)
        monkeypatch.undo()
        assert report.status == expected, (seed, report.to_dict())
        direct_sums = {sum(system.stacked_family.ranks) for system in draws._systems.values()}
        assert direct_sums and built
        assert not [(i, o) for i, o in built if i == o and i in direct_sums], seed


def test_theorem_suite_on_the_medium_rung_builds_no_operator_on_the_direct_sum(
        tmp_path, monkeypatch):
    # The medium rung: rank 8, M_4, 64 atoms, so the direct sum is A^512.
    path, out = str(tmp_path / "medium.json"), tmp_path / "theorem.json"
    save_system(random_system(1, rank=8, atoms=64, algebra="matrix", dim=4), path)
    direct_sum = sum(load_system(path).stacked_family.ranks)
    built = count_operators(monkeypatch)
    assert main(["theorem", path, "--id", "all", "--out", str(out)]) in (0, 1)
    monkeypatch.undo()
    assert built and (direct_sum, direct_sum) not in built
    status = {doc["theorem_id"]: doc["status"] for doc in json.loads(out.read_text())["results"]}
    assert status["MIDPOINT-DUAL"] == status["T66"] == PASS

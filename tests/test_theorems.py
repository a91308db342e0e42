import numpy as np
import pytest

from gframe.errors import InputError
from gframe.generate import random_system, unit_interval_system
from gframe.hilbert import AdjointableOperator
from gframe.reports import NOT_APPLICABLE, PASS
from gframe.theorems import (
    DOCUMENTED_MUTANTS,
    MUTANTS,
    THEOREM_IDS,
    run_suite,
    verify_theorem,
)


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
    theta = AdjointableOperator(
        system.descriptor, np.array([1.0, 2.0, 3.0], dtype=np.complex128).reshape(1, 1, 3))
    report = verify_theorem("RIGHT-COMP", system=system, seed=0,
                            aux={"theta_right": theta})
    assert report.status == PASS
    composed = system.with_family({label: op @ theta for label, op in system.family.items()})
    s_new = composed.frame_operator.blocks.reshape(-1)
    assert np.max(np.abs(s_new - 1.0 / 3.0)) <= 1e-14


def test_t55_reports_twenty_right_inverses():
    report = verify_theorem("T55", seed=3)
    assert report.status == PASS
    assert report.info["right_inverse_count"] == 20
    by_name = {line.name: line for line in report.conclusions}
    assert by_name["constructed right inverses verified"].residual <= 1e-9
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


def test_run_suite_ordering_and_determinism():
    first = run_suite(seeds=(0,))
    second = run_suite(seeds=(0,))
    assert [rep.theorem_id for rep in first] == sorted(THEOREM_IDS)
    assert [rep.to_dict() for rep in first] == [rep.to_dict() for rep in second]

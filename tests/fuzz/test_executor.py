"""Executor determinism and full oracle-matrix coverage."""

from __future__ import annotations

import pytest

from repro.fuzz.executor import FuzzCase, plan_cases, run_case, run_fuzz
from repro.fuzz.generators import FAMILIES, FAMILY_NAMES, CaseConfig, CaseSpec
from repro.fuzz.oracles import ORACLE_NAMES, applicable_oracles

#: One round of every family; seed 5 draws quick params for each (pinned so
#: a slow prune_stress deep-bucket draw can't creep into the unit suite).
SEED = 5
ROUND = len(FAMILY_NAMES)


def test_plan_is_deterministic():
    first = plan_cases(SEED, 2 * ROUND)
    second = plan_cases(SEED, 2 * ROUND)
    assert [c.id for c in first] == [c.id for c in second]
    assert [c.spec for c in first] == [c.spec for c in second]
    assert [c.config for c in first] == [c.config for c in second]


def test_plan_depends_on_seed():
    assert [c.id for c in plan_cases(1, ROUND)] != [c.id for c in plan_cases(2, ROUND)]


def test_plan_round_robins_all_families():
    planned = plan_cases(SEED, ROUND)
    assert [c.spec.family for c in planned] == list(FAMILY_NAMES)


def test_plan_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown fuzz family"):
        plan_cases(SEED, 1, families=["nope"])


def test_case_id_depends_on_config_too():
    spec = CaseSpec(family="stencil", seed=1, params={"nprocs": 2, "iterations": 4})
    a = FuzzCase(spec=spec, config=CaseConfig("relDiff", 0.8))
    b = FuzzCase(spec=spec, config=CaseConfig("relDiff", 0.4))
    assert a.id != b.id


@pytest.fixture(scope="module")
def one_round_results():
    return [run_case(case) for case in plan_cases(SEED, ROUND)]


def test_every_family_passes_every_applicable_oracle(one_round_results):
    for result in one_round_results:
        assert result.ok, (
            f"{result.case.describe()} failed {result.failed_oracles}: "
            f"{result.divergence}"
        )


def test_one_round_covers_the_full_oracle_matrix(one_round_results):
    ran: set[str] = set()
    for result in one_round_results:
        ran.update(o.name for o in result.outcomes if o.status != "skip")
    assert ran == set(ORACLE_NAMES)
    assert len(ORACLE_NAMES) == 11
    assert {"pipeline_shard", "pipeline_payload", "pipeline_streamed"} <= ran


def test_rerun_reproduces_outcomes(one_round_results):
    # Re-running the first case must reproduce its exact outcome list.
    first = one_round_results[0]
    again = run_case(first.case)
    assert [(o.name, o.status) for o in again.outcomes] == [
        (o.name, o.status) for o in first.outcomes
    ]


def test_applicable_oracles_matrix():
    malformed = applicable_oracles(FAMILIES["malformed"])
    assert malformed == ("malformed_fallback",)
    edge = applicable_oracles(FAMILIES["threshold_edge"])
    assert "text_roundtrip" not in edge
    assert {"frame_path", "session_checkpoint"} <= set(edge)
    full = applicable_oracles(FAMILIES["stencil"])
    assert "text_roundtrip" in full


def test_run_fuzz_report_shape(tmp_path):
    report = run_fuzz(SEED, 3, corpus_dir=tmp_path)
    assert report.planned == 3
    assert len(report.results) == 3
    assert report.ok and not report.saved
    assert report.oracle_coverage["frame_path"] == 3


def test_time_budget_truncates_but_never_alters(monkeypatch):
    # A zero budget runs no cases at all — planned cases are only truncated.
    report = run_fuzz(SEED, 5, time_budget=0.0)
    assert report.truncated
    assert report.results == []


def test_a_divergence_is_persisted_shrunk_and_replayable(tmp_path, monkeypatch):
    # Force one oracle to report a divergence so the mining path —
    # persist, shrink, reload, replay — is exercised end to end even
    # while the real pathways agree.
    from repro.fuzz import executor as executor_mod
    from repro.fuzz import oracles as oracles_mod
    from repro.fuzz.casedb import CaseDB

    real_run_oracles = oracles_mod.run_oracles

    def failing_run_oracles(trace, config, workdir, names, seed=0):
        outcomes = real_run_oracles(trace, config, workdir, names, seed=seed)
        return [
            type(o)(o.name, "fail", "injected divergence")
            if o.name == "frame_path"
            else o
            for o in outcomes
        ]

    monkeypatch.setattr(executor_mod, "run_oracles", failing_run_oracles)
    monkeypatch.setattr(oracles_mod, "run_oracles", failing_run_oracles)

    report = run_fuzz(
        SEED, 1, families=["stencil"], corpus_dir=tmp_path, shrink=True, shrink_budget=60
    )
    assert report.n_failed == 1
    assert len(report.saved) == 1

    case = CaseDB(tmp_path).load(report.saved[0])
    assert case.oracles == ["frame_path"]
    assert case.shrunk
    assert case.divergence == "injected divergence"
    # The shrunk case still "fails" under the same (patched) check.
    monkeypatch.undo()
    from repro.fuzz.oracles import run_oracles as clean_run_oracles

    outcomes = clean_run_oracles(case.trace(), case.config, tmp_path, case.oracles)
    assert all(o.status == "pass" for o in outcomes)  # pathways really do agree

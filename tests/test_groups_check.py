"""Self-validation of the groups-rendezvous checking harness.

Same bar as the lease harness's suite: the seeded ``groups-skip-hold``
mutant (release a rendezvous as soon as any one copy surfaces) must be
caught within a bounded schedule budget, its counterexample must shrink,
and the frozen replay file must reproduce the violation deterministically.
The kernel-level behaviours are shared with the other walk harnesses
(tests/walk_cases.py).
"""

from __future__ import annotations

import pytest

from repro.check.groups_rendezvous import (
    GROUPS_MUTANTS,
    GroupsCheckConfig,
    RendezvousHarness,
)
from repro.check.walk import run_schedule, run_walk_check
from repro.errors import SimulationError
from walk_cases import (
    CatchingCases,
    DeterminismCases,
    ReplayCases,
    ShrinkingCases,
    WalkCase,
)

CASE = WalkCase(GroupsCheckConfig, "groups-skip-hold", budget=200,
                passing=["sp:0"])


class TestMutantCatching(CatchingCases):
    case = CASE

    def test_skip_hold_is_caught_within_budget(self):
        _, report = CASE.caught()
        assert not report.ok, (
            f"groups-skip-hold escaped {CASE.budget} schedules")
        assert report.violation.kind in (
            "position-divergence", "class-divergence", "fifo-violation")
        assert report.schedules_explored <= CASE.budget

    def test_clean_merger_survives_exploration(self):
        report = run_walk_check(GroupsCheckConfig(), max_schedules=40)
        assert report.ok, report.describe()

    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown groups mutant"):
            run_walk_check(GroupsCheckConfig(mutant="nope"),
                           max_schedules=1)


class TestShrinking(ShrinkingCases):
    case = CASE


class TestReplay(ReplayCases):
    case = CASE


class TestHarnessDeterminism(DeterminismCases):
    case = CASE

    def test_out_of_range_decisions_are_deterministic_noops(self):
        # Decision arguments are taken modulo the config's bounds and
        # exhausted advances do nothing: any recorded list replays.
        config = GroupsCheckConfig()
        decisions = ["sp:999", "adv:7,9", "adv:0,0", "dup:5", "xp:70-71"]
        assert run_schedule(config, decisions) is None

    def test_unknown_decisions_are_rejected(self):
        harness = RendezvousHarness(GroupsCheckConfig())
        with pytest.raises(SimulationError):
            harness.apply("warp:3", step=0)

    def test_registry_is_disjoint_from_other_harnesses(self):
        from repro.check.mutants import MUTANTS
        from repro.check.paxos_lease import LEASE_MUTANTS

        assert not set(GROUPS_MUTANTS) & set(MUTANTS)
        assert not set(GROUPS_MUTANTS) & set(LEASE_MUTANTS)

"""Self-validation of the spec-rollback checking harness.

Same bar as the lease and groups harness suites: the seeded
``spec-skip-undo`` mutant (roll back without applying undo records) must
be caught within a bounded schedule budget, its counterexample must
shrink, and the frozen replay file must reproduce the violation
deterministically.  The kernel-level behaviours are shared with the other
walk harnesses (tests/walk_cases.py).
"""

from __future__ import annotations

import pytest

from repro.check.spec_rollback import (
    SPEC_MUTANTS,
    SpecCheckConfig,
    SpecRollbackHarness,
    generate_schedule,
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

CASE = WalkCase(SpecCheckConfig, "spec-skip-undo", budget=120,
                passing=["put:0-0"])


class TestMutantCatching(CatchingCases):
    case = CASE

    def test_skip_undo_is_caught_within_budget(self):
        _, report = CASE.caught()
        assert not report.ok, (
            f"spec-skip-undo escaped {CASE.budget} schedules")
        assert report.violation.kind in (
            "response-divergence", "state-divergence", "stale-speculation")
        assert report.schedules_explored <= CASE.budget

    def test_clean_engine_survives_exploration(self):
        report = run_walk_check(SpecCheckConfig(), max_schedules=40)
        assert report.ok, report.describe()

    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown spec mutant"):
            run_walk_check(SpecCheckConfig(mutant="nope"), max_schedules=1)


class TestShrinking(ShrinkingCases):
    case = CASE


class TestReplay(ReplayCases):
    case = CASE


class TestHarnessDeterminism(DeterminismCases):
    case = CASE

    def test_generated_schedules_are_seed_deterministic(self):
        import random

        config = SpecCheckConfig()
        assert (generate_schedule(config, random.Random(7))
                == generate_schedule(config, random.Random(7)))

    def test_out_of_range_decisions_are_deterministic_noops(self):
        # Decision arguments are taken modulo the config's bounds;
        # advancing past the decided frontier and speculating before
        # anything was issued do nothing: any recorded list replays.
        config = SpecCheckConfig()
        decisions = ["adv:7", "opt:5,9", "dup:1,3", "ord:4",
                     "put:999-999", "cas:8-7-6", "get:12", "adv:0"]
        assert run_schedule(config, decisions) is None

    def test_unknown_decisions_are_rejected(self):
        harness = SpecRollbackHarness(SpecCheckConfig())
        with pytest.raises(SimulationError):
            harness.apply("warp:3", step=0)

    def test_registry_is_disjoint_from_other_harnesses(self):
        from repro.check.groups_rendezvous import GROUPS_MUTANTS
        from repro.check.mutants import MUTANTS
        from repro.check.paxos_lease import LEASE_MUTANTS

        assert not set(SPEC_MUTANTS) & set(MUTANTS)
        assert not set(SPEC_MUTANTS) & set(LEASE_MUTANTS)
        assert not set(SPEC_MUTANTS) & set(GROUPS_MUTANTS)


class TestOracles:
    def test_clean_reordering_is_not_a_violation(self):
        # Mis-speculation with a correct engine: rollback + conservative
        # re-execution must satisfy both oracles (this is the pipeline's
        # whole claim).
        decisions = [
            "put:0-1",          # issue put(k0, 1)
            "put:0-2",          # issue put(k0, 2)
            "opt:0,0", "opt:0,1",   # replica 0 speculates both, in order
            "ord:1", "ord:0",       # consensus decides the REVERSE
            "adv:0", "adv:0",       # replica 0 confirms: rollback path
            "adv:1", "adv:1",       # replica 1 never speculated
        ]
        assert run_schedule(SpecCheckConfig(), decisions) is None

    def test_skip_undo_fails_the_same_schedule(self):
        decisions = [
            "put:0-1",
            "put:0-2",
            "opt:0,0", "opt:0,1",
            "ord:1", "ord:0",
            "adv:0", "adv:0",
        ]
        violation = run_schedule(
            SpecCheckConfig(mutant="spec-skip-undo"), decisions)
        assert violation is not None
        assert violation.kind in ("response-divergence", "state-divergence")

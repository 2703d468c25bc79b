"""Self-validation of the paxos-lease checking harness.

A harness that only ever passes on correct code proves nothing: the seeded
``lease-ignore-expiry`` mutant must be caught within a bounded schedule
budget, its counterexample must shrink, and the frozen replay file must
reproduce the violation deterministically.  The kernel-level behaviours
are shared with the other walk harnesses (tests/walk_cases.py).
"""

from __future__ import annotations

import pytest

from repro.check.paxos_lease import (
    LEASE_MUTANTS,
    LeaseCheckConfig,
    LeaseHarness,
)
from repro.check.walk import run_walk_check
from repro.errors import SimulationError
from walk_cases import (
    CatchingCases,
    DeterminismCases,
    ReplayCases,
    ShrinkingCases,
    WalkCase,
)

CASE = WalkCase(LeaseCheckConfig, "lease-ignore-expiry", budget=400,
                passing=["tick:0.01"])


class TestMutantCatching(CatchingCases):
    case = CASE

    def test_lease_ignore_expiry_is_caught_within_budget(self):
        _, report = CASE.caught()
        assert not report.ok, (
            f"lease-ignore-expiry escaped {CASE.budget} schedules")
        assert report.violation.kind in ("lease-overlap", "stale-read")
        assert report.schedules_explored <= CASE.budget

    def test_unknown_mutant_is_rejected(self):
        with pytest.raises(ValueError, match="unknown lease mutant"):
            run_walk_check(LeaseCheckConfig(mutant="nope"), max_schedules=1)


class TestShrinking(ShrinkingCases):
    case = CASE


class TestReplay(ReplayCases):
    case = CASE


class TestHarnessDeterminism(DeterminismCases):
    case = CASE

    def test_unknown_decisions_are_rejected(self):
        harness = LeaseHarness(LeaseCheckConfig())
        with pytest.raises(SimulationError):
            harness.apply("warp:3", step=0)

    def test_registry_is_disjoint_from_cos_mutants(self):
        from repro.check.mutants import MUTANTS

        assert not set(LEASE_MUTANTS) & set(MUTANTS)

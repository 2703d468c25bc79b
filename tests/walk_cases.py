"""Kernel behaviours every decision-walk harness must show, written once.

Each harness suite (tests/test_check_lease.py, test_groups_check.py,
test_spec_check.py) subclasses these mixins with its own :class:`WalkCase`,
so every behaviour of :mod:`repro.check.walk` is checked once per harness:
the seeded mutant is caught under several seeds, its counterexample
shrinks, the replay file round-trips and reproduces it, the fixed
implementation passes it, the loader never claims a foreign file, and
schedules replay bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List

import pytest

from repro.check.harness import CheckConfig
from repro.check.oracle import Violation
from repro.check.walk import (
    load_replay,
    replay,
    run_schedule,
    run_walk_check,
    save_replay,
    shrink_schedule,
)
from repro.errors import SimulationError


@dataclass(frozen=True)
class WalkCase:
    """One harness under test: its config class and seeded mutant."""

    config: type
    mutant: str
    #: Schedule budget within which the mutant must be caught.
    budget: int
    #: A decision list the real implementation passes.
    passing: List[str]

    def caught(self, seed: int = 0):
        config = self.config(mutant=self.mutant)
        return config, run_walk_check(config, max_schedules=self.budget,
                                      seed=seed)


class CatchingCases:
    case: WalkCase

    def test_catch_is_seed_robust(self):
        for seed in (1, 2, 3):
            config = self.case.config(mutant=self.case.mutant)
            report = run_walk_check(config, max_schedules=self.case.budget,
                                    seed=seed,
                                    shrink_counterexamples=False)
            assert not report.ok, f"mutant escaped under seed {seed}"


class ShrinkingCases:
    case: WalkCase

    def test_counterexample_shrinks(self):
        config, report = self.case.caught()
        assert report.shrunk_decisions is not None
        assert len(report.shrunk_decisions) < len(report.decisions)
        # The shrunk schedule still violates on its own.
        assert run_schedule(config, report.shrunk_decisions) is not None

    def test_shrink_requires_a_violating_schedule(self):
        with pytest.raises(SimulationError):
            shrink_schedule(self.case.config(), self.case.passing)


class ReplayCases:
    case: WalkCase

    def _saved(self, tmp_path, config=None):
        caught_config, report = self.case.caught()
        path = str(tmp_path / "walk-ce.json")
        save_replay(path, config or caught_config, report.shrunk_decisions,
                    report.violation)
        return path, caught_config, report

    def test_replay_reproduces_the_shrunk_violation(self, tmp_path):
        path, _, report = self._saved(tmp_path)
        reproduced = replay(path)
        assert reproduced is not None
        assert reproduced.kind == report.violation.kind
        assert reproduced.step == report.violation.step

    def test_replay_roundtrips_config_and_decisions(self, tmp_path):
        path, config, report = self._saved(tmp_path)
        loaded_config, decisions, violation = load_replay(path)
        assert loaded_config == config
        assert decisions == report.shrunk_decisions
        assert violation.kind == report.violation.kind

    def test_fixed_implementation_no_longer_violates(self, tmp_path):
        # Replaying a mutant counterexample against the *fixed*
        # implementation (mutant=None) must come back clean — the replay
        # answers "is this bug still there", not "was it ever".
        path, _, _ = self._saved(tmp_path, config=self.case.config())
        assert replay(path) is None

    def test_foreign_replay_files_are_not_claimed(self, tmp_path):
        # The "harness" key alone picks the config class: a COS file (no
        # key) never loads as this harness's config, and a file claiming
        # this harness with another harness's config keys is rejected.
        path = tmp_path / "cos-ce.json"
        document = {"version": 1, "config": CheckConfig().as_dict(),
                    "decisions": [],
                    "violation": {"kind": "double-get", "message": "x",
                                  "step": 1}}
        path.write_text(json.dumps(document))
        assert type(load_replay(str(path))[0]) is CheckConfig
        own = str(tmp_path / "own.json")
        save_replay(own, self.case.config(), [], Violation("x", "y", 0))
        assert type(load_replay(own)[0]) is self.case.config
        with open(own) as handle:
            document["harness"] = json.load(handle)["harness"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="unknown .* keys"):
            load_replay(str(path))


class DeterminismCases:
    case: WalkCase

    def test_schedules_replay_bit_for_bit(self):
        config, report = self.case.caught()
        first = run_schedule(config, report.decisions)
        second = run_schedule(config, report.decisions)
        assert (first.kind, first.step) == (second.kind, second.step)

"""The decision-walk check kernel and the one replay-file format.

The COS checker enumerates thread schedules of one program; the
protocol-level harnesses — :mod:`~repro.check.paxos_lease`,
:mod:`~repro.check.groups_rendezvous` and
:mod:`~repro.check.spec_rollback` — instead drive pure protocol state
machines through seeded random walks over an explicit decision
vocabulary.  Everything around the world model is shared and lives here:

- the **harness protocol** (:class:`DecisionHarness`): ``apply(decision,
  step)`` returns the first violation a decision exposes, ``finish(step)``
  runs the end-of-run oracles;
- the **registry** (:data:`WALK_HARNESSES`): one :class:`WalkHarness`
  entry per harness — its name, config class (``as_dict``/``from_dict``),
  harness factory, schedule generator and seeded-mutant dict;
- one deterministic runner (:func:`run_schedule`), one ddmin shrinker
  (:func:`shrink_schedule`), one report (:class:`WalkReport`) and one
  seeded exploration loop (:func:`run_walk_check`);
- the replay format shared with the COS checker (:func:`save_replay`,
  :func:`load_replay`, :func:`replay`).

A replay file is a small JSON document freezing everything a violation
needs to reproduce (version 1)::

    {
      "version": 1,
      "harness": "paxos-lease",
      "config": {"n_nodes": 3, ...},
      "decisions": ["tick:0.05", "lt:1", ...],
      "violation": {"kind": "lease-overlap", "message": "...", "step": 4}
    }

COS files carry no ``"harness"`` key; their decisions name processes and
replay *strictly* through :func:`~repro.check.harness.run_with_decisions`
(a decision naming a non-runnable process raises instead of silently
diverging).  Walk decisions that cannot apply are deterministic no-ops, so
a walk file replays bit-for-bit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.check import groups_rendezvous, paxos_lease, spec_rollback
from repro.check.harness import CheckConfig, run_with_decisions
from repro.check.oracle import Violation
from repro.errors import SimulationError

__all__ = [
    "DecisionHarness",
    "WALK_HARNESSES",
    "WalkHarness",
    "WalkReport",
    "load_replay",
    "replay",
    "resolve_walk",
    "run_schedule",
    "run_walk_check",
    "save_replay",
    "shrink_schedule",
]

_VERSION = 1


class DecisionHarness(Protocol):
    """One walk's world model plus its oracles."""

    def apply(self, decision: str, step: int) -> Optional[Violation]:
        """Apply one decision; the first violation it exposes, or None."""

    def finish(self, step: int) -> Optional[Violation]:
        """End-of-run oracles after the last decision, or None."""


@dataclass(frozen=True)
class WalkHarness:
    """A registry entry: everything the kernel needs to drive a harness."""

    #: ``--algorithm`` value and the replay files' ``"harness"`` key.
    name: str
    #: Dataclass with ``as_dict``/``from_dict`` that fully determines a run.
    config: type
    #: ``config -> DecisionHarness`` (a fresh world per schedule).
    harness: Callable[[Any], DecisionHarness]
    #: ``(config, rng) -> decisions``: one seeded random-walk schedule.
    generate: Callable[[Any, random.Random], List[str]]
    #: Seeded bugs for checker self-validation, selectable by ``--mutant``.
    mutants: Dict[str, type]


WALK_HARNESSES: Dict[str, WalkHarness] = {entry.name: entry for entry in (
    WalkHarness("paxos-lease", paxos_lease.LeaseCheckConfig,
                paxos_lease.LeaseHarness, paxos_lease.generate_schedule,
                paxos_lease.LEASE_MUTANTS),
    WalkHarness("groups-rendezvous", groups_rendezvous.GroupsCheckConfig,
                groups_rendezvous.RendezvousHarness,
                groups_rendezvous.generate_schedule,
                groups_rendezvous.GROUPS_MUTANTS),
    WalkHarness("spec-rollback", spec_rollback.SpecCheckConfig,
                spec_rollback.SpecRollbackHarness,
                spec_rollback.generate_schedule,
                spec_rollback.SPEC_MUTANTS),
)}

_BY_CONFIG = {entry.config: entry for entry in WALK_HARNESSES.values()}


def resolve_walk(algorithm: str,
                 mutant: Optional[str] = None) -> Optional[WalkHarness]:
    """The walk harness named by ``algorithm`` or owning ``mutant``.

    ``None`` means neither selects a walk harness: a COS check.  The
    mutant registries are disjoint, so a mutant alone picks the harness.
    """
    for entry in WALK_HARNESSES.values():
        if algorithm == entry.name or mutant in entry.mutants:
            return entry
    return None


def run_schedule(config: Any, decisions: List[str]) -> Optional[Violation]:
    """Deterministically run one decision list; first violation or None."""
    harness = _BY_CONFIG[type(config)].harness(config)
    for step, decision in enumerate(decisions):
        violation = harness.apply(decision, step)
        if violation is not None:
            return violation
    return harness.finish(len(decisions))


def shrink_schedule(config: Any, decisions: List[str],
                    max_candidates: int = 400,
                    ) -> Tuple[List[str], Violation, int]:
    """ddmin-style shrink: drop chunks while *some* violation persists.

    Returns the shrunk decisions, the violation they produce and the
    number of candidates tried.
    """
    current = list(decisions)
    violation = run_schedule(config, current)
    if violation is None:
        raise SimulationError("shrink_schedule needs a violating schedule")
    tried = 0
    chunk = max(1, len(current) // 2)
    while tried < max_candidates:
        index = 0
        removed = False
        while index < len(current) and tried < max_candidates:
            candidate = current[:index] + current[index + chunk:]
            tried += 1
            found = run_schedule(config, candidate)
            if found is not None:
                current, violation, removed = candidate, found, True
            else:
                index += chunk
        if chunk == 1 and not removed:
            break
        if not removed:
            chunk = max(1, chunk // 2)
    return current, violation, tried


@dataclass
class WalkReport:
    """Everything one walk exploration produced."""

    config: Any
    schedules_explored: int
    violation: Optional[Violation] = None
    decisions: Optional[List[str]] = None
    shrunk_decisions: Optional[List[str]] = None
    shrink_candidates: int = 0

    @property
    def ok(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        if self.ok:
            return (f"explored {self.schedules_explored} schedules: "
                    f"no violation")
        assert self.violation is not None
        return (f"explored {self.schedules_explored} schedules: "
                f"{self.violation.describe()}")


def run_walk_check(
    config: Any,
    *,
    max_schedules: int = 200,
    seed: int = 0,
    shrink_counterexamples: bool = True,
    max_shrink_candidates: int = 400,
) -> WalkReport:
    """Random-walk the schedule space; shrink the first counterexample."""
    generate = _BY_CONFIG[type(config)].generate
    for index in range(max_schedules):
        rng = random.Random(seed * 1_000_003 + index)
        decisions = generate(config, rng)
        violation = run_schedule(config, decisions)
        if violation is None:
            continue
        report = WalkReport(
            config=config,
            schedules_explored=index + 1,
            violation=violation,
            decisions=decisions,
        )
        if shrink_counterexamples:
            shrunk, shrunk_violation, tried = shrink_schedule(
                config, decisions, max_candidates=max_shrink_candidates)
            report.shrunk_decisions = shrunk
            report.violation = shrunk_violation
            report.shrink_candidates = tried
        return report
    return WalkReport(config=config, schedules_explored=max_schedules)


# ------------------------------------------------------------------ replay

def save_replay(path: str, config: Any, decisions: List[str],
                violation: Violation) -> None:
    """Write a counterexample replay file (COS or walk, by config type)."""
    document: Dict[str, Any] = {"version": _VERSION}
    if not isinstance(config, CheckConfig):
        document["harness"] = _BY_CONFIG[type(config)].name
    document["config"] = config.as_dict()
    document["decisions"] = list(decisions)
    document["violation"] = {
        "kind": violation.kind,
        "message": violation.message,
        "step": violation.step,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def load_replay(path: str) -> Tuple[Any, List[str], Violation]:
    """Read a replay file back into (config, decisions, recorded violation).

    The config is a :class:`~repro.check.harness.CheckConfig` for COS files
    and the harness's config class otherwise.  A document that is not an
    object, has another version, names an unknown harness, carries
    unknown config keys or is missing a section raises
    :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ValueError("a replay file holds one JSON object")
    if document.get("version") != _VERSION:
        raise ValueError(
            f"unsupported replay file version {document.get('version')!r}")
    harness = document.get("harness")
    if harness is None:
        config_cls: type = CheckConfig
    elif harness in WALK_HARNESSES:
        config_cls = WALK_HARNESSES[harness].config
    else:
        raise ValueError(f"unknown harness {harness!r}; expected one of "
                         f"{sorted(WALK_HARNESSES)} or none (COS)")
    data = document.get("config")
    decisions = document.get("decisions")
    recorded = document.get("violation")
    if not isinstance(data, dict) or not isinstance(recorded, dict):
        raise ValueError("replay config and violation must be JSON objects")
    if not (isinstance(decisions, list)
            and all(isinstance(decision, str) for decision in decisions)):
        raise ValueError("replay decisions must be a list of strings")
    unknown = set(data) - {field.name for field in fields(config_cls)}
    if unknown:
        raise ValueError(
            f"unknown {config_cls.__name__} keys {sorted(unknown)}")
    violation = Violation(recorded["kind"], recorded["message"],
                          recorded.get("step"))
    return config_cls.from_dict(data), decisions, violation


def replay(path: str, *, max_steps: int = 50_000) -> Optional[Violation]:
    """Re-run a replay file; the violation observed, or None.

    ``None`` means the recorded schedule no longer violates (e.g. the bug
    was fixed).  A COS replay whose decisions no longer apply to the
    program (its effect sequence changed) raises
    :class:`~repro.errors.SimulationError`; ``max_steps`` bounds it.
    """
    config, decisions, _recorded = load_replay(path)
    if not isinstance(config, CheckConfig):
        return run_schedule(config, decisions)
    exe = run_with_decisions(config, decisions, strict=True,
                             max_steps=max_steps)
    if exe.violation is not None:
        return exe.violation
    if not exe.runnable():
        return exe.terminal_violation()
    return None

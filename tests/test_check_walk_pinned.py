"""Pinned outcomes of the decision-walk harnesses' seeded mutants.

For every walk mutant at seeds 0-3 with ``--max-schedules 200`` the check
must report the same four numbers: schedules explored until the first
violation, the shrunk counterexample's length, the shrink candidates
tried, and the violation kind after shrinking.  The values are driven
through ``repro check`` and its replay file, so they pin the explorer, the
ddmin shrinker and the saved counterexample together.  Note the shrinker
accepts a candidate when *any* violation persists, so the shrunk kind may
differ from the kind first found (groups seed 3).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main

#: (mutant, seed) -> (schedules explored, shrunk length, candidates, kind)
PINNED = {
    ("lease-ignore-expiry", 0): (16, 5, 52, "lease-overlap"),
    ("lease-ignore-expiry", 1): (20, 6, 44, "lease-overlap"),
    ("lease-ignore-expiry", 2): (2, 4, 49, "lease-overlap"),
    ("lease-ignore-expiry", 3): (2, 4, 50, "lease-overlap"),
    ("groups-skip-hold", 0): (1, 2, 21, "position-divergence"),
    ("groups-skip-hold", 1): (1, 2, 21, "position-divergence"),
    ("groups-skip-hold", 2): (1, 2, 23, "position-divergence"),
    ("groups-skip-hold", 3): (1, 3, 19, "class-divergence"),
    ("spec-skip-undo", 0): (1, 4, 32, "response-divergence"),
    ("spec-skip-undo", 1): (1, 4, 24, "response-divergence"),
    ("spec-skip-undo", 2): (1, 3, 28, "response-divergence"),
    ("spec-skip-undo", 3): (1, 4, 34, "response-divergence"),
}


@pytest.mark.parametrize("mutant,seed", sorted(PINNED))
def test_walk_mutant_outcome_is_pinned(mutant, seed, tmp_path, capsys):
    path = tmp_path / "cex.json"
    code = main(["check", "--mutant", mutant, "--seed", str(seed),
                 "--max-schedules", "200", "--replay-out", str(path)])
    out = capsys.readouterr().out
    assert code == 1, out
    explored = int(re.search(r"explored (\d+) schedules", out).group(1))
    shrunk = re.search(
        r"shrunk counterexample: (\d+) decisions \((\d+) candidates tried\)",
        out)
    document = json.loads(path.read_text())
    assert int(shrunk.group(1)) == len(document["decisions"])
    observed = (explored, len(document["decisions"]), int(shrunk.group(2)),
                document["violation"]["kind"])
    assert observed == PINNED[(mutant, seed)]

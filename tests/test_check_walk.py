"""The decision-walk kernel's CLI contract, replay format and registry.

``repro check --replay`` exits 0 when the recorded schedule now passes, 1
when it reproduces a violation and 2 when the file cannot be replayed at
all; the replay layout stays byte-stable; ``--algorithm`` and
``--mutant`` resolve through one registry.
"""

from __future__ import annotations

import json

import pytest

from repro.check import CheckConfig, Violation
from repro.check.walk import WALK_HARNESSES, resolve_walk, save_replay
from repro.cli import main


# ------------------------------------------------------ malformed replays

def _walk_document(**overrides):
    document = {
        "version": 1,
        "harness": "paxos-lease",
        "config": {"n_nodes": 3, "mutant": None},
        "decisions": ["tick:0.01"],
        "violation": {"kind": "lease-overlap", "message": "x", "step": 0},
    }
    document.update(overrides)
    return document


#: Every way a replay file can be unusable; each must be refused with exit
#: code 2, never reported as a reproduced (1) or passing (0) schedule.
MALFORMED = {
    "wrong-version": _walk_document(version=2),
    "unknown-config-key": _walk_document(config={"n_nodes": 3, "bogus": 1}),
    "not-an-object": [1, 2, 3],
    "decisions-not-a-list": _walk_document(decisions=5),
    "cos-decisions-diverged": {
        "version": 1,
        "config": {"algorithm": "lock-free", "workers": 2, "commands": 2},
        "decisions": ["no-such-process"],
        "violation": {"kind": "graph-leak", "message": "x", "step": 0},
    },
    "unknown-harness": _walk_document(harness="no-such-harness", config={},
                                      decisions=[]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_replay_file_is_a_usage_error(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(MALFORMED[name]))
    code = main(["check", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot replay {path}: ")


# ----------------------------------------------------------- file layout

@pytest.mark.parametrize("harness", [None, *sorted(WALK_HARNESSES)])
def test_replay_file_layout_is_stable(harness, tmp_path):
    # Key order and indentation are part of the format: files written
    # today stay byte-identical to older ones.  COS files carry no
    # "harness" key.
    config = (CheckConfig() if harness is None
              else WALK_HARNESSES[harness].config())
    path = tmp_path / "ce.json"
    save_replay(str(path), config, ["a", "b"], Violation("k", "m", 3))
    expected = {"version": 1}
    if harness is not None:
        expected["harness"] = harness
    expected.update(config=config.as_dict(), decisions=["a", "b"],
                    violation={"kind": "k", "message": "m", "step": 3})
    assert path.read_text() == json.dumps(expected, indent=2) + "\n"


# -------------------------------------------------------------- registry

def test_algorithm_or_mutant_resolves_through_the_registry():
    for name, entry in WALK_HARNESSES.items():
        assert resolve_walk(name) is entry
        for mutant in entry.mutants:
            assert resolve_walk("lock-free", mutant) is entry
    assert resolve_walk("lock-free") is None
    assert resolve_walk("lock-free", "drop-helped-remove") is None

"""End-to-end checks of ``repro.check`` against the real COS algorithms.

Correct implementations must come out clean under the full exploration
ladder, the CLI must drive the same pipeline (including replay files), and
decision-sequence replay must be strict about divergence.
"""

import json

import pytest

from conftest import GRAPH_ALGORITHMS
from repro.check import (
    CheckConfig,
    load_replay,
    replay,
    run_check,
    run_with_decisions,
    save_replay,
)
from repro.cli import main
from repro.errors import SimulationError

ALL_CHECKED = GRAPH_ALGORITHMS + ("sequential", "class-based", "early",
                                  "early-batched")


@pytest.mark.parametrize("algorithm", ALL_CHECKED)
def test_correct_implementations_pass(algorithm):
    config = CheckConfig(algorithm=algorithm, workers=2, commands=3,
                         max_size=2, write_every=2)
    report = run_check(config, max_schedules=80, max_steps=5_000)
    assert report.ok, report.result.violation
    assert report.result.schedules_explored > 0
    assert report.result.transitions > 0


def test_cli_check_accepts_underscores_and_exits_zero(capsys):
    code = main(["check", "--algorithm", "lock_free", "--workers", "2",
                 "--commands", "2", "--max-schedules", "40",
                 "--max-steps", "5000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "algorithm=lock-free" in out
    assert "schedules explored" in out


#: mutant -> (extra CLI arguments, violation kind after shrinking).  The
#: three walk mutants select their harness by name alone.
CLI_MUTANTS = {
    "drop-helped-remove": (["--workers", "2", "--commands", "3",
                            "--max-size", "2", "--write-every", "1",
                            "--max-schedules", "500", "--max-steps", "2000"],
                           "graph-leak"),
    "lease-ignore-expiry": (["--max-schedules", "400"], "lease-overlap"),
    "groups-skip-hold": (["--max-schedules", "200"], "position-divergence"),
    "spec-skip-undo": (["--max-schedules", "200"], "response-divergence"),
}


@pytest.mark.parametrize("mutant", sorted(CLI_MUTANTS))
def test_cli_check_mutant_writes_replay_file(mutant, tmp_path, capsys):
    extra, kind = CLI_MUTANTS[mutant]
    out_file = tmp_path / "cex.json"
    code = main(["check", "--mutant", mutant, *extra,
                 "--replay-out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"[{kind}]" in out
    assert out_file.exists()

    replay_code = main(["check", "--replay", str(out_file),
                        "--max-steps", "2000"])
    replay_out = capsys.readouterr().out
    assert replay_code == 1
    assert f"reproduced [{kind}]" in replay_out


def test_replay_file_roundtrip(tmp_path):
    config = CheckConfig(algorithm="lock-free", workers=2, commands=2,
                         mutant="drop-helped-remove", write_every=1,
                         max_size=2)
    report = run_check(config, max_schedules=500, max_steps=2_000)
    assert not report.ok and report.shrunk is not None
    path = tmp_path / "cex.json"
    save_replay(path, config, report.shrunk.decisions,
                report.shrunk.violation)
    loaded_config, decisions, violation = load_replay(path)
    assert loaded_config == config
    assert list(decisions) == list(report.shrunk.decisions)
    assert violation.kind == report.shrunk.violation.kind
    reproduced = replay(path, max_steps=2_000)
    assert reproduced is not None
    assert reproduced.kind == report.shrunk.violation.kind
    # The file is plain versioned JSON — future sessions can parse it.
    data = json.loads(path.read_text())
    assert data["version"] == 1


def test_strict_replay_rejects_divergent_decisions():
    config = CheckConfig(workers=2, commands=2)
    with pytest.raises(SimulationError):
        run_with_decisions(config, ["no-such-process"], strict=True)


def test_nonstrict_replay_completes_with_fallback():
    config = CheckConfig(workers=2, commands=2)
    exe = run_with_decisions(config, ["no-such-process"], strict=False,
                             max_steps=5_000)
    assert exe.violation is None
    assert exe.terminal_violation() is None
    assert not exe.runnable()

"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from repro.apps import KVStoreService, LinkedListService  # noqa: E402
from repro.core.command import Command  # noqa: E402
from repro.net import ClientResponse  # noqa: E402

import load  # noqa: E402
import run  # noqa: E402
from load import KvOwner, ListReader, OpenLoop, Workload  # noqa: E402
from tracing import STAGES, command_stages  # noqa: E402


def test_kv_checker_flags_an_injected_wrong_answer():
    owner = KvOwner(3, random.Random(7), write_frac=0.5)
    commands = [owner.next_command() for _ in range(400)]
    service = KVStoreService()
    answers = [service.execute(command) for command in commands]
    # A get whose true answer is a value, answered as if the key were empty.
    bad = next(index for index, (command, answer)
               in enumerate(zip(commands, answers))
               if command.op == "get" and answer is not None)
    answers[bad] = None
    verdicts = [owner.check(command, answer)
                for command, answer in zip(commands, answers)]
    assert [index for index, ok in enumerate(verdicts) if not ok] == [bad]


def test_list_checker_flags_an_injected_wrong_answer():
    owner = ListReader(0, random.Random(7), write_frac=0.1)
    service = LinkedListService(initial_size=load.LIST_SIZE)
    commands = [owner.next_command() for _ in range(200)]
    answers = [service.execute(command) for command in commands]
    assert all(owner.check(c, a) for c, a in zip(commands, answers))
    assert not owner.check(Command("contains", (5,), writes=False), False)
    assert not owner.check(Command("add", (5,), writes=True), True)


def _open_loop(send_delay=0.0, drop=(), seconds=0.6, rate=100.0,
               timeout=0.2):
    """An open loop against an in-process kv service (no network)."""
    workload = Workload("test", "kv", KvOwner, 0.5, open_loop=True,
                        rate=rate, users=5, warmup=0.1)
    service = KVStoreService()
    holder = {}
    sent = []

    def send(contact, request):
        time.sleep(send_delay)
        (command,) = request.payload
        sent.append(command)
        if len(sent) in drop:
            return  # never answered
        response = service.execute(command)
        holder["loop"].deliver(ClientResponse(command, response, contact))

    loop = OpenLoop(workload, seed=1, n_replicas=3, send=send,
                    reply=(900, "127.0.0.1", 1), timeout=timeout)
    holder["loop"] = loop
    marks = []
    window = loop.run(seconds, workload.warmup, lambda: marks.append(1))
    return window, sent


def test_unanswered_request_counts_as_error():
    window, sent = _open_loop(drop=(12, 30))
    assert len(sent) > 30
    dropped = [r for r in window.requests if r.failed]
    in_window = {r.keys[0] for r in dropped}
    assert window.failed == len(dropped) >= 1
    assert window.attempted == len(window.requests) == round(100 * 0.6)
    assert window.wrong == 0
    assert in_window <= {f"{c.client_id}#{c.request_id}"
                         for i, c in enumerate(sent, 1) if i in (12, 30)}


def test_injected_wrong_answer_counts_as_failed():
    workload = Workload("test", "kv", KvOwner, 0.5, open_loop=True,
                        rate=100.0, users=5, warmup=0.0)
    service = KVStoreService()
    holder = {}

    def send(contact, request):
        (command,) = request.payload
        response = service.execute(command)
        if command.op == "put":
            response = "not the previous value"
        holder["loop"].deliver(ClientResponse(command, response, contact))

    holder["loop"] = loop = OpenLoop(workload, 1, 3, send,
                                     (900, "127.0.0.1", 1))
    window = loop.run(0.3, 0.0, lambda: None)
    assert window.wrong > 0
    assert window.failed == window.wrong


def test_open_loop_reports_its_lateness():
    on_time, _ = _open_loop()
    # Each send takes 30 ms while arrivals come every 10 ms on average:
    # the generator falls behind its schedule and must say so.
    behind, _ = _open_loop(send_delay=0.03)
    late = sorted(behind.lateness())
    assert late and late[-1] > 0.1
    assert max(behind.lateness()) > max(on_time.lateness())
    latencies = behind.latencies()
    # Latency is timed from the schedule, so it includes the lateness.
    assert min(latencies) >= 0 and max(latencies) >= late[-1]


def test_traced_run_stages_are_contiguous_and_sum_to_latency():
    workload = load.WORKLOADS["kv-write-batched"]
    run.WORKDIR.mkdir(exist_ok=True)
    window, dumps, client_spans, _ = run.traced_pass(workload, 3, 1.0)
    assert window.wrong == 0 and window.committed > 0
    assert len({dump["digest"] for dump in dumps}) == 1
    stages = command_stages(window, dumps, client_spans)
    assert len(stages) > 0.9 * window.committed
    done = {key: r.done for r in window.requests for key in r.keys}
    for key, latency, points in stages:
        assert len(points) == len(STAGES) + 1
        spans = [b - a for a, b in zip(points, points[1:])]
        assert all(span >= 0 for span in spans), (key, spans)
        assert abs(sum(spans) - latency) < 1e-9
        # The last boundary is this command's answer at the client, which
        # the client saw no later than the end of its whole request.
        assert points[-1] <= done[key]


def test_refuses_to_run_without_the_repository():
    bare = run.WORKDIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "kv-write-batched", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert result.returncode != 0
    assert result.stdout == ""

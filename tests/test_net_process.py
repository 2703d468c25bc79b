"""Multi-process deployment smoke tests.

These spawn one real interpreter per replica through the
:class:`~repro.net.supervisor.Supervisor` — the process-per-replica
deployment of docs/deployment.md — then crash one with SIGKILL and check
the cluster keeps serving.  This file is the CI cluster smoke job.
"""

import json

import pytest

from repro.core.command import Command
from repro.net.bench import NetBenchConfig, run_net_bench
from repro.net.client import NetClient
from repro.net.config import loopback_config
from repro.net.supervisor import Supervisor


def write(key):
    return Command("add", (key,), writes=True)


def read(key):
    return Command("contains", (key,), writes=False)


def test_cluster_survives_replica_crash():
    config = loopback_config(n_replicas=3, client_timeout=3.0)
    with Supervisor(config) as supervisor:
        supervisor.wait_ready()
        assert sorted(supervisor.alive()) == [0, 1, 2]
        with NetClient("proc-smoke", config, timeout=3.0) as client:
            first = client.execute_batch([write(100 + key)
                                          for key in range(8)])
            assert first == [True] * 8

            supervisor.kill(2)  # SIGKILL: crash-stop, nothing flushed
            assert sorted(supervisor.alive()) == [0, 1]
            second = client.execute_batch([write(200 + key)
                                           for key in range(8)])
            assert second == [True] * 8

            supervisor.restart(2)
            assert sorted(supervisor.alive()) == [0, 1, 2]
            assert client.execute(write(300)) is True
            assert client.execute(read(207)) is True
    assert supervisor.alive() == []  # context exit tore the fleet down


def test_net_bench_writes_artifact(tmp_path):
    out = tmp_path / "net-bench.json"
    config = NetBenchConfig(n_replicas=3, n_clients=2, batch=4, ops=48,
                            client_timeout=3.0, seed=7)
    result = run_net_bench(config, out_path=str(out))
    assert result.executed == 48
    assert result.errors == 0
    assert result.throughput > 0

    data = json.loads(out.read_text())
    assert data["executed"] == 48
    assert data["throughput"] > 0
    assert data["crash_injected"] is False


@pytest.mark.parametrize("service", ["kv", "bank"])
def test_net_bench_drives_each_service_with_its_own_ops(service):
    # Regression: the bench fed linked-list contains/add to every service,
    # so kv and bank rejected all of them and every client timed out.
    config = NetBenchConfig(n_replicas=3, n_clients=2, batch=4, ops=16,
                            service=service, client_timeout=3.0, seed=3)
    result = run_net_bench(config)
    assert (result.executed, result.errors) == (16, 0)

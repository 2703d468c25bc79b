"""Loopback TCP benchmark: throughput/latency over a real process cluster.

``python -m repro net bench`` spawns ``n`` replica processes through the
:class:`~repro.net.supervisor.Supervisor`, drives them with closed-loop TCP
clients (one thread per client, batched commands — the paper's §7.1 client
model), optionally crash-stops and restarts one replica mid-run, and writes
a JSON artifact with throughput and latency percentiles.

This is a *deployment smoke benchmark*: localhost sockets and a handful of
clients, not the paper's 1 Gbps LAN.  The figures that reproduce the paper
stay on the simulator (``python -m repro figures``); this artifact tracks
the real-deployment path end to end.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.command import Command
from repro.net.client import NetClient
from repro.net.codec import DEFAULT_WIRE
from repro.net.config import NetConfig, loopback_config
from repro.net.supervisor import Supervisor
from repro.obs import MetricsRegistry
from repro.obs.stats import quantile
from repro.smr.client import ClientTimeout
from repro.workload import WorkloadGenerator

__all__ = ["NetBenchConfig", "NetBenchResult", "run_net_bench"]


@dataclass(frozen=True)
class NetBenchConfig:
    """Parameters of one loopback bench run."""

    n_replicas: int = 3
    n_clients: int = 4
    batch: int = 8
    ops: int = 400                  # total commands across all clients
    write_pct: float = 30.0
    service: str = "linked-list"
    cos_algorithm: str = "lock-free"
    workers: int = 4
    engine: str = "threaded"        # "threaded" | "mp" (repro.par)
    mp_workers: int = 2             # shard processes per replica under mp
    wire: str = DEFAULT_WIRE        # wire codec (docs/wire.md)
    propose_linger: Optional[float] = None  # None -> heartbeat/10
    cumulative_acks: bool = True
    lease_duration: Optional[float] = None  # None -> 0.8x leader timeout
    lease_margin: Optional[float] = None
    lease_reads: bool = True
    seed: int = 1
    crash_replica: Optional[int] = None   # crash-stop this replica mid-run
    recover: bool = True                  # ...and restart it afterwards
    client_timeout: float = 3.0
    #: Record client-side per-command spans and write them to trace_path
    #: (JSONL, one event per line — see docs/observability.md).
    trace: bool = False
    trace_path: Optional[str] = None


@dataclass(frozen=True)
class NetBenchResult:
    """Measured outcome (all times in seconds, wall clock)."""

    config: NetBenchConfig
    executed: int
    errors: int
    duration: float
    throughput: float               # commands per second
    latency_mean: float             # per-batch round trip
    latency_p50: float
    latency_p99: float
    crash_injected: bool
    recovered: bool
    #: One (throughput kops/s, latency ms) coordinate — the shape of one
    #: paper Fig. 6 point, measured on the real deployment.
    fig6_point: Dict[str, float] = field(default_factory=dict)
    #: Client-side latency histogram snapshot (fixed log-spaced buckets).
    latency_histogram: Dict[str, Any] = field(default_factory=dict)
    trace_events: int = 0

    def to_json(self) -> Dict[str, Any]:
        data = asdict(self)
        data["config"] = asdict(self.config)
        return data


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    return quantile(sorted(samples), fraction)


def run_net_bench(config: NetBenchConfig,
                  out_path: Optional[str] = None) -> NetBenchResult:
    """Run one loopback bench; optionally write the JSON artifact."""
    net = loopback_config(
        n_replicas=config.n_replicas,
        service=config.service,
        cos_algorithm=config.cos_algorithm,
        workers=config.workers,
        engine=config.engine,
        mp_workers=config.mp_workers,
        wire=config.wire,
        propose_linger=config.propose_linger,
        cumulative_acks=config.cumulative_acks,
        lease_duration=config.lease_duration,
        lease_margin=config.lease_margin,
        lease_reads=config.lease_reads,
        client_timeout=config.client_timeout,
    )
    batches_per_client = max(
        1, config.ops // (config.n_clients * config.batch))
    latencies: List[float] = []
    latency_lock = threading.Lock()
    executed = 0
    errors = 0
    counters_lock = threading.Lock()
    # Client-side registry: latency histogram always, spans when tracing.
    registry = MetricsRegistry(trace=config.trace)
    latency_hist = registry.histogram("client_batch_latency_seconds")

    def client_loop(index: int) -> None:
        nonlocal executed, errors
        workload = WorkloadGenerator(
            config.write_pct, key_space=500,
            seed=config.seed * 1_000 + index, service=config.service)
        client = NetClient(
            f"bench-{index}", net,
            contact=index % config.n_replicas,
            timeout=config.client_timeout,
        )
        trace = config.trace
        try:
            for _ in range(batches_per_client):
                commands = workload.commands(config.batch)
                started = time.monotonic()
                span_keys = ()
                if trace:
                    # execute_batch re-stamps the commands with this
                    # client's identity and the next request_ids, so the
                    # wire-stable keys (client_id#request_id) are known
                    # before the call — unlike the process-local uids.
                    base = client.requests_issued
                    span_keys = tuple(
                        f"bench-{index}#{base + 1 + offset}"
                        for offset in range(len(commands)))
                    for key in span_keys:
                        registry.span(key, "submitted", at=started)
                try:
                    client.execute_batch(commands)
                except ClientTimeout:
                    with counters_lock:
                        errors += len(commands)
                    continue
                finished = time.monotonic()
                elapsed = finished - started
                if trace:
                    for key in span_keys:
                        registry.span(key, "responded", at=finished)
                latency_hist.observe(elapsed)
                with latency_lock:
                    latencies.append(elapsed)
                with counters_lock:
                    executed += len(commands)
        finally:
            client.close()

    crash_injected = False
    recovered = False
    with Supervisor(net) as supervisor:
        supervisor.wait_ready()
        threads = [
            threading.Thread(target=client_loop, args=(index,), daemon=True)
            for index in range(config.n_clients)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        if config.crash_replica is not None:
            # Let the run warm up, then crash-stop one replica under load.
            time.sleep(0.5)
            supervisor.kill(config.crash_replica)
            crash_injected = True
            if config.recover:
                time.sleep(0.5)
                supervisor.restart(config.crash_replica)
                recovered = True
        for thread in threads:
            thread.join()
        duration = time.monotonic() - started

    trace_events = len(registry.spans.events())
    if config.trace and config.trace_path:
        registry.spans.write_jsonl(config.trace_path)
    throughput = executed / duration if duration > 0 else 0.0
    latency_mean = statistics.fmean(latencies) if latencies else 0.0
    result = NetBenchResult(
        config=config,
        executed=executed,
        errors=errors,
        duration=duration,
        throughput=throughput,
        latency_mean=latency_mean,
        latency_p50=_percentile(latencies, 0.50),
        latency_p99=_percentile(latencies, 0.99),
        crash_injected=crash_injected,
        recovered=recovered,
        fig6_point={
            "throughput_kops": throughput / 1e3,
            "latency_ms": latency_mean * 1e3,
        },
        latency_histogram=latency_hist.snapshot(),
        trace_events=trace_events,
    )
    if out_path is not None:
        with open(out_path, "w") as handle:
            json.dump(result.to_json(), handle, indent=2)
    return result

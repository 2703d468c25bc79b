"""The deployment under test: three replica processes on loopback TCP.

An untraced fleet is the public :class:`repro.net.Supervisor` running
``python -m repro net replica`` per replica.  A traced fleet is started by
this benchmark's own launcher (``traced_replica.py``), which runs the public
:class:`repro.net.ReplicaServer` after wrapping its layers' entry points
with timers.  Both get the same :class:`NetConfig`.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.net import NetConfig, Supervisor
from repro.net.config import free_port

#: Replica processes per fleet.
N_REPLICAS = 3
TRACED_REPLICA = Path(__file__).resolve().with_name("traced_replica.py")
_TICK = os.sysconf("SC_CLK_TCK")


def make_config(service: str) -> NetConfig:
    """Every ``NetConfig`` default except the endpoints and the service.

    Built directly rather than through ``loopback_config``, which reads the
    wire codec from the environment: a change of a default must be what
    gets measured.
    """
    config = NetConfig(
        addresses=tuple(("127.0.0.1", free_port())
                        for _ in range(N_REPLICAS)),
        service=service)
    config.validate()
    return config


def process_cpu(pid: int) -> float:
    """User plus system CPU seconds of one process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name start at field 3 (state).
    return (int(fields[11]) + int(fields[12])) / _TICK


def _port_open(host: str, port: int) -> bool:
    try:
        with socket.create_connection((host, port), timeout=0.25):
            return True
    except OSError:
        return False


class Fleet:
    """One running deployment; use as a context manager."""

    def __init__(self, config: NetConfig, workdir: Path,
                 traced: bool = False):
        self.config = config
        self.traced = traced
        self._workdir = workdir
        self._supervisor: Optional[Supervisor] = None
        self._procs: Dict[int, subprocess.Popen] = {}
        self._config_path = workdir / f"config-{os.getpid()}.json"
        self._logs: List[Any] = []

    # -------------------------------------------------------------- lifecycle

    def start(self, timeout: float = 30.0) -> "Fleet":
        if not self.traced:
            self._supervisor = Supervisor(self.config).start()
            self._supervisor.wait_ready(timeout=timeout)
            return self
        self._config_path.write_text(self.config.to_json())
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        for replica_id in range(self.config.n_replicas):
            log = open(self._workdir / f"replica-{replica_id}.log", "ab")
            self._logs.append(log)
            self._procs[replica_id] = subprocess.Popen(
                [sys.executable, str(TRACED_REPLICA),
                 "--id", str(replica_id),
                 "--config", str(self._config_path),
                 "--out", str(self._dump_path(replica_id))],
                env=env, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + timeout
        pending = set(self._procs)
        while pending:
            for replica_id in sorted(pending):
                if self._procs[replica_id].poll() is not None:
                    raise RuntimeError(
                        f"traced replica {replica_id} exited during start")
                if _port_open(*self.config.addresses[replica_id]):
                    pending.discard(replica_id)
            if pending and time.monotonic() > deadline:
                raise RuntimeError(f"replicas {sorted(pending)} not ready")
            time.sleep(0.02)
        return self

    def stop(self) -> List[Dict[str, Any]]:
        """Stop every replica; a traced fleet returns each one's dump."""
        if self._supervisor is not None:
            self._supervisor.stop()
            self._supervisor = None
            return []
        for proc in self._procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        codes = {}
        for replica_id, proc in self._procs.items():
            try:
                codes[replica_id] = proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                codes[replica_id] = proc.wait(timeout=5)
        for log in self._logs:
            log.close()
        self._logs.clear()
        dumps = []
        for replica_id in sorted(self._procs):
            path = self._dump_path(replica_id)
            if codes[replica_id] != 0 or not path.exists():
                raise RuntimeError(
                    f"traced replica {replica_id} exited with "
                    f"{codes[replica_id]} and no trace")
            with open(path, "rb") as handle:
                dumps.append(pickle.load(handle))
            path.unlink()
        self._procs.clear()
        self._config_path.unlink(missing_ok=True)
        return dumps

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._supervisor is not None or self._procs:
            try:
                self.stop()
            except RuntimeError:
                if exc[0] is None:
                    raise

    # ------------------------------------------------------------ measuring

    def pids(self) -> List[int]:
        if self._supervisor is not None:
            return list(self._supervisor.group("replicas").pids().values())
        return [proc.pid for proc in self._procs.values()]

    def cpu_seconds(self) -> float:
        """CPU used so far by the replica processes together."""
        return sum(process_cpu(pid) for pid in self.pids())

    def mark(self) -> None:
        """Traced fleet: toggle span recording and sample counters."""
        for proc in self._procs.values():
            proc.send_signal(signal.SIGUSR1)

    def _dump_path(self, replica_id: int) -> Path:
        return self._workdir / f"trace-{os.getpid()}-{replica_id}.pickle"

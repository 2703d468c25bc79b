"""One traced replica process: the public ``ReplicaServer``, instrumented.

Started by the traced fleet (``fleet.py``), one process per replica::

    python3 perfbench/traced_replica.py --id I --config CONFIG --out TRACE

Before the server is built, the entry points listed by
``tracing.replica_targets`` are wrapped with timers.  SIGUSR1 toggles span
recording and samples per-thread CPU and the protocol's counters (the
window's start and end); SIGTERM stops the server, digests its final
service state and writes spans, samples and digest to ``TRACE``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import signal
import time

from repro.apps import build_service
from repro.net import NetConfig, ReplicaServer

from tracing import Recorder, replica_targets, thread_cpu

PAXOS_COUNTERS = ("instances_decided", "msgs_sent", "lease_reads_served")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--id", type=int, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.config) as handle:
        config = NetConfig.from_json(handle.read())

    # Blocked before any thread starts, so every thread inherits the mask
    # and only the sigwait below receives these signals.
    signals = {signal.SIGUSR1, signal.SIGTERM, signal.SIGINT}
    signal.pthread_sigmask(signal.SIG_BLOCK, signals)

    recorder = Recorder()
    recorder.patch_all(replica_targets(
        config.wire, type(build_service(config.service))))
    server = ReplicaServer(args.id, config).start()
    protocol = server.node.protocol
    marks = []
    while signal.sigwait(signals) == signal.SIGUSR1:
        recorder.active = not recorder.active
        marks.append({
            "t": time.monotonic(),
            "cpu": thread_cpu(),
            "paxos": {name: getattr(protocol, name)
                      for name in PAXOS_COUNTERS},
        })
    recorder.active = False
    is_leader = bool(protocol.is_leader)
    server.stop()
    state = repr(server.service.snapshot()).encode()
    dump = {
        "replica_id": args.id,
        "is_leader": is_leader,
        "marks": marks,
        "spans": recorder.export(),
        "digest": hashlib.sha256(state).hexdigest(),
    }
    partial = args.out + ".partial"
    with open(partial, "wb") as handle:
        pickle.dump(dump, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Real-network deployment layer: TCP transport, processes, supervisor.

The in-process drivers (:class:`~repro.broadcast.transport.ThreadedTransport`
and the simulated cluster) connect protocol nodes through queues.  This
package provides the third driver the ROADMAP's production north star needs:
an asyncio **TCP transport** with the same ``send``/``inbox`` contract, so
:class:`~repro.broadcast.node.ThreadedNode`, the broadcast protocols, and
the replicas run *unchanged* over real sockets — and, through the
multi-process launcher (``python -m repro net ...``), each replica gets its
own OS process, interpreter, and GIL (see ``docs/deployment.md``).

Layers:

- :mod:`repro.net.codec` — JSON-safe, length-prefixed wire codec for the
  protocol messages and :class:`~repro.core.command.Command`, and the
  codec registry; :mod:`repro.net.bincodec` is the default binary wire.
- :mod:`repro.net.transport` — :class:`TcpTransport`: asyncio server +
  per-peer outbound queues with reconnect/backoff/jitter.
- :mod:`repro.net.replica` — :class:`ReplicaServer`: one replica (protocol
  node + execution engine) bound to a TCP endpoint.
- :mod:`repro.net.client` — :class:`NetClient`: the closed-loop SMR client
  over TCP.
- :mod:`repro.net.cluster` — :class:`TcpCluster`: an in-process *loopback*
  cluster (real sockets, one process) mirroring ``ThreadedCluster``'s API
  for tests.
- :mod:`repro.net.supervisor` — :class:`Supervisor`: spawns one OS process
  per replica and manages crash/restart.
- :mod:`repro.net.bench` — loopback throughput/latency benchmark writing a
  JSON artifact (``python -m repro net bench``).
"""

from repro.net.client import NetClient
from repro.net.cluster import TcpCluster
from repro.net.codec import CodecError, decode, decode_frame, encode, encode_frame
from repro.net.config import NetConfig, free_port
from repro.net.messages import ClientRequest, ClientResponse
from repro.net.replica import ReplicaServer
from repro.net.supervisor import Supervisor
from repro.net.transport import TcpTransport

__all__ = [
    "CodecError",
    "ClientRequest",
    "ClientResponse",
    "NetClient",
    "NetConfig",
    "ReplicaServer",
    "Supervisor",
    "TcpCluster",
    "TcpTransport",
    "decode",
    "decode_frame",
    "encode",
    "encode_frame",
    "free_port",
]

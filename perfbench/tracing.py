"""Spans around the public entry points of each layer, and their analysis.

:class:`Recorder` wraps functions with timers.  Each span records its name,
start, end, self time (duration minus the time of wrapped calls it made on
the same thread), the name of the enclosing span, and an optional tag: the
wire-stable ``client_id#request_id`` keys of the commands it handled, or
the size of the frame it encoded.  Spans stay in per-thread buffers and are
only recorded while :attr:`Recorder.active` is set (the measured window).

:func:`replica_targets` lists the entry points wrapped in every traced
replica process; :func:`analyse` joins the replicas' spans with the load
generator's records into the per-layer metrics.  All processes on one host
share ``time.monotonic``, so spans join across processes.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.command import Command

from load import quantiles

#: tag(args, result) -> value stored with the span.
Tag = Callable[[Tuple[Any, ...], Any], Any]


def flatten_keys(payload: Any) -> Tuple[str, ...]:
    """Trace keys of every client command in a (nested) batch."""
    if isinstance(payload, Command):
        if payload.client_id is None:
            return ()
        return (f"{payload.client_id}#{payload.request_id}",)
    keys: Tuple[str, ...] = ()
    if isinstance(payload, (tuple, list)):
        for item in payload:
            keys += flatten_keys(item)
    return keys


def keys_at(index: int) -> Tag:
    return lambda args, result: flatten_keys(args[index])


def frame_size(args: Tuple[Any, ...], result: Any) -> int:
    return len(result)


class _Buffer:
    """The spans of one name recorded on one thread."""

    __slots__ = ("start", "end", "self_time", "parent", "tag")

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent: List[Optional[str]] = []
        self.tag: List[Any] = []


class _ThreadLog:
    __slots__ = ("stack", "buffers")

    def __init__(self) -> None:
        #: Open spans on this thread: [name, time of wrapped children].
        self.stack: List[List[Any]] = []
        self.buffers: Dict[str, _Buffer] = {}


class Recorder:
    """In-memory span recorder; thread-safe through per-thread buffers."""

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, name: str, fn: Callable[..., Any],
             tag: Optional[Tag] = None) -> Callable[..., Any]:
        recorder = self
        clock = time.monotonic

        def timed(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return fn(*args, **kwargs)
            log = recorder._log()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            buffer = log.buffers.get(name)
            if buffer is None:
                buffer = log.buffers[name] = _Buffer()
            buffer.start.append(start)
            buffer.end.append(end)
            buffer.self_time.append(end - start - frame[1])
            buffer.parent.append(parent)
            if tag is not None:
                buffer.tag.append(tag(args, result))
            return result

        return timed

    def patch(self, owner: Any, attr: str, name: str,
              tag: Optional[Tag] = None) -> Callable[[], None]:
        """Replace ``owner.attr`` with a timed wrapper; returns the undo."""
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), tag))

        def undo() -> None:
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        return undo

    def patch_all(self, targets: Iterable[Tuple[Any, str, str, Optional[Tag]]]
                  ) -> Callable[[], None]:
        undos = [self.patch(*target) for target in targets]

        def undo_all() -> None:
            for undo in reversed(undos):
                undo()

        return undo_all

    def export(self) -> Dict[str, Dict[str, Any]]:
        """Every recorded span, merged across threads, by name."""
        merged: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for name, buffer in log.buffers.items():
                out = merged.setdefault(name, {
                    "start": array("d"), "end": array("d"),
                    "self": array("d"), "parent": [], "tag": []})
                out["start"].extend(buffer.start)
                out["end"].extend(buffer.end)
                out["self"].extend(buffer.self_time)
                out["parent"].extend(buffer.parent)
                out["tag"].extend(buffer.tag)
        return merged


# ------------------------------------------------------------ what is wrapped


#: Protocol entry points (``broadcast``).
PAXOS_STEPS = ("paxos.submit", "paxos.submit_read", "paxos.on_message",
               "paxos.on_timer")


def codec_targets(wire: str) -> List[Tuple[Any, str, str, Optional[Tag]]]:
    from repro.net.codec import wire_codec

    codec = wire_codec(wire)
    return [(codec, "encode_frame", "codec.encode", frame_size),
            (codec, "decode_frame", "codec.decode", None)]


def replica_targets(wire: str, service_cls: type
                    ) -> List[Tuple[Any, str, str, Optional[Tag]]]:
    """The public entry points wrapped in a traced replica process."""
    from repro.broadcast import MultiPaxos, ThreadedNode
    from repro.core import ThreadedCOS
    from repro.net.transport import TcpTransport
    from repro.smr.replica import ParallelReplica

    return codec_targets(wire) + [
        (TcpTransport, "send", "transport.send", None),
        (ThreadedNode, "submit", "node.submit", keys_at(1)),
        (ThreadedNode, "submit_read", "node.submit_read", keys_at(1)),
        (MultiPaxos, "submit", "paxos.submit", None),
        (MultiPaxos, "submit_read", "paxos.submit_read", None),
        (MultiPaxos, "on_message", "paxos.on_message", None),
        (MultiPaxos, "on_timer", "paxos.on_timer", None),
        (ParallelReplica, "on_deliver", "replica.on_deliver", keys_at(2)),
        (ParallelReplica, "on_local_read", "replica.on_local_read",
         keys_at(1)),
        (ThreadedCOS, "insert", "cos.insert", None),
        (ThreadedCOS, "get", "cos.get", None),
        (ThreadedCOS, "remove", "cos.remove", None),
        (service_cls, "execute", "service.execute", keys_at(1)),
    ]


def client_targets(wire: str) -> List[Tuple[Any, str, str, Optional[Tag]]]:
    """Entry points wrapped in the load generator during a traced run."""
    from repro.smr.client import Client

    return codec_targets(wire) + [
        (Client, "deliver_response", "client.receive", keys_at(1)),
    ]


def thread_group(name: str) -> str:
    """Layer owning a replica-process thread, from its name."""
    if name.startswith("tcp-"):
        return "transport"
    if name.startswith("net-node-"):
        return "node"
    if name.startswith("replica-") and "-worker-" in name:
        return "workers"
    return "other"


def thread_cpu() -> Dict[str, float]:
    """CPU seconds of this process's live threads, by layer."""
    tick = os.sysconf("SC_CLK_TCK")
    totals: Dict[str, float] = {}
    for thread in threading.enumerate():
        try:
            with open(f"/proc/self/task/{thread.native_id}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the thread ended meanwhile
        group = thread_group(thread.name)
        totals[group] = totals.get(group, 0.0) + (
            int(fields[11]) + int(fields[12])) / tick
    return totals


# ------------------------------------------------------------------ analysis


def _first_times(spans: Dict[str, Dict[str, Any]], names: Iterable[str],
                 use_end: bool = False) -> Dict[str, float]:
    """key -> earliest start (or end) over the spans of ``names``."""
    times: Dict[str, float] = {}
    for name in names:
        record = spans.get(name)
        if record is None:
            continue
        stamps = record["end"] if use_end else record["start"]
        for stamp, keys in zip(stamps, record["tag"]):
            for key in keys:
                if key not in times or stamp < times[key]:
                    times[key] = stamp
    return times


STAGES = ("submit", "order", "queue", "execute", "reply")


def command_stages(window: Any, dumps: List[Dict[str, Any]],
                   client_spans: Dict[str, Dict[str, Any]]
                   ) -> List[Tuple[str, float, Tuple[float, ...]]]:
    """Per answered command: (key, end-to-end seconds, stage boundaries).

    The boundaries are origin, submit at the contact, delivery there,
    execution start and end there, and receipt at the client; consecutive
    differences are the five stages of :data:`STAGES`.  Commands with a
    boundary outside the recorded window are left out.
    """
    by_replica = {}
    for dump in dumps:
        spans = dump["spans"]
        by_replica[dump["replica_id"]] = (
            _first_times(spans, ("node.submit", "node.submit_read")),
            _first_times(spans, ("replica.on_deliver",
                                 "replica.on_local_read")),
            _first_times(spans, ("service.execute",)),
            _first_times(spans, ("service.execute",), use_end=True),
        )
    received = _first_times(client_spans, ("client.receive",))
    out = []
    for request in window.requests:
        if request.failed:
            continue
        submit, order, start, end = by_replica[request.contact]
        for key in request.keys:
            # A batch is answered command by command (client.receive); an
            # open-loop request holds one command, answered when it is done.
            recv = (received.get(key) if len(request.keys) > 1
                    else request.done)
            points = (request.origin, submit.get(key), order.get(key),
                      start.get(key), end.get(key), recv)
            if any(point is None for point in points):
                continue
            out.append((key, points[-1] - points[0], points))
    return out


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _span_totals(dumps: List[Dict[str, Any]], names: Iterable[str],
                 top_level_of: Iterable[str] = (), clip: bool = False
                 ) -> Tuple[float, float, int]:
    """(total duration, total self time, calls) over the replicas.

    Calls made from inside a span of ``top_level_of`` are not counted.
    ``clip`` cuts durations to the window, for calls that may block past
    its end (a worker waiting for work).
    """
    names = tuple(names)
    nested = set(top_level_of)
    duration = self_time = 0.0
    calls = 0
    for dump in dumps:
        first, last = dump["marks"][0]["t"], dump["marks"][1]["t"]
        for name in names:
            record = dump["spans"].get(name)
            if record is None:
                continue
            if clip:
                duration += sum(
                    max(0.0, min(end, last) - max(start, first))
                    for start, end in zip(record["start"], record["end"]))
            else:
                duration += sum(record["end"]) - sum(record["start"])
            self_time += sum(record["self"])
            calls += sum(parent not in nested for parent in record["parent"])
    return duration, self_time, calls


def _delta(dumps: List[Dict[str, Any]], section: str, key: str) -> float:
    """Sum over replicas of a marked value's change across the window."""
    total = 0.0
    for dump in dumps:
        first, last = dump["marks"][0][section], dump["marks"][1][section]
        total += last.get(key, 0.0) - first.get(key, 0.0)
    return total


def analyse(window: Any, dumps: List[Dict[str, Any]],
            client_spans: Dict[str, Dict[str, Any]],
            loadgen_cpu: float) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics: name -> (value, unit, samples)."""
    cmds = window.committed
    requests = sum(1 for r in window.requests if not r.failed)
    metrics: Dict[str, Tuple[float, str, int]] = {}

    def put(name: str, value: float, unit: str, samples: int) -> None:
        metrics[name] = (value, unit, samples)

    # net.transport / net.codec
    frames = sizes = 0
    for spans in [d["spans"] for d in dumps] + [client_spans]:
        record = spans.get("codec.encode")
        if record is not None:
            frames += len(record["tag"])
            sizes += sum(record["tag"])
    put("net.transport.frames_per_cmd", _mean(frames, cmds), "count", cmds)
    put("net.transport.bytes_per_cmd", _mean(sizes, cmds), "B", cmds)
    _, self_time, calls = _span_totals(dumps, ("transport.send",))
    put("net.transport.send_us", _mean(self_time, calls) * 1e6, "us", calls)
    put("net.transport.loop_cpu_us_per_cmd",
        _mean(_delta(dumps, "cpu", "transport"), cmds) * 1e6, "us", cmds)
    for name in ("encode", "decode"):
        duration, _, calls = _span_totals(dumps, (f"codec.{name}",))
        put(f"net.codec.{name}_us", _mean(duration, calls) * 1e6, "us",
            calls)

    # broadcast
    _, self_time, calls = _span_totals(dumps, PAXOS_STEPS, PAXOS_STEPS)
    put("broadcast.step_us", _mean(self_time, calls) * 1e6, "us", calls)
    put("broadcast.node_cpu_us_per_cmd",
        _mean(_delta(dumps, "cpu", "node"), cmds) * 1e6, "us", cmds)
    decided = _delta(dumps, "paxos", "instances_decided")
    lease_cmds = sum(len(keys) for d in dumps for keys in
                     d["spans"].get("replica.on_local_read", {"tag": []})
                     ["tag"])
    put("broadcast.cmds_per_instance", _mean(cmds - lease_cmds, decided),
        "count", int(decided))
    put("broadcast.msgs_per_instance",
        _mean(_delta(dumps, "paxos", "msgs_sent"), decided), "count",
        int(decided))
    put("broadcast.lease_read_frac",
        _mean(_delta(dumps, "paxos", "lease_reads_served"), requests),
        "fraction", requests)
    leader = max(dumps, key=lambda d: d["is_leader"])
    leader_times = _first_times(leader["spans"], ("replica.on_deliver",))
    lags = []
    for dump in dumps:
        if dump is leader:
            continue
        for key, stamp in _first_times(
                dump["spans"], ("replica.on_deliver",)).items():
            if key in leader_times:
                lags.append((stamp - leader_times[key]) * 1e3)
    p50, p99 = quantiles(lags, 0.5, 0.99)
    put("broadcast.follower_lag_ms.p50", p50, "ms", len(lags))
    put("broadcast.follower_lag_ms.p99", p99, "ms", len(lags))

    # smr.replica
    _, self_time, _ = _span_totals(
        dumps, ("replica.on_deliver", "replica.on_local_read"))
    delivered = sum(len(keys) for d in dumps for name in
                    ("replica.on_deliver", "replica.on_local_read")
                    for keys in d["spans"].get(name, {"tag": []})["tag"])
    put("smr.replica.deliver_us", _mean(self_time, delivered) * 1e6, "us",
        delivered)
    put("smr.replica.worker_cpu_us_per_cmd",
        _mean(_delta(dumps, "cpu", "workers"), cmds) * 1e6, "us", cmds)

    # core / apps
    for name in ("insert", "remove"):
        duration, _, calls = _span_totals(dumps, (f"cos.{name}",))
        put(f"core.{name}_us", _mean(duration, calls) * 1e6, "us", calls)
    wait, _, _ = _span_totals(dumps, ("cos.get",), clip=True)
    duration, _, executed = _span_totals(dumps, ("service.execute",))
    put("core.get_wait_ms", _mean(wait, executed) * 1e3, "ms", executed)
    put("apps.execute_us", _mean(duration, executed) * 1e6, "us", executed)

    # stages
    stages = command_stages(window, dumps, client_spans)
    for index, stage in enumerate(STAGES):
        values = [(points[index + 1] - points[index]) * 1e3
                  for _, _, points in stages]
        p50, p99 = quantiles(values, 0.5, 0.99)
        put(f"stage.{stage}_ms.p50", p50, "ms", len(values))
        put(f"stage.{stage}_ms.p99", p99, "ms", len(values))

    # load generator
    late = [value * 1e3 for value in window.lateness()]
    put("loadgen.late_p99_ms", quantiles(late, 0.99)[0], "ms", len(late))
    put("loadgen.cpu_ms_per_kcmd", _mean(loadgen_cpu * 1e3, cmds / 1e3),
        "ms", cmds)
    return metrics

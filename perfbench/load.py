"""Workloads: command generation, response checking and the two load loops.

Every command the replicas see is generated here from the run's seed.  Each
closed-loop session and each open-loop virtual user owns its own keys, so
the expected answer of every command follows from that owner's own history
and every response is checked against it.

- :func:`run_closed` drives closed-loop ``NetClient`` sessions: each sends
  its next batch only when the previous one is answered, and all sessions
  stay active for the whole measured window.
- :class:`OpenLoop` sends single commands on a Poisson schedule through one
  client ``TcpTransport``, using the public ``ClientRequest`` /
  ``ClientResponse`` messages, and times each request from when it was due.
"""

from __future__ import annotations

import bisect
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import KVStoreService
from repro.core.command import Command
from repro.net import ClientRequest, ClientResponse, NetClient, NetConfig
from repro.net.config import free_port
from repro.net.transport import TcpTransport
from repro.obs.stats import quantile
from repro.smr.client import ClientTimeout

#: Keys owned by one kv session or virtual user.
KV_KEYS_PER_OWNER = 1_000
#: Entries of the pre-populated linked list (the paper's moderate class).
LIST_SIZE = 10_000
#: Entries the linked-list service starts with before pre-population.
LIST_INITIAL = 50
#: Values per ``add-all`` command while pre-populating the list.
PREPOPULATE_CHUNK = 250
#: Give up on a request after this long (counted as failed).
REQUEST_TIMEOUT = 2.0


def key_of(command: Command) -> str:
    """The wire-stable trace key of a stamped command."""
    return f"{command.client_id}#{command.request_id}"


# ------------------------------------------------------------ owners (models)


class KvOwner:
    """Commands on one owner's private key range, with their exact model.

    A key whose last write may or may not have been applied (its request
    failed) becomes unknown: the next answer for it is accepted and the
    model relearns the key from it.
    """

    def __init__(self, owner: int, rng: random.Random, write_frac: float):
        self._base = owner * KV_KEYS_PER_OWNER
        self._owner = owner
        self._rng = rng
        self._write_frac = write_frac
        self._data: Dict[int, int] = {}
        self._unknown: set = set()
        self._serial = 0

    def next_command(self) -> Command:
        key = self._base + self._rng.randrange(KV_KEYS_PER_OWNER)
        if self._rng.random() < self._write_frac:
            self._serial += 1
            return KVStoreService.put(key, self._owner * 10**7 + self._serial)
        return KVStoreService.get(key)

    def check(self, command: Command, response: Any) -> bool:
        key = command.args[0]
        expected = self._data.get(key)
        known = key not in self._unknown
        self._unknown.discard(key)
        if command.op == "put":
            self._data[key] = command.args[1]
        elif not known:
            if response is None:
                self._data.pop(key, None)
            else:
                self._data[key] = response
        return not known or response == expected

    def forget(self, command: Command) -> None:
        self._unknown.add(command.args[0])


class ListReader:
    """Reads and re-adds of keys already in the pre-populated list.

    ``contains`` must answer True and ``add`` False, so the list size and
    the cost of every command stay constant during the run.
    """

    def __init__(self, owner: int, rng: random.Random, write_frac: float):
        self._rng = rng
        self._write_frac = write_frac

    def next_command(self) -> Command:
        key = self._rng.randrange(LIST_SIZE)
        if self._rng.random() < self._write_frac:
            return Command("add", (key,), writes=True)
        return Command("contains", (key,), writes=False)

    def check(self, command: Command, response: Any) -> bool:
        return response is (command.op == "contains")

    def forget(self, command: Command) -> None:
        pass


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class Workload:
    name: str
    service: str
    owner: Callable[[int, random.Random, float], Any]
    write_frac: float
    open_loop: bool
    #: Commands per client request (closed loop).
    batch: int = 1
    #: Open-loop arrival rate, commands per second.
    rate: float = 0.0
    #: Open-loop virtual users (user i is bound to contact replica i mod n).
    users: int = 0
    prepopulate: bool = False
    #: Fleets set up per untraced run; setup_s is their median.
    setups: int = 5
    warmup: float = 1.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("kv-write-batched", "kv", KvOwner, 1.0, open_loop=False,
                 batch=8),
        Workload("list-read-mostly", "linked-list", ListReader, 0.1,
                 open_loop=False, batch=8, prepopulate=True, setups=3,
                 warmup=1.5),
        Workload("kv-open-sticky", "kv", KvOwner, 0.5, open_loop=True,
                 rate=200.0, users=30),
    )
}

#: Closed-loop sessions and the contact replica of each.
CLOSED_CONTACTS = (0, 1)


def owner_rng(seed: int, owner: int) -> random.Random:
    return random.Random(seed * 1_000_003 + owner)


# ---------------------------------------------------------------- measuring


@dataclass
class Request:
    """One client request: a closed-loop batch or one open-loop command.

    ``origin`` is where its latency is timed from: the send in a closed
    loop, the scheduled send time in an open loop.
    """

    origin: float
    size: int
    sent: Optional[float] = None
    done: Optional[float] = None
    wrong: int = 0
    failed: bool = False
    contact: int = 0
    keys: Tuple[str, ...] = ()
    #: How late the send ran: after the scheduled time in an open loop,
    #: after the previous answer in a closed loop.
    late: float = 0.0


@dataclass
class Window:
    """What one measured window produced.

    The window is cut into equal slices; ``bounds`` holds their edges,
    from its start to its end, and ``marks`` what ``mark`` returned at
    each edge.
    """

    bounds: List[float]
    #: Requests attributed to the window (finished in it for a closed
    #: loop; scheduled in it for an open loop).
    requests: List[Request]
    marks: List[Any] = field(default_factory=list)
    #: Whether a request belongs to a slice by its ``done`` time (closed
    #: loop) or by its ``origin`` (open loop).
    by_origin: bool = False

    @property
    def start(self) -> float:
        return self.bounds[0]

    @property
    def end(self) -> float:
        return self.bounds[-1]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def attempted(self) -> int:
        return sum(r.size for r in self.requests)

    @property
    def failed(self) -> int:
        return sum(r.size if r.failed else r.wrong for r in self.requests)

    @property
    def wrong(self) -> int:
        return sum(r.wrong for r in self.requests)

    @property
    def committed(self) -> int:
        return sum(r.size for r in self.requests if not r.failed)

    def latencies(self) -> List[float]:
        return [r.done - r.origin for r in self.requests if not r.failed]

    def lateness(self) -> List[float]:
        return [r.late for r in self.requests if r.sent is not None]

    def slices(self) -> List["Window"]:
        """The window cut at its bounds, one ``Window`` per slice."""
        parts: List[List[Request]] = [[] for _ in self.bounds[1:]]
        for request in self.requests:
            at = request.origin if self.by_origin else request.done
            index = bisect.bisect_right(self.bounds, at) - 1
            parts[min(max(index, 0), len(parts) - 1)].append(request)
        return [Window(self.bounds[i:i + 2], part, self.marks[i:i + 2],
                       self.by_origin)
                for i, part in enumerate(parts)]


# ---------------------------------------------------------------- set-up


def prepare(config: NetConfig, workload: Workload, seed: int) -> None:
    """Pre-populate (list workload) and probe every replica once.

    Returns when each replica has answered a command of its own, so every
    replica has executed the whole pre-population.
    """
    clients = [NetClient(f"setup-{contact}", config, contact=contact,
                         timeout=30.0, max_retries=2)
               for contact in range(config.n_replicas)]
    try:
        if workload.prepopulate:
            values = list(range(LIST_INITIAL, LIST_SIZE))
            random.Random(seed).shuffle(values)
            for index in range(0, len(values), PREPOPULATE_CHUNK):
                chunk = tuple(values[index:index + PREPOPULATE_CHUNK])
                answer = clients[0].execute(Command("add-all", chunk))
                if answer != (True,) * len(chunk):
                    raise RuntimeError("pre-population: add-all answered "
                                       "False for a fresh value")
        if workload.service == "kv":
            probe = KVStoreService.get(-1)
            expect: Any = None
        else:
            probe = Command("contains", (LIST_SIZE - 1,), writes=False)
            expect = True
        answers: List[Any] = [None] * len(clients)

        def ask(index: int) -> None:
            answers[index] = clients[index].execute(probe)

        threads = [threading.Thread(target=ask, args=(index,))
                   for index in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if answers != [expect] * len(clients):
            raise RuntimeError(f"set-up probe answered {answers}")
    finally:
        for client in clients:
            client.close()


# ------------------------------------------------------------- closed loop


def run_closed(config: NetConfig, workload: Workload, seed: int,
               seconds: float, mark: Callable[[], Any],
               slices: int = 1) -> Window:
    """Closed-loop sessions for ``warmup + seconds``; returns the window.

    ``mark`` is called at each edge of the window's ``slices`` slices
    (CPU samples, trace marks); its results land in ``Window.marks``.
    """
    stop = threading.Event()
    finished: List[List[Request]] = [[] for _ in CLOSED_CONTACTS]
    errors: List[BaseException] = []
    clients = [NetClient(f"s{seed}-{index}", config, contact=contact,
                         timeout=REQUEST_TIMEOUT, max_retries=1)
               for index, contact in enumerate(CLOSED_CONTACTS)]

    def session(index: int) -> None:
        client = clients[index]
        owner = workload.owner(index, owner_rng(seed, index),
                               workload.write_frac)
        log = finished[index]
        previous = None
        try:
            while not stop.is_set():
                commands = [owner.next_command()
                            for _ in range(workload.batch)]
                base = client.requests_issued
                now = time.monotonic()
                request = Request(
                    origin=now, size=len(commands),
                    late=0.0 if previous is None else now - previous,
                    contact=CLOSED_CONTACTS[index],
                    keys=tuple(f"{client.client_id}#{base + 1 + offset}"
                               for offset in range(len(commands))))
                request.sent = request.origin
                try:
                    responses = client.execute_batch(commands)
                except ClientTimeout:
                    request.done = time.monotonic()
                    request.failed = True
                    for command in commands:
                        owner.forget(command)
                else:
                    request.done = time.monotonic()
                    request.wrong = sum(
                        not owner.check(command, response)
                        for command, response in zip(commands, responses))
                previous = request.done
                log.append(request)
        except Exception as error:  # re-raised by the caller
            errors.append(error)

    threads = [threading.Thread(target=session, args=(index,),
                                name=f"session-{index}")
               for index in range(len(clients))]
    try:
        for thread in threads:
            thread.start()
        time.sleep(workload.warmup)
        start = time.monotonic()
        bounds: List[float] = []
        marks = []
        for index in range(slices + 1):
            time.sleep(max(0.0, start + seconds * index / slices
                           - time.monotonic()))
            bounds.append(time.monotonic())
            marks.append(mark())
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        for client in clients:
            client.close()
    if errors:
        raise RuntimeError(f"load session failed: {errors[0]!r}")
    requests = [r for log in finished for r in log
                if bounds[0] <= r.done < bounds[-1]]
    return Window(bounds, requests, marks)


# --------------------------------------------------------------- open loop


class OpenLoop:
    """Poisson arrivals over virtual users, one generator thread.

    Arrival ``j`` belongs to user ``j mod users``; a user has at most one
    request outstanding, so an arrival due while its user waits is sent
    when the answer comes (and its lateness shows in
    :meth:`Window.lateness`).  ``send(contact, request)`` and
    :meth:`deliver` are the network boundary; :func:`run_open` wires them
    to a client ``TcpTransport``.
    """

    def __init__(self, workload: Workload, seed: int, n_replicas: int,
                 send: Callable[[int, ClientRequest], None],
                 reply: Tuple[int, str, int],
                 timeout: float = REQUEST_TIMEOUT):
        self._workload = workload
        self._rng = random.Random(seed)
        self._send = send
        self._reply = reply
        self._timeout = timeout
        self._n_replicas = n_replicas
        self._owners = [workload.owner(user, owner_rng(seed, user),
                                       workload.write_frac)
                        for user in range(workload.users)]
        self._next_request = [1] * workload.users
        self._backlog: List[List[Request]] = [[] for _ in self._owners]
        #: user -> (request, command) awaiting its answer.
        self._outstanding: Dict[int, Tuple[Request, Command]] = {}
        self._cond = threading.Condition()
        self.requests: List[Request] = []

    def deliver(self, response: ClientResponse) -> None:
        """An answer arrived (any thread)."""
        now = time.monotonic()
        command = response.command
        user = int(command.client_id[1:])  # "u<user>", see _issue
        with self._cond:
            pending = self._outstanding.get(user)
            if pending is None or pending[1].request_id != command.request_id:
                return  # a late or duplicate answer
            request, sent_command = pending
            del self._outstanding[user]
            request.done = now
            if not self._owners[user].check(sent_command, response.response):
                request.wrong = 1
            self._cond.notify()

    def run(self, seconds: float, warmup: float, mark: Callable[[], Any],
            slices: int = 1) -> Window:
        """Generate for ``warmup + seconds``, then drain; return the window.

        ``mark`` is called at each edge of the window's ``slices`` slices.
        """
        users = len(self._owners)
        begin = time.monotonic()
        edges = [begin + warmup + seconds * index / slices
                 for index in range(slices + 1)]
        start, end = edges[0], edges[-1]
        arrivals = self._schedule([begin] + edges)
        marks: List[Any] = []
        mark_times: List[float] = []
        count = 0
        with self._cond:
            while True:
                now = time.monotonic()
                if len(marks) < len(edges) and now >= edges[len(marks)]:
                    mark_times.append(now)
                    marks.append(mark())
                while count < len(arrivals) and arrivals[count] <= now:
                    self._backlog[count % users].append(
                        Request(origin=arrivals[count], size=1))
                    count += 1
                self._expire(now)
                for user in range(users):
                    if self._backlog[user] and user not in self._outstanding:
                        self._issue(user, self._backlog[user].pop(0))
                if len(marks) == len(edges) and (
                        not self._outstanding
                        or now > end + self._timeout + 1.0):
                    break
                # Wake for the next arrival or mark, and at least every
                # 50 ms to expire unanswered requests.
                wake = now + 0.05
                if count < len(arrivals):
                    wake = min(wake, arrivals[count])
                if len(marks) < len(edges):
                    wake = min(wake, edges[len(marks)])
                self._cond.wait(timeout=max(0.0, wake - time.monotonic()))
            for backlog in self._backlog:
                for request in backlog:  # never sent
                    request.failed = True
                    self.requests.append(request)
                backlog.clear()
            for request, _ in self._outstanding.values():
                request.failed = True
            self._outstanding.clear()
        window = [r for r in self.requests if start <= r.origin < end]
        return Window(mark_times, window, marks, by_origin=True)

    def _schedule(self, edges: List[float]) -> List[float]:
        """Poisson arrivals at the workload's rate between ``edges``.

        The warm-up and each slice of the window get exactly ``rate *
        length`` arrivals, uniformly placed (a Poisson process conditioned
        on its count), so every run offers every slice the same load.
        """
        arrivals: List[float] = []
        for low, high in zip(edges, edges[1:]):
            count = round(self._workload.rate * (high - low))
            arrivals.extend(sorted(low + self._rng.random() * (high - low)
                                   for _ in range(count)))
        return arrivals

    def _issue(self, user: int, request: Request) -> None:
        """Send ``request`` for ``user`` (condition held)."""
        command = self._owners[user].next_command()
        command = Command(command.op, command.args, f"u{user}",
                          self._next_request[user], writes=command.writes)
        self._next_request[user] += 1
        request.contact = user % self._n_replicas
        request.keys = (key_of(command),)
        node_id, host, port = self._reply
        request.sent = time.monotonic()
        request.late = request.sent - request.origin
        self._outstanding[user] = (request, command)
        self.requests.append(request)
        self._send(request.contact, ClientRequest(
            payload=(command,), reply_to=node_id, reply_host=host,
            reply_port=port, client_id=command.client_id,
            read_only=not command.writes))

    def _expire(self, now: float) -> None:
        """Fail requests unanswered for longer than the timeout."""
        for user, (request, command) in list(self._outstanding.items()):
            if now - request.sent > self._timeout:
                request.failed = True
                request.done = now
                self._owners[user].forget(command)
                del self._outstanding[user]


#: Transport node id of the open-loop client (above every replica id).
OPEN_LOOP_NODE = 900


def run_open(config: NetConfig, workload: Workload, seed: int,
             seconds: float, mark: Callable[[], Any],
             slices: int = 1) -> Window:
    host, port = "127.0.0.1", free_port()
    addresses = config.address_map()
    addresses[OPEN_LOOP_NODE] = (host, port)
    loop: Optional[OpenLoop] = None

    def on_message(src: int, msg: Any) -> bool:
        if isinstance(msg, ClientResponse) and loop is not None:
            loop.deliver(msg)
        return True

    transport = TcpTransport(OPEN_LOOP_NODE, addresses,
                             interceptor=on_message, seed=seed,
                             wire=config.wire).start()
    try:
        loop = OpenLoop(
            workload, seed, config.n_replicas,
            send=lambda contact, request: transport.send(
                OPEN_LOOP_NODE, contact, request),
            reply=(OPEN_LOOP_NODE, host, port))
        return loop.run(seconds, workload.warmup, mark, slices)
    finally:
        transport.close()


def run_load(config: NetConfig, workload: Workload, seed: int,
             seconds: float, mark: Callable[[], Any],
             slices: int = 1) -> Window:
    runner = run_open if workload.open_loop else run_closed
    return runner(config, workload, seed, seconds, mark, slices)


def quantiles(samples: Sequence[float], *fractions: float) -> List[float]:
    ordered = sorted(samples)
    return [quantile(ordered, fraction) for fraction in fractions]

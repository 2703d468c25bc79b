"""Class-based (early) scheduling — the related-work alternative to DAGs.

The paper's dependency graph tracks *pairwise* conflicts; the competing line
of work it cites (early scheduling, Alchieri et al. 2018 [2]) partitions
commands into **conflict classes** known a priori.  Every class keeps a FIFO
queue; a command is enqueued in each of its classes at delivery time and is
executable once it reaches the *head of every queue it belongs to*.

Trade-off against the lock-free DAG, explored by the
``ablation_class_scheduler`` sweep in ``repro/bench/ablations.py`` (run by
``benchmarks/bench_ablations.py``):

- ``insert`` is O(#classes of the command) — no full-graph walk, so the
  scheduler thread never becomes the bottleneck;
- but commands in one class serialize even when they would commute (two
  reads of the same class cannot overlap), so read-heavy single-class
  workloads lose the parallelism a DAG exposes.

The implementation follows the COS effect-generator contract, so it runs on
both the threaded runtime and the simulator and can be compared with the
paper's three schedulers under identical harnesses.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, Optional, Tuple

from repro.core.command import Command, ConflictRelation, stable_hash
from repro.core.cos import COS, DEFAULT_MAX_SIZE, StructureCosts
from repro.core.effects import Acquire, Down, Release, Up, Work
from repro.core.runtime import EffectGen, Runtime

__all__ = ["ClassBasedCOS", "ClassConflicts", "read_write_classes"]

# Maps a command to the conflict classes it participates in.
ClassesOf = Callable[[Command], Tuple[Hashable, ...]]


def read_write_classes(shards: int = 1) -> ClassesOf:
    """The paper's readers/writers model expressed as conflict classes.

    Reads join the single class of their key shard; writes join *all*
    shards.  With ``shards=1`` this is exactly the linked-list service's
    conflict structure — and shows class scheduling's weakness: reads of
    the one class serialize.  More shards recover read parallelism at the
    cost of writes synchronizing every shard queue.
    """

    def classes_of(command: Command) -> Tuple[Hashable, ...]:
        if command.writes:
            return tuple(range(shards))
        key = command.args[0] if command.args else 0
        # stable_hash, not hash: replicas in different OS processes must
        # agree on the class of every command or their schedules diverge.
        return (stable_hash(key) % shards,)

    return classes_of


class ClassConflicts(ConflictRelation):
    """Two commands conflict iff they share a conflict class."""

    supports_footprint = True

    def __init__(self, classes_of: ClassesOf, universe: Optional[int] = None):
        self._classes_of = classes_of
        self._universe = universe

    def conflicts(self, a: Command, b: Command) -> bool:
        return bool(set(self._classes_of(a)) & set(self._classes_of(b)))

    def footprint(self, cmd: Command):
        # Class membership conflicts regardless of read/write intent, so
        # every entry is a write of its class.
        return tuple((cls, True) for cls in self._classes_of(cmd))

    def class_universe(self) -> Optional[int]:
        # ``classes_of`` is an arbitrary callable, so the universe is
        # unknown unless the caller declares it at construction.
        return self._universe


class _ClassNode:
    __slots__ = ("cmd", "classes", "pending")

    def __init__(self, cmd: Command, classes: Tuple[Hashable, ...]):
        self.cmd = cmd
        self.classes = classes
        # Number of this node's class queues where it is not yet at the head.
        self.pending = 0


class ClassBasedCOS(COS):
    """COS over per-class FIFO queues (early scheduling)."""

    def __init__(
        self,
        runtime: Runtime,
        classes_of: ClassesOf,
        max_size: int = DEFAULT_MAX_SIZE,
        costs: StructureCosts = StructureCosts.zero(),
    ):
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self._classes_of = classes_of
        self._costs = costs
        self._mutex = runtime.mutex()
        self._space = runtime.semaphore(max_size)
        self._ready = runtime.semaphore(0)
        self._queues: Dict[Hashable, Deque[_ClassNode]] = {}
        self._ready_queue: Deque[_ClassNode] = deque()

    # ------------------------------------------------------------------ API

    def insert(self, cmd: Command) -> EffectGen:
        yield Down(self._space)
        classes = tuple(self._classes_of(cmd))
        if not classes:
            raise ValueError(f"{cmd} belongs to no conflict class")
        node = _ClassNode(cmd, classes)
        visit = self._costs.insert_visit
        yield Acquire(self._mutex)
        for cls in classes:
            if visit:
                yield Work(visit)
            queue = self._queues.setdefault(cls, deque())
            if queue:
                node.pending += 1  # someone ahead of us in this class
            queue.append(node)
        is_ready = node.pending == 0
        if is_ready:
            self._ready_queue.append(node)
        yield Release(self._mutex)
        if is_ready:
            yield Up(self._ready)

    def get(self) -> EffectGen:
        yield Down(self._ready)
        if self._costs.get_visit:
            yield Work(self._costs.get_visit)
        yield Acquire(self._mutex)
        node = self._ready_queue.popleft()
        yield Release(self._mutex)
        return node

    def remove(self, handle: _ClassNode) -> EffectGen:
        visit = self._costs.remove_visit
        freed = 0
        yield Acquire(self._mutex)
        for cls in handle.classes:
            if visit:
                yield Work(visit)
            queue = self._queues[cls]
            if not queue or queue[0] is not handle:
                yield Release(self._mutex)
                raise LookupError(
                    f"{handle.cmd!r} is not at the head of class {cls!r}")
            queue.popleft()
            if queue:
                successor = queue[0]
                successor.pending -= 1
                if successor.pending == 0:
                    self._ready_queue.append(successor)
                    freed += 1
            else:
                del self._queues[cls]
        yield Release(self._mutex)
        if freed:
            yield Up(self._ready, freed)
        yield Up(self._space)

    # ---------------------------------------------------------- inspection

    def conflict_relation(self) -> ClassConflicts:
        """The pairwise relation induced by this scheduler's classes."""
        return ClassConflicts(self._classes_of)

"""Deterministic workload generation (paper §7.2).

The paper's application is a linked list of integers offering ``contains``
(read) and ``add`` (write).  A workload is characterized by its write
percentage — "15% of writes represents a workload with 15% of writes and 85%
of reads" — with uniformly random keys.  Generation is seeded so every run
of an experiment sees the identical command stream.

Beyond the paper's uniform keys, the generator supports a Zipfian key
distribution (``key_dist="zipf"``), the standard skewed-access model (YCSB's
default).  Skew concentrates traffic on few keys, which under keyed
conflicts raises the effective conflict rate and under sharded execution
(:mod:`repro.par`) imbalances the shards — both effects worth measuring.

For partitioned ordering (:mod:`repro.groups`) the generator can also dial
*partition-crossing* traffic: with ``cross_partition_fraction > 0`` (and
``n_partitions`` set) that fraction of commands becomes multi-key
(``add-all``/``contains-all``) with keys drawn from the configured
distribution but rejection-sampled into *distinct* partitions
(``stable_hash(key) % n_partitions``), so every such command genuinely
spans partitions.  The draw stays seeded and composes with Zipf skew.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Tuple

from repro.core.command import Command, stable_hash

__all__ = [
    "WorkloadGenerator",
    "READ_OP",
    "WRITE_OP",
    "MULTI_READ_OP",
    "MULTI_WRITE_OP",
    "KEY_DISTRIBUTIONS",
]

READ_OP = "contains"
WRITE_OP = "add"
#: Multi-key operations used for partition-crossing commands (supported by
#: the linked-list service; see repro.apps.linked_list).
MULTI_READ_OP = "contains-all"
MULTI_WRITE_OP = "add-all"

#: Supported key distributions.
KEY_DISTRIBUTIONS = ("uniform", "zipf")

#: Services the generator can drive: the linked lists take the paper's
#: ``contains``/``add``; kv gets ``get``/``put`` and bank ``balance``/
#: ``deposit`` on the same keys, so the read/write mix is unchanged.
_SERVICES = ("linked-list", "linked-list-keyed", "kv", "bank")


def _service_op(service: str, key: int, is_write: bool,
                sequence: int) -> Tuple[str, Tuple[Any, ...]]:
    """The read or write command of ``service`` on ``key``."""
    if service == "kv":
        return ("put", (key, sequence)) if is_write else ("get", (key,))
    if service == "bank":
        account = f"acct-{key}"
        return (("deposit", (account, 1)) if is_write
                else ("balance", (account,)))
    return (WRITE_OP if is_write else READ_OP), (key,)


def _zipf_cdf(key_space: int, s: float) -> Tuple[float, ...]:
    """Cumulative distribution of P(rank) ∝ 1/rank^s over 1..key_space.

    Computed once per generator; draws are then one uniform variate plus a
    binary search, so a skewed stream costs the same as a uniform one.
    """
    weights = [1.0 / (rank ** s) for rank in range(1, key_space + 1)]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running / total)
    cumulative[-1] = 1.0  # guard against float drift at the tail
    return tuple(cumulative)


class WorkloadGenerator:
    """Seeded stream of read/write commands with a fixed write percentage."""

    def __init__(
        self,
        write_pct: float,
        key_space: int = 10_000,
        seed: int = 1,
        client_id: Optional[str] = None,
        key_dist: str = "uniform",
        zipf_s: float = 0.99,
        cross_partition_fraction: float = 0.0,
        n_partitions: Optional[int] = None,
        keys_per_cross: int = 2,
        service: str = "linked-list",
    ):
        """Args:
            write_pct: Percentage of write (``add``) commands in [0, 100].
            key_space: Keys are drawn from ``range(key_space)``.
            seed: RNG seed; identical seeds give identical streams.
            client_id: Stamped on generated commands (``None`` leaves them
                anonymous, e.g. for pre-created standalone workloads).
            key_dist: ``"uniform"`` (paper §7.2) or ``"zipf"`` (skewed;
                rank-``i`` key drawn with probability ∝ 1/i^s).
            zipf_s: Zipf exponent; 0.99 matches the YCSB default.  Larger
                is more skewed; 0 degenerates to uniform.
            cross_partition_fraction: Fraction of commands (in [0, 1]) that
                become multi-key operations spanning distinct partitions
                (``add-all``/``contains-all``), for partitioned ordering
                experiments.  Requires ``n_partitions``.
            n_partitions: Partition count used to steer cross-partition
                keys into distinct partitions; must match the deployment's
                group count (repro.groups).
            keys_per_cross: Keys per cross-partition command (>= 2), each
                in a different partition.
            service: Whose operations to emit: ``"linked-list"``,
                ``"linked-list-keyed"``, ``"kv"`` or ``"bank"``;
                cross-partition commands need a linked-list service.
        """
        if not 0.0 <= write_pct <= 100.0:
            raise ValueError(f"write_pct must be in [0, 100], got {write_pct}")
        if key_space < 1:
            raise ValueError(f"key_space must be >= 1, got {key_space}")
        if key_dist not in KEY_DISTRIBUTIONS:
            raise ValueError(
                f"key_dist must be one of {KEY_DISTRIBUTIONS}, got "
                f"{key_dist!r}")
        if zipf_s < 0.0:
            raise ValueError(f"zipf_s must be >= 0, got {zipf_s}")
        if service not in _SERVICES:
            raise ValueError(
                f"service must be one of {_SERVICES}, got {service!r}")
        if not 0.0 <= cross_partition_fraction <= 1.0:
            raise ValueError(
                f"cross_partition_fraction must be in [0, 1], got "
                f"{cross_partition_fraction}")
        if cross_partition_fraction > 0.0:
            if not service.startswith("linked-list"):
                raise ValueError(
                    f"cross-partition commands need a linked-list service, "
                    f"got {service!r}")
            if n_partitions is None:
                raise ValueError(
                    "cross_partition_fraction > 0 requires n_partitions")
            if n_partitions < 2:
                raise ValueError(
                    f"cross-partition commands need n_partitions >= 2, "
                    f"got {n_partitions}")
            if keys_per_cross < 2:
                raise ValueError(
                    f"keys_per_cross must be >= 2, got {keys_per_cross}")
            if keys_per_cross > n_partitions:
                raise ValueError(
                    f"keys_per_cross={keys_per_cross} cannot span more "
                    f"partitions than exist ({n_partitions})")
        self._write_fraction = write_pct / 100.0
        self._key_space = key_space
        self._rng = random.Random(seed)
        self._client_id = client_id
        self._issued = 0
        self.key_dist = key_dist
        self.zipf_s = zipf_s
        self.cross_partition_fraction = cross_partition_fraction
        self.n_partitions = n_partitions
        self.keys_per_cross = keys_per_cross
        self.service = service
        self._zipf_cdf: Optional[Tuple[float, ...]] = (
            _zipf_cdf(key_space, zipf_s) if key_dist == "zipf" else None)

    def _draw_key(self) -> int:
        if self._zipf_cdf is None:
            return self._rng.randrange(self._key_space)
        # Rank r (0-based) is drawn Zipf-distributed; ranks map to keys
        # identically in every process (rank == key), so the hottest key is
        # always 0 — convenient for reasoning about shard imbalance.
        return bisect_left(self._zipf_cdf, self._rng.random())

    def _draw_cross_keys(self) -> Tuple[int, ...]:
        """Distinct keys in ``keys_per_cross`` *distinct* partitions.

        The first key follows the configured distribution; further keys
        are rejection-sampled until they land in partitions not covered
        yet, so the command is guaranteed to cross partitions.  Bounded
        retries keep a pathological key space (few keys, skew piled on one
        partition) from spinning: the draw then falls back to scanning
        keys deterministically.

        Key distinctness is a hard invariant, not a sampling accident: a
        repeated key would silently shrink the command's conflict
        footprint (``MultiKeyedConflicts`` dedups arguments) and
        understate cross-partition conflict rates in ``bench_groups``.
        It holds because a key is accepted only when its partition is not
        yet covered, and partitions are a function of the key
        (``stable_hash(key) % n_partitions`` — the same map
        :class:`~repro.groups.partition.PartitionMap` routes by), so
        distinct partitions force distinct keys.  The assertion at the
        bottom pins the invariant against future edits to the draw.
        """
        keys = [self._draw_key()]
        partitions = {stable_hash(keys[0]) % self.n_partitions}
        attempts = 0
        while len(keys) < self.keys_per_cross and attempts < 64:
            attempts += 1
            key = self._draw_key()
            partition = stable_hash(key) % self.n_partitions
            if partition not in partitions:
                keys.append(key)
                partitions.add(partition)
        probe = keys[0]
        for _ in range(self._key_space):
            if len(keys) == self.keys_per_cross:
                break
            probe = (probe + 1) % self._key_space
            partition = stable_hash(probe) % self.n_partitions
            if partition not in partitions:
                keys.append(probe)
                partitions.add(partition)
        if len(keys) < self.keys_per_cross:
            raise ValueError(
                f"key_space={self._key_space} covers fewer than "
                f"{self.keys_per_cross} of {self.n_partitions} partitions")
        assert len(set(keys)) == len(keys), (
            f"cross-partition draw produced duplicate keys: {keys}")
        return tuple(keys)

    def next_command(self) -> Command:
        """Produce the next command of the stream."""
        is_write = self._rng.random() < self._write_fraction
        self._issued += 1
        if (self.cross_partition_fraction
                and self._rng.random() < self.cross_partition_fraction):
            return Command(
                op=MULTI_WRITE_OP if is_write else MULTI_READ_OP,
                args=self._draw_cross_keys(),
                client_id=self._client_id,
                request_id=self._issued,
                writes=is_write,
            )
        op, args = _service_op(self.service, self._draw_key(), is_write,
                               self._issued)
        return Command(
            op=op,
            args=args,
            client_id=self._client_id,
            request_id=self._issued,
            writes=is_write,
        )

    def commands(self, count: int) -> List[Command]:
        """Produce ``count`` commands eagerly (pre-created, paper §7.3)."""
        return [self.next_command() for _ in range(count)]

    def __iter__(self) -> Iterator[Command]:
        while True:
            yield self.next_command()

    @property
    def issued(self) -> int:
        """How many commands have been generated so far."""
        return self._issued

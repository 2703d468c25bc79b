"""Tests for workload generation and simulation metrics."""

import pytest

from repro.core.command import stable_hash
from repro.sim import Metrics, Simulator
from repro.workload import (
    MULTI_READ_OP,
    MULTI_WRITE_OP,
    READ_OP,
    WRITE_OP,
    WorkloadGenerator,
)


class TestWorkloadGenerator:
    def test_write_percentage_respected(self):
        generator = WorkloadGenerator(25.0, seed=3)
        commands = generator.commands(4000)
        writes = sum(command.writes for command in commands)
        assert 0.20 < writes / len(commands) < 0.30

    def test_zero_writes(self):
        generator = WorkloadGenerator(0.0, seed=1)
        assert not any(c.writes for c in generator.commands(500))

    def test_all_writes(self):
        generator = WorkloadGenerator(100.0, seed=1)
        assert all(c.writes for c in generator.commands(500))

    def test_ops_match_write_flag(self):
        for command in WorkloadGenerator(50.0, seed=2).commands(200):
            assert command.op == (WRITE_OP if command.writes else READ_OP)

    def test_keys_in_range(self):
        generator = WorkloadGenerator(50.0, key_space=10, seed=2)
        assert all(0 <= c.args[0] < 10 for c in generator.commands(300))

    def test_seed_reproducibility(self):
        a = WorkloadGenerator(30.0, seed=9).commands(100)
        b = WorkloadGenerator(30.0, seed=9).commands(100)
        assert [(c.op, c.args) for c in a] == [(c.op, c.args) for c in b]

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(30.0, seed=1).commands(100)
        b = WorkloadGenerator(30.0, seed=2).commands(100)
        assert [(c.op, c.args) for c in a] != [(c.op, c.args) for c in b]

    def test_client_id_stamped(self):
        generator = WorkloadGenerator(10.0, seed=1, client_id="c9")
        command = generator.next_command()
        assert command.client_id == "c9"
        assert command.request_id == 1

    def test_request_ids_increment(self):
        generator = WorkloadGenerator(10.0, seed=1)
        ids = [generator.next_command().request_id for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert generator.issued == 5

    def test_iterator_protocol(self):
        generator = WorkloadGenerator(10.0, seed=1)
        stream = iter(generator)
        assert next(stream).uid != next(stream).uid

    @pytest.mark.parametrize("bad", [-1.0, 101.0])
    def test_invalid_write_pct(self, bad):
        with pytest.raises(ValueError):
            WorkloadGenerator(bad)

    def test_invalid_key_space(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(10.0, key_space=0)


class TestZipfianKeys:
    def test_zipf_is_seeded_and_reproducible(self):
        a = WorkloadGenerator(20.0, seed=5, key_dist="zipf").commands(200)
        b = WorkloadGenerator(20.0, seed=5, key_dist="zipf").commands(200)
        assert [(c.op, c.args) for c in a] == [(c.op, c.args) for c in b]

    def test_zipf_keys_in_range(self):
        generator = WorkloadGenerator(50.0, key_space=64, seed=2,
                                      key_dist="zipf")
        assert all(0 <= c.args[0] < 64 for c in generator.commands(500))

    def test_zipf_skews_toward_low_ranks(self):
        generator = WorkloadGenerator(0.0, key_space=1000, seed=7,
                                      key_dist="zipf", zipf_s=0.99)
        keys = [c.args[0] for c in generator.commands(5000)]
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        hottest = max(counts, key=counts.get)
        # Rank == key: key 0 is the head of the distribution.
        assert hottest == 0
        top10 = sum(counts.get(k, 0) for k in range(10))
        assert top10 / len(keys) > 0.25  # heavy head, vs 1% under uniform

    def test_higher_s_means_more_skew(self):
        def head_mass(s):
            generator = WorkloadGenerator(0.0, key_space=500, seed=11,
                                          key_dist="zipf", zipf_s=s)
            keys = [c.args[0] for c in generator.commands(3000)]
            return sum(1 for k in keys if k < 5) / len(keys)

        assert head_mass(1.5) > head_mass(0.5)

    def test_uniform_is_unchanged_default(self):
        # Regression guard: adding key_dist must not perturb the streams
        # existing benchmarks were recorded with.
        a = WorkloadGenerator(30.0, seed=9).commands(100)
        b = WorkloadGenerator(30.0, seed=9, key_dist="uniform").commands(100)
        assert [(c.op, c.args) for c in a] == [(c.op, c.args) for c in b]

    def test_invalid_key_dist(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(10.0, key_dist="pareto")

    def test_invalid_zipf_s(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(10.0, key_dist="zipf", zipf_s=-1.0)

    def test_zipf_s_zero_degenerates_to_uniform_weights(self):
        generator = WorkloadGenerator(0.0, key_space=100, seed=3,
                                      key_dist="zipf", zipf_s=0.0)
        keys = [c.args[0] for c in generator.commands(2000)]
        head = sum(1 for k in keys if k < 10) / len(keys)
        assert 0.05 < head < 0.20  # ~10% under uniform


class TestCrossPartitionMode:
    """Multi-key commands for partitioned deployments (repro.groups)."""

    def _generator(self, **overrides):
        base = dict(write_pct=50.0, key_space=256, seed=5,
                    cross_partition_fraction=0.3, n_partitions=4)
        base.update(overrides)
        return WorkloadGenerator(**base)

    def test_fraction_of_commands_is_multi_key(self):
        commands = self._generator().commands(3000)
        cross = [c for c in commands if len(c.args) > 1]
        assert 0.25 < len(cross) / len(commands) < 0.35

    def test_cross_commands_span_distinct_partitions(self):
        for command in self._generator().commands(1000):
            if len(command.args) == 1:
                continue
            partitions = {stable_hash(key) % 4 for key in command.args}
            assert len(partitions) == len(command.args)

    def test_multi_key_ops_follow_write_flag(self):
        for command in self._generator().commands(500):
            if len(command.args) == 1:
                assert command.op in (READ_OP, WRITE_OP)
            elif command.writes:
                assert command.op == MULTI_WRITE_OP
            else:
                assert command.op == MULTI_READ_OP

    def test_cross_mode_is_seeded_and_reproducible(self):
        a = self._generator().commands(400)
        b = self._generator().commands(400)
        assert [(c.op, c.args, c.writes) for c in a] == \
            [(c.op, c.args, c.writes) for c in b]

    def test_cross_mode_composes_with_zipf(self):
        commands = self._generator(key_dist="zipf",
                                   zipf_s=1.2).commands(2000)
        cross = [c for c in commands if len(c.args) > 1]
        assert cross
        primary = [c.args[0] for c in cross]
        head = sum(1 for key in primary if key < 26) / len(primary)
        assert head > 0.4  # first key keeps the skew

    def test_keys_per_cross_is_respected(self):
        commands = self._generator(keys_per_cross=3).commands(800)
        widths = {len(c.args) for c in commands if len(c.args) > 1}
        assert widths == {3}

    def test_zero_fraction_leaves_streams_untouched(self):
        # Regression guard: the cross-partition knobs must not perturb
        # streams existing benchmarks were recorded with.
        a = WorkloadGenerator(30.0, seed=9).commands(200)
        b = WorkloadGenerator(30.0, seed=9,
                              cross_partition_fraction=0.0).commands(200)
        assert [(c.op, c.args) for c in a] == [(c.op, c.args) for c in b]

    @pytest.mark.parametrize("kwargs", [
        dict(cross_partition_fraction=-0.1, n_partitions=2),
        dict(cross_partition_fraction=1.5, n_partitions=2),
        dict(cross_partition_fraction=0.2),                    # no partitions
        dict(cross_partition_fraction=0.2, n_partitions=1),
        dict(cross_partition_fraction=0.2, n_partitions=2, keys_per_cross=1),
        dict(cross_partition_fraction=0.2, n_partitions=2, keys_per_cross=3),
    ])
    def test_invalid_cross_configs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadGenerator(10.0, **kwargs)


class TestServiceVocabulary:
    @pytest.mark.parametrize("service", ["kv", "bank"])
    def test_every_command_executes_on_its_service(self, service):
        from repro.apps import build_service

        target = build_service(service)
        generator = WorkloadGenerator(50.0, key_space=20, seed=4,
                                      service=service)
        commands = generator.commands(200)
        assert {command.writes for command in commands} == {True, False}
        for command in commands:
            target.execute(command)  # raises on a foreign op

    def test_linked_list_stream_unchanged(self):
        def stream(**kwargs):
            return [(c.op, c.args, c.writes) for c in
                    WorkloadGenerator(30.0, seed=9, **kwargs).commands(100)]

        assert stream() == stream(service="linked-list")

    def test_unknown_service_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(10.0, service="nope")

    def test_cross_partition_needs_linked_list(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(10.0, service="kv", n_partitions=2,
                              cross_partition_fraction=0.5)


class TestMetrics:
    def test_counts(self):
        metrics = Metrics(Simulator())
        metrics.incr("x")
        metrics.incr("x", 2)
        assert metrics.count("x") == 3
        assert metrics.count("missing") == 0

    def test_warm_counts_exclude_warmup(self):
        sim = Simulator()
        metrics = Metrics(sim)
        metrics.incr("x", 10)
        sim.schedule(1.0, metrics.mark_warm)
        sim.run()
        metrics.incr("x", 5)
        assert metrics.warm_count("x") == 5
        assert metrics.count("x") == 15

    def test_throughput(self):
        sim = Simulator()
        metrics = Metrics(sim)
        sim.schedule(1.0, metrics.mark_warm)
        sim.schedule(3.0, lambda: metrics.incr("x", 100))
        sim.run()
        assert metrics.throughput("x") == pytest.approx(50.0)

    def test_throughput_before_warm_is_zero(self):
        metrics = Metrics(Simulator())
        metrics.incr("x")
        assert metrics.throughput("x") == 0.0
        assert metrics.warm_count("x") == 0

    def test_latencies_recorded_only_after_warm(self):
        metrics = Metrics(Simulator())
        metrics.record_latency(9.0)  # dropped: warm-up
        metrics.mark_warm()
        metrics.record_latency(1.0)
        metrics.record_latency(3.0)
        mean, median, p99 = metrics.latency_stats()
        assert mean == pytest.approx(2.0)
        # Interpolated quantiles: the even-n median is the mean of the two
        # middle elements, and p99 of [1, 3] sits just under the max.
        assert median == pytest.approx(2.0)
        assert p99 == pytest.approx(1.0 + 0.99 * 2.0)

    def test_empty_latency_stats(self):
        assert Metrics(Simulator()).latency_stats() == (0.0, 0.0, 0.0)

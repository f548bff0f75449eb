"""Tests for the simulated cluster: phases, thread dealing, network, cost model."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel, ModeledTime
from repro.cluster.cluster import static_thread
from repro.cluster.metrics import Counters, PhaseKind, PhaseRecord


class TestStaticThread:
    def test_covers_all_threads(self):
        threads = {static_thread(i, 100, 4) for i in range(100)}
        assert threads == {0, 1, 2, 3}

    def test_chunked_and_monotone(self):
        assignments = [static_thread(i, 12, 3) for i in range(12)]
        assert assignments == sorted(assignments)
        assert assignments.count(0) == 4

    def test_fewer_items_than_threads(self):
        assert static_thread(0, 1, 8) == 0

    def test_empty_total(self):
        assert static_thread(0, 0, 4) == 0

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            static_thread(5, 5, 2)

    @given(st.integers(1, 200), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_always_valid_thread(self, total, threads):
        for index in range(0, total, max(total // 7, 1)):
            assert 0 <= static_thread(index, total, threads) < threads


class TestPhases:
    def test_phase_records_counters(self):
        cluster = Cluster(2, threads_per_host=4)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            cluster.counters(0).node_iters += 5
            cluster.counters(1).edge_iters += 3
        phase = cluster.log.phases[0]
        assert phase.counters[0].node_iters == 5
        assert phase.counters[1].edge_iters == 3

    def test_phases_do_not_nest(self):
        cluster = Cluster(1)
        with cluster.phase(PhaseKind.INIT):
            with pytest.raises(RuntimeError):
                with cluster.phase(PhaseKind.INIT):
                    pass

    def test_counters_outside_phase_raises(self):
        cluster = Cluster(1)
        with pytest.raises(RuntimeError):
            cluster.counters(0)

    def test_network_outside_phase_raises(self):
        cluster = Cluster(2)
        with pytest.raises(RuntimeError):
            cluster.network.send(0, 1, 8)

    def test_reset_clears_log(self):
        cluster = Cluster(1)
        with cluster.phase(PhaseKind.INIT):
            cluster.counters(0).local_ops += 1
        cluster.reset()
        assert cluster.log.phases == []

    def test_reset_inside_phase_rejected(self):
        cluster = Cluster(1)
        with cluster.phase(PhaseKind.INIT):
            with pytest.raises(RuntimeError):
                cluster.reset()

    def test_records_are_slotted_and_survive_pickle_and_copy(self):
        """Records carry no ``__dict__``; the pool's pickles and the
        checkpoint's deep copies must still round-trip every field."""
        cluster = Cluster(3)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE, label="r", operator="op"):
            cluster.counters(2).reduce_calls += 4
            cluster.network.send(0, 2, 16)
        record = cluster.log.phases[0]
        record.chunk, record.slowdown = 5, [1.0, 2.0, 1.0]
        assert not hasattr(record, "__dict__")
        for twin in (
            pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL)),
            copy.deepcopy(record),
            copy.copy(record),
        ):
            assert twin == record and twin is not record

    def test_empty_record_traffic_lists_are_distinct(self):
        record = PhaseRecord.empty(PhaseKind.INIT, 2, True)
        record.msgs_sent[0] += 1
        assert (record.bytes_sent, record.msgs_recv, record.bytes_recv) == ([0, 0],) * 3
        assert len({id(column) for column in (
            record.msgs_sent, record.bytes_sent, record.msgs_recv, record.bytes_recv
        )}) == 4

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(0)
        with pytest.raises(ValueError):
            Cluster(1, threads_per_host=0)


class TestNetwork:
    def test_self_send_is_free(self):
        cluster = Cluster(2)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.network.send(0, 0, 1000)
        phase = cluster.log.phases[0]
        assert sum(phase.msgs_sent) == 0

    def test_send_records_both_sides(self):
        cluster = Cluster(3)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.network.send(0, 2, 64)
        phase = cluster.log.phases[0]
        assert phase.msgs_sent[0] == 1
        assert phase.bytes_sent[0] == 64
        assert phase.msgs_recv[2] == 1
        assert phase.bytes_recv[2] == 64

    def test_allreduce_is_a_ring(self):
        cluster = Cluster(4)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.network.allreduce(1)
        phase = cluster.log.phases[0]
        assert sum(phase.msgs_sent) == 4

    def test_allreduce_single_host_free(self):
        cluster = Cluster(1)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.network.allreduce(1)
        assert sum(cluster.log.phases[0].msgs_sent) == 0


class TestCostModel:
    def test_parallel_phase_divided_by_threads(self):
        cluster = Cluster(1, threads_per_host=10)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            cluster.counters(0).local_ops += 100
        serial = Cluster(1, threads_per_host=1)
        with serial.phase(PhaseKind.REDUCE_COMPUTE):
            serial.counters(0).local_ops += 100
        assert cluster.elapsed().computation * 10 == pytest.approx(
            serial.elapsed().computation
        )

    def test_serial_phase_not_divided(self):
        cluster = Cluster(1, threads_per_host=10)
        with cluster.phase(PhaseKind.SERIAL, parallel=False):
            cluster.counters(0).local_ops += 100
        serial = Cluster(1, threads_per_host=1)
        with serial.phase(PhaseKind.SERIAL, parallel=False):
            serial.counters(0).local_ops += 100
        assert cluster.elapsed().total == pytest.approx(serial.elapsed().total)

    def test_bsp_barrier_takes_max_over_hosts(self):
        cluster = Cluster(2, threads_per_host=1)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            cluster.counters(0).local_ops += 10
            cluster.counters(1).local_ops += 1000
        lone = Cluster(1, threads_per_host=1)
        with lone.phase(PhaseKind.REDUCE_COMPUTE):
            lone.counters(0).local_ops += 1000
        assert cluster.elapsed().computation == pytest.approx(lone.elapsed().computation)

    def test_sync_phase_counts_as_communication(self):
        cluster = Cluster(2)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.counters(0).local_ops += 10
            cluster.network.send(0, 1, 100)
        elapsed = cluster.elapsed()
        assert elapsed.computation == 0
        assert elapsed.communication > 0

    def test_conflicts_cost_more_than_clean_reduces(self):
        model = CostModel()
        clean = Counters(reduce_calls=100)
        contended = Counters(cas_attempts=100, cas_conflicts=100)
        assert model.units(contended) > model.units(clean)

    def test_modeled_time_addition(self):
        total = ModeledTime(1.0, 2.0) + ModeledTime(0.5, 0.25)
        assert total.computation == 1.5
        assert total.communication == 2.25
        assert total.total == 3.75

    def test_time_by_kind_partitions_total(self):
        cluster = Cluster(2)
        with cluster.phase(PhaseKind.REDUCE_COMPUTE):
            cluster.counters(0).local_ops += 50
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.network.send(0, 1, 10)
        by_kind = cluster.elapsed_by_kind()
        total = sum((t for t in by_kind.values()), ModeledTime(0.0, 0.0))
        assert total.total == pytest.approx(cluster.elapsed().total)


class TestCounters:
    def test_add_accumulates_all_fields(self):
        first = Counters(node_iters=1, cas_conflicts=2)
        second = Counters(node_iters=3, hash_probes=4)
        first.add(second)
        assert first.node_iters == 4
        assert first.cas_conflicts == 2
        assert first.hash_probes == 4

    def test_as_dict_covers_weights(self):
        """Every counter field must have a cost-model weight."""
        from repro.cluster.costmodel import DEFAULT_WEIGHTS

        assert set(Counters().as_dict()) == set(DEFAULT_WEIGHTS)

    def test_total_messages_and_bytes(self):
        cluster = Cluster(2)
        with cluster.phase(PhaseKind.REDUCE_SYNC):
            cluster.network.send(0, 1, 100)
            cluster.network.send(1, 0, 50)
        assert cluster.log.total_messages() == 2
        assert cluster.log.total_bytes() == 150

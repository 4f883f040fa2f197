"""Shard-engine equality: any node partition reproduces the sequential run.

The conservative sharded engine (:mod:`repro.sim.shard`) promises results,
merged traces and the final clock *bit-identical* to sequential execution.
These tests pin that promise on the paper's own workloads (the fig3
pipeline gantt, stencil halo exchange, the fault-recovery matrix) and on
randomized partitions via hypothesis, plus unit coverage for the two core
primitives the engine rests on: bounded windows and canonical wire keys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import StencilConfig, run_stencil
from repro.hw import Cluster
from repro.ib.faults import FaultPlan, FaultSpec
from repro.mpi import BYTE, Datatype, MpiWorld
from repro.sim import CallbackOp, Environment, Tracer, WIRE_KEY_BASE, wire_key


# -- core primitives ------------------------------------------------------------

class _Call(CallbackOp):
    """A queue entry that calls ``cb`` (if any) when processed."""

    __slots__ = ("cb",)

    def __init__(self, cb):
        self.cb = cb
        self._step = _Call._run

    def _run(self):
        if self.cb is not None:
            self.cb()


def _schedule(env, when, cb=None):
    """Queue a callback op that runs ``cb`` at the absolute time ``when``."""
    env.schedule_op(_Call(cb), when - env.now)


class TestRunWindow:
    def test_bound_is_exclusive(self):
        env = Environment()
        seen = []
        for t in (1.0, 2.0, 3.0):
            _schedule(env, t, lambda t=t: seen.append(t))
        count = env.run_window(2.0)
        assert count == 1
        assert seen == [1.0]
        assert env.now == 2.0  # clock advances to the bound...
        assert env.last_event_time == 1.0  # ...but the last event stays real
        env.run_window(3.5)
        assert seen == [1.0, 2.0, 3.0]

    def test_back_to_back_windows_partition_the_timeline(self):
        env = Environment()
        seen = []
        for t in (0.5, 1.0, 1.5, 2.0):
            _schedule(env, t, lambda t=t: seen.append(t))
        total = env.run_window(1.0) + env.run_window(2.0) + env.run_window(9.9)
        assert total == 4
        assert seen == [0.5, 1.0, 1.5, 2.0]

    def test_run_until_tracks_last_event_time(self):
        env = Environment()
        _schedule(env, 1.0)
        _schedule(env, 7.0)
        env.run(until=5.0)  # stops between events: clock pins to the horizon
        assert env.now == 5.0
        assert env.last_event_time == 1.0
        env.run(until=8.0)  # queue drains: clock stays at the last event
        assert env.now == 7.0
        assert env.last_event_time == 7.0


class _Landing(CallbackOp):
    """A wire-delivery entry that appends ``tag`` to ``order`` each time
    it is processed."""

    __slots__ = ("order", "tag")

    def __init__(self, order, tag):
        self.order, self.tag = order, tag
        self._step = _Landing._land

    def _land(self):
        self.order.append(self.tag)


class TestWireKeys:
    def test_wire_events_follow_local_events_at_same_instant(self):
        env = Environment()
        order = []
        env.schedule_wire(1.0, wire_key(0, 1), _Landing(order, "wire"))
        _schedule(env, 1.0, lambda: order.append("local"))
        env.run()
        assert order == ["local", "wire"]

    def test_wire_events_order_by_source_then_seq(self):
        env = Environment()
        order = []
        for src, seq in [(2, 1), (0, 2), (1, 1), (0, 1)]:
            env.schedule_wire(1.0, wire_key(src, seq),
                              _Landing(order, (src, seq)))
        env.run()
        assert order == [(0, 1), (0, 2), (1, 1), (2, 1)]

    def test_one_entry_lands_once_per_key(self):
        """An injected duplicate queues the same op under a second key."""
        env = Environment()
        order = []
        entry = _Landing(order, "ctl")
        env.schedule_wire(1.0, wire_key(0, 1), entry)
        env.schedule_wire(1.5, wire_key(0, 2), entry)
        env.run()
        assert order == ["ctl", "ctl"] and env.now == 1.5

    def test_wire_key_layout(self):
        assert wire_key(0, 1) > WIRE_KEY_BASE
        assert wire_key(0, 2) < wire_key(1, 1)


# -- workload equality ----------------------------------------------------------

def _ring_program(ctx, vec, payload):
    """Every rank sends a strided vector to its right neighbor."""
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    sbuf = ctx.cuda.malloc(payload)
    rbuf = ctx.cuda.malloc(payload)
    sbuf.view()[:] = (np.arange(payload, dtype=np.uint64) * (ctx.rank + 1)) % 251
    rreq = ctx.comm.Irecv(rbuf, 1, vec, source=prv)
    yield from ctx.comm.Send(sbuf, 1, vec, dest=nxt)
    yield from rreq.wait()
    return rbuf.view().copy(), ctx.now


def _run_ring(nodes, shards=1, shard_map=None, rows=64):
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cluster = Cluster(nodes, shards=shards, shard_map=shard_map)
    outs = MpiWorld(cluster).run(_ring_program, vec, rows * 8)
    return outs, cluster.env.now, cluster.tracer.canonical()


def _assert_runs_equal(a, b):
    outs_a, now_a, tr_a = a
    outs_b, now_b, tr_b = b
    assert now_a == now_b
    assert tr_a == tr_b
    for (buf_a, t_a), (buf_b, t_b) in zip(outs_a, outs_b):
        assert t_a == t_b
        np.testing.assert_array_equal(buf_a, buf_b)


class TestRingEquality:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_ring_matches_sequential(self, shards):
        _assert_runs_equal(_run_ring(4), _run_ring(4, shards=shards))

    def test_rendezvous_sized_ring(self):
        # 64KiB messages cross the eager threshold: the full RTS/CTS/FIN
        # rendezvous plus RDMA payload traffic crosses the shard bridge.
        _assert_runs_equal(
            _run_ring(2, rows=1 << 13), _run_ring(2, shards=2, rows=1 << 13)
        )


class TestFig3Equality:
    def test_gantt_identical_under_sharding(self):
        from repro.bench.experiments import fig3_pipeline_gantt

        seq = fig3_pipeline_gantt(scale="quick")
        shd = fig3_pipeline_gantt(scale="quick", shards=2)
        assert seq["text"] == shd["text"]
        assert seq["overlap_factor"] == shd["overlap_factor"]
        assert seq["wall_seconds"] == shd["wall_seconds"]


class TestStencilEquality:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_16_rank_stencil_matches_sequential(self, shards):
        def run(shards):
            cfg = StencilConfig(4, 4, 12, 12, iterations=2)
            tracer = Tracer()
            res = run_stencil(cfg, shards=shards, tracer=tracer)
            return res, tracer.canonical()

        seq, tr_seq = run(1)
        shd, tr_shd = run(shards)
        assert seq.iteration_times == shd.iteration_times
        assert tr_seq == tr_shd
        for a, b in zip(seq.interiors, shd.interiors):
            np.testing.assert_array_equal(a, b)


class TestFaultMatrixEquality:
    CASES = {
        "none": [],
        "drop-rts": [FaultSpec("ctl", "drop", ctl_type="rts")],
        "dup-all": [
            FaultSpec("ctl", "duplicate", ctl_type="rts"),
            FaultSpec("ctl", "duplicate", ctl_type="cts"),
            FaultSpec("ctl", "duplicate", ctl_type="fin"),
        ],
        "rdma-fail-x2": [FaultSpec("rdma_write", "fail", count=2)],
    }

    @staticmethod
    def _program(ctx, vec, payload):
        buf = ctx.cuda.malloc(payload)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(payload, dtype=np.uint64) % 251
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            buf.view()[:] = 0
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
        return buf.view().copy(), ctx.now

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_recovery_converges_identically(self, case):
        rows = 1 << 12
        specs = self.CASES[case]

        def run(shards):
            plan = FaultPlan(specs=tuple(specs)) if specs else None
            cluster = Cluster(2, faults=plan, shards=shards)
            vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
            outs = MpiWorld(cluster).run(
                self._program, vec, rows * 8, until=1.0
            )
            return outs, cluster.env.now, cluster.tracer.canonical()

        _assert_runs_equal(run(1), run(2))


# -- randomized partitions ------------------------------------------------------

def _normalize_map(raw):
    """Remap arbitrary shard labels to contiguous ids 0..k by first use."""
    ids = {}
    return tuple(ids.setdefault(s, len(ids)) for s in raw)


class TestPartitionInvariance:
    @settings(max_examples=6, deadline=None)
    @given(st.data())
    def test_any_partition_preserves_merged_order(self, data):
        nodes = data.draw(st.integers(2, 4), label="nodes")
        raw = data.draw(
            st.lists(st.integers(0, nodes - 1),
                     min_size=nodes, max_size=nodes),
            label="shard_map",
        )
        shard_map = _normalize_map(raw)
        shards = max(shard_map) + 1
        seq = _run_ring(nodes, rows=32)
        if shards == 1:
            shd = _run_ring(nodes, shards=1, rows=32)
        else:
            shd = _run_ring(nodes, shards=shards, shard_map=shard_map,
                            rows=32)
        _assert_runs_equal(seq, shd)

"""Random partitions and fault classes on the sharded engine (hypothesis).

The engine grants every shard one conservative window per coordinator
round, and no choice of partition may change simulated results. This
module drives randomized workloads -- random node partitions, every fault
class of the ``faultmx`` experiment, fat-tree lookahead widening --
through it.

Sequential equality is asserted where it is defined. Unfiltered fault
specs ("drop the first RTS *anywhere*") tally matches with one global
per-spec counter, and each shard runs its own injector -- so which
operation is "first" legitimately depends on the partition. For those,
two sharded runs of the same map must still be bit-identical. Specs with
a ``src`` filter confine matching to one node's deterministic TX order,
which no partition can reorder, so for those (and for fault-free runs)
every partition must agree with the sequential run exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Cluster
from repro.ib.fabric import FatTreeTopology
from repro.ib.faults import FaultPlan, FaultSpec
from repro.mpi import BYTE, Datatype, MpiWorld

#: The eight fault classes of ``repro.bench.experiments.fault_matrix``.
FAULT_CLASSES = [
    ("none", []),
    ("drop-rts", [FaultSpec("ctl", "drop", ctl_type="rts")]),
    ("drop-cts", [FaultSpec("ctl", "drop", ctl_type="cts")]),
    ("drop-fin", [FaultSpec("ctl", "drop", ctl_type="fin")]),
    ("dup-all", [
        FaultSpec("ctl", "duplicate", ctl_type="rts"),
        FaultSpec("ctl", "duplicate", ctl_type="cts"),
        FaultSpec("ctl", "duplicate", ctl_type="fin"),
    ]),
    ("ctl-delay", [FaultSpec("ctl", "delay", ctl_type="cts", delay=400e-6)]),
    ("rdma-stall", [FaultSpec("rdma_write", "stall", delay=500e-6)]),
    ("rdma-fail-x2", [FaultSpec("rdma_write", "fail", count=2)]),
]

_NODES = 8
_ROWS = 1 << 11  # past the eager threshold: the rendezvous path crosses shards


def _ring_program(ctx, vec, payload):
    nxt = (ctx.rank + 1) % ctx.size
    prv = (ctx.rank - 1) % ctx.size
    sbuf = ctx.cuda.malloc(payload)
    rbuf = ctx.cuda.malloc(payload)
    sbuf.view()[:] = (
        np.arange(payload, dtype=np.uint64) * (ctx.rank + 1)
    ) % 251
    rreq = ctx.comm.Irecv(rbuf, 1, vec, source=prv)
    yield from ctx.comm.Send(sbuf, 1, vec, dest=nxt)
    yield from rreq.wait()
    return rbuf.view().copy(), ctx.now


def _run(shard_map, specs, topology=None):
    vec = Datatype.hvector(_ROWS, 4, 8, BYTE).commit()
    plan = FaultPlan(specs=tuple(specs)) if specs else None
    cluster = Cluster(_NODES, shard_map=shard_map, faults=plan,
                      topology=topology)
    outs = MpiWorld(cluster).run(_ring_program, vec, _ROWS * 8, until=1.0)
    return outs, cluster.env.now, cluster.tracer.canonical()


def _fingerprint(run):
    """Reduce a run to primitives so ``==`` means bit-identical.

    Raw ``pickle.dumps`` bytes are NOT a valid fingerprint here: pickle
    memoizes shared sub-objects, so two structurally identical traces
    serialize differently depending on whether equal tuples are one
    shared object (sequential run) or were reconstructed per-object by
    the worker pipe round-trip (sharded run).
    """
    outs, now, trace = run
    return (
        [(buf.tobytes(), float(t)) for buf, t in outs],
        float(now),
        trace,
    )


def _normalized_map(raw):
    """Remap to contiguous shard ids 0..k in order of first appearance."""
    order = {}
    for s in raw:
        order.setdefault(s, len(order))
    return tuple(order[s] for s in raw)


_RANDOM_MAP = st.lists(
    st.sampled_from(range(8)), min_size=_NODES, max_size=_NODES
).filter(lambda m: 2 <= len(set(m)) <= 8)


class TestRandomPartitions:
    @settings(max_examples=5, deadline=None)
    @given(
        raw_map=_RANDOM_MAP,
        fault_idx=st.integers(0, len(FAULT_CLASSES) - 1),
    )
    def test_repeat_runs_bit_identical(self, raw_map, fault_idx):
        shard_map = _normalized_map(raw_map)
        _, specs = FAULT_CLASSES[fault_idx]
        first = _fingerprint(_run(shard_map, specs))
        assert first == _fingerprint(_run(shard_map, specs))
        if not specs:
            assert first == _fingerprint(_run(None, specs))

    @settings(max_examples=4, deadline=None)
    @given(
        raw_map=_RANDOM_MAP,
        fault_idx=st.integers(1, len(FAULT_CLASSES) - 1),
        src=st.integers(0, _NODES - 1),
    )
    def test_link_filtered_faults_match_sequential(
        self, raw_map, fault_idx, src
    ):
        from dataclasses import replace

        shard_map = _normalized_map(raw_map)
        _, specs = FAULT_CLASSES[fault_idx]
        pinned = [replace(s, src=src) for s in specs]
        sequential = _fingerprint(_run(None, pinned))
        assert _fingerprint(_run(shard_map, pinned)) == sequential


class TestFatTreeLookahead:
    def test_aligned_partition_widens_lookahead(self):
        topo = FatTreeTopology(leaf_size=4, inter_latency=3e-6)
        cluster = Cluster(_NODES, shard_map=(0,) * 4 + (1,) * 4,
                          topology=topo)
        assert cluster.fabric.shard_lookahead(cluster.shard_map) == 3e-6

    def test_split_leaf_keeps_base_lookahead(self):
        topo = FatTreeTopology(leaf_size=4, inter_latency=3e-6)
        cluster = Cluster(_NODES, shard_map=(0, 1) * 4, topology=topo)
        assert (
            cluster.fabric.shard_lookahead(cluster.shard_map)
            == cluster.cfg.net_latency
        )

    @pytest.mark.parametrize("shard_map", [
        (0,) * 4 + (1,) * 4,   # aligned: wide (inter-leaf) lookahead
        (0, 0, 1, 1, 2, 2, 3, 3),  # split leaves: base lookahead
    ])
    def test_fat_tree_trace_equality(self, shard_map):
        topo = FatTreeTopology(leaf_size=4, inter_latency=3e-6)
        sequential = _fingerprint(_run(None, [], topology=topo))
        sharded = _fingerprint(_run(shard_map, [], topology=topo))
        assert sharded == sequential

    def test_fat_tree_changes_the_simulation(self):
        # Sanity that the topology is actually live: inter-leaf latency
        # must slow the ring down versus the flat fabric.
        flat_now = _run(None, [])[1]
        tree_now = _run(None, [], FatTreeTopology(4, 3e-6))[1]
        assert tree_now > flat_now

"""Fault injection and the rendezvous recovery layer.

Four guarantees:

* **Convergence** -- under every injected fault class the transfer
  completes (bounded by ``world.run(until=...)``, so a hang fails loudly),
  delivers verified payload bytes, and the matching recovery counters are
  nonzero.
* **Necessity** -- with recovery disarmed (``recovery=False``) a dropped
  grant hangs the rendezvous and a failed RDMA write surfaces as a loud
  :class:`RdmaError`; the retry layer is what converts both into progress.
* **Determinism** -- the same FaultPlan produces the identical fault
  record sequence and final clock on every run.
* **Degradation** -- starved device staging falls back to the host-style
  strided path (counted, traced) and still delivers correct bytes.
* **Deadlines** -- a grant or completion that lands in the same instant
  as its recovery timeout, after the timeout fired, counts as a success.
"""

import numpy as np
import pytest

from repro.core import GpuNcConfig
from repro.core.config import RecoveryConfig
from repro.hw import Cluster
from repro.ib import FaultPlan, FaultSpec, RdmaError
from repro.mpi import BYTE, Datatype, MpiWorld
from repro.mpi.endpoint import StagingPool
from repro.mpi.pack import pack_bytes
from repro.mpi.protocol import acquire_vbuf
from repro.mpi.status import MpiError
from repro.perf.stats import PERF


def _strided_transfer(plan, rows=1 << 12, recovery=None, gpu_config=None,
                      until=1.0, recv_delay=0.0):
    """One rank0 -> rank1 strided GPU rendezvous, received ``recv_delay``
    after it is sent; returns a result dict."""
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    span = rows * 8
    cluster = Cluster(2, faults=plan)
    world = MpiWorld(cluster, gpu_config=gpu_config, recovery=recovery)

    def program(ctx):
        buf = ctx.cuda.malloc(span)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 249
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            buf.view()[:] = 0
            if recv_delay:
                yield ctx.env.timeout(recv_delay)
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
        return buf

    before = PERF.snapshot()
    bufs = world.run(program, until=until)
    after = PERF.snapshot()
    return {
        "cluster": cluster,
        "now": cluster.env.now,
        "verified": bool(np.array_equal(
            pack_bytes(bufs[0], vec, 1), pack_bytes(bufs[1], vec, 1)
        )),
        "delta": {
            k: after.get(k, 0) - before.get(k, 0)
            for k in PERF.FAULT_COUNTERS
        },
    }


FAULT_CASES = [
    pytest.param(
        [FaultSpec("ctl", "drop", ctl_type="rts")],
        {"fault_ctl_drop": 1, "rts_retry": 1},
        id="drop-rts",
    ),
    pytest.param(
        [FaultSpec("ctl", "drop", ctl_type="cts")],
        {"fault_ctl_drop": 1, "cts_resent": 1},
        id="drop-cts",
    ),
    pytest.param(
        [FaultSpec("ctl", "drop", ctl_type="fin")],
        {"fault_ctl_drop": 1, "nack_sent": 1, "fin_resent": 1},
        id="drop-fin",
    ),
    pytest.param(
        [
            FaultSpec("ctl", "duplicate", ctl_type="rts"),
            FaultSpec("ctl", "duplicate", ctl_type="cts"),
            FaultSpec("ctl", "duplicate", ctl_type="fin"),
        ],
        {"fault_ctl_dup": 3, "dup_rts_suppressed": 1,
         "dup_cts_suppressed": 1, "dup_fin_suppressed": 1},
        id="duplicate-all",
    ),
    pytest.param(
        [FaultSpec("ctl", "delay", ctl_type="cts", delay=400e-6)],
        {"fault_ctl_delay": 1},
        id="ctl-delay-spike",
    ),
    pytest.param(
        # Stall past RecoveryConfig.rdma_timeout: the attempt is abandoned
        # (its token cancelled) and the chunk retransmitted.
        [FaultSpec("rdma_write", "stall", delay=500e-6)],
        {"fault_rdma_stall": 1, "rdma_retry": 1},
        id="rdma-stall-beyond-timeout",
    ),
    pytest.param(
        [FaultSpec("rdma_write", "fail", count=2)],
        {"fault_rdma_fail": 2, "rdma_retry": 2},
        id="rdma-fail-twice",
    ),
]


class TestConvergenceUnderFaults:
    @pytest.mark.parametrize("specs,expect", FAULT_CASES)
    def test_fault_class_converges_with_verified_data(self, specs, expect):
        res = _strided_transfer(FaultPlan(specs=tuple(specs)))
        assert res["verified"]
        for counter, minimum in expect.items():
            assert res["delta"][counter] >= minimum, (
                f"{counter}: {res['delta']}"
            )

    def test_fault_free_armed_run_takes_no_recovery_action(self):
        # Recovery armed explicitly, perfect fabric: no counter moves.
        res = _strided_transfer(None, recovery=RecoveryConfig())
        assert res["verified"]
        assert not any(res["delta"].values()), res["delta"]


class TestLateReceiver:
    def test_armed_send_waits_for_a_late_receive(self):
        # The receive is posted long after the sender's last RTS re-post
        # would have given up: the receiver answers the re-posts of an
        # RTS it holds unmatched with ``held``, and the send waits.
        rec = RecoveryConfig()
        delay = 2 * rec.max_attempts * rec.rts_timeout
        res = _strided_transfer(None, recovery=rec, recv_delay=delay)
        assert res["verified"]
        assert res["delta"]["rts_retry"] >= 1
        assert res["now"] > delay


class TestRecoveryIsWhatSavesUs:
    def test_dropped_grant_hangs_without_recovery(self):
        plan = FaultPlan(specs=(FaultSpec("ctl", "drop", ctl_type="cts"),))
        with pytest.raises(MpiError, match="not finished"):
            _strided_transfer(plan, recovery=False, until=0.05)

    def test_rdma_failure_is_loud_without_recovery(self):
        plan = FaultPlan(specs=(FaultSpec("rdma_write", "fail"),))
        with pytest.raises(RdmaError):
            _strided_transfer(plan, recovery=False, until=0.05)


class TestDeterminism:
    def test_same_plan_same_fault_sequence_and_clock(self):
        plan = FaultPlan.random(seed=20110926, nfaults=3)
        runs = []
        for _ in range(2):
            res = _strided_transfer(plan)
            assert res["verified"]
            tracer = res["cluster"].tracer
            runs.append((
                [(f.time, f.kind, f.src, f.dst, f.meta) for f in tracer.faults],
                res["now"],
            ))
        assert runs[0] == runs[1]

    def test_random_plans_reproducible_from_seed(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7) != FaultPlan.random(8)


class TestDegradation:
    def test_starved_tbufs_degrade_to_host_path(self):
        """One device staging chunk + an aggressive staging timeout: later
        pipeline chunks fall off the GPU-offload path onto the strided
        PCIe path, and the payload still verifies."""
        res = _strided_transfer(
            None,
            rows=1 << 15,  # 4 x 64 KiB chunks
            recovery=RecoveryConfig(staging_timeout=1e-6),
            gpu_config=GpuNcConfig(tbuf_chunks=1),
        )
        assert res["verified"]
        assert res["delta"]["degrade_to_host"] >= 1
        kinds = [f.kind for f in res["cluster"].tracer.faults]
        assert "recovery:degrade" in kinds


class TestFaultSpecValidation:
    def test_rdma_ops_reject_post_wire_delay(self):
        # RC ordering: an rdma "delay" would let FIN overtake the data.
        with pytest.raises(ValueError):
            FaultSpec("rdma_write", "delay", delay=1e-6)
        with pytest.raises(ValueError):
            FaultSpec("ctl", "stall", delay=1e-6)

    def test_stall_and_delay_need_positive_delay(self):
        with pytest.raises(ValueError):
            FaultSpec("rdma_write", "stall")
        with pytest.raises(ValueError):
            FaultSpec("ctl", "delay")

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown fault op"):
            FaultSpec("rdma_read", "fail")

    def test_ctl_type_only_filters_control_messages(self):
        # RDMA writes carry no message type, so the filter could never
        # match and the spec would silently never fire.
        with pytest.raises(ValueError, match="ctl_type"):
            FaultSpec("rdma_write", "stall", delay=5e-4, ctl_type="rts")

    @pytest.mark.parametrize("op,action", [
        ("ctl", "drop"), ("ctl", "duplicate"), ("rdma_write", "fail"),
    ])
    def test_delay_rejected_where_it_cannot_act(self, op, action):
        with pytest.raises(ValueError, match="takes no delay"):
            FaultSpec(op, action, delay=1e-3)

    def test_counts_are_one_based_and_positive(self):
        with pytest.raises(ValueError):
            FaultSpec("ctl", "drop", nth=0)
        with pytest.raises(ValueError):
            FaultSpec("ctl", "drop", count=0)

    def test_disabled_plan_installs_no_injector(self):
        plan = FaultPlan(
            specs=(FaultSpec("ctl", "drop"),), enabled=False
        )
        cluster = Cluster(2, faults=plan)
        assert cluster.fabric.injector is None


class TestRecoveryWaitDeadline:
    """The holder releases exactly ``staging_timeout`` after the waiter
    started, so the timeout fires first and the grant lands later in the
    same instant. The grant already holds the item: the wait succeeds."""

    T = RecoveryConfig().staging_timeout

    def _race(self, world, acquire, pool):
        env = world.env
        held = pool.acquire().value
        got = []

        def waiter():
            item = yield from acquire()
            got.append((env.now, item))

        def holder():
            yield env.timeout(self.T)
            pool.release(held)

        env.process(waiter())
        env.process(holder())
        env.run()
        return got

    def test_vbuf_granted_at_the_deadline_is_taken(self):
        world = MpiWorld(Cluster(2), recovery=RecoveryConfig())
        ep = world.endpoints[0]
        pool = StagingPool(world.env, ep.node.malloc_host, 64, 1)
        got = self._race(world, lambda: acquire_vbuf(ep, pool), pool)
        assert got and got[0][0] == self.T
        pool.release(got[0][1])
        assert pool.available == pool.count == 1

    def test_tbuf_granted_at_the_deadline_does_not_degrade(self):
        world = MpiWorld(Cluster(2), recovery=RecoveryConfig(),
                         gpu_config=GpuNcConfig(tbuf_chunks=1))
        ep = world.endpoints[0]
        engine = world.gpu_engine
        res = engine.resources(ep)
        before = PERF.snapshot()
        got = self._race(world, lambda: engine._acquire_tbuf(ep, res),
                         res.tbufs)
        assert PERF.snapshot().get("degrade_to_host", 0) == before.get(
            "degrade_to_host", 0)
        assert got and got[0][0] == self.T and got[0][1] is not None
        res.tbufs.release(got[0][1])
        assert res.tbufs.available == res.tbufs.count == 1

    def test_rdma_completing_at_the_deadline_is_not_retried(self):
        # One 16 KiB chunk on an idle TX engine: the completion lands at
        # exactly rdma_timeout after the post.
        cfg = Cluster(2).cfg
        wire = cfg.net_post_overhead + (1 << 14) / cfg.net_bandwidth
        res = _strided_transfer(None, rows=1 << 12,
                                recovery=RecoveryConfig(rdma_timeout=wire))
        assert res["verified"]
        assert res["delta"]["rdma_retry"] == 0

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
from repro.mpi.protocol import acquire_staging
from repro.mpi.status import MpiError
from repro.perf.stats import PERF
from repro.sim import CallbackOp


def _program(plan, rows=1 << 12, recovery=None, gpu_config=None,
             recv_delay=0.0, space="device", layout="strided"):
    """One rank0 -> rank1 rendezvous of ``rows`` 4-byte rows between two
    buffers in ``space``, strided or contiguous, received ``recv_delay``
    after it is sent; returns the cluster, the world, the program and its
    datatype."""
    if layout == "strided":
        dtype = Datatype.hvector(rows, 4, 8, BYTE).commit()
    else:
        dtype = Datatype.contiguous(rows * 4, BYTE).commit()
    span = rows * 8
    cluster = Cluster(2, faults=plan)
    world = MpiWorld(cluster, gpu_config=gpu_config, recovery=recovery)

    def program(ctx):
        if space == "device":
            buf = ctx.cuda.malloc(span)
        else:
            buf = ctx.node.malloc_host(span)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 249
            yield from ctx.comm.Send(buf, 1, dtype, dest=1)
        else:
            buf.view()[:] = 0
            if recv_delay:
                yield ctx.env.timeout(recv_delay)
            yield from ctx.comm.Recv(buf, 1, dtype, source=0)
        return buf

    return cluster, world, program, dtype


def _strided_transfer(plan, until=1.0, **kwargs):
    """Run :func:`_program`'s transfer; returns a result dict."""
    cluster, world, program, dtype = _program(plan, **kwargs)
    before = PERF.snapshot()
    bufs = world.run(program, until=until)
    after = PERF.snapshot()
    return {
        "cluster": cluster,
        "now": cluster.env.now,
        "verified": bool(np.array_equal(
            pack_bytes(bufs[0], dtype, 1), pack_bytes(bufs[1], dtype, 1)
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

    @pytest.mark.parametrize("layout", ["strided", "contig"])
    def test_armed_host_send_waits_for_a_late_receive(self, layout):
        # A host buffer's send waits for the first CTS before its first
        # chunk (staged, or zero-copy when contiguous): the same ``held``
        # wait, taken by the sender itself.
        rec = RecoveryConfig()
        delay = 2 * rec.max_attempts * rec.rts_timeout
        res = _strided_transfer(None, recovery=rec, recv_delay=delay,
                                space="host", layout=layout)
        assert res["verified"]
        assert res["delta"]["rts_retry"] == 1
        # The receive's first watchdog deadline, queued when the receive
        # started at 6 ms and lost to its completion, still ends the run.
        assert round(res["now"] * 1e6, 3) == 6800.0


class TestRecoveryGivesUp:
    """A fault that never clears exhausts its recovery wait's budget: the
    transfer fails loudly, at a pinned simulated time."""

    def _gives_up(self, specs, space, match):
        cluster, world, program, _ = _program(
            FaultPlan(specs=tuple(specs)), space=space)
        with pytest.raises(MpiError, match=match):
            world.run(program, until=1.0)
        return round(cluster.env.now * 1e6, 3)

    @pytest.mark.parametrize("space", ["device", "host"])
    def test_every_rts_dropped_fails_the_send(self, space):
        spec = FaultSpec("ctl", "drop", ctl_type="rts", count=100)
        assert self._gives_up([spec], space,
                              "no CTS after 6 RTS attempts") == 3006.120

    @pytest.mark.parametrize("space,at", [("device", 873.284),
                                          ("host", 944.232)])
    def test_every_rdma_write_failing_fails_the_send(self, space, at):
        spec = FaultSpec("rdma_write", "fail", count=100)
        assert self._gives_up(
            [spec], space, "no successful completion after 6 attempts") == at

    def test_every_fin_dropped_fails_the_receive(self):
        spec = FaultSpec("ctl", "drop", ctl_type="fin", count=1000)
        assert self._gives_up(
            [spec], "device", "no receiver progress in 9 watchdog periods"
        ) == 8002.520


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


class _Taker(CallbackOp):
    """Notes when, and with which buffer, a pool or a wait hands it one."""

    __slots__ = ("env", "got")

    def __init__(self, env):
        self.env = env
        self.got = None
        self._step = _Taker._took

    def _took(self):
        self.got = (self.env.now, self.item)


def _held_pool_wait(world, pool, release_at, degrade=False):
    """Hold ``pool``'s one buffer, start rank 0's armed wait for one at
    time 0 (``degrade``: a tbuf's) and release the held buffer at
    ``release_at`` (None: never). Returns the waiter's ``(time, buffer)``
    once it has one, else None."""
    env = world.env
    ep = world.endpoints[0]
    holder = _Taker(env)
    pool.request(holder)
    held = holder.item
    waiter = _Taker(env)
    acquire_staging(ep, pool, waiter, _Taker._took, ep.recovery, degrade)

    def releaser():
        yield env.timeout(release_at)
        pool.release(held)

    if release_at is not None:
        env.process(releaser())
    env.run()
    return waiter.got


class TestVbufWaitBudget:
    """An armed vbuf wait retries with growing deadlines and backoff, and
    gives up after ``max_attempts`` waits."""

    def _pool(self):
        world = MpiWorld(Cluster(2), recovery=RecoveryConfig())
        node = world.endpoints[0].node
        return world, StagingPool(world.env, node.malloc_host, 64, 1)

    @pytest.mark.parametrize("release,waits", [(300e-6, 1), (1000e-6, 2)])
    def test_held_vbuf_is_taken_when_released(self, release, waits):
        world, pool = self._pool()
        before = PERF.snapshot().get("vbuf_wait_timeout", 0)
        at, buf = _held_pool_wait(world, pool, release)
        assert at == release and buf is not None
        assert PERF.snapshot()["vbuf_wait_timeout"] - before == waits

    def test_vbuf_never_released_fails_the_wait(self):
        world, pool = self._pool()
        before = PERF.snapshot().get("vbuf_wait_timeout", 0)
        with pytest.raises(MpiError, match="vbuf pool starved for 6 waits"):
            _held_pool_wait(world, pool, None)
        assert round(world.env.now * 1e6, 3) == 4975.0
        assert PERF.snapshot()["vbuf_wait_timeout"] - before == 6


class TestRecoveryWaitDeadline:
    """The holder releases exactly ``staging_timeout`` after the waiter
    started, so the timeout fires first and the grant lands later in the
    same instant. The grant already holds the item: the wait succeeds."""

    T = RecoveryConfig().staging_timeout

    def test_vbuf_granted_at_the_deadline_is_taken(self):
        world = MpiWorld(Cluster(2), recovery=RecoveryConfig())
        ep = world.endpoints[0]
        pool = StagingPool(world.env, ep.node.malloc_host, 64, 1)
        got = _held_pool_wait(world, pool, self.T)
        assert got and got[0] == self.T
        pool.release(got[1])
        assert pool.available == pool.count == 1

    def test_tbuf_granted_at_the_deadline_does_not_degrade(self):
        world = MpiWorld(Cluster(2), recovery=RecoveryConfig(),
                         gpu_config=GpuNcConfig(tbuf_chunks=1))
        ep = world.endpoints[0]
        engine = world.gpu_engine
        res = engine.resources(ep)
        before = PERF.snapshot()
        got = _held_pool_wait(world, res.tbufs, self.T, degrade=True)
        assert PERF.snapshot().get("degrade_to_host", 0) == before.get(
            "degrade_to_host", 0)
        assert got and got[0] == self.T and got[1] is not None
        res.tbufs.release(got[1])
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

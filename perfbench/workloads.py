"""The benchmark's three workloads.

Each workload makes its inputs from a seed, builds a simulated world on a
cluster sized to the workload, and runs operations in batches. Rank 0's
program times every operation with ``perf_counter_ns`` and records its
simulated duration; each operation's output is checked outside its timed
span. A workload also knows its same-run naive baseline and how to
cross-check its simulated result against the paper harness.

One operation is one ping-pong round trip (``pingpong-4m``), one
``Alltoallv`` call (``alltoallv-mixed``) or one stencil iteration
(``stencil2d-4x4``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, fields
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps import StencilConfig, reference_stencil, run_stencil
from repro.apps.stencil2d import FLOPS_PER_POINT, _initial_global, exchange_mv2nc
from repro.baselines import naive_vector_latency
from repro.bench.vector_latency import mv2_gpu_nc_latency
from repro.hw import Cluster, HardwareConfig, KiB, MiB
from repro.mpi import BYTE, FLOAT, Datatype, MpiWorld
from repro.mpi.pack import strided_rows_equal
from repro.perf.stats import PERF
from repro.sim import Tracer
from repro.tune import TuningEntry, TuningTable, coll_context, size_bucket
from repro.tune.table import cluster_config_hash

__all__ = ["Batch", "Workload", "WORKLOADS", "sized_config"]

#: The only two ``HardwareConfig`` fields a workload may override. They
#: size the simulated memories (read by ``Node`` and ``GPUDevice`` only),
#: so no timing constant moves.
SIZED_FIELDS = ("device_memory_bytes", "host_memory_bytes")

#: Relative tolerance of the paper-harness cross-checks: the harness and
#: the benchmark time the same operation at different absolute simulated
#: clocks, which moves the last bits of a float difference.
CROSS_CHECK_RTOL = 1e-9


def sized_config(host_bytes: int, device_bytes: int) -> HardwareConfig:
    """``fermi_qdr()`` with smaller simulated memories, nothing else."""
    paper = HardwareConfig.fermi_qdr()
    cfg = paper.with_overrides(host_memory_bytes=host_bytes,
                               device_memory_bytes=device_bytes)
    changed = sorted(
        f.name for f in fields(cfg)
        if getattr(cfg, f.name) != getattr(paper, f.name)
    )
    if changed != sorted(SIZED_FIELDS):
        raise RuntimeError(
            f"sized config changed {changed}, expected only {SIZED_FIELDS}"
        )
    return cfg


@dataclass
class Batch:
    """The operations of one batch, in order."""

    wall_ns: List[int] = field(default_factory=list)
    sim_s: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    #: Wall-clock spent checking outputs inside the batch.
    check_ns: int = 0
    #: Tracers of the worlds the batch ran (read by the traced run).
    tracers: List[Tracer] = field(default_factory=list)
    #: Per-rank simulated iteration times (stencil workloads).
    iteration_times: Optional[list] = None


class Workload:
    """One set of inputs and the operations run on them."""

    name = ""
    why = ""
    #: Operations per batch.
    batch_ops = 1
    #: The first ``sim_ops`` operations of a window give the simulated
    #: metrics, so they do not depend on how fast the host runs.
    sim_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Span recorder of the traced run, or None.
        self.recorder = None
        #: ``(PERF deltas, ops)`` of a sharded batch run by
        #: :meth:`side_checks` (the sim.shard layer), or None.
        self.shard_counters = None

    def build(self, traced: bool):
        """World, committed types and one warm-up operation."""
        raise NotImplementedError

    def run_batch(self, state, first: int, n: int) -> Batch:
        raise NotImplementedError

    def verify_batches(self, batches: List[Batch]) -> List[str]:
        """Checks made after the window; returns failure messages."""
        return []

    def baseline_sim(self) -> float:
        """Median simulated seconds per operation of the naive baseline."""
        raise NotImplementedError

    def cross_check(self, sim_p50: float) -> List[str]:
        """Compare the simulated median with the paper harness."""
        return []

    def side_checks(self) -> Tuple[int, List[str]]:
        """Extra checks run once per run: ``(count, failure messages)``."""
        return 0, []

    def checked(self, check, *args) -> bool:
        """Run an output check; in the traced run it is a span of its own,
        so the simulator's layers are not charged for it."""
        if self.recorder is not None:
            check = self.recorder.wrap("bench.check", check)
        return check(*args)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CROSS_CHECK_RTOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# pingpong-4m
# ---------------------------------------------------------------------------

class PingPong(Workload):
    """Figure 5's headline point: a 4 MiB fine-grained vector, GPU to GPU."""

    name = "pingpong-4m"
    why = ("the paper's Fig. 5 point: gather/scatter and 64-chunk "
           "pipelining do the work; commit, plan, tuning and collectives "
           "are bypassed")
    batch_ops = 10
    sim_ops = 10
    MESSAGE = 4 * MiB
    ELEM = 4
    PITCH = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfg = sized_config(host_bytes=64 * MiB, device_bytes=64 * MiB)
        self.rows = self.MESSAGE // self.ELEM
        self.span = self.rows * self.PITCH
        # Consecutive operations send different patterns, so a check can
        # never pass on what the previous operation delivered.
        rng = np.random.default_rng(seed)
        self.patterns = [rng.integers(0, 256, self.span, dtype=np.uint8)
                         for _ in range(2)]

    def build(self, traced: bool):
        world = MpiWorld(Cluster(2, cfg=self.cfg, tracer=Tracer(enabled=traced)))
        c0, c1 = world.contexts
        state = SimpleNamespace(
            world=world,
            vec=Datatype.hvector(self.rows, self.ELEM, self.PITCH, BYTE).commit(),
            srcs=[c0.cuda.malloc(self.span) for _ in self.patterns],
            dst=c1.cuda.malloc(self.span),
            ack0=c0.node.malloc_host(1), ack1=c1.node.malloc_host(1),
        )
        for src, pattern in zip(state.srcs, self.patterns):
            src.fill_from(pattern)
        self.run_batch(state, -1, 1)
        return state

    def run_batch(self, state, first: int, n: int) -> Batch:
        batch = Batch(tracers=[state.world.tracer])

        def program(ctx):
            comm = ctx.comm
            if ctx.rank == 1:
                for _ in range(n):
                    yield from comm.Recv(state.dst, 1, state.vec, source=0, tag=1)
                    yield from comm.Send(state.ack1, 1, BYTE, dest=0, tag=2)
                return
            for k in range(first, first + n):
                t0 = perf_counter_ns()
                s0 = ctx.now
                yield from comm.Send(state.srcs[k % 2], 1, state.vec, dest=1, tag=1)
                yield from comm.Recv(state.ack0, 1, BYTE, source=1, tag=2)
                batch.sim_s.append(ctx.now - s0)
                t1 = perf_counter_ns()
                batch.wall_ns.append(t1 - t0)
                # Rank 1 is idle until the next send: check what it received.
                batch.ok.append(self.checked(
                    strided_rows_equal, state.dst, self.patterns[k % 2],
                    self.ELEM, self.PITCH, self.rows))
                batch.check_ns += perf_counter_ns() - t1

        state.world.run(program)
        return batch

    def baseline_sim(self) -> float:
        return naive_vector_latency(self.MESSAGE, self.ELEM, cfg=self.cfg)

    def cross_check(self, sim_p50: float) -> List[str]:
        harness = mv2_gpu_nc_latency(self.MESSAGE, self.ELEM, cfg=self.cfg)
        if _close(sim_p50, harness):
            return []
        return [f"pingpong sim median {sim_p50!r} s differs from "
                f"mv2_gpu_nc_latency {harness!r} s"]


# ---------------------------------------------------------------------------
# alltoallv-mixed
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Layout:
    """One side of one peer block: where its bytes sit in the buffer."""

    kind: str          # "subarray" or "hindexed"
    displ: int         # byte displacement passed to Alltoallv
    nr: int = 0        # subarray: the block is nr x nr floats ...
    col: int = 0       # ... in column block ``col`` of an nr x 4nr array
    offsets: Tuple[int, ...] = ()   # hindexed: byte offsets
    lengths: Tuple[int, ...] = ()   # hindexed: byte lengths

    def datatype(self) -> Datatype:
        if self.kind == "subarray":
            nr = self.nr
            return Datatype.subarray(
                [nr, 4 * nr], [nr, nr], [0, self.col * nr], FLOAT).commit()
        return Datatype.hindexed(
            [n // 4 for n in self.lengths], list(self.offsets), FLOAT).commit()

    def pieces(self, raw: np.ndarray) -> List[np.ndarray]:
        """Views of this layout's bytes of ``raw``, in pack order."""
        if self.kind == "subarray":
            nr = self.nr
            rows = raw[self.displ: self.displ + nr * 16 * nr].reshape(nr, 16 * nr)
            return [rows[:, self.col * 4 * nr: (self.col + 1) * 4 * nr]]
        return [raw[o: o + n] for o, n in zip(self.offsets, self.lengths)]

    def gather(self, raw: np.ndarray) -> np.ndarray:
        """This layout's bytes of ``raw`` in pack order (the reference)."""
        return np.concatenate([p.ravel() for p in self.pieces(raw)])


@dataclass(frozen=True)
class CollOp:
    """One Alltoallv call: per-(rank, peer) send and receive layouts."""

    block: int
    send: Dict[Tuple[int, int], Layout]
    recv: Dict[Tuple[int, int], Layout]


class AlltoallvMixed(Workload):
    """Many small heterogeneous flows through the same pipeline."""

    name = "alltoallv-mixed"
    why = ("many small mixed flows: commit, plan cache, tuning and "
           "collectives do the work, where a pingpong-4m gain could cost")
    NPROCS = 4
    #: Per-peer block sizes of one round of calls. Most calls are 64 KiB,
    #: so the median and the p90 of the wall-clock fall inside one size
    #: class each (64 KiB and 256 KiB) instead of between two.
    SIZES = (4 * KiB, 64 * KiB, 64 * KiB, 64 * KiB, 256 * KiB)
    #: Rounds in one cycle, each call with its own seeded layouts.
    VARIANTS = 2
    #: Segments of every irregular block (one tuning signature class).
    NSEG = 64
    #: Peer distances ``(dst - src) % NPROCS`` whose blocks are irregular.
    IRREGULAR_DISTANCES = (1, 2)
    batch_ops = 10
    sim_ops = 10

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfg = sized_config(host_bytes=64 * MiB, device_bytes=64 * MiB)
        rng = np.random.default_rng(seed)
        # Sizes interleave in a fixed order, so every call follows a call
        # of the same size wherever the seed puts its layouts.
        self.cycle = [
            self._make_op(rng, block)
            for _ in range(self.VARIANTS) for block in self.SIZES
        ]
        self.buf_bytes = self._region(max(self.SIZES)) * (self.NPROCS + 1)
        self.send_data = [
            rng.integers(0, 256, self.buf_bytes, dtype=np.uint8)
            for _ in range(self.NPROCS)
        ]
        self.table = self._tuning_table()

    @staticmethod
    def _region(block: int) -> int:
        """Bytes of buffer one peer's block may spread over."""
        return 4 * block

    def _hindexed(self, rng, block: int, region: int, start: int) -> Layout:
        """NSEG runs of random length with gaps of at least one float."""
        elems, span = block // 4, region // 4
        lengths = 1 + rng.multinomial(elems - self.NSEG, [1 / self.NSEG] * self.NSEG)
        gaps = rng.multinomial(span - elems - (self.NSEG - 1),
                               [1 / (self.NSEG + 1)] * (self.NSEG + 1))
        gaps[1:-1] += 1
        offsets = start // 4 + gaps[0] + np.concatenate(
            ([0], np.cumsum(lengths[:-1] + gaps[1:-1])))
        return Layout("hindexed", 0, offsets=tuple(int(o) * 4 for o in offsets),
                      lengths=tuple(int(n) * 4 for n in lengths))

    def _make_op(self, rng, block: int) -> CollOp:
        """Half the blocks irregular: every rank sends seeded scatters to
        the next two ranks and column blocks to itself and the last."""
        nr = int(round((block // 4) ** 0.5))
        region = self._region(block)
        sub_displ = self.NPROCS * region
        send, recv = {}, {}
        for src in range(self.NPROCS):
            for dst in range(self.NPROCS):
                if (dst - src) % self.NPROCS in self.IRREGULAR_DISTANCES:
                    send[(src, dst)] = self._hindexed(rng, block, region, dst * region)
                    recv[(dst, src)] = self._hindexed(rng, block, region, src * region)
                else:
                    send[(src, dst)] = Layout("subarray", sub_displ, nr=nr, col=dst)
                    recv[(dst, src)] = Layout("subarray", sub_displ, nr=nr, col=src)
        return CollOp(block, send, recv)

    def _tuning_table(self) -> TuningTable:
        """Collective-context entries: nic for column blocks, gpu for
        irregular scatters (the 256 KiB irregular bucket resolves to the
        nearest 64 KiB entry)."""
        table = TuningTable(cluster_config_hash(self.cfg), source="perfbench")
        ctx = coll_context(self.NPROCS)

        def entry(backend):
            return TuningEntry(chunk_bytes=64 * KiB, pipeline_threshold=64 * KiB,
                               tbuf_chunks=64, use_plans=True, backend=backend)

        for op in self.cycle:
            for lay in op.send.values():
                if op.block < 64 * KiB:
                    continue  # eager: never consults the table
                if lay.kind == "subarray":
                    sig = lay.datatype().layout_signature(1)
                    table.set(sig, size_bucket(op.block), entry("nic"), ctx=ctx)
                elif op.block == 64 * KiB:
                    sig = lay.datatype().layout_signature(1)
                    table.set(sig, size_bucket(op.block), entry("gpu"), ctx=ctx)
        return table

    def _world(self, traced: bool):
        cluster = Cluster(self.NPROCS, cfg=self.cfg, tracer=Tracer(enabled=traced))
        world = MpiWorld(cluster, tuning=self.table)
        sbuf, rbuf = [], []
        for ctx in world.contexts:
            sbuf.append(ctx.cuda.malloc(self.buf_bytes))
            rbuf.append(ctx.cuda.malloc(self.buf_bytes))
            sbuf[-1].fill_from(self.send_data[ctx.rank])
        return SimpleNamespace(world=world, sbuf=sbuf, rbuf=rbuf)

    def build(self, traced: bool):
        state = self._world(traced)
        self.run_batch(state, 0, 1)
        return state

    def _check(self, state, op: CollOp) -> bool:
        """Compare every received block with the sender's bytes, then clear
        it so the next call's check cannot pass on stale data."""
        ok = True
        for (src, dst), lay in op.send.items():
            recv, raw = op.recv[(dst, src)], state.rbuf[dst].view()
            ok = ok and np.array_equal(recv.gather(raw),
                                       lay.gather(state.sbuf[src].view()))
            for piece in recv.pieces(raw):
                piece[...] = 0
        return ok

    def run_batch(self, state, first: int, n: int) -> Batch:
        batch = Batch(tracers=[state.world.tracer])
        size = self.NPROCS
        ones = [1] * size
        sims = [0.0] * size

        def program(ctx):
            rank, comm = ctx.rank, ctx.comm
            for k in range(first, first + n):
                op = self.cycle[k % len(self.cycle)]
                yield from comm.Barrier()
                t0 = perf_counter_ns()
                s0 = ctx.now
                send = [op.send[(rank, p)] for p in range(size)]
                recv = [op.recv[(rank, p)] for p in range(size)]
                yield from comm.Alltoallv(
                    state.sbuf[rank], ones, [lay.displ for lay in send],
                    [lay.datatype() for lay in send],
                    state.rbuf[rank], ones, [lay.displ for lay in recv],
                    [lay.datatype() for lay in recv],
                )
                sims[rank] = ctx.now - s0
                yield from comm.Barrier()
                if rank == 0:
                    t1 = perf_counter_ns()
                    batch.wall_ns.append(t1 - t0)
                    batch.sim_s.append(max(sims))
                    # Every rank now waits in the next barrier.
                    batch.ok.append(self.checked(self._check, state, op))
                    batch.check_ns += perf_counter_ns() - t1

        state.world.run(program)
        return batch

    def baseline_sim(self) -> float:
        """Pre-datatype workflow: column blocks packed with blocking
        ``cudaMemcpy2D`` and sent as bytes (``bench.experiments``'
        ``_coll_program``); irregular blocks copied to a host mirror and
        sent with the host datatype, so MPI packs them on the CPU."""
        state = self._world(traced=False)
        size = self.NPROCS
        sims = [0.0] * size
        per_op: List[float] = []

        def program(ctx):
            rank, comm, cuda = ctx.rank, ctx.comm, ctx.cuda
            host_send = ctx.node.malloc_host(self.buf_bytes)
            host_recv = ctx.node.malloc_host(self.buf_bytes)
            blk = max(self.SIZES)
            stage_out = [ctx.node.malloc_host(blk) for _ in range(size)]
            stage_in = [ctx.node.malloc_host(blk) for _ in range(size)]
            dsend, drecv = state.sbuf[rank], state.rbuf[rank]
            for k in range(self.sim_ops):
                op = self.cycle[k % len(self.cycle)]
                region = self._region(op.block)
                yield from comm.Barrier()
                s0 = ctx.now
                rreqs = []
                for src in range(size):
                    lay = op.recv[(rank, src)]
                    if lay.kind == "subarray":
                        rreqs.append(comm.Irecv(stage_in[src].sub(0, op.block),
                                                op.block, BYTE, source=src, tag=700))
                    else:
                        rreqs.append(comm.Irecv(host_recv, 1, lay.datatype(),
                                                source=src, tag=700))
                for dst in range(size):
                    lay = op.send[(rank, dst)]
                    if lay.kind == "subarray":
                        w, pitch = 4 * lay.nr, 16 * lay.nr
                        out = stage_out[dst].sub(0, op.block)
                        yield from cuda.memcpy2d(
                            out, w, dsend.sub(lay.displ + lay.col * w), pitch,
                            w, lay.nr)
                        yield from comm.Send(out, op.block, BYTE, dest=dst, tag=700)
                    else:
                        yield from cuda.memcpy(host_send.sub(dst * region, region),
                                               dsend.sub(dst * region, region))
                        yield from comm.Send(host_send, 1, lay.datatype(),
                                             dest=dst, tag=700)
                for src in range(size):
                    yield from rreqs[src].wait()
                    lay = op.recv[(rank, src)]
                    if lay.kind == "subarray":
                        w, pitch = 4 * lay.nr, 16 * lay.nr
                        yield from cuda.memcpy2d(
                            drecv.sub(lay.displ + lay.col * w), pitch,
                            stage_in[src].sub(0, op.block), w, w, lay.nr)
                    else:
                        yield from cuda.memcpy(drecv.sub(src * region, region),
                                               host_recv.sub(src * region, region))
                sims[rank] = ctx.now - s0
                yield from comm.Barrier()
                if rank == 0:
                    per_op.append(max(sims))

        state.world.run(program)
        return statistics.median(per_op)


# ---------------------------------------------------------------------------
# stencil2d-4x4
# ---------------------------------------------------------------------------

class Stencil(Workload):
    """16-rank Stencil2D-MV2-GPU-NC, timing only (no payload bytes move).

    The same inputs at ``shards=2`` are not a workload of their own: the
    two shard workers run in lockstep, so on a two-core host the
    wall-clock of such a run moved by a quarter between runs. One sharded
    batch runs as a check instead.
    """

    name = "stencil2d-4x4"
    why = ("no payload bytes move: sim-kernel dispatch and protocol "
           "processes are nearly all the wall, pack work is bypassed; one "
           "sharded batch checks shard invariance and feeds sim.shard")
    batch_ops = 25
    sim_ops = 25
    GRID = (4, 4)
    LOCAL = (64, 4096)
    #: Worker processes of the sharded check (the host's two cores).
    SHARDS = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.cfg = sized_config(host_bytes=64 * MiB, device_bytes=64 * MiB)
        self.config = StencilConfig(*self.GRID, *self.LOCAL,
                                    iterations=self.batch_ops,
                                    functional=False, seed=seed)

    def program(self, ctx, n: int):
        """Stencil2D-MV2-GPU-NC iterations (the app's ``mv2nc`` variant),
        with rank 0 timing each iteration."""
        cfg = self.config
        lr, lc = cfg.local_rows, cfg.local_cols
        pitch = lc + 2
        row_t = Datatype.contiguous(lc, FLOAT).commit()
        col_t = Datatype.vector(lr + 2, 1, pitch, FLOAT).commit()
        dir_types = {"north": row_t, "south": row_t, "west": col_t, "east": col_t}
        offsets = {
            "north": (pitch + 1, 1),
            "south": (lr * pitch + 1, (lr + 1) * pitch + 1),
            "west": (1, 0),
            "east": (lc, lc + 1),
        }
        nbrs = cfg.neighbors(ctx.rank)
        dbuf = ctx.cuda.malloc((lr + 2) * pitch * 4)
        breakdown = {d: {"cuda": 0.0, "mpi": 0.0} for d in offsets}
        flops = lr * lc * FLOPS_PER_POINT
        yield from ctx.comm.Barrier()
        times, walls = [], []
        for it in range(n):
            t0 = perf_counter_ns()
            s0 = ctx.now
            yield from exchange_mv2nc(ctx, cfg, dbuf, nbrs, dir_types, offsets,
                                      it, breakdown)
            ctx.cuda.launch_kernel(flops, label=f"stencil[{it}]")
            yield from ctx.cuda.device_synchronize()
            times.append(ctx.now - s0)
            walls.append(perf_counter_ns() - t0)
        return times, walls

    def _run(self, n: int, traced: bool, shards: int = 1) -> Batch:
        """One batch on a fresh world (a sharded world cannot be rerun)."""
        cluster = Cluster(self.config.nprocs, cfg=self.cfg, functional=False,
                          tracer=Tracer(enabled=traced), shards=shards)
        world = MpiWorld(cluster, nprocs=self.config.nprocs)
        outs = world.run(self.program, n)
        times = [t for t, _ in outs]
        return Batch(
            wall_ns=outs[0][1],
            sim_s=[max(col) for col in zip(*times)],
            tracers=[world.tracer],
            iteration_times=times,
        )

    def build(self, traced: bool):
        self._run(1, traced)
        return SimpleNamespace(traced=traced)

    def run_batch(self, state, first: int, n: int) -> Batch:
        return self._run(n, state.traced)

    def verify_batches(self, batches: List[Batch]) -> List[str]:
        """Every batch must reproduce the app's own sequential run exactly."""
        ref = run_stencil(self.config, hw=self.cfg).iteration_times
        failures = []
        for b, batch in enumerate(batches):
            same = batch.iteration_times == ref
            batch.ok = [same] * len(batch.sim_s)
            if not same:
                failures.append(f"batch {b}: iteration times differ from the "
                                "sequential run_stencil reference")
        return failures

    def baseline_sim(self) -> float:
        """Stencil2D-Def (Table II) on the same config."""
        cfg = StencilConfig(*self.GRID, *self.LOCAL, iterations=self.batch_ops,
                            variant="def", functional=False)
        return run_stencil(cfg, hw=self.cfg).median_iteration_time

    def cross_check(self, sim_p50: float) -> List[str]:
        harness = run_stencil(self.config, hw=self.cfg).median_iteration_time
        if sim_p50 == harness:
            return []
        return [f"stencil sim median {sim_p50!r} s differs from "
                f"run_stencil {harness!r} s"]

    def side_checks(self) -> Tuple[int, List[str]]:
        """A reduced functional run against the single-process reference,
        and one batch on the sharded engine, which must reproduce the
        sequential iteration times exactly."""
        failures = []
        cfg = StencilConfig(*self.GRID, 16, 32, iterations=2, functional=True,
                            seed=self.seed)
        res = run_stencil(cfg, hw=self.cfg)
        want = reference_stencil(_initial_global(cfg), cfg.iterations)
        lr, lc = cfg.local_rows, cfg.local_cols
        for rank, got in enumerate(res.interiors):
            pr, pc = cfg.position(rank)
            if not np.allclose(got, want[pr * lr:(pr + 1) * lr,
                                         pc * lc:(pc + 1) * lc],
                               rtol=1e-5, atol=1e-6):
                failures.append(f"functional stencil rank {rank} differs "
                                "from reference_stencil")
                break
        before = PERF.snapshot()
        sharded = self._run(self.batch_ops, traced=False, shards=self.SHARDS)
        self.shard_counters = (
            {k: v - before.get(k, 0) for k, v in PERF.snapshot().items()},
            self.batch_ops,
        )
        failures += [f"sharded {msg}" for msg in self.verify_batches([sharded])]
        return 2, failures


WORKLOADS = {cls.name: cls for cls in (PingPong, AlltoallvMixed, Stencil)}

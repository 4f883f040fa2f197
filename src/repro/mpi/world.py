"""World construction and rank-program launching.

:class:`MpiWorld` glues everything together: it places ranks on nodes,
builds a CUDA context and an endpoint per rank, installs the protocol
handlers and the GPU-aware transfer engine, and runs rank programs to
completion.

A *rank program* is a generator function receiving a :class:`RankContext`::

    def program(ctx):
        buf = ctx.cuda.malloc(1024)
        yield from ctx.comm.Send(buf, 256, FLOAT, dest=1)
        return "done"

    world = MpiWorld(Cluster(2))
    results = world.run(program)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..cuda.runtime import CudaContext
from ..hw.cluster import Cluster
from ..hw.config import HardwareConfig
from ..hw.node import Node
from ..sim import Environment, Tracer
from .comm import Comm
from .endpoint import Endpoint
from .protocol import install_protocol
from .status import MpiError

__all__ = ["MpiWorld", "RankContext", "run_world"]


@dataclass
class RankContext:
    """Everything a rank program sees."""

    rank: int
    size: int
    comm: Comm
    cuda: CudaContext
    endpoint: Endpoint
    node: Node
    env: Environment
    cfg: HardwareConfig
    tracer: Tracer
    world: "MpiWorld"

    @property
    def now(self) -> float:
        return self.env.now


class MpiWorld:
    """An MPI world of ``nprocs`` ranks over a simulated cluster."""

    def __init__(
        self,
        cluster: Cluster,
        nprocs: Optional[int] = None,
        gpu_config=None,
        vbuf_bytes: Optional[int] = None,
        vbuf_count: int = 256,
        recovery=None,
        tuning=None,
    ):
        self.cluster = cluster
        self.size = nprocs if nprocs is not None else cluster.num_nodes
        if self.size < 1:
            raise MpiError("world needs at least one rank")
        self.env = cluster.env
        self.cfg = cluster.cfg
        self.tracer = cluster.tracer
        #: Constructor arguments as given (defaults unresolved), so a shard
        #: worker can rebuild an identical world over its own cluster.
        self._build_spec = {
            "nprocs": nprocs,
            "gpu_config": gpu_config,
            "vbuf_bytes": vbuf_bytes,
            "vbuf_count": vbuf_count,
            "recovery": recovery,
            "tuning": tuning,
        }
        if gpu_config is None:
            from ..core.config import GpuNcConfig

            gpu_config = GpuNcConfig()
        self.gpu_config = gpu_config

        # Tuning table resolution: a TuningTable is used as given; ``True``
        # or a path loads the persisted table (validated against this
        # cluster's config hash); ``None`` or ``False`` runs untuned,
        # bit-identical to the code before tuning existed.
        self.tuning = self._resolve_tuning(tuning)

        if vbuf_bytes is None:
            vbuf_bytes = gpu_config.chunk_bytes
            if self.tuning is not None:
                # Host staging must fit the largest tuned chunk, or the
                # receiver would reject the sender's tuned preference.
                vbuf_bytes = self.tuning.max_chunk_bytes(floor=vbuf_bytes)

        # Recovery policy: ``None`` auto-arms a default RecoveryConfig iff
        # the cluster injects faults (a fabric under fault injection without
        # retry would just hang); ``False`` forces it off even then (used by
        # tests demonstrating the hang); an explicit RecoveryConfig arms the
        # retry layer on a clean fabric (schedule-neutral when no fault
        # fires -- proven by the trace-equality tests).
        if recovery is None and getattr(cluster.fabric, "injector", None) is not None:
            from ..core.config import RecoveryConfig

            recovery = RecoveryConfig()
        self.recovery = recovery if recovery not in (None, False) else None

        self.endpoints: List[Endpoint] = []
        self.contexts: List[RankContext] = []
        rank_to_node = {}
        for rank in range(self.size):
            node = cluster.nodes[rank % cluster.num_nodes]
            gpu = node.gpus[(rank // cluster.num_nodes) % len(node.gpus)]
            cuda = CudaContext(
                self.env, self.cfg, node, gpu=gpu, tracer=self.tracer,
                name=f"cuda:rank{rank}",
            )
            ep = Endpoint(
                rank, node, cuda, self.cfg, self.tracer,
                vbuf_bytes=vbuf_bytes, vbuf_count=vbuf_count,
            )
            ep.recovery = self.recovery
            ep.tuning = self.tuning
            # Every rank the world builds gets the same vbuf geometry, so
            # each endpoint knows its peers' pool size: tuned chunk
            # preferences are clamped against *both* ends of a transfer.
            ep.peer_vbuf_bytes = vbuf_bytes
            install_protocol(ep)
            self.endpoints.append(ep)
            rank_to_node[rank] = node.node_id
        for ep in self.endpoints:
            ep.rank_to_node = rank_to_node

        from ..core.pipeline import GpuNcEngine

        self.gpu_engine = GpuNcEngine(self, gpu_config)
        for ep in self.endpoints:
            ep.gpu_engine = self.gpu_engine

        self.contexts = [
            RankContext(
                rank=ep.rank,
                size=self.size,
                comm=Comm(self, ep, comm_id=0),
                cuda=ep.cuda,
                endpoint=ep,
                node=ep.node,
                env=self.env,
                cfg=self.cfg,
                tracer=self.tracer,
                world=self,
            )
            for ep in self.endpoints
        ]

    def _resolve_tuning(self, tuning):
        """Normalize the ``tuning`` argument to a TuningTable or None."""
        if tuning is None or tuning is False:
            return None
        from ..tune.table import TuningTable, cluster_config_hash, table_path

        if isinstance(tuning, TuningTable):
            return tuning
        expect = cluster_config_hash(self.cfg)
        if tuning is True:
            return TuningTable.load(table_path(expect), expect_cluster=expect)
        return TuningTable.load(tuning, expect_cluster=expect)

    def context(self, rank: int) -> RankContext:
        return self.contexts[rank]

    def run(
        self,
        program: Callable[..., Any],
        *args,
        until: Optional[float] = None,
    ) -> List[Any]:
        """Run ``program(ctx, *args)`` on every rank; return per-rank results.

        The simulation runs until every rank program finishes (or ``until``
        simulated seconds elapse, which raises if programs are unfinished --
        that means deadlock).

        A cluster built with ``shards > 1`` runs the same program on the
        sharded engine instead: node-partitioned worker processes under
        conservative wire-latency synchronization, with results, traces and
        the final clock merged back here (bit-identical to the sequential
        run -- see :mod:`repro.sim.shard`).
        """
        if getattr(self.cluster, "shards", 1) > 1:
            from ..sim.shard import run_sharded_world

            return run_sharded_world(self, program, args, until=until)
        procs = [
            self.env.process(program(ctx, *args), name=f"rank{ctx.rank}")
            for ctx in self.contexts
        ]
        done = self.env.all_of(procs, label="world-finished")
        if until is None:
            self.env.run(done)
        else:
            self.env.run(until=until)
            if not done.processed:
                raise MpiError(
                    f"rank programs not finished after {until} simulated "
                    "seconds (deadlock?)"
                )
        return [p.value for p in procs]


def run_world(
    program: Callable[..., Any],
    nprocs: int,
    cfg: Optional[HardwareConfig] = None,
    *args,
    **world_kwargs,
) -> List[Any]:
    """One-call convenience: build a cluster+world, run, return results."""
    cluster = Cluster(nprocs, cfg=cfg)
    world = MpiWorld(cluster, nprocs=nprocs, **world_kwargs)
    return world.run(program, *args)

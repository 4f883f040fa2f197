"""Golden trace digests: committed fingerprints of the simulator's behaviour.

Each entry of ``digests.json`` is a blake2b hash over everything a run
observably did:

* every :class:`~repro.sim.trace.Interval` in recorded order -- start and
  end as ``float.hex()``, engine, label and meta;
* every :class:`~repro.sim.trace.FaultRecord`;
* the final simulated clock;
* the payload bytes of every live allocation in every host and device
  arena once the run is over (receive buffers, staging pools).

Sequential worlds get their tracer switched on before they run, so
experiments that disable tracing for speed (the stencil tables) still
digest every interval. The digests pin the behaviour of the paper
experiments, the fault matrix, the collectives, the datatype zoo, a
32-rank stencil at shards 1 and 2, and ``paths:quick``: one transfer down
each rendezvous path no experiment takes (the host and NIC backends, the
contiguous device pipeline, the staged host rendezvous and the tbuf
degrade), fault-free and under recovery. Any change to a trace, a clock
or a byte fails this test.

Every sequential run doubles as a leak check: once its digest is taken,
the environment runs until its queue is empty and :func:`_audit_drained`
asserts that no protocol state, staging buffer or engine hold is left.

Regenerate after an intended behaviour change with::

    PYTHONPATH=src python tests/golden/test_golden_traces.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import pytest

import numpy as np

from repro.apps import StencilConfig, run_stencil
from repro.bench import experiments
from repro.core import GpuNcConfig, RecoveryConfig
from repro.hw import Cluster
from repro.ib import FaultPlan, FaultSpec
from repro.mpi import BYTE, Datatype, MpiWorld
from repro.mpi.pack import pack_bytes
from repro.perf.ledger import recording
from repro.sim.trace import Tracer

DIGEST_FILE = Path(__file__).with_name("digests.json")


def _world_digest(cluster) -> str:
    h = hashlib.blake2b(digest_size=16)
    tracer = cluster.tracer
    for iv in tracer.intervals:
        h.update(repr((float(iv.start).hex(), float(iv.end).hex(), iv.engine,
                       iv.label, iv.meta)).encode())
    for fr in tracer.faults:
        h.update(repr((float(fr.time).hex(), fr.kind, fr.src, fr.dst,
                       fr.meta)).encode())
    h.update(float(cluster.env.now).hex().encode())
    for node in cluster.nodes:
        for arena in [node.memory] + [gpu.memory for gpu in node.gpus]:
            for off, length in sorted(arena._live.items()):
                h.update(arena.raw[off:off + length])
    return h.hexdigest()


def _audit_drained(world) -> None:
    """Assert a finished world holds no protocol state or engine claim.

    Not audited: the recovery tombstones (``rts_seen``, ``retired_ssns``,
    ``sent_history``), which armed endpoints keep by design.
    """
    for ep in world.endpoints:
        where = f"rank {ep.rank}"
        assert not ep.send_states, f"{where}: SendState left: {list(ep.send_states)}"
        assert not ep.recv_states, f"{where}: RecvState left: {list(ep.recv_states)}"
        for pool in (ep.send_vbufs, ep.recv_vbufs):
            assert pool.available == pool.count, (
                f"{where}: {pool.count - pool.available} vbufs not returned"
            )
        assert not ep.matching.posted, f"{where}: posted receive left"
        assert not ep.matching.unexpected, f"{where}: unexpected message left"
        tx = ep.hca.tx
        assert tx.count == 0 and tx.queue_len == 0, f"{where}: HCA TX busy"
    engine = world.gpu_engine
    for rank, res in (engine._resources.items() if engine else ()):
        assert res.tbufs.available == res.tbufs.count, (
            f"rank {rank}: {res.tbufs.in_use} tbufs not returned"
        )
        for stream in (res.pack, res.d2h, res.h2d, res.unpack):
            assert stream.pending_ops == 0, f"rank {rank}: {stream.name} busy"


@contextlib.contextmanager
def _captured_worlds():
    """Digest every :meth:`MpiWorld.run` made inside the block, in order.

    A sequential world is then drained and audited; no digested run
    reuses its world, so the drain cannot reach a digest.
    """
    digests = []
    original = MpiWorld.run

    def run(self, program, *args, **kwargs):
        sequential = self.cluster.shards == 1
        if sequential:
            self.cluster.tracer.enabled = True
        out = original(self, program, *args, **kwargs)
        digests.append(_world_digest(self.cluster))
        if sequential:
            self.env.run()
            _audit_drained(self)
        return out

    MpiWorld.run = run
    try:
        yield digests
    finally:
        MpiWorld.run = original


def _combine(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _experiment(fn, scale):
    def digest():
        with _captured_worlds() as worlds:
            fn(scale)
        return {"": _combine(worlds)}
    return digest


def _faultmx():
    with _captured_worlds() as worlds:
        res = experiments.fault_matrix("quick")
    cases = [c["case"] for c in res["cases"]]
    assert len(cases) == len(worlds) == 8
    return {f":{case}": d for case, d in zip(cases, worlds)}


def _zoo():
    with _captured_worlds() as worlds:
        res = experiments.dtype_zoo("quick")
    fingerprint = sorted(res["fingerprint"].items())
    return {"": _combine([fingerprint, worlds[0]])}


def _stencil32(shards):
    def digest():
        cfg = StencilConfig(8, 4, 64, 4096, iterations=2, functional=False)
        with _captured_worlds() as worlds:
            run_stencil(cfg, shards=shards, tracer=Tracer())
        return {"": _combine(worlds)}
    return digest


#: Fault plans of the ``paths`` cases; a plan arms the recovery layer.
_PATH_FAULTS = {
    "none": (),
    "rdma fail x2": (FaultSpec("rdma_write", "fail", count=2),),
    "drop fin": (FaultSpec("ctl", "drop", ctl_type="fin"),),
}


def _transfer(space, layout, chunks, specs=(), gpu_config=None,
              recovery=None):
    """One byte-verified rank 0 -> rank 1 rendezvous of ``chunks`` 64 KiB
    chunks, between buffers in ``space`` ("device" or "host")."""
    rows = chunks << 14
    if layout == "strided":
        dtype = Datatype.hvector(rows, 4, 8, BYTE).commit()
        span = rows * 8
    else:
        dtype = Datatype.contiguous(rows * 4, BYTE).commit()
        span = rows * 4
    cluster = Cluster(2, faults=FaultPlan(specs=specs) if specs else None)
    world = MpiWorld(cluster, gpu_config=gpu_config, recovery=recovery)

    def program(ctx):
        if space == "device":
            buf = ctx.cuda.malloc(span)
        else:
            buf = ctx.node.malloc_host(span)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 241
            yield from ctx.comm.Send(buf, 1, dtype, dest=1)
        else:
            buf.view()[:] = 0
            yield from ctx.comm.Recv(buf, 1, dtype, source=0)
        return buf

    sent, received = world.run(program, until=1.0)
    assert np.array_equal(pack_bytes(sent, dtype, 1),
                          pack_bytes(received, dtype, 1))


def _paths():
    cases = []
    for path, space, layout, config in (
        ("host backend", "device", "strided", GpuNcConfig(backend="host")),
        ("nic backend", "device", "strided", GpuNcConfig(backend="nic")),
        ("contig d2d", "device", "contig", None),
        ("host rdv", "host", "strided", None),
    ):
        for fault, specs in _PATH_FAULTS.items():
            cases.append((f"{path}/{fault}", (space, layout, 2, specs, config)))
    # Starved device staging: later chunks degrade to the host path.
    cases.append(("tbuf degrade", (
        "device", "strided", 4, (), GpuNcConfig(tbuf_chunks=1),
        RecoveryConfig(staging_timeout=1e-6),
    )))
    with _captured_worlds() as worlds:
        for _, args in cases:
            _transfer(*args)
    assert len(worlds) == len(cases) == 13
    return {f":{name}": d for (name, _), d in zip(cases, worlds)}


#: Run name -> callable returning ``{key suffix: digest}``.
RUNS = {
    "fig3": _experiment(experiments.fig3_pipeline_gantt, "full"),
    "fig5:quick": _experiment(experiments.fig5_vector_latency, "quick"),
    "tab2:quick": _experiment(experiments.tab2_stencil, "quick"),
    "faultmx:quick": _faultmx,
    "paths:quick": _paths,
    "coll:quick": _experiment(experiments.coll_datatype_aware, "quick"),
    "zoo:quick": _zoo,
    "stencil32:shards1": _stencil32(1),
    "stencil32:shards2": _stencil32(2),
}


def _digests_of(name: str) -> dict:
    return {name + suffix: d for suffix, d in RUNS[name]().items()}


@pytest.fixture(autouse=True)
def _no_ledger_writes():
    # coll pins a comparison ledger; keep the committed one untouched.
    with recording(False):
        yield


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digest(name):
    golden = json.loads(DIGEST_FILE.read_text())
    expected = {k: v for k, v in golden.items()
                if k == name or k.startswith(name + ":")}
    assert expected, f"no golden digest recorded for {name}"
    assert _digests_of(name) == expected


def main(argv) -> int:
    with recording(False):
        digests = {}
        for name in sorted(RUNS):
            digests.update(_digests_of(name))
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if "--write" in argv:
        DIGEST_FILE.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

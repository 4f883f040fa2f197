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
contiguous device pipeline, the staged and the zero-copy host rendezvous,
host-to-device and device-to-host rendezvous and the tbuf degrade),
fault-free and under recovery, the staged and zero-copy host rendezvous
also under a lost RTS, a lost CTS and an RDMA stall, a zero-byte
synchronous send between device buffers, a device-to-device
rendezvous of long runs (the run copy), plus eager host-to-device
deliveries, contiguous and strided, offloaded and not: 36 transfers,
and 51 digest keys in all. Any change to a trace, a clock or a byte
fails this test.

Every sequential run doubles as a leak check: once its digest is taken,
the environment runs until its queue is empty and
:func:`tests.audit.audit_drained` asserts that no protocol state, staging
buffer, engine hold, inbox message or stray waiter is left.

Print fresh digests, explain a mismatch, or regenerate after an intended
behaviour change with::

    PYTHONPATH=src python tests/golden/test_golden_traces.py
    PYTHONPATH=src python tests/golden/test_golden_traces.py --dump DIR
    PYTHONPATH=src python tests/golden/test_golden_traces.py --write

``--dump DIR`` writes, per digest key, the text of everything the digest
hashes: one line per interval, fault record, final clock and live
allocation (a hash of its bytes). ``diff -r`` of two such directories
names the first diverging interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import re
import sys
from pathlib import Path

if __name__ == "__main__":  # run as a script: make ``tests`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

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
from tests.audit import audit_drained, recording_drained_stores

DIGEST_FILE = Path(__file__).with_name("digests.json")


class _Digest(str):
    """A hex digest that also keeps the text of what it hashed."""

    def __new__(cls, hexdigest: str, lines: list):
        self = super().__new__(cls, hexdigest)
        self.lines = lines
        return self


def _world_digest(cluster, dump=False) -> str:
    """The world's digest; with ``dump``, a :class:`_Digest` that keeps
    the text of what it hashed."""
    h = hashlib.blake2b(digest_size=16)
    lines = [] if dump else None
    tracer = cluster.tracer
    for iv in tracer.intervals:
        item = repr((float(iv.start).hex(), float(iv.end).hex(), iv.engine,
                     iv.label, iv.meta))
        h.update(item.encode())
        if lines is not None:
            lines.append(item)
    for fr in tracer.faults:
        item = repr((float(fr.time).hex(), fr.kind, fr.src, fr.dst, fr.meta))
        h.update(item.encode())
        if lines is not None:
            lines.append(f"fault {item}")
    clock = float(cluster.env.now).hex()
    h.update(clock.encode())
    if lines is not None:
        lines.append(f"clock {clock}")
    for node in cluster.nodes:
        for arena in [node.memory] + [gpu.memory for gpu in node.gpus]:
            for off, length in sorted(arena._live.items()):
                data = arena.raw[off:off + length]
                h.update(data)
                if lines is not None:
                    digest = hashlib.blake2b(data, digest_size=8).hexdigest()
                    lines.append(f"alloc {arena.name} +{off} {length}B {digest}")
    if lines is None:
        return h.hexdigest()
    return _Digest(h.hexdigest(), lines)


@contextlib.contextmanager
def _captured_worlds(dump=False):
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
        with recording_drained_stores() as drained:
            out = original(self, program, *args, **kwargs)
            digests.append(_world_digest(self.cluster, dump))
            if sequential:
                self.env.run()
                audit_drained(self, drained)
        return out

    MpiWorld.run = run
    try:
        yield digests
    finally:
        MpiWorld.run = original


def _combine(parts) -> str:
    """One digest over ``parts``; it keeps their text when they do."""
    h = hashlib.blake2b(digest_size=16)
    dump = any(isinstance(part, _Digest) for part in parts)
    lines = []
    for i, part in enumerate(parts):
        h.update(repr(part).encode())
        if dump:
            lines.append(f"== part {i}")
            if isinstance(part, _Digest):
                lines.extend(part.lines)
            else:
                lines.extend(map(repr, part))
    return _Digest(h.hexdigest(), lines) if dump else h.hexdigest()


def _experiment(fn, scale):
    def digest(dump=False):
        with _captured_worlds(dump) as worlds:
            fn(scale)
        return {"": _combine(worlds)}
    return digest


def _faultmx(dump=False):
    with _captured_worlds(dump) as worlds:
        res = experiments.fault_matrix("quick")
    cases = [c["case"] for c in res["cases"]]
    assert len(cases) == len(worlds) == 8
    return {f":{case}": d for case, d in zip(cases, worlds)}


def _zoo(dump=False):
    with _captured_worlds(dump) as worlds:
        res = experiments.dtype_zoo("quick")
    fingerprint = sorted(res["fingerprint"].items())
    return {"": _combine([fingerprint, worlds[0]])}


def _stencil32(shards):
    def digest(dump=False):
        cfg = StencilConfig(8, 4, 64, 4096, iterations=2, functional=False)
        with _captured_worlds(dump) as worlds:
            run_stencil(cfg, shards=shards, tracer=Tracer())
        return {"": _combine(worlds)}
    return digest


#: Fault plans of the ``paths`` cases; a plan arms the recovery layer.
_PATH_FAULTS = {
    "none": (),
    "rdma fail x2": (FaultSpec("rdma_write", "fail", count=2),),
    "drop fin": (FaultSpec("ctl", "drop", ctl_type="fin"),),
}

#: Fault plans only the host rendezvous cases run under: a lost RTS, a
#: lost CTS and an RDMA write stalled past its completion timeout.
_HOST_FAULTS = {
    "drop rts": (FaultSpec("ctl", "drop", ctl_type="rts"),),
    "drop cts": (FaultSpec("ctl", "drop", ctl_type="cts"),),
    "rdma stall": (FaultSpec("rdma_write", "stall", delay=500e-6),),
}


def _transfer(space, layout, rows, specs=(), gpu_config=None,
              recovery=None, src_space=None, count=1, send="Send"):
    """One byte-verified rank 0 -> rank 1 transfer of ``count`` elements
    of ``rows`` 4-byte rows into a buffer in ``space`` ("device" or
    "host"), sent with ``send`` ("Send" or "Ssend") from a buffer in
    ``src_space`` (default: the same). The "runs" layout has ``rows``
    runs of 1, 1.5 and 2 KiB instead, 256 bytes apart, which the
    kernels copy run by run."""
    if layout == "strided":
        dtype = Datatype.hvector(rows, 4, 8, BYTE).commit()
        span = rows * 8
    elif layout == "runs":
        lengths = [512 * (2 + k % 3) for k in range(rows)]
        displs = [sum(lengths[:k]) + 256 * k for k in range(rows)]
        dtype = Datatype.hindexed(lengths, displs, BYTE).commit()
        span = displs[-1] + lengths[-1]
    else:
        dtype = Datatype.contiguous(rows * 4, BYTE).commit()
        span = rows * 4
    cluster = Cluster(2, faults=FaultPlan(specs=specs) if specs else None)
    world = MpiWorld(cluster, gpu_config=gpu_config, recovery=recovery)

    def program(ctx):
        where = space if ctx.rank == 1 or src_space is None else src_space
        if where == "device":
            buf = ctx.cuda.malloc(span)
        else:
            buf = ctx.node.malloc_host(span)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(span, dtype=np.uint64) % 241
            yield from getattr(ctx.comm, send)(buf, count, dtype, dest=1)
        else:
            buf.view()[:] = 0
            yield from ctx.comm.Recv(buf, count, dtype, source=0)
        return buf

    sent, received = world.run(program, until=1.0)
    assert np.array_equal(pack_bytes(sent, dtype, count),
                          pack_bytes(received, dtype, count))


def _paths(dump=False):
    cases = []
    for path, space, layout, config in (
        ("host backend", "device", "strided", GpuNcConfig(backend="host")),
        ("nic backend", "device", "strided", GpuNcConfig(backend="nic")),
        ("contig d2d", "device", "contig", None),
        ("host rdv", "host", "strided", None),
    ):
        for fault, specs in _PATH_FAULTS.items():
            cases.append((f"{path}/{fault}",
                          (space, layout, 2 << 14, specs, config)))
    # Starved device staging: later chunks degrade to the host path.
    cases.append(("tbuf degrade", (
        "device", "strided", 4 << 14, (), GpuNcConfig(tbuf_chunks=1),
        RecoveryConfig(staging_timeout=1e-6),
    )))
    # Eager delivery into device memory: 6 KiB from a host sender, under
    # the 8 KiB eager threshold, lands in three 2 KiB chunks.
    for layout in ("contig", "strided"):
        for path, config in (
            ("gpu", GpuNcConfig(chunk_bytes=2048)),
            ("host", GpuNcConfig(chunk_bytes=2048, backend="host")),
        ):
            cases.append((f"eager {layout}/{path}", (
                "device", layout, 1536, (), config, None, "host",
            )))
    # Mixed rendezvous: the two sides' buffers live in different spaces.
    for src, dst in (("host", "device"), ("device", "host")):
        for layout in ("contig", "strided"):
            cases.append((f"{src}-to-{dst} {layout}/none", (
                dst, layout, 2 << 14, (), None, None, src,
            )))
        for fault in ("rdma fail x2", "drop fin"):
            cases.append((f"{src}-to-{dst} strided/{fault}", (
                dst, "strided", 2 << 14, _PATH_FAULTS[fault], None, None, src,
            )))
    # The zero-copy host rendezvous: windows of the user buffers.
    for fault, specs in _PATH_FAULTS.items():
        cases.append((f"host contig rdv/{fault}",
                      ("host", "contig", 2 << 14, specs)))
    # A zero-byte synchronous send from device memory into device memory.
    cases.append(("zero-byte ssend", (
        "device", "contig", 16, (), None, None, None, 0, "Ssend",
    )))
    # The host rendezvous, staged and zero-copy, under the faults its
    # sender's wait for the first CTS meets.
    for path, layout in (("host rdv", "strided"), ("host contig rdv", "contig")):
        for fault, specs in _HOST_FAULTS.items():
            cases.append((f"{path}/{fault}",
                          ("host", layout, 2 << 14, specs)))
    # A device-to-device rendezvous of long runs (47.5 KiB): the run copy.
    cases.append(("long runs d2d", ("device", "runs", 32)))
    with _captured_worlds(dump) as worlds:
        for _, args in cases:
            _transfer(*args)
    assert len(worlds) == len(cases) == 36
    return {f":{name}": d for (name, _), d in zip(cases, worlds)}


#: Run name -> callable returning ``{key suffix: digest}``; called with
#: ``dump=True``, each digest keeps the text of what it hashed.
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


def _digests_of(name: str, dump=False) -> dict:
    return {name + suffix: d for suffix, d in RUNS[name](dump).items()}


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


def _dump(digests, directory: Path) -> None:
    """Write one text file per digest key: what its digest hashed."""
    directory.mkdir(parents=True, exist_ok=True)
    for key, digest in sorted(digests.items()):
        name = re.sub(r"[^\w.:-]+", "_", key) + ".txt"
        (directory / name).write_text(
            "\n".join([f"digest {digest}", *digest.lines]) + "\n")


def main(argv) -> int:
    dump_dir = None
    if "--dump" in argv:
        i = argv.index("--dump")
        if i + 1 >= len(argv):
            sys.stderr.write("--dump needs a directory\n")
            return 2
        dump_dir = Path(argv[i + 1])
    with recording(False):
        digests = {}
        for name in sorted(RUNS):
            digests.update(_digests_of(name, dump_dir is not None))
    if dump_dir is not None:
        _dump(digests, dump_dir)
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if "--write" in argv:
        DIGEST_FILE.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

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
experiments, the fault matrix, the collectives, the datatype zoo and a
32-rank stencil at shards 1 and 2; any change to a trace, a clock or a
byte fails this test.

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

from repro.apps import StencilConfig, run_stencil
from repro.bench import experiments
from repro.mpi import MpiWorld
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


@contextlib.contextmanager
def _captured_worlds():
    """Digest every :meth:`MpiWorld.run` made inside the block, in order."""
    digests = []
    original = MpiWorld.run

    def run(self, program, *args, **kwargs):
        if self.cluster.shards == 1:
            self.cluster.tracer.enabled = True
        out = original(self, program, *args, **kwargs)
        digests.append(_world_digest(self.cluster))
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


#: Run name -> callable returning ``{key suffix: digest}``.
RUNS = {
    "fig3": _experiment(experiments.fig3_pipeline_gantt, "full"),
    "fig5:quick": _experiment(experiments.fig5_vector_latency, "quick"),
    "tab2:quick": _experiment(experiments.tab2_stencil, "quick"),
    "faultmx:quick": _faultmx,
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

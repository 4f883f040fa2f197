"""Deterministic work ceilings: events, processes, timeouts and event
objects per operation.

Wall-clock guards depend on the host; these counts do not. Each count is
the difference between a two-operation and a one-operation run of the
same program, so world setup cancels out, and each must equal its pinned
ceiling. A structural regression -- an extra process per chunk, a second
timeout per control message -- fails here with no noise. So does a
change that lowers a count without ratcheting its ceiling down with it:
the failure names the value to pin.

* ``events``: events scheduled (the environment's sequence counter);
* ``processes``: :class:`~repro.sim.Process` instances started;
* ``timeouts``: timeouts created (``event_pool_hit + event_pool_miss``);
* ``event_objects``: :class:`~repro.sim.Event` instances constructed,
  subclasses included (a recycled timeout is not constructed again).

The first three count queue slots: a grant or step that moves into a
different slot changes them, and the golden digests say where. The last
counts allocations: a grant made in place instead of through an event
lowers it and leaves the other three as they were.

The processes and event objects of an operation are also split by
creation site: a process by its name up to the first ``:``, an event by
its class and the first function outside the simulation kernel that
created it. A failing ceiling prints the split, and so does running
this file as a script::

    PYTHONPATH=src python tests/perf/test_work_ceilings.py

Finished work must also be freed by reference counting: a Fig. 5 round
trip leaves no cyclic garbage for the collector.

Irregular layouts of short runs carry a second deterministic cost: the
memoized word index a gather or scatter walks, pinned as index bytes per
payload byte. A strided layout carries none: the Fig. 5 vector and its
plan's chunk slices keep four integers each, not a million runs. Nor does
an irregular layout of long runs, which is copied run by run: an
alltoallv-mixed block and its plan keep two slices per run.

Resident memory is the last: a functional run's peak RSS grows with the
bytes its ranks touch, not with the memory its cluster models.
"""

import gc
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.apps import StencilConfig, run_stencil
from repro.bench.vector_latency import make_nc_program
from repro.core import RecoveryConfig
from repro.hw import Arena, Cluster, HardwareConfig, KiB, MiB
from repro.mpi import BYTE, DOUBLE, FLOAT, Datatype, MpiWorld, SegmentList, dtir
from repro.perf.stats import PERF
from repro.sim import Event, Process, StoreGet

#: Per-operation ceilings, pinned at the measured counts.
CEILINGS = {
    # One Figure 5 4 MiB MV2-GPU-NC round trip.
    "fig5-4m": {"events": 2272, "processes": 0, "timeouts": 0,
                "event_objects": 423},
    # One 4x4 Stencil2D-MV2-GPU-NC iteration, 64x4096 local, timing only.
    "stencil2d-4x4": {"events": 2280, "processes": 0, "timeouts": 16,
                      "event_objects": 480},
    # The Fig. 5 round trip with the recovery layer armed on a clean
    # fabric: every vbuf, tbuf, RDMA write and first CTS is a raced wait,
    # and each receive runs a watchdog, all of them callback ops.
    "armed-fig5-4m": {"events": 2947, "processes": 0, "timeouts": 0,
                      "event_objects": 423},
}


def _fig5(ops: int) -> None:
    program = make_nc_program(1 << 20, iterations=ops, verify=False)
    MpiWorld(Cluster(2)).run(program)


def _armed_fig5(ops: int) -> None:
    program = make_nc_program(1 << 20, iterations=ops, verify=False)
    MpiWorld(Cluster(2), recovery=RecoveryConfig()).run(program)


def _stencil(ops: int) -> None:
    hw = HardwareConfig.fermi_qdr().with_overrides(
        host_memory_bytes=64 * MiB, device_memory_bytes=64 * MiB,
    )
    cfg = StencilConfig(4, 4, 64, 4096, iterations=ops, functional=False)
    run_stencil(cfg, hw=hw)


WORKLOADS = {"fig5-4m": _fig5, "stencil2d-4x4": _stencil,
             "armed-fig5-4m": _armed_fig5}


#: Frames skipped when looking for the function that created an event:
#: the simulation kernel's and this file's counting wrappers.
_SKIPPED = (str(Path(Event.__init__.__code__.co_filename).parent), __file__)


def _site(event) -> str:
    """An event's creation site: its class and the first function outside
    the simulation kernel on the stack (constructors, factories such as
    ``Environment.process`` and engine forms such as ``Resource.acquire``
    are skipped)."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename.startswith(_SKIPPED):
        frame = frame.f_back
    where = frame.f_code.co_qualname if frame is not None else "?"
    return f"{type(event).__name__} <- {where}"


def _work(run, ops: int) -> tuple:
    """Events, processes, timeouts and event objects of one ``run(ops)`` on
    a fresh world, and the processes and event objects by creation site."""
    envs, started, made = set(), Counter(), Counter()
    init = Process.__init__
    event_init = Event.__init__

    def counting_init(self, env, *args, **kwargs):
        envs.add(env)
        init(self, env, *args, **kwargs)
        started[self.name.split(":", 1)[0]] += 1

    def counting_event_init(self, env, *args, **kwargs):
        made[_site(self)] += 1
        event_init(self, env, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Process, "__init__", counting_init)
        patch.setattr(Event, "__init__", counting_event_init)
        before = PERF.snapshot()
        run(ops)
        after = PERF.snapshot()
    (env,) = envs
    counts = {
        "events": env._eid,
        "processes": sum(started.values()),
        "timeouts": sum(
            after.get(k, 0) - before.get(k, 0)
            for k in ("event_pool_hit", "event_pool_miss")
        ),
        "event_objects": sum(made.values()),
    }
    return counts, {"processes": started, "event_objects": made}


def per_operation(name: str) -> tuple:
    """Workload ``name``'s counts per operation (a two-operation minus a
    one-operation run) and their split by creation site."""
    one, one_split = _work(WORKLOADS[name], 1)
    two, two_split = _work(WORKLOADS[name], 2)
    per_op = {k: two[k] - one[k] for k in one}
    split = {}
    for k in two_split:
        diff = two_split[k].copy()
        diff.subtract(one_split[k])
        split[k] = {site: n for site, n in diff.most_common() if n}
    return per_op, split


def format_split(split: dict) -> str:
    """The creation-site split, one site per line, largest first."""
    lines = []
    for k, sites in split.items():
        lines.append(f"{k} by creation site:")
        lines.extend(f"  {n:6d}  {site}" for site, n in sites.items())
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_per_operation_within_ceiling(name):
    per_op, split = per_operation(name)
    over = {
        k: f"{v} > {CEILINGS[name][k]}"
        for k, v in per_op.items() if v > CEILINGS[name][k]
    }
    assert not over, (
        f"{name}: per-operation work above its ceiling: {over}\n"
        + format_split(split)
    )
    stale = {k: v for k, v in per_op.items() if v < CEILINGS[name][k]}
    assert not stale, (
        f"{name}: per-operation work fell below its ceiling; ratchet "
        f"CEILINGS[{name!r}] down to {stale}\n" + format_split(split)
    )


@pytest.mark.parametrize("name", ["fig5-4m", "stencil2d-4x4"])
def test_disarmed_runs_create_no_store_get(name, monkeypatch):
    """Pools, drained-chunk stores and inboxes grant their ops in place;
    only processes take a get event. (Armed, the recovery layer's races
    take none either: the armed ceiling's event objects count them.)"""
    made = [0]
    init = StoreGet.__init__

    def counting_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(StoreGet, "__init__", counting_init)
    WORKLOADS[name](1)
    assert made[0] == 0


def test_round_trips_leave_no_cyclic_garbage():
    """A finished op, event or process is freed when its last user drops
    it; a cycle (say, an op holding its own bound method) would leave
    every one of them to the cyclic collector. Armed, so are the recovery
    layer's races and the waits that run them."""
    for recovery in (None, RecoveryConfig()):
        world = MpiWorld(Cluster(2), recovery=recovery)
        program = make_nc_program(1 << 20, iterations=2, verify=False)
        gc.collect()
        gc.disable()
        try:
            world.run(program)
            assert gc.collect() == 0, f"recovery={recovery}"
        finally:
            gc.enable()


#: Memoized index bytes per payload byte, pinned at the measured figures.
INDEX_CEILINGS = {
    # alltoallv-mixed's irregular blocks: 64 FLOAT runs, 4-byte words.
    "float-hindexed": 2.0,
    # Runs of whole doubles at double offsets: 8-byte words.
    "double-hindexed": 1.0,
}


def _hindexed(base: Datatype) -> Datatype:
    """64 runs of 1-32 elements, separated by gaps of 1-8 elements."""
    rng = np.random.default_rng(64)
    lengths = 1 + rng.integers(0, 32, 64)
    gaps = 1 + rng.integers(0, 8, 64)
    starts = np.cumsum(gaps) + np.concatenate(([0], np.cumsum(lengths[:-1])))
    return Datatype.hindexed(lengths.tolist(), (starts * base.size).tolist(),
                             base)


INDEXED_LAYOUTS = {"float-hindexed": FLOAT, "double-hindexed": DOUBLE}


@pytest.mark.parametrize("name", sorted(INDEXED_LAYOUTS))
def test_index_bytes_per_payload_byte_within_ceiling(name):
    """Runs of 1-32 elements average well under ``RUN_COPY_WORDS`` words,
    so these layouts stay on the index path by design, and its int64 index
    costs ``8 / word`` bytes per payload byte. The ceilings hold rather
    than ratchet: the run copy removes the index only from layouts of
    long runs, and int32 indices, the other way to shrink it, measured
    slower (NumPy converts a non-intp index on every call)."""
    segs = _hindexed(INDEXED_LAYOUTS[name]).segments
    per_byte = segs.word_indices().nbytes / segs.total_bytes
    assert per_byte <= INDEX_CEILINGS[name], (
        f"{name}: word index holds {per_byte:.2f} bytes per payload byte, "
        f"ceiling {INDEX_CEILINGS[name]}"
    )


#: Tracemalloc peak of committing the Fig. 5 vector and compiling its
#: 64 KiB plan (40.2 MiB while the vector flattened into a million runs).
RUN_METADATA_CEILING = 1 * MiB


def _fig5_vector() -> Datatype:
    """The Fig. 5 4 MiB vector: a million 4-byte rows at an 8-byte pitch."""
    return Datatype.hvector(1 << 20, 4, 8, BYTE)


def test_fig5_vector_run_metadata_within_ceiling():
    Datatype.hvector(4, 4, 8, BYTE).commit().plan_for(1, 64)  # lazy imports
    dtir.reset_registry()
    tracemalloc.start()
    try:
        _fig5_vector().commit().plan_for(1, 64 * KiB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= RUN_METADATA_CEILING, (
        f"commit + plan of the Fig. 5 vector peaked at {peak / MiB:.2f} MiB, "
        f"ceiling {RUN_METADATA_CEILING / MiB:.2f} MiB"
    )


def _arrays(segs: SegmentList) -> list:
    """The slots of ``segs`` holding an array (reads no derived property)."""
    return [slot for slot in SegmentList.__slots__
            if isinstance(getattr(segs, slot), np.ndarray)]


def test_fig5_round_trip_keeps_no_run_arrays():
    """After a round trip, the vector's SegmentList and every chunk slice
    of every plan compiled for it hold no array: nothing on the path read
    runs out of the strided form and kept them."""
    dtir.reset_registry()
    _fig5(1)
    vec = _fig5_vector().commit()  # interned: the round trip's layout
    entry = vec._entry()
    plans = [plan for plan, _ in entry.plan_cache.values()]
    assert plans, "the round trip compiled no plan for the Fig. 5 vector"
    slices = [vec.segments] + [cp.segs for plan in plans for cp in plan.chunks]
    held = {i: kept for i, segs in enumerate(slices) if (kept := _arrays(segs))}
    assert not held, f"SegmentLists holding arrays (0 = the type's): {held}"
    assert all(segs.strided_run is not None for segs in slices)


#: Tracemalloc peak of committing one alltoallv-mixed 256 KiB irregular
#: block and compiling its 64 KiB plan (778 KiB while every chunk built
#: its word index, 512 KiB of them kept).
LONG_RUN_METADATA_CEILING = 64 * KiB


def _alltoallv_block() -> Datatype:
    """A 256 KiB block of 64 FLOAT runs of random length over a 1 MiB
    region, gaps of at least one float, as alltoallv-mixed builds its
    irregular blocks: runs of 4 KiB on average."""
    rng = np.random.default_rng(64)
    nseg, elems, span = 64, 256 * KiB // 4, 256 * KiB
    lengths = 1 + rng.multinomial(elems - nseg, [1 / nseg] * nseg)
    gaps = rng.multinomial(span - elems - (nseg - 1),
                           [1 / (nseg + 1)] * (nseg + 1))
    gaps[1:-1] += 1
    offsets = gaps[0] + np.concatenate(
        ([0], np.cumsum(lengths[:-1] + gaps[1:-1])))
    return Datatype.hindexed(lengths.tolist(), (offsets * 4).tolist(), FLOAT)


def test_long_run_block_keeps_no_word_index():
    """Committing and planning a block of long runs builds no word index,
    and a gather/scatter round trip through every chunk leaves none."""
    Datatype.hindexed([1, 2], [0, 12], FLOAT).commit().plan_for(1, 4)
    dtir.reset_registry()
    block = _alltoallv_block()
    tracemalloc.start()
    try:
        plan = block.commit().plan_for(1, 64 * KiB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= LONG_RUN_METADATA_CEILING, (
        f"commit + plan of the alltoallv block peaked at {peak / KiB:.1f} "
        f"KiB, ceiling {LONG_RUN_METADATA_CEILING / KiB:.0f} KiB"
    )
    buf = Arena(2 * MiB, "host").alloc(MiB)
    for cp in plan.chunks:
        packed = np.empty(cp.nbytes, np.uint8)
        cp.gather_into(buf, packed)
        cp.scatter_from(packed, buf)
    indexed = [cp.index for cp in plan.chunks if cp.segs._index is not None]
    assert not indexed, f"chunks holding a word index: {indexed}"


_STENCIL_RSS_PROBE = """
import resource
from repro.apps import StencilConfig, run_stencil
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run_stencil(StencilConfig(8, 8, 64, 512, iterations=2, functional=True, seed=1))
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(after - before)
"""

#: Peak RSS growth of a functional 8x8 stencil (64x512 fp32 per rank, two
#: iterations, default cluster): 405 MiB while the arenas committed 2 MiB
#: huge pages, 31 MiB in base pages.
STENCIL_RSS_CEILING = 64 * MiB


def test_functional_64_rank_stencil_peak_rss_within_ceiling():
    """64 ranks' arenas, staging pools and halos cost what the run
    touches: under 1 MiB of resident memory per rank."""
    # Imported here: the script entry point runs without the repository
    # root, and so without ``tests``, on the import path.
    from tests.hw.test_memory import peak_rss_growth_kib

    grown = peak_rss_growth_kib(_STENCIL_RSS_PROBE) * KiB
    assert grown < STENCIL_RSS_CEILING, (
        f"the 64-rank functional stencil grew peak RSS {grown / MiB:.1f} "
        f"MiB, ceiling {STENCIL_RSS_CEILING / MiB:.0f} MiB"
    )


if __name__ == "__main__":
    for name in sorted(WORKLOADS):
        per_op, split = per_operation(name)
        print(f"{name}: {per_op} per operation (ceilings {CEILINGS[name]})")
        print(format_split(split))

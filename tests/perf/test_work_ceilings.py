"""Deterministic work ceilings: events, processes and timeouts per operation.

Wall-clock guards depend on the host; these counts do not. Each count is
the difference between a two-operation and a one-operation run of the
same program, so world setup cancels out, and each must stay at or below
its pinned ceiling. A structural regression -- an extra process per
chunk, a second timeout per control message -- fails here with no noise.
A change that lowers a count lowers its ceiling with it.

* ``events``: events scheduled (the environment's sequence counter);
* ``processes``: :class:`~repro.sim.Process` instances started;
* ``timeouts``: timeouts created (``event_pool_hit + event_pool_miss``).
"""

import pytest

from repro.apps import StencilConfig, run_stencil
from repro.bench.vector_latency import make_nc_program
from repro.hw import Cluster, HardwareConfig, MiB
from repro.mpi import MpiWorld
from repro.perf.stats import PERF
from repro.sim import Process

#: Per-operation ceilings, pinned at the measured counts.
CEILINGS = {
    # One Figure 5 4 MiB MV2-GPU-NC round trip.
    "fig5-4m": {"events": 2539, "processes": 296, "timeouts": 973},
    # One 4x4 Stencil2D-MV2-GPU-NC iteration, 64x4096 local, timing only.
    "stencil2d-4x4": {"events": 2752, "processes": 432, "timeouts": 960},
}


def _fig5(ops: int) -> None:
    program = make_nc_program(1 << 20, iterations=ops, verify=False)
    MpiWorld(Cluster(2)).run(program)


def _stencil(ops: int) -> None:
    hw = HardwareConfig.fermi_qdr().with_overrides(
        host_memory_bytes=64 * MiB, device_memory_bytes=64 * MiB,
    )
    cfg = StencilConfig(4, 4, 64, 4096, iterations=ops, functional=False)
    run_stencil(cfg, hw=hw)


WORKLOADS = {"fig5-4m": _fig5, "stencil2d-4x4": _stencil}


def _work(run, ops: int, monkeypatch) -> dict:
    """Events, processes and timeouts of one ``run(ops)`` on a fresh world."""
    envs, started = set(), [0]
    init = Process.__init__

    def counting_init(self, env, *args, **kwargs):
        envs.add(env)
        started[0] += 1
        init(self, env, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    before = PERF.snapshot()
    run(ops)
    after = PERF.snapshot()
    monkeypatch.undo()
    (env,) = envs
    return {
        "events": env._eid,
        "processes": started[0],
        "timeouts": sum(
            after.get(k, 0) - before.get(k, 0)
            for k in ("event_pool_hit", "event_pool_miss")
        ),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_per_operation_within_ceiling(name, monkeypatch):
    one = _work(WORKLOADS[name], 1, monkeypatch)
    two = _work(WORKLOADS[name], 2, monkeypatch)
    per_op = {k: two[k] - one[k] for k in one}
    over = {
        k: f"{v} > {CEILINGS[name][k]}"
        for k, v in per_op.items() if v > CEILINGS[name][k]
    }
    assert not over, f"{name}: per-operation work above its ceiling: {over}"

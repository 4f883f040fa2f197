"""The simulator's benchmark: one workload, one run.

Run from the repository root::

    python3 perfbench/run.py --workload pingpong-4m --seed 1 --seconds 10 --trace 0

The timed window (``--seconds`` of wall-clock, tracing off) is split over
WORKERS fresh processes run one after another, because the speed of one
interpreter process depends on its randomized string hashing and memory
layout. Each worker builds the inputs from ``--seed`` and its world (with
one warm-up operation), signals ready -- the time from its start to that
signal is one ``setup_s`` sample -- then runs operations, checks every
output and reports its samples. The parent pools them, then, outside the
window, runs the workload's naive baseline and cross-checks the simulated
result against the paper harness.

The operations' wall-clock is reported at the host's reference speed
(units ``ref_ms`` and ``op/ref_s``): each batch's times are scaled by
``hostspeed.REF_S`` over the reference kernel's time measured just before
and just after the batch, outside the window (see ``hostspeed``). The
raw figures are printed beside them. ``setup_s`` stays raw.

With ``--trace 1`` a traced window follows in the parent on a fresh
world: span wrappers time the simulator's layer entry points, ``PERF``
counters and ``Tracer`` intervals are read, and the per-layer metrics
replace the end-to-end ones in the result.

Every metric is printed by name with its unit; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 1 when any check fails.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import List

from hostspeed import REF_S, calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: (name, unit, better) of every end-to-end metric.
E2E_METRICS = (
    ("ops_per_s", "op/ref_s", "higher"),
    ("op_wall_ms_p50", "ref_ms", "lower"),
    ("op_wall_ms_tail", "ref_ms", "lower"),
    ("sim_op_us_p50", "sim_us", "lower"),
    ("sim_speedup_vs_baseline", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Worker processes one run's window is split over.
WORKERS = 4
#: Percentile reported as ``op_wall_ms_tail`` ...
TAIL_PCT = 90.0
#: ... or a lower one, when fewer samples than this lie beyond it.
TAIL_MIN_BEYOND = 10


@dataclass
class Window:
    """What one timed window measured."""

    batches: list
    #: Wall-clock of each batch, checks excluded.
    batch_ns: List[int]
    #: Reference-kernel seconds before the first batch and after each.
    calibrations: List[float]
    attempted: int
    failures: List[str] = field(default_factory=list)
    engines: dict = field(default_factory=dict)

    @property
    def scales(self) -> List[float]:
        """Per batch, the factor that brings its times to reference speed."""
        cal = self.calibrations
        return [2 * REF_S / (a + b) for a, b in zip(cal, cal[1:])]

    @property
    def elapsed_s(self) -> float:
        return sum(self.batch_ns) / 1e9

    @property
    def ref_elapsed_s(self) -> float:
        return sum(ns * s for ns, s in zip(self.batch_ns, self.scales)) / 1e9

    @property
    def walls_ms(self) -> List[float]:
        return [w / 1e6 for b in self.batches for w in b.wall_ns]

    @property
    def ref_walls_ms(self) -> List[float]:
        return [w * s / 1e6 for b, s in zip(self.batches, self.scales)
                for w in b.wall_ns]

    @property
    def completed(self) -> int:
        return sum(len(b.wall_ns) for b in self.batches)

    @property
    def failed(self) -> int:
        return self.attempted - sum(1 for b in self.batches for ok in b.ok if ok)

    def sims(self, n: int) -> List[float]:
        return [s for b in self.batches for s in b.sim_s][:n]


def _load_program():
    """Import the simulator from this checkout's ``src`` (and nothing else)."""
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {SRC}")
    # Modules the world builds import lazily are loaded here, so their
    # import time counts once, as import time, and the span wrappers find
    # every entry point.
    import repro.core.pipeline  # noqa: F401
    import repro.core.plan  # noqa: F401
    import repro.mpi.pack  # noqa: F401
    import repro.sim.shard  # noqa: F401
    import repro.tune.table  # noqa: F401


def measure(wl, state, seconds: float, traced: bool) -> Window:
    """Run batches until ``seconds`` of wall-clock (checks excluded) and at
    least ``wl.sim_ops`` operations are done."""
    from workloads import Batch
    import layers

    batches, batch_ns, failures = [], [], []
    calibrations = [calibrate()]
    engines = {}
    done = 0
    budget = seconds * 1e9
    while done < wl.sim_ops or sum(batch_ns) < budget:
        t0 = perf_counter_ns()
        try:
            batch = wl.run_batch(state, done, wl.batch_ops)
        except Exception as exc:  # an exception fails the batch, not the run
            traceback.print_exc(file=sys.stderr)
            failures.append(f"ops {done}..{done + wl.batch_ops - 1}: {exc!r}")
            batch = Batch(ok=[False] * wl.batch_ops)
            state = wl.build(traced)
        batch_ns.append(perf_counter_ns() - t0 - batch.check_ns)
        calibrations.append(calibrate())
        if traced and not batches:
            engines = layers.sim_engine_stats(batch.tracers)
        for tracer in batch.tracers:
            tracer.clear()
        batch.tracers = []
        batches.append(batch)
        done += wl.batch_ops
    failures += wl.verify_batches(batches)
    return Window(batches, batch_ns, calibrations, done, failures, engines)


def worker(wl, state, seconds: float) -> dict:
    """One worker's share of the window on its built world."""
    gc.collect()
    win = measure(wl, state, seconds, traced=False)
    return {
        "walls_ms": win.walls_ms, "ref_walls_ms": win.ref_walls_ms,
        "sims": win.sims(wl.sim_ops), "completed": win.completed,
        "elapsed_s": win.elapsed_s, "ref_elapsed_s": win.ref_elapsed_s,
        "attempted": win.attempted, "failed": win.failed,
        "failures": win.failures,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def spawn_worker(args) -> tuple:
    """``(seconds from start to ready, worker report)`` of one worker."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--worker"]
    t = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        setup = perf_counter() - t
        out, _ = child.communicate()
    lines = out.strip().splitlines()
    if child.returncode != 0 or ready.strip() != "ready" or not lines:
        raise RuntimeError(f"worker failed (exit {child.returncode})")
    return setup, json.loads(lines[-1])


def tail(walls: List[float]):
    """``(percentile, value, samples beyond)``: TAIL_PCT, or the highest
    lower one leaving at least TAIL_MIN_BEYOND samples beyond it."""
    import numpy as np

    for p in (TAIL_PCT, 75.0, 50.0):
        if len(walls) * (1 - p / 100) >= TAIL_MIN_BEYOND:
            break
    value = float(np.percentile(walls, p))
    return p, value, sum(1 for w in walls if w > value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as one worker of a run (see spawn_worker).
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    _load_program()
    from repro.perf.stats import PERF
    import layers
    from spans import SpanRecorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    if args.worker:
        state = wl.build(traced=False)
        print("ready", flush=True)
        print(json.dumps(worker(wl, state, args.seconds / WORKERS)))
        return 0

    setups, reports = zip(*(spawn_worker(args) for _ in range(WORKERS)))
    failures = [f for r in reports for f in r["failures"]]
    sims = reports[0]["sims"]
    if any(r["sims"] != sims for r in reports):
        failures.append("workers simulated different operation times")
    sim_p50 = statistics.median(sims) if sims else 0.0
    errors = []

    def guarded(fn, *fn_args, default):
        """``fn(*fn_args)``; an exception is a failed check, not a crash."""
        try:
            return fn(*fn_args)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            errors.append(f"{fn.__name__} raised {exc!r}")
            return default

    baseline = guarded(wl.baseline_sim, default=0.0)
    failures += guarded(wl.cross_check, sim_p50, default=[])
    side_n, side_failures = guarded(wl.side_checks, default=(0, []))
    failures += side_failures + errors
    attempted = sum(r["attempted"] for r in reports) + side_n + len(errors)
    failed = sum(r["failed"] for r in reports) + len(side_failures) + len(errors)
    completed = sum(r["completed"] for r in reports)
    elapsed = sum(r["elapsed_s"] for r in reports)
    ref_elapsed = sum(r["ref_elapsed_s"] for r in reports)
    walls = [w for r in reports for w in r["walls_ms"]]
    ref_walls = [w for r in reports for w in r["ref_walls_ms"]]

    p, tail_ms, beyond = tail(ref_walls)
    e2e = {
        "ops_per_s": completed / ref_elapsed,
        "op_wall_ms_p50": statistics.median(ref_walls),
        "op_wall_ms_tail": tail_ms,
        "sim_op_us_p50": sim_p50 * 1e6,
        "sim_speedup_vs_baseline": baseline / sim_p50 if sim_p50 else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in reports),
    }
    notes = {
        "ops_per_s": f"{completed} ops in {elapsed:.3f} s over {WORKERS} "
                     f"processes: raw {completed / elapsed:.6g} op/s, host at "
                     f"{elapsed / ref_elapsed:.3f} of reference time",
        "op_wall_ms_p50": f"raw {statistics.median(walls):.6g} ms",
        "op_wall_ms_tail": f"p{p:g}, {beyond} of {len(walls)} samples beyond; "
                           f"raw p{p:g} {tail(walls)[1]:.6g} ms",
        "sim_op_us_p50": f"first {len(sims)} ops",
        "sim_speedup_vs_baseline": f"baseline {baseline * 1e6:.3f} sim_us",
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setups),
    }
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    for name, unit, _ in E2E_METRICS:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<26} {e2e[name]:.6g} {unit}{note}")
    print(f"{'failed_frac':<26} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} ops)")
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit, _ in E2E_METRICS}

    if args.trace:
        state = wl.build(traced=True)
        recorder = SpanRecorder()
        wl.recorder = recorder
        before = PERF.snapshot()
        with recorder:
            twin = measure(wl, state, args.seconds, traced=True)
        wl.recorder = None
        perf = {k: v - before.get(k, 0) for k, v in PERF.snapshot().items()}
        failures += twin.failures
        attempted += twin.attempted
        failed += twin.failed
        if twin.sims(wl.sim_ops) != sims:
            failures.append("tracing changed the simulated operation times")
            failed += 1
        overhead = e2e["ops_per_s"] / (twin.completed / twin.ref_elapsed_s)
        shard_perf, shard_ops = wl.shard_counters or (perf, twin.completed)
        values = layers.layer_values(recorder, perf, twin.engines,
                                     twin.completed, wl.sim_ops, overhead,
                                     shard_perf, shard_ops)
        for missing in recorder.missing:
            print(f"span entry point not found: {missing}")
        for name, unit, _, moves in layers.LAYER_METRICS:
            print(f"{name:<36} {values[name]:.6g} {unit}  (moves {moves})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in layers.LAYER_METRICS}

    for failure in failures:
        print(f"FAILED: {failure}")
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def stop_resource_tracker() -> None:
    """Stop the ``multiprocessing`` resource tracker this process started,
    if any, and wait for it to end.

    The sharded engine's shared memory and semaphores start the tracker;
    left alone it outlives the run. Dead semaphores are collected first,
    so no finalizer restarts it afterwards.
    """
    from multiprocessing import resource_tracker

    gc.collect()
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_resource_tracker()
    sys.exit(code)

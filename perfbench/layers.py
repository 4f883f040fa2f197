"""Per-layer metrics of the traced run.

Every metric is named ``<module>.<metric>`` after the simulator module it
describes, and names the end-to-end metric it should move. Inputs are the
span figures of :mod:`spans`, ``PERF`` counter deltas over the traced
window and the ``Tracer`` intervals of the window's first batch. Counts
and times are per operation, so runs of different lengths compare.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from repro.bench.timeline import overlap_stats
from repro.sim import union_duration

__all__ = ["LAYER_METRICS", "sim_engine_stats", "layer_values"]

_E2E_SPEED = "ops_per_s, op_wall_ms_p50"
_E2E_SIM = "sim_op_us_p50, sim_speedup_vs_baseline"

#: (name, unit, better, end-to-end metric it should move)
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    # datatype commit + canonicalization (mpi.datatype, mpi.dtir)
    ("mpi.datatype.commit.calls", "calls/op", "lower", _E2E_SPEED),
    ("mpi.datatype.commit.self_ms", "ms/op", "lower", _E2E_SPEED),
    ("mpi.dtir.canon", "count/op", "lower", _E2E_SPEED),
    ("mpi.dtir.entry_reuse_ratio", "ratio", "higher", _E2E_SPEED),
    # plan compile (core.plan)
    ("core.plan.plan_for.calls", "calls/op", "lower", "op_wall_ms_tail, setup_s"),
    ("core.plan.compile.calls", "calls/op", "lower", "op_wall_ms_tail, setup_s"),
    ("core.plan.compile.self_ms", "ms/op", "lower", "op_wall_ms_tail, setup_s"),
    ("core.plan.cache_hit_ratio", "ratio", "higher", "op_wall_ms_tail, setup_s"),
    ("mpi.datatype.seg_cache_hit_ratio", "ratio", "higher", "op_wall_ms_tail, setup_s"),
    ("mpi.datatype.slice_cache_hit_ratio", "ratio", "higher", "op_wall_ms_tail, setup_s"),
    # gather/scatter (core.plan.ChunkPlan, mpi.pack)
    ("pack.gather.calls", "calls/op", "lower", "ops_per_s"),
    ("pack.gather.bytes", "B/op", "lower", "ops_per_s"),
    ("pack.gather.self_ms", "ms/op", "lower", "ops_per_s"),
    ("pack.gather.gb_per_s", "GB/s", "higher", "ops_per_s"),
    ("pack.scatter.calls", "calls/op", "lower", "ops_per_s"),
    ("pack.scatter.bytes", "B/op", "lower", "ops_per_s"),
    ("pack.scatter.self_ms", "ms/op", "lower", "ops_per_s"),
    ("pack.scatter.gb_per_s", "GB/s", "higher", "ops_per_s"),
    ("pack.fast_path_ratio", "ratio", "higher", "ops_per_s"),
    ("pack.index_reuse_ratio", "ratio", "higher", "ops_per_s"),
    # protocol + pipeline processes + sim kernel (time in MpiWorld.run
    # not covered by a child span)
    ("sim.run.self_ms", "ms/op", "lower", "ops_per_s"),
    ("sim.core.timeouts", "count/op", "lower", "ops_per_s"),
    ("sim.run.ns_per_timeout", "ns", "lower", "ops_per_s"),
    # five-stage pipeline, simulated (core.pipeline, core.backends,
    # core.staging, hw, ib)
    ("hw.gpu.exec.sim_busy_us", "sim_us/op", "lower", _E2E_SIM),
    ("hw.pcie.d2h.sim_busy_us", "sim_us/op", "lower", _E2E_SIM),
    ("ib.hca.tx.sim_busy_us", "sim_us/op", "lower", _E2E_SIM),
    ("hw.pcie.h2d.sim_busy_us", "sim_us/op", "lower", _E2E_SIM),
    ("core.pipeline.sim_overlap_factor", "ratio", "higher", _E2E_SIM),
    ("core.backends.gpu_chunks", "count/op", "lower", _E2E_SIM),
    ("core.backends.host_chunks", "count/op", "lower", _E2E_SIM),
    ("core.backends.nic_chunks", "count/op", "lower", _E2E_SIM),
    ("core.backends.nic_descriptors", "count/op", "lower", _E2E_SIM),
    ("core.staging.tbuf_acquire", "count/op", "lower", _E2E_SIM),
    # tuning (tune.table)
    ("tune.resolve.calls", "calls/op", "lower", "sim_op_us_p50"),
    ("tune.resolve.self_ms", "ms/op", "lower", "sim_op_us_p50"),
    ("tune.table.hit_ratio", "ratio", "higher", "sim_op_us_p50"),
    ("tune.table.ctx_hit_ratio", "ratio", "higher", "sim_op_us_p50"),
    ("tune.table.memo_ratio", "ratio", "higher", "sim_op_us_p50"),
    # collectives (mpi.collectives)
    ("mpi.collectives.calls", "calls/op", "lower", "sim_op_us_p50, ops_per_s"),
    ("mpi.collectives.messages", "count/op", "lower", "sim_op_us_p50, ops_per_s"),
    ("mpi.collectives.rounds", "count/op", "lower", "sim_op_us_p50, ops_per_s"),
    ("mpi.collectives.small_sched", "count/op", "lower", "sim_op_us_p50, ops_per_s"),
    ("mpi.collectives.large_sched", "count/op", "lower", "sim_op_us_p50, ops_per_s"),
    # shard coordination (sim.shard)
    ("sim.shard.rounds", "count/op", "lower", "ops_per_s"),
    ("sim.shard.windows_per_round", "ratio", "higher", "ops_per_s"),
    ("sim.shard.null_grant_ratio", "ratio", "lower", "ops_per_s"),
    ("sim.shard.direct_msgs", "count/op", "lower", "ops_per_s"),
    ("sim.shard.pipe_msgs", "count/op", "lower", "ops_per_s"),
    ("sim.shard.event_imbalance", "ratio", "lower", "ops_per_s"),
    # tracing itself
    ("trace.overhead_ratio", "ratio", "lower", "none"),
)

#: Engine-name patterns of the five pipeline stages' hardware.
_ENGINES = {
    "hw.gpu.exec": re.compile(r"^node\d+\.gpu\d+\.exec$"),
    "hw.pcie.d2h": re.compile(r"\.pcie\.d2h$"),
    "ib.hca.tx": re.compile(r"^hca\d+\.tx$"),
    "hw.pcie.h2d": re.compile(r"\.pcie\.h2d$"),
}


def sim_engine_stats(tracers: Iterable) -> Dict[str, float]:
    """Simulated busy seconds per stage (each engine's union, summed over
    nodes) and the pipeline overlap factor, from ``Tracer`` intervals."""
    out = {stage: 0.0 for stage in _ENGINES}
    overlaps: List[float] = []
    for tracer in tracers:
        spans: Dict[str, list] = {}
        for iv in tracer.intervals:
            spans.setdefault(iv.engine, []).append((iv.start, iv.end))
        stage_engines = []
        for engine, engine_spans in spans.items():
            for stage, pattern in _ENGINES.items():
                if pattern.search(engine):
                    out[stage] += union_duration(engine_spans)
                    stage_engines.append(engine)
        if stage_engines:
            overlaps.append(
                overlap_stats(tracer, stage_engines)["overlap_factor"])
    out["overlap"] = sum(overlaps) / len(overlaps) if overlaps else 0.0
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans, perf: Dict[str, int], engines: Dict[str, float],
                 nops: int, sim_nops: int, overhead: float,
                 shard_perf: Dict[str, int], shard_nops: int) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS`.

    ``spans`` is a :class:`spans.SpanRecorder`, ``perf`` the ``PERF``
    counter deltas and ``nops`` the operation count of the traced window;
    ``engines`` (from :func:`sim_engine_stats`) covers its first
    ``sim_nops`` operations. The sim.shard metrics come from
    ``shard_perf`` over ``shard_nops`` operations: the window itself, or a
    sharded batch a sequential workload ran beside it.
    """
    c = lambda name: perf.get(name, 0)  # noqa: E731
    per_op = lambda x: x / nops if nops else 0.0  # noqa: E731
    sc = lambda name: shard_perf.get(name, 0)  # noqa: E731
    calls, self_ns, moved = spans.calls, spans.self_ns, spans.bytes

    def hit_ratio(kind: str) -> float:
        hits = c(f"{kind}_cache_hit")
        return _ratio(hits, hits + c(f"{kind}_cache_miss"))

    lookups = c("tune_lookup_hit") + c("tune_lookup_miss")
    timeouts = c("event_pool_hit") + c("event_pool_miss")
    rounds = sc("shard_rounds")
    shard_events = [v for k, v in sorted(shard_perf.items())
                    if re.fullmatch(r"shard\d+_events", k)]
    fast = c("gather_2d") + c("scatter_2d")
    values = {
        "mpi.datatype.commit.calls": per_op(calls["mpi.datatype.commit"]),
        "mpi.datatype.commit.self_ms": per_op(self_ns["mpi.datatype.commit"] / 1e6),
        "mpi.dtir.canon": per_op(c("dtir_canon")),
        "mpi.dtir.entry_reuse_ratio": _ratio(c("dtir_entry_reuse"), c("dtir_canon")),
        "core.plan.plan_for.calls": per_op(calls["core.plan.plan_for"]),
        "core.plan.compile.calls": per_op(calls["core.plan.compile"]),
        "core.plan.compile.self_ms": per_op(self_ns["core.plan.compile"] / 1e6),
        "core.plan.cache_hit_ratio": hit_ratio("plan"),
        "mpi.datatype.seg_cache_hit_ratio": hit_ratio("seg"),
        "mpi.datatype.slice_cache_hit_ratio": hit_ratio("slice"),
        "pack.fast_path_ratio": _ratio(
            fast, fast + c("gather_vec") + c("scatter_vec")),
        "pack.index_reuse_ratio": _ratio(
            c("index_reuse"), c("index_reuse") + c("index_build")),
        "sim.run.self_ms": per_op(self_ns["sim.run"] / 1e6),
        "sim.core.timeouts": per_op(timeouts),
        "sim.run.ns_per_timeout": _ratio(self_ns["sim.run"], timeouts),
        "core.pipeline.sim_overlap_factor": engines["overlap"],
        "core.backends.gpu_chunks": per_op(c("backend_gpu_chunks")),
        "core.backends.host_chunks": per_op(c("backend_host_chunks")),
        "core.backends.nic_chunks": per_op(c("backend_nic_chunks")),
        "core.backends.nic_descriptors": per_op(c("nic_descriptors")),
        "core.staging.tbuf_acquire": per_op(c("tbuf_acquire")),
        "tune.resolve.calls": per_op(calls["tune.resolve"]),
        "tune.resolve.self_ms": per_op(self_ns["tune.resolve"] / 1e6),
        "tune.table.hit_ratio": _ratio(c("tune_lookup_hit"), lookups),
        "tune.table.ctx_hit_ratio": _ratio(c("coll_tuned_hit"), c("tune_lookup_hit")),
        "tune.table.memo_ratio": _ratio(c("tune_lru_hit"), lookups),
        "mpi.collectives.calls": per_op(c("coll_calls")),
        "mpi.collectives.messages": per_op(c("coll_messages")),
        "mpi.collectives.rounds": per_op(c("coll_rounds")),
        "mpi.collectives.small_sched": per_op(c("coll_small_sched")),
        "mpi.collectives.large_sched": per_op(c("coll_large_sched")),
        "sim.shard.rounds": _ratio(rounds, shard_nops),
        "sim.shard.windows_per_round": _ratio(sc("shard_windows"), rounds),
        "sim.shard.null_grant_ratio": _ratio(sc("shard_null_grants"), rounds),
        "sim.shard.direct_msgs": _ratio(sc("shard_direct_msgs"), shard_nops),
        "sim.shard.pipe_msgs": _ratio(sc("shard_pipe_msgs"), shard_nops),
        "sim.shard.event_imbalance": _ratio(
            max(shard_events, default=0),
            sum(shard_events) / len(shard_events) if shard_events else 0),
        "trace.overhead_ratio": overhead,
    }
    for stage in ("hw.gpu.exec", "hw.pcie.d2h", "ib.hca.tx", "hw.pcie.h2d"):
        values[f"{stage}.sim_busy_us"] = (
            engines[stage] * 1e6 / sim_nops if sim_nops else 0.0)
    for side in ("gather", "scatter"):
        span = f"pack.{side}"
        values[f"{span}.calls"] = per_op(calls[span])
        values[f"{span}.bytes"] = per_op(moved[span])
        values[f"{span}.self_ms"] = per_op(self_ns[span] / 1e6)
        values[f"{span}.gb_per_s"] = _ratio(moved[span], self_ns[span])
    return {name: float(values[name]) for name, *_ in LAYER_METRICS}

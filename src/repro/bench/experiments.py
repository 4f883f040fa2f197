"""One entry point per paper figure/table (the experiment index of DESIGN.md).

Every function returns a structured result dict **and** can render the
paper-style table via :mod:`repro.bench.report`. Each accepts ``scale``:

* ``"full"`` -- the paper's exact parameters (8 K x 8 K matrices, 4 MB
  sweeps). Minutes of wall time per experiment.
* ``"quick"`` -- same shapes at reduced sizes, for CI and
  ``pytest-benchmark`` runs. Seconds of wall time.

Run from the command line::

    python -m repro.bench fig2 fig5 fig6 tab1 tab2 tab3
    python -m repro.bench all --scale quick
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..apps import StencilConfig, analyze_complexity, run_stencil
from ..baselines import measure_all_schemes
from ..core import GpuNcConfig
from ..hw import Cluster, HardwareConfig, KiB, MiB
from ..mpi import MpiWorld
from .report import comparison_row, format_size, format_time, series_table, table
from .vector_latency import mv2_gpu_nc_latency, vector_latency_series

__all__ = [
    "fig2_pack_schemes",
    "fig3_pipeline_gantt",
    "ablation_offload",
    "ablation_interconnect",
    "fig5_vector_latency",
    "fig6_breakdown",
    "tab1_complexity",
    "tab2_stencil",
    "tab3_stencil",
    "ablation_chunk_size",
    "ablation_engines",
    "fault_matrix",
    "conformance",
    "coll_datatype_aware",
    "scale_weak_stencil",
    "EXPERIMENTS",
]

#: Paper message-size sweeps (Figures 2 and 5): small and large panels.
SMALL_SIZES = [16, 64, 256, 1 * KiB, 4 * KiB]
LARGE_SIZES = [4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]

#: Tables II/III process grids with per-process matrix sizes, full scale.
STENCIL_GRIDS_FULL = [
    ("1x8", 1, 8, 65536, 1024),
    ("8x1", 8, 1, 1024, 65536),
    ("2x4", 2, 4, 8192, 8192),
    ("4x2", 4, 2, 8192, 8192),
]
#: Same shapes scaled down 8x per dimension for quick runs.
STENCIL_GRIDS_QUICK = [
    ("1x8", 1, 8, 8192, 128),
    ("8x1", 8, 1, 128, 8192),
    ("2x4", 2, 4, 1024, 1024),
    ("4x2", 4, 2, 1024, 1024),
]


def _sizes(scale: str) -> tuple:
    if scale == "full":
        return SMALL_SIZES, LARGE_SIZES
    return [16, 256, 4 * KiB], [4 * KiB, 64 * KiB, 1 * MiB]


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------

def fig2_pack_schemes(scale: str = "full", verify: bool = True) -> dict:
    """Figure 2: non-contiguous data pack performance, three schemes."""
    small_sizes, large_sizes = _sizes(scale)
    result = {"small": [], "large": []}
    for panel, sizes in (("small", small_sizes), ("large", large_sizes)):
        for size in sizes:
            point = measure_all_schemes(size, verify=verify)
            point["size"] = size
            result[panel].append(point)
    result["text"] = "\n\n".join(
        series_table(
            result[panel],
            ["d2h_nc2nc", "d2h_nc2c", "d2d2h_nc2c2c"],
            unit="us",
            title=f"Figure 2({'a' if panel == 'small' else 'b'}): "
            f"non-contiguous pack latency ({panel} messages)",
        )
        for panel in ("small", "large")
    )
    return result


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------

def fig5_vector_latency(scale: str = "full", verify: bool = True,
                        iterations: int = 3) -> dict:
    """Figure 5: vector GPU-GPU latency of the three designs."""
    small_sizes, large_sizes = _sizes(scale)
    result = {
        "small": vector_latency_series(small_sizes, iterations=iterations,
                                       verify=verify),
        "large": vector_latency_series(large_sizes, iterations=iterations,
                                       verify=verify),
    }
    big = result["large"][-1]
    result["improvement_at_largest"] = (
        100.0 * (big["Cpy2D+Send"] - big["MV2-GPU-NC"]) / big["Cpy2D+Send"]
    )
    result["text"] = "\n\n".join(
        series_table(
            result[panel],
            ["Cpy2D+Send", "Cpy2DAsync+CpyAsync+Isend", "MV2-GPU-NC"],
            unit="us",
            title=f"Figure 5({'a' if panel == 'small' else 'b'}): "
            f"vector communication latency ({panel} messages)",
        )
        for panel in ("small", "large")
    ) + (
        f"\n\nMV2-GPU-NC improvement over Cpy2D+Send at "
        f"{format_size(big['size'])}: {result['improvement_at_largest']:.0f}% "
        "(paper: 88% at 4M)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

def fig6_breakdown(scale: str = "full") -> dict:
    """Figure 6: per-direction communication breakdown at rank 1 of a 2x4
    grid running Stencil2D-Def with single-precision data."""
    n = 8192 if scale == "full" else 1024
    cfg = StencilConfig(2, 4, n, n, iterations=3, variant="def",
                        functional=False)
    res = run_stencil(cfg)
    # Rank 1 has south, west and east neighbours -- the paper's subject.
    rank1 = res.breakdown[1]
    rows = []
    result = {"rank": 1, "grid": "2x4", "matrix": f"{n}x{n}", "breakdown": {}}
    for direction in ("south", "west", "east"):
        mpi = rank1[direction]["mpi"]
        cuda = rank1[direction]["cuda"]
        result["breakdown"][f"{direction}_mpi"] = mpi
        result["breakdown"][f"{direction}_cuda"] = cuda
        rows.append([direction, format_time(mpi, "us"), format_time(cuda, "us")])
    result["text"] = table(
        ["Direction", "mpi (us)", "cuda (us)"],
        rows,
        title=f"Figure 6: Stencil2D-Def comm breakdown, rank 1 of 2x4 grid, "
        f"{n}x{n} fp32, {cfg.iterations} iterations",
    )
    return result


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def tab1_complexity(scale: str = "full") -> dict:
    """Table I: main-loop complexity, Def vs MV2-GPU-NC."""
    rep = analyze_complexity(dynamic=True)
    rows = []
    for call in ("MPI_Irecv", "MPI_Isend", "MPI_Send", "cudaMemcpy",
                 "cudaMemcpy2D"):
        rows.append([
            call,
            str(rep.dynamic_calls["def"].get(call, 0)),
            str(rep.dynamic_calls["mv2nc"].get(call, 0)),
        ])
    rows.append(["Lines of code", str(rep.loc["def"]), str(rep.loc["mv2nc"])])
    result = {
        "loc": rep.loc,
        "dynamic_calls": rep.dynamic_calls,
        "loc_reduction_percent": rep.loc_reduction_percent,
    }
    result["text"] = table(
        ["", "Stencil2D-Def", "Stencil2D-MV2-GPU-NC"],
        rows,
        title="Table I: per-iteration calls (interior rank) and exchange-code "
        "size",
    ) + (
        f"\nLoC reduction: {rep.loc_reduction_percent:.0f}% (paper: 36%)"
    )
    return result


# ---------------------------------------------------------------------------
# Tables II and III
# ---------------------------------------------------------------------------

def _stencil_table(dtype: str, scale: str, iterations: int) -> dict:
    grids = STENCIL_GRIDS_FULL if scale == "full" else STENCIL_GRIDS_QUICK
    rows = []
    result = {"rows": []}
    for name, gr, gc, lr, lc in grids:
        times = {}
        for variant in ("def", "mv2nc"):
            cfg = StencilConfig(gr, gc, lr, lc, dtype=dtype,
                                iterations=iterations, variant=variant,
                                functional=False)
            times[variant] = run_stencil(cfg).median_iteration_time
        improvement = 100 * (times["def"] - times["mv2nc"]) / times["def"]
        result["rows"].append({
            "grid": name, "matrix": f"{lr}x{lc}",
            "def": times["def"], "mv2nc": times["mv2nc"],
            "improvement_percent": improvement,
        })
        rows.append(comparison_row(f"{name} ({lr}x{lc})", times["def"],
                                   times["mv2nc"], unit="s"))
    num = "II" if dtype == "float32" else "III"
    precision = "single" if dtype == "float32" else "double"
    result["text"] = table(
        ["Grid (matrix/process)", "Stencil2D-Def (s)",
         "Stencil2D-MV2-GPU-NC (s)", "Improvement"],
        rows,
        title=f"Table {num}: median Stencil2D step time, {precision} "
        f"precision, scale={scale}",
    )
    return result


def tab2_stencil(scale: str = "full", iterations: int = 3) -> dict:
    """Table II: Stencil2D median step times, single precision."""
    return _stencil_table("float32", scale, iterations)


def tab3_stencil(scale: str = "full", iterations: int = 3) -> dict:
    """Table III: Stencil2D median step times, double precision."""
    return _stencil_table("float64", scale, iterations)


def scale_weak_stencil(scale: str = "full", shards: int = 0) -> dict:
    """Weak-scaling stencil halo exchange, sequential vs the sharded engine.

    Runs the ``tab2``-style mv2nc halo exchange at 8/16/32/64 ranks with a
    fixed per-rank problem (64 x 4096 float32 -- 16 KiB north/south halos,
    well past the eager threshold, so the rendezvous path crosses the
    shard bridge). Each rank count runs sequentially and under the sharded
    engine (``shards`` of 0 sweeps {2, 4}); the simulated iteration times
    must be identical in every configuration (shard invariance is asserted,
    not assumed), and the sequential-vs-widest-sharded wall-clocks are
    pinned per rank count in ``BENCH_shard.json``.

    Wall-clock speedup from sharding is bounded by the host's CPU cores
    (the workers are real processes); the ledger records the core count
    next to each pin so numbers taken on different machines stay
    interpretable.
    """
    import os
    import time

    from ..perf import ledger

    grids = [(4, 2), (4, 4), (8, 4), (8, 8)] if scale == "full" \
        else [(4, 2), (4, 4)]
    iterations = 8 if scale == "full" else 2
    shard_list = [2, 4] if shards < 2 else [shards]

    result = {"points": [], "cores": os.cpu_count()}
    rows = []
    for gr, gc in grids:
        nranks = gr * gc
        cfg = StencilConfig(gr, gc, 64, 4096, iterations=iterations,
                            functional=False)
        start = time.perf_counter()
        seq = run_stencil(cfg)
        seq_wall = time.perf_counter() - start
        sim_seconds = max(sum(ts) for ts in seq.iteration_times)
        point = {
            "ranks": nranks,
            "sim_seconds": sim_seconds,
            "sequential_wall": seq_wall,
            "sharded_wall": {},
        }
        row = [str(nranks), format_time(sim_seconds, "ms"),
               f"{seq_wall:.2f}"]
        for nsh in shard_list:
            start = time.perf_counter()
            shd = run_stencil(cfg, shards=nsh)
            wall = time.perf_counter() - start
            if shd.iteration_times != seq.iteration_times:
                raise RuntimeError(
                    f"scale: {nranks}-rank iteration times diverged at "
                    f"shards={nsh} -- shard invariance broken"
                )
            point["sharded_wall"][nsh] = wall
            row.append(f"{wall:.2f} ({seq_wall / wall:.2f}x)")
        widest = max(point["sharded_wall"])
        ledger.record(
            "shard", f"scale{nranks}:{scale}", seq_wall,
            point["sharded_wall"][widest], shards=widest,
            cores=os.cpu_count(),
        )
        result["points"].append(point)
        rows.append(row)

    headers = ["Ranks", "Sim (ms)", "Seq (s)"] + [
        f"shards={n} (s)" for n in shard_list
    ]
    result["text"] = table(
        headers, rows,
        title=f"Weak scaling: stencil halo exchange, {iterations} iters, "
        f"64x4096 f32 per rank",
    ) + (
        f"\n\nsimulated times identical in every configuration (verified); "
        f"wall-clock measured on a {result['cores']}-core host -- parallel "
        f"speedup is bounded by available cores"
    )
    return result


def scale1024_weak_stencil(scale: str = "full") -> dict:
    """Weak scaling to 1024 ranks over a hierarchical fat-tree fabric.

    The frontier of the sharded engine: a 32 x 32 stencil grid (16 x 16 at
    ``quick`` scale) on a two-level :class:`~repro.ib.fabric.FatTreeTopology`
    whose leaves align with the 16-shard contiguous partition, so every
    cross-shard message is inter-leaf and the coordinator's conservative
    lookahead widens from the base latency to the (2x slower) spine
    latency. The coordinator drives all sixteen workers directly, one
    granted window per worker per round.

    Nodes carry reduced memory arenas (a 1024-node world at the default
    12 GiB per node would ask the host for terabytes of address space);
    the halo-exchange traffic itself is unchanged. Shard invariance of the
    simulated iteration times is asserted, and the wall-clock pair plus
    the invariance verdict are pinned in ``BENCH_shard.json``.
    """
    import os
    import time

    from ..ib.fabric import FatTreeTopology
    from ..perf import ledger

    grid = 32 if scale == "full" else 16
    nranks = grid * grid
    iterations = 2 if scale == "full" else 1
    shards = 16
    # Two leaves per shard: partition-aligned, every cross-shard hop pays
    # (and every sharded window gains) the spine latency.
    leaf = nranks // (shards * 2)
    hw = HardwareConfig.fermi_qdr().with_overrides(
        host_memory_bytes=64 * MiB, device_memory_bytes=32 * MiB,
    )
    topo = FatTreeTopology(leaf_size=leaf, inter_latency=3e-6)
    cfg = StencilConfig(grid, grid, 16, 1024, iterations=iterations,
                        functional=False)

    start = time.perf_counter()
    seq = run_stencil(cfg, hw=hw, topology=topo)
    seq_wall = time.perf_counter() - start
    start = time.perf_counter()
    shd = run_stencil(cfg, hw=hw, topology=topo, shards=shards)
    shard_wall = time.perf_counter() - start
    invariant = shd.iteration_times == seq.iteration_times
    if not invariant:
        raise RuntimeError(
            f"scale1024: {nranks}-rank iteration times diverged under "
            f"{shards} shards -- shard invariance broken"
        )
    sim_seconds = max(sum(ts) for ts in seq.iteration_times)
    entry = ledger.record(
        "shard", f"scale{nranks}fat:{scale}", seq_wall, shard_wall,
        shards=shards, cores=os.cpu_count(), invariant=True,
        leaf_size=leaf, inter_latency=topo.inter_latency,
    )
    result = {
        "ranks": nranks,
        "shards": shards,
        "sim_seconds": sim_seconds,
        "sequential_wall": seq_wall,
        "sharded_wall": shard_wall,
        "invariant": invariant,
        "cores": os.cpu_count(),
    }
    result["text"] = table(
        ["Ranks", "Shards", "Leaf", "Sim (ms)", "Seq (s)", "Sharded (s)",
         "Invariant"],
        [[str(nranks), str(shards), str(leaf),
          format_time(sim_seconds, "ms"), f"{seq_wall:.2f}",
          f"{shard_wall:.2f} ({entry['speedup']:.2f}x)",
          "yes" if invariant else "NO"]],
        title=f"Weak scaling to {nranks} ranks: fat-tree fabric, "
        f"{shards} shards",
    ) + (
        f"\n\nsimulated iteration times bit-identical sequential vs "
        f"{shards}-way sharding (verified); wall-clock on a "
        f"{result['cores']}-core host"
    )
    return result


# ---------------------------------------------------------------------------
# Ablations (ours)
# ---------------------------------------------------------------------------

def ablation_chunk_size(scale: str = "full", verify: bool = False) -> dict:
    """Sweep the pipeline chunk size for a 4 MB vector transfer.

    Reproduces the tuning experiment behind the paper's statement that
    64 KB was the optimal block size on their cluster. Each point is one
    trial of the autotuner's own search engine (:mod:`repro.tune.search`),
    so this ablation and ``python -m repro.tune search`` can never
    disagree about what a chunk size costs.
    """
    from ..tune.search import Candidate, trial_latency

    message = 4 * MiB if scale == "full" else 1 * MiB
    chunks = [8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB, 128 * KiB,
              256 * KiB, 512 * KiB, 1 * MiB]
    points = []
    for chunk in chunks:
        t = trial_latency(message, Candidate(chunk), iterations=2,
                          verify=verify)
        points.append({"size": chunk, "latency": t})
    best = min(points, key=lambda p: p["latency"])
    result = {"message_bytes": message, "points": points,
              "best_chunk": best["size"]}
    result["text"] = series_table(
        points, ["latency"], unit="us",
        title=f"Ablation A: pipeline chunk-size sweep, "
        f"{format_size(message)} vector (best: {format_size(best['size'])}; "
        "paper tuned 64K)",
    )
    return result


def ablation_engines(scale: str = "full", verify: bool = False) -> dict:
    """Quantify how much of the win needs independent GPU engines.

    Runs the same 4 MB vector transfer on the normal Fermi model (separate
    H2D/D2H/exec engines) and on a single-engine GPU where pack, drain and
    fill serialize.
    """
    message = 4 * MiB if scale == "full" else 1 * MiB
    t_fermi = mv2_gpu_nc_latency(message, iterations=2, verify=verify)
    t_single = mv2_gpu_nc_latency(
        message, cfg=HardwareConfig.single_engine_gpu(), iterations=2,
        verify=verify,
    )
    result = {
        "message_bytes": message,
        "fermi_3_engines": t_fermi,
        "single_engine": t_single,
        "slowdown_factor": t_single / t_fermi,
    }
    result["text"] = table(
        ["GPU model", "latency (us)"],
        [
            ["Fermi (3 engines)", format_time(t_fermi, "us")],
            ["single engine", format_time(t_single, "us")],
        ],
        title=f"Ablation B: engine concurrency, {format_size(message)} vector "
        f"(single-engine slowdown: {result['slowdown_factor']:.2f}x)",
    )
    return result


def fig3_pipeline_gantt(scale: str = "full", shards: int = 1) -> dict:
    """Figure 3 (architecture): render the live five-stage pipeline.

    Not a measured figure in the paper -- Figure 3 is the design diagram --
    but the simulator can show the *actual* overlap the diagram promises:
    an ASCII Gantt of every engine during one pipelined strided transfer.
    ``shards > 1`` runs it on the sharded engine; the merged trace (and
    therefore the rendered gantt) is bit-identical to sequential.
    """
    from ..mpi import BYTE, Datatype
    from .timeline import overlap_stats, render_gantt

    rows = (1 << 18) if scale == "full" else (1 << 16)
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    cluster = Cluster(2, shards=shards)

    def program(ctx):
        buf = ctx.cuda.malloc(rows * 8)
        if ctx.rank == 0:
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)

    MpiWorld(cluster).run(program)
    engines = [
        "node0.gpu0.exec", "node0.gpu0.pcie.d2h", "hca0.tx",
        "node1.gpu0.pcie.h2d", "node1.gpu0.exec",
    ]
    stats = overlap_stats(cluster.tracer, engines)
    art = render_gantt(cluster.tracer, engines, width=70)
    result = {
        "overlap_factor": stats["overlap_factor"],
        "wall_seconds": stats["wall"],
    }
    result["text"] = (
        f"Figure 3: five-stage pipeline activity, {format_size(rows * 4)} "
        f"strided vector\n\n{art}\n\noverlap factor "
        f"{stats['overlap_factor']:.2f}x (1.0x would be fully serial)"
    )
    return result


def ablation_offload(scale: str = "full", verify: bool = False) -> dict:
    """Decompose the win: pipelining alone vs pipelining + GPU offload.

    Runs the library path across the Figure 5 sizes twice -- once with
    datatype processing offloaded to the GPU (the paper's design) and once
    with the offload disabled (strided per-row PCIe copies, still fully
    pipelined). The gap is the offload's own contribution, separating the
    paper's two mechanisms.
    """
    _, large_sizes = _sizes(scale)
    points = []
    for size in large_sizes:
        with_offload = mv2_gpu_nc_latency(size, iterations=2, verify=verify)
        without = mv2_gpu_nc_latency(
            size, iterations=2, verify=verify,
            gpu_config=GpuNcConfig(backend="host"),
        )
        points.append({
            "size": size,
            "offload": with_offload,
            "no_offload": without,
            "speedup": without / with_offload,
        })
    result = {"points": points}
    rows = [
        [format_size(p["size"]), format_time(p["offload"], "us"),
         format_time(p["no_offload"], "us"), f"{p['speedup']:.1f}x"]
        for p in points
    ]
    result["text"] = table(
        ["Size", "with offload (us)", "no offload (us)", "offload speedup"],
        rows,
        title="Ablation C: GPU datatype-processing offload contribution "
        "(both fully pipelined)",
    )
    return result


def ablation_interconnect(scale: str = "full", verify: bool = False) -> dict:
    """The paper's portability claim: the design wins on every RDMA fabric.

    Repeats the 4 MB naive-vs-MV2-GPU-NC comparison on QDR InfiniBand (the
    testbed), DDR InfiniBand and 10 GbE RoCE. The improvement should hold
    everywhere -- the bottleneck the design removes (per-row PCIe DMA and
    CPU packing) is independent of the wire.
    """
    from ..baselines import naive_vector_latency

    message = 4 * MiB if scale == "full" else 1 * MiB
    fabrics = {
        "QDR InfiniBand": HardwareConfig.fermi_qdr(),
        "DDR InfiniBand": HardwareConfig.fermi_ddr_ib(),
        "RoCE 10GbE": HardwareConfig.fermi_roce(),
    }
    from .osu import osu_bw

    rows = []
    result = {"fabrics": {}}
    for name, hw in fabrics.items():
        naive = naive_vector_latency(message, cfg=hw, iterations=2,
                                     verify=verify)
        nc = mv2_gpu_nc_latency(message, cfg=hw, iterations=2, verify=verify)
        wire = osu_bw(message, space="device", layout="contiguous", cfg=hw)
        improvement = 100 * (naive - nc) / naive
        result["fabrics"][name] = {
            "naive": naive, "mv2nc": nc, "improvement_percent": improvement,
            "contiguous_bw": wire,
        }
        rows.append([
            name, f"{wire / 1e9:.2f}", format_time(naive, "us"),
            format_time(nc, "us"), f"{improvement:.0f}%",
        ])
    result["text"] = table(
        ["Fabric", "contig bw (GB/s)", "Cpy2D+Send (us)", "MV2-GPU-NC (us)",
         "Improvement"],
        rows,
        title=f"Ablation D: interconnect sensitivity, "
        f"{format_size(message)} vector (the win survives because the "
        "removed bottleneck is PCIe-side, not the wire)",
    )
    return result


# ---------------------------------------------------------------------------
# Fault matrix (ours)
# ---------------------------------------------------------------------------

def fault_matrix(scale: str = "full", verify: bool = True,
                 shards: int = 1) -> dict:
    """Convergence of the rendezvous recovery layer under injected faults.

    One non-contiguous GPU-GPU rendezvous per fault class, each over a
    fabric injecting that class (dropped/duplicated/delayed control
    messages, stalled/failed RDMA writes). Every case must complete with
    verified payload bytes; the table shows the simulated-time cost of each
    fault class next to the fault-free run and the recovery actions taken.
    ``shards > 1`` exercises the recovery layer on the sharded engine; the
    convergence times are bit-identical to sequential.
    """
    from ..ib.faults import FaultPlan, FaultSpec
    from ..mpi import BYTE, Datatype
    from ..mpi.pack import pack_bytes
    from ..perf.stats import PERF

    rows_n = (1 << 13) if scale == "full" else (1 << 12)
    payload = rows_n * 8
    cases = [
        ("none", []),
        ("drop rts", [FaultSpec("ctl", "drop", ctl_type="rts")]),
        ("drop cts", [FaultSpec("ctl", "drop", ctl_type="cts")]),
        ("drop fin", [FaultSpec("ctl", "drop", ctl_type="fin")]),
        ("dup rts+cts+fin", [
            FaultSpec("ctl", "duplicate", ctl_type="rts"),
            FaultSpec("ctl", "duplicate", ctl_type="cts"),
            FaultSpec("ctl", "duplicate", ctl_type="fin"),
        ]),
        ("ctl delay spike", [
            FaultSpec("ctl", "delay", ctl_type="cts", delay=400e-6),
        ]),
        # Stall longer than RecoveryConfig.rdma_timeout: forces a retransmit.
        ("rdma stall", [FaultSpec("rdma_write", "stall", delay=500e-6)]),
        ("rdma fail x2", [FaultSpec("rdma_write", "fail", count=2)]),
    ]

    def program(ctx, vec):
        buf = ctx.cuda.malloc(payload)
        if ctx.rank == 0:
            buf.view()[:] = np.arange(payload, dtype=np.uint64) % 251
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            buf.view()[:] = 0
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
        # Report our own finish time: env.now after the run also counts
        # trailing recovery timers (watchdog ticks) that fire after the
        # transfer already completed.
        return buf, ctx.now

    result = {"cases": []}
    rows = []
    for name, specs in cases:
        plan = FaultPlan(specs=tuple(specs)) if specs else None
        cluster = Cluster(2, faults=plan, shards=shards)
        world = MpiWorld(cluster)
        vec = Datatype.hvector(rows_n, 4, 8, BYTE).commit()
        before = PERF.snapshot()
        # `until` bounds the run: a hung recovery path fails loudly instead
        # of spinning the harness forever.
        outs = world.run(program, vec, until=1.0)
        bufs = [buf for buf, _ in outs]
        elapsed = max(t for _, t in outs)
        ok = True
        if verify:
            ok = bool(np.array_equal(
                pack_bytes(bufs[0], vec, 1), pack_bytes(bufs[1], vec, 1)
            ))
            if not ok:
                raise RuntimeError(f"fault case {name!r}: payload corrupt")
        after = PERF.snapshot()
        delta = {
            k: after.get(k, 0) - before.get(k, 0)
            for k in PERF.FAULT_COUNTERS
        }
        injected = sum(
            v for k, v in delta.items() if k.startswith("fault_")
        )
        recovered = sum(
            v for k, v in delta.items() if not k.startswith("fault_")
        )
        result["cases"].append({
            "case": name, "sim_seconds": elapsed, "verified": ok,
            "counters": {k: v for k, v in delta.items() if v},
        })
        rows.append([
            name, format_time(elapsed, "us"), str(injected), str(recovered),
            "ok" if ok else "CORRUPT",
        ])
    result["text"] = table(
        ["Fault class", "sim time (us)", "injected", "recovery acts", "data"],
        rows,
        title=f"Fault matrix: {format_size(payload)} strided vector "
        "rendezvous under injected faults (retry layer armed)",
    )
    return result


def dtype_zoo(scale: str = "full", shards: int = 1) -> dict:
    """Equivalent-layout zoo: the datatype IR's canonicalization at work.

    Two families of layouts, each buildable through several MPI datatype
    constructors that describe the *same* bytes:

    * **uniform** -- a strided row grid expressed as ``vector``,
      ``hvector``-of-contiguous, a 2-D ``subarray`` slab and a two-part
      ``struct`` of half-vectors;
    * **irregular** -- one seeded scatter of variable-length runs
      expressed as ``hindexed``, ``indexed`` and an equal-typed
      ``struct``.

    Every construction is committed and driven through the compiled-state
    surface (transfer-plan compilation, per-chunk gather, simulated stage
    costs, tuning signatures). The members of each family must pack the
    same bytes under the same signature, collapse onto one canonical
    registry entry, and share one compiled plan across fresh instances.
    A pipelined engine exchange then runs at ``shards``; with
    ``shards > 1`` its merged trace must equal the sequential one.
    """
    import hashlib

    from ..core.backends import contiguous_copy_cost
    from ..core.gpu_pack import gpu_pack_cost
    from ..hw.memory import Arena
    from ..mpi import BYTE, FLOAT, Datatype
    from ..mpi import dtir
    from ..perf.stats import PERF

    rows = (1 << 16) if scale == "full" else (1 << 13)
    nseg = 12288 if scale == "full" else 1536
    count = 8
    chunk = 64 * KiB
    hw = HardwareConfig()

    # One seeded irregular scatter shared by all three constructions:
    # variable-length element runs at increasing element displacements.
    rng = np.random.default_rng(20110926)
    blk_elems = rng.integers(2, 18, size=nseg)
    gaps = rng.integers(1, 9, size=nseg)
    disp_elems = np.concatenate(([0], np.cumsum(blk_elems + gaps)[:-1]))
    bls = [int(b) for b in blk_elems]
    disps = [int(d) for d in disp_elems]
    disps_b = [d * 4 for d in disps]

    half = rows // 2

    def u_vector():
        return Datatype.vector(rows, 4, 16, FLOAT)

    def u_hvector():
        return Datatype.hvector(rows, 1, 64, Datatype.contiguous(4, FLOAT))

    def u_subarray():
        return Datatype.subarray([rows, 16], [rows, 4], [0, 0], FLOAT)

    def u_struct():
        h = Datatype.vector(half, 4, 16, FLOAT)
        return Datatype.struct([1, 1], [0, half * 64], [h, h])

    def i_hindexed():
        return Datatype.hindexed(bls, disps_b, FLOAT)

    def i_indexed():
        return Datatype.indexed(bls, disps, FLOAT)

    def i_struct():
        return Datatype.struct(bls, disps_b, [FLOAT] * nseg)

    families = [
        ("uniform", [("vector", u_vector), ("hvector", u_hvector),
                     ("subarray", u_subarray), ("struct", u_struct)]),
        ("irregular", [("hindexed", i_hindexed), ("indexed", i_indexed),
                       ("struct", i_struct)]),
    ]

    def packed_digest(dt):
        """Functionally pack one element through the compiled plan."""
        plan = dt.plan_for(1, chunk)
        hi = int(dt.segments.span()[1])
        arena = Arena(max(hi, 1) + 4096, "device", name="zoo")
        src = arena.alloc(max(hi, 1))
        view = src.view()
        view[:] = (np.arange(view.size, dtype=np.int64) * 131) % 251
        dst = np.empty(plan.total, np.uint8)
        for cp in plan.chunks:
            cp.gather_into(src, dst[cp.lo:cp.hi])
        return hashlib.blake2b(dst.tobytes(), digest_size=16).hexdigest()

    dtir.reset_registry()
    c0 = PERF.snapshot()
    fingerprint = {}
    for fam, members in families:
        entries = set()
        for nm, fn in members:
            dt = fn().commit()
            plan = dt.plan_for(count, chunk)
            copy = sum(plan.costs_for(hw, contiguous_copy_cost))
            fingerprint[f"{fam}/{nm}"] = (
                packed_digest(dt),
                dt.layout_signature(1).key(),
                plan.nchunks,
                # pack, D2H and H2D stage sums; the two copies cost alike
                (sum(plan.costs_for(hw, gpu_pack_cost)), copy, copy),
            )
            entries.add(id(dt._entry()))
            # A second *fresh* instance of the same construction must
            # replay the very same compiled plan.
            if fn().commit().plan_for(count, chunk) is not plan:
                raise RuntimeError(
                    f"zoo: two fresh {fam}/{nm} instances compiled "
                    f"distinct plans -- entry plan cache not shared"
                )
        member_fps = [fingerprint[f"{fam}/{nm}"][:2] for nm, _ in members]
        if len(set(member_fps)) != 1:
            raise RuntimeError(
                f"zoo: {fam} family members packed different bytes or "
                f"signatures -- the constructions are not equivalent"
            )
        if len(entries) != 1:
            raise RuntimeError(
                f"zoo: {fam} family did not collapse onto one canonical "
                f"registry entry"
            )

    delta = {
        k: PERF.counters[k] - c0.get(k, 0)
        for k in ("dtir_canon", "dtir_collision", "dtir_entry_reuse",
                  "dtir_plan_shared", "dtir_sig_shared", "dtir_seg_shared")
    }
    if delta["dtir_collision"] == 0 or delta["dtir_plan_shared"] == 0:
        raise RuntimeError(
            f"zoo: expected canonical collisions and shared plans; "
            f"counters: {delta}"
        )

    rows_n = 1 << 12

    def exchange(nsh):
        """A pipelined engine exchange of a zoo-shaped strided vector."""
        vec = Datatype.hvector(rows_n, 4, 8, BYTE).commit()
        cluster = Cluster(2, shards=nsh)

        def program(ctx):
            buf = ctx.cuda.malloc(rows_n * 8)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        MpiWorld(cluster).run(program)
        return cluster.tracer.canonical(), cluster.env.now

    run = exchange(shards)
    trace_note = (f"engine exchange at shards={shards}: "
                  f"{len(run[0][0])} trace intervals")
    if shards > 1:
        if run != exchange(1):
            raise RuntimeError(
                f"zoo: engine trace at shards={shards} diverged from the "
                f"sequential run -- shard invariance broken"
            )
        trace_note += ", identical to sequential (verified)"

    result = {"counters": delta, "fingerprint": fingerprint}
    rows_txt = [
        [fam, str(len(members)), str(fingerprint[f"{fam}/{members[0][0]}"][1])]
        for fam, members in families
    ]
    result["text"] = table(
        ["Family", "Constructions", "Canonical class"],
        rows_txt,
        title=f"Datatype zoo: equivalent layouts, count={count}",
    ) + (
        f"\n\ncanonicalized {delta['dtir_canon']}, collisions "
        f"{delta['dtir_collision']}, shared plans "
        f"{delta['dtir_plan_shared']} / signatures "
        f"{delta['dtir_sig_shared']} / tilings {delta['dtir_seg_shared']}\n"
        "each family packs identical bytes under one signature, one "
        "registry entry and one plan (verified)\n" + trace_note
    )
    return result


# ---------------------------------------------------------------------------
# Backend conformance (transfer backends x Hunold/Traeff guidelines)
# ---------------------------------------------------------------------------

def _backend_irregular_digest(backend: str, nseg: int, seed: int) -> str:
    """Digest of the bytes one forced backend delivers for a seeded
    hindexed scatter (rank 0 -> rank 1, device to device)."""
    import hashlib

    from ..mpi import BYTE, Datatype

    rng = np.random.default_rng(seed)
    blk = rng.integers(8, 64, size=nseg)
    gaps = rng.integers(4, 32, size=nseg)
    disp = np.concatenate(([0], np.cumsum(blk + gaps)[:-1]))
    dt = Datatype.hindexed(
        [int(b) for b in blk], [int(d) for d in disp], BYTE
    ).commit()
    span = int(disp[-1] + blk[-1])
    pattern = rng.integers(0, 256, span, np.uint8)

    def program(ctx):
        dbuf = ctx.cuda.malloc(span)
        if ctx.rank == 0:
            dbuf.fill_from(pattern)
            yield from ctx.comm.Send(dbuf, 1, dt, dest=1)
            return None
        yield from ctx.comm.Recv(dbuf, 1, dt, source=0)
        return hashlib.blake2b(dbuf.view().tobytes(),
                               digest_size=16).hexdigest()

    cluster = Cluster(2)
    world = MpiWorld(cluster, gpu_config=GpuNcConfig(backend=backend))
    return world.run(program)[1]


def conformance(scale: str = "full", verify: bool = True) -> dict:
    """Backend conformance: every transfer backend, mechanically checked.

    Sweeps zoo-style layouts (a fine 4-byte-segment vector, a wide
    4 KB-segment vector and a seeded irregular ``hindexed`` scatter)
    across the three transfer backends (``gpu`` pipeline, ``host``
    strided-PCIe staging, ``nic`` descriptor offload) and asserts, for
    every point:

    * **byte equality** -- all backends deliver byte-for-byte identical
      receive buffers (``verify=True`` payload checks on the vector
      workloads, explicit digests on the irregular scatter);
    * **Hunold/Traeff guidelines** -- tuned >= default >= naive and
      datatype >= manual pack (in throughput terms: the tuned chooser is
      never slower than the default backend, which is never slower than
      the ``Cpy2D+Send`` naive design or the hand-pipelined manual pack,
      within :data:`~repro.core.backends.GUIDELINE_TOLERANCE`).

    The forced-backend measurements then build an in-memory
    backend-aware tuning table (winner by measured latency, filtered
    through :func:`~repro.core.backends.guideline_backend` so a backend
    whose *modeled* cost is out of tolerance can never be picked on a
    lucky measurement), the tuned chooser re-runs every point against
    the default config, and each pair is pinned in ``BENCH_sim.json``
    -- where ``tests/bench/test_sim_ledger.py`` asserts speedup >= 1.0
    everywhere and > 1.0 somewhere.
    """
    from ..baselines import manual_pipeline_latency, naive_vector_latency
    from ..core.backends import (
        BACKEND_NAMES,
        GUIDELINE_TOLERANCE,
        guideline_backend,
    )
    from ..mpi import BYTE, Datatype
    from ..perf import ledger
    from ..tune import TuningEntry, TuningTable, size_bucket
    from ..tune.table import cluster_config_hash

    hw = HardwareConfig.fermi_qdr()
    tol = 1.0 + GUIDELINE_TOLERANCE
    iterations = 3 if scale == "full" else 2
    nseg = 512 if scale == "full" else 96
    layouts = [
        ("fine-vector", 4, [4 * KiB, 64 * KiB] +
         ([1 * MiB] if scale == "full" else [])),
        ("wide-vector", 4 * KiB, [16 * KiB, 64 * KiB, 256 * KiB] +
         ([1 * MiB] if scale == "full" else [])),
    ]
    default_chunk = GpuNcConfig().chunk_bytes

    # An irregular scatter: every backend must deliver identical bytes.
    digests = {
        b: _backend_irregular_digest(b, nseg, seed=20111017)
        for b in BACKEND_NAMES
    }
    if len(set(digests.values())) != 1:
        raise RuntimeError(
            f"conformance: backends delivered different bytes for the "
            f"irregular scatter: {digests}"
        )

    table = TuningTable(cluster_config_hash(hw))
    rows = []
    points = []
    for layout, elem, sizes in layouts:
        for size in sizes:
            # Forced-backend sweep; verify=True asserts each backend
            # delivers the exact sent pattern (hence all identical).
            measured = {
                b: mv2_gpu_nc_latency(
                    size, elem_bytes=elem, iterations=iterations,
                    verify=verify,
                    gpu_config=GpuNcConfig(backend=b),
                )
                for b in BACKEND_NAMES
            }
            default_lat = mv2_gpu_nc_latency(
                size, elem_bytes=elem, iterations=iterations, verify=verify,
            )
            naive_lat = naive_vector_latency(
                size, elem_bytes=elem, iterations=iterations, verify=verify,
            )
            manual_lat = manual_pipeline_latency(
                size, elem_bytes=elem, iterations=iterations, verify=verify,
            )
            # Hunold/Traeff: the library datatype path must not lose to
            # the naive copy-then-send or the hand-pipelined manual pack.
            if default_lat > naive_lat * tol:
                raise RuntimeError(
                    f"conformance: default backend slower than naive "
                    f"Cpy2D+Send for {layout}@{size}: "
                    f"{default_lat:.2e}s vs {naive_lat:.2e}s"
                )
            if default_lat > manual_lat * tol:
                raise RuntimeError(
                    f"conformance: default backend slower than manual "
                    f"pack for {layout}@{size}: "
                    f"{default_lat:.2e}s vs {manual_lat:.2e}s"
                )
            vec = Datatype.hvector(size // elem, elem, 2 * elem, BYTE).commit()
            winner = guideline_backend(hw, vec, 1, default_chunk, measured)
            table.set(
                vec.layout_signature(1), size_bucket(size),
                TuningEntry(
                    chunk_bytes=default_chunk,
                    pipeline_threshold=default_chunk,
                    tbuf_chunks=GpuNcConfig().tbuf_chunks,
                    use_plans=True, backend=winner,
                ),
            )
            points.append((layout, elem, size, measured, default_lat,
                           naive_lat, manual_lat, winner))

    # Tuned-chooser pass: same transfers, table attached, backend and
    # chunk resolved per layout-signature x size bucket at RTS time.
    speedups = []
    for layout, elem, size, measured, default_lat, naive_lat, manual_lat, \
            winner in points:
        tuned_lat = mv2_gpu_nc_latency(
            size, elem_bytes=elem, iterations=iterations, verify=verify,
            tuning=table,
        )
        if tuned_lat > default_lat * tol:
            raise RuntimeError(
                f"conformance: tuned chooser slower than default for "
                f"{layout}@{size}: {tuned_lat:.2e}s vs {default_lat:.2e}s"
            )
        speedup = default_lat / tuned_lat if tuned_lat else 1.0
        speedups.append(speedup)
        ledger.record(
            "sim", f"conformance:{layout}:s{size_bucket(size)}",
            default_lat, tuned_lat, backend=winner, chunk_bytes=default_chunk,
        )
        rows.append([
            layout, format_size(size),
            f"{naive_lat * 1e6:.1f}", f"{manual_lat * 1e6:.1f}",
            f"{measured['gpu'] * 1e6:.1f}", f"{measured['host'] * 1e6:.1f}",
            f"{measured['nic'] * 1e6:.1f}",
            winner, f"{tuned_lat * 1e6:.1f}", f"{speedup:.2f}x",
        ])

    if max(speedups) <= 1.0:
        raise RuntimeError(
            "conformance: tuned chooser never beat the default backend "
            "on any layout x size bucket"
        )

    result = {
        "digest": next(iter(digests.values())),
        "points": [
            {"layout": lo, "size": s, "measured": m, "default": d,
             "naive": n, "manual": mp, "backend": w}
            for lo, _, s, m, d, n, mp, w in points
        ],
        "speedups": speedups,
        "best_speedup": max(speedups),
    }
    result["text"] = table_render_conformance(rows, max(speedups))
    return result


def table_render_conformance(rows, best: float) -> str:
    """Render the conformance sweep table plus the guideline summary."""
    return table(
        ["Layout", "Message", "naive", "manual", "gpu", "host", "nic",
         "chosen", "tuned", "speedup"],
        rows,
        title="Backend conformance: forced-backend latency (us) and the "
        "tuned chooser",
    ) + (
        f"\n\nbyte equality: all backends identical on every point "
        f"(verified)\nHunold/Traeff: tuned >= default >= naive and "
        f"datatype >= manual pack hold on every point (verified)\n"
        f"best tuned-chooser speedup over the default backend: "
        f"{best:.2f}x (pinned in BENCH_sim.json)"
    )


# ---------------------------------------------------------------------------
# Datatype-aware collectives
# ---------------------------------------------------------------------------

def _coll_program(ctx, nr: int, n: int, variant: str, data, verify: bool):
    """One rank of the collective benchmark: exchange column blocks.

    Rank ``r`` owns an ``(nr, n)`` device array and sends its ``(nr, nr)``
    column block ``j`` to rank ``j`` (the transpose exchange, without the
    local transpose kernel so the timed window is pure communication).
    ``variant`` is ``"aware"`` (datatype-aware ``Alltoallv``) or
    ``"naive"`` (blocking ``cudaMemcpy2D`` pack to host, contiguous byte
    exchange, blocking unpack -- the pre-datatype workflow).
    """
    from ..mpi import BYTE, Datatype

    rank, size = ctx.rank, ctx.size
    esz = 4  # float32
    a_buf = ctx.cuda.malloc(nr * n * esz)
    b_buf = ctx.cuda.malloc(nr * n * esz)
    a_buf.fill_from(data[rank])
    base = Datatype.named(np.float32)

    def block_type(j):
        return Datatype.subarray([nr, n], [nr, nr], [0, j * nr], base).commit()

    yield from ctx.comm.Barrier()
    t0 = ctx.now
    if variant == "aware":
        blocks = [block_type(j) for j in range(size)]
        ones, zeros = [1] * size, [0] * size
        yield from ctx.comm.Alltoallv(a_buf, ones, zeros, blocks,
                                      b_buf, ones, zeros, blocks)
    else:
        blk = nr * nr * esz
        stage_out = [ctx.node.malloc_host(blk) for _ in range(size)]
        stage_in = [ctx.node.malloc_host(blk) for _ in range(size)]
        rreqs = [
            ctx.comm.Irecv(stage_in[p], blk, BYTE, source=p, tag=700)
            for p in range(size)
        ]
        for p in range(size):
            yield from ctx.cuda.memcpy2d(
                stage_out[p], nr * esz,
                a_buf.sub(p * nr * esz), n * esz,
                nr * esz, nr,
            )
            yield from ctx.comm.Send(stage_out[p], blk, BYTE,
                                     dest=p, tag=700)
        for p in range(size):
            yield from rreqs[p].wait()
            yield from ctx.cuda.memcpy2d(
                b_buf.sub(p * nr * esz), n * esz,
                stage_in[p], nr * esz,
                nr * esz, nr,
            )
    elapsed = ctx.now - t0
    out = None
    if verify:
        out = b_buf.view(np.float32).reshape(nr, n).copy()
    return {"elapsed": elapsed, "out": out}


def coll_datatype_aware(scale: str = "full", verify: bool = True) -> dict:
    """Datatype-aware collectives vs. the naive pack-then-exchange.

    A 4-rank column-block exchange (the transpose communication kernel)
    swept over per-peer block sizes that land in distinct tuning buckets
    and straddle the eager threshold, so both collective schedules run:

    * **naive** -- each block packed to the host with blocking
      ``cudaMemcpy2D``, shipped as contiguous bytes, unpacked on arrival
      (what an application does without datatype-aware collectives);
    * **aware** -- one ``Alltoallv`` call with per-peer subarray
      datatypes; every peer block is an independent tuned pipeline flow.

    Receive buffers are asserted byte-for-byte identical between the two
    variants at every size. A third pass re-runs the aware variant with
    a tuning table whose entries live under the collective fan-out
    context (``coll:f4``) and mirror the default transfer geometry: it
    must reproduce the aware latency exactly while resolving through the
    context rows (``coll_tuned_hit``), proving the context plumbing end
    to end. Each (size-bucket) pair is pinned in ``BENCH_sim.json``;
    full scale requires >= 1.2x on at least one bucket.
    """
    from ..mpi import Datatype
    from ..perf import ledger
    from ..perf.stats import PERF
    from ..tune import TuningEntry, TuningTable, coll_context, size_bucket
    from ..tune.table import cluster_config_hash

    nprocs = 4
    block_sizes = [4 * KiB, 64 * KiB] + ([1 * MiB] if scale == "full" else [])
    default = GpuNcConfig()
    rng = np.random.default_rng(20110901)

    def run_variant(nr, n, variant, data, tuning=None):
        cluster = Cluster(nprocs, functional=True)
        world = MpiWorld(cluster, tuning=tuning)
        outs = world.run(_coll_program, nr, n, variant, data, verify)
        return (max(o["elapsed"] for o in outs),
                [o["out"] for o in outs])

    rows = []
    speedups = []
    result_points = []
    for blk in block_sizes:
        nr = int(round(blk / 4) ** 0.5)
        n = nprocs * nr
        assert nr * nr * 4 == blk, f"block size {blk} is not square"
        data = [rng.random((nr, n), dtype=np.float32) for _ in range(nprocs)]

        naive_t, naive_out = run_variant(nr, n, "naive", data)
        before = PERF.snapshot()
        aware_t, aware_out = run_variant(nr, n, "aware", data)
        delta = {
            k: PERF.counters[k] - before.get(k, 0)
            for k in ("coll_messages", "coll_rounds", "coll_small_sched",
                      "coll_large_sched", "coll_tuned_hit")
        }
        if verify:
            for r in range(nprocs):
                if not np.array_equal(naive_out[r], aware_out[r]):
                    raise RuntimeError(
                        f"coll: naive and datatype-aware Alltoallv "
                        f"delivered different bytes at rank {r}, "
                        f"block {blk}"
                    )

        # Context-table pass: entries mirroring the default geometry,
        # registered only under the collective fan-out context. Latency
        # must not move; resolution must come from the context rows.
        base = Datatype.named(np.float32)
        sigs = {
            Datatype.subarray([nr, n], [nr, nr], [0, j * nr], base)
            .commit().layout_signature(1)
            for j in range(nprocs)
        }
        ttable = TuningTable(cluster_config_hash(HardwareConfig()))
        entry = TuningEntry(
            chunk_bytes=default.chunk_bytes,
            pipeline_threshold=default.chunk_bytes,
            tbuf_chunks=default.tbuf_chunks,
            use_plans=True,
            backend="gpu",
        )
        for sig in sigs:
            ttable.set(sig, size_bucket(blk), entry, ctx=coll_context(nprocs))
        hits0 = PERF.counters["coll_tuned_hit"]
        tuned_t, tuned_out = run_variant(nr, n, "aware", data, tuning=ttable)
        ctx_hits = PERF.counters["coll_tuned_hit"] - hits0
        if blk > HardwareConfig().eager_threshold and not ctx_hits:
            # Sub-eager blocks ride the eager path and never consult the
            # table; rendezvous-sized blocks must resolve via context.
            raise RuntimeError(
                f"coll: no collective-context tuned resolutions at "
                f"block {blk}"
            )
        if abs(tuned_t - aware_t) > 1e-9 * max(tuned_t, aware_t):
            raise RuntimeError(
                f"coll: context entries mirroring the default geometry "
                f"moved the latency at block {blk}: "
                f"{aware_t:.3e}s vs {tuned_t:.3e}s"
            )
        if verify:
            for r in range(nprocs):
                if not np.array_equal(aware_out[r], tuned_out[r]):
                    raise RuntimeError(
                        f"coll: tuned aware run delivered different "
                        f"bytes at rank {r}, block {blk}"
                    )

        schedule = "small" if delta["coll_small_sched"] else "large"
        speedup = naive_t / aware_t if aware_t else 1.0
        speedups.append(speedup)
        ledger.record(
            "sim", f"coll:blockx4:s{size_bucket(blk)}", naive_t, aware_t,
            schedule=schedule, messages=delta["coll_messages"],
        )
        result_points.append({
            "block_bytes": blk, "naive": naive_t, "aware": aware_t,
            "schedule": schedule, "messages": delta["coll_messages"],
            "rounds": delta["coll_rounds"], "ctx_hits": ctx_hits,
        })
        rows.append([
            format_size(blk), schedule,
            f"{naive_t * 1e6:.1f}", f"{aware_t * 1e6:.1f}",
            f"{speedup:.2f}x", delta["coll_messages"],
            delta["coll_rounds"], ctx_hits,
        ])

    if scale == "full" and max(speedups) < 1.2:
        raise RuntimeError(
            f"coll: datatype-aware Alltoallv never reached 1.2x over the "
            f"naive pack-then-exchange (best {max(speedups):.2f}x)"
        )

    result = {
        "points": result_points,
        "speedups": speedups,
        "best_speedup": max(speedups),
    }
    result["text"] = table(
        ["Block", "sched", "naive", "aware", "speedup", "msgs", "rounds",
         "ctx hits"],
        rows,
        title="Datatype-aware Alltoallv vs naive pack-then-exchange "
        "(4 ranks, us)",
    ) + (
        f"\n\nbyte equality: naive, aware and context-tuned aware "
        f"identical on every point (verified)\nbest datatype-aware "
        f"speedup: {max(speedups):.2f}x (pinned in BENCH_sim.json)"
    )
    return result


#: Registry used by the CLI and the per-experiment benchmarks.
EXPERIMENTS = {
    "fig2": fig2_pack_schemes,
    "fig3": fig3_pipeline_gantt,
    "fig5": fig5_vector_latency,
    "fig6": fig6_breakdown,
    "tab1": tab1_complexity,
    "tab2": tab2_stencil,
    "tab3": tab3_stencil,
    "ablA": ablation_chunk_size,
    "ablB": ablation_engines,
    "ablC": ablation_offload,
    "ablD": ablation_interconnect,
    "faultmx": fault_matrix,
    "zoo": dtype_zoo,
    "conformance": conformance,
    "coll": coll_datatype_aware,
    "scale": scale_weak_stencil,
    "scale1024": scale1024_weak_stencil,
}

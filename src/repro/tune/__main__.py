"""Command-line tuner: search knobs, inspect tables, apply + pin results.

Usage::

    python -m repro.tune search --scale quick --jobs 4
    python -m repro.tune show
    python -m repro.tune apply

``search`` sweeps the :class:`~repro.core.config.GpuNcConfig` knobs over
the Figure-5 vector workload and persists the winning table under
``tuning/<cluster-hash>.json`` (same seed + same cluster config => a
byte-identical file, across ``--jobs`` and ``--shards``). ``show`` prints
a persisted table. ``apply`` re-runs the workload with the table attached
(``MpiWorld(tuning=...)``), checks the tuned run is no slower than the
64 KB default on every bucket, and pins the comparison in
``BENCH_sim.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..hw import HardwareConfig
from ..perf.stats import PERF
from .table import (
    TuningTable,
    active_provenance,
    cluster_config_hash,
    table_path,
)


def _default_table_path():
    return table_path(cluster_config_hash(HardwareConfig.fermi_qdr()))


def _format_us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}"


def _print_table(table: TuningTable) -> None:
    from ..bench.report import format_size, table as render

    rows = []
    for key, entry in sorted(table.entries.items()):
        sig_key, _, bucket = key.rpartition("|s")
        gain = (entry.default_latency / entry.latency
                if entry.latency else 1.0)
        rows.append([
            sig_key, format_size(int(bucket)),
            entry.backend,
            format_size(entry.chunk_bytes),
            _format_us(entry.latency), _format_us(entry.default_latency),
            f"{gain:.2f}x",
        ])
    print(render(
        ["Layout", "Bucket", "Backend", "Chunk", "tuned (us)",
         "default (us)", "gain"],
        rows,
        title=f"Tuning table {table.provenance()} "
        f"({len(table)} entries, workload {table.meta.get('workload', '?')})",
    ))


def _cmd_search(args) -> int:
    from .search import SearchSpace, run_search

    space = SearchSpace.smoke() if args.smoke else SearchSpace()
    if args.chunks:
        space = replace(space, chunk_bytes=tuple(args.chunks))
    if args.backends:
        space = replace(space, backend=tuple(args.backends))
    sizes = args.sizes
    if sizes is None and args.scale == "full":
        from ..bench.experiments import _sizes

        sizes = _sizes("full")[1]
    table = run_search(
        message_sizes=sizes, space=space, iterations=args.iterations,
        jobs=args.jobs, shards=args.shards, verify=args.verify,
    )
    path = table.save(args.out)
    _print_table(table)
    print(f"\nwrote {path}")
    print(PERF.tune_footer(active_provenance()))
    return 0


def _cmd_show(args) -> int:
    path = args.table or _default_table_path()
    table = TuningTable.load(path)
    _print_table(table)
    return 0


def _cmd_apply(args) -> int:
    from ..bench.report import format_size, table as render
    from ..bench.vector_latency import mv2_gpu_nc_latency
    from ..perf import ledger

    path = args.table or _default_table_path()
    table = TuningTable.load(
        path, expect_cluster=cluster_config_hash(HardwareConfig.fermi_qdr())
    )
    sizes = args.sizes or table.meta.get("message_sizes")
    if not sizes:
        print("table has no message_sizes metadata; pass --sizes",
              file=sys.stderr)
        return 2
    elem = int(table.meta.get("elem_bytes", 4))

    rows = []
    regressions = []
    for size in sorted(int(s) for s in sizes):
        default_lat = mv2_gpu_nc_latency(
            size, elem_bytes=elem, iterations=args.iterations, verify=False,
        )
        tuned_lat = mv2_gpu_nc_latency(
            size, elem_bytes=elem, iterations=args.iterations, verify=False,
            tuning=table,
        )
        from ..mpi import BYTE, Datatype
        from .signature import size_bucket

        vec = Datatype.hvector(size // elem, elem, 2 * elem, BYTE).commit()
        entry = table.lookup(vec.layout_signature(1), size)
        chunk = entry.chunk_bytes if entry else 0
        ledger.record(
            "sim", f"tune:fig5-vector:s{size_bucket(size)}", default_lat,
            tuned_lat, chunk_bytes=chunk, table=table.provenance(),
        )
        if tuned_lat > default_lat:
            regressions.append(size)
        rows.append([
            format_size(size), format_size(chunk) if chunk else "-",
            _format_us(default_lat), _format_us(tuned_lat),
            f"{default_lat / tuned_lat:.2f}x" if tuned_lat else "-",
        ])
    print(render(
        ["Message", "tuned chunk", "default (us)", "tuned (us)", "speedup"],
        rows,
        title=f"Tuned vs 64 KB-default simulated latency "
        f"(table {table.provenance()})",
    ))
    print("\npinned in BENCH_sim.json")
    print(PERF.tune_footer(active_provenance()))
    if regressions:
        print(f"tuned slower than default for sizes {regressions} -- "
              "the table violates the tuned<=default guideline",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="Deterministic GpuNcConfig autotuner "
        "(per-layout, per-message-size tuning tables).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    search = sub.add_parser(
        "search", help="sweep knobs and persist the tuning table"
    )
    search.add_argument("--scale", choices=["full", "quick"], default="quick",
                        help="message sizes of the Figure 5 sweep to tune "
                        "(default quick)")
    search.add_argument("--sizes", type=int, nargs="+", metavar="BYTES",
                        help="explicit message sizes (overrides --scale)")
    search.add_argument("--chunks", type=int, nargs="+", metavar="BYTES",
                        help="explicit chunk_bytes candidates")
    search.add_argument("--backends", nargs="+", metavar="NAME",
                        choices=["gpu", "host", "nic"],
                        help="transfer-backend candidates (default: gpu only)")
    search.add_argument("--iterations", type=int, default=2,
                        help="full-budget iterations per trial (default 2)")
    search.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan trials across N worker processes "
                        "(output is byte-identical to serial)")
    search.add_argument("--shards", type=int, default=1, metavar="N",
                        help="run trials on the sharded engine "
                        "(bit-identical results)")
    search.add_argument("--smoke", action="store_true",
                        help="tiny 2-chunk-value space (the CI smoke job)")
    search.add_argument("--verify", action="store_true",
                        help="verify payload bytes in every trial")
    search.add_argument("--out", metavar="PATH",
                        help="table path (default tuning/<cluster-hash>.json)")
    search.set_defaults(fn=_cmd_search)

    show = sub.add_parser("show", help="print a persisted tuning table")
    show.add_argument("table", nargs="?",
                      help="table path (default: this cluster's)")
    show.set_defaults(fn=_cmd_show)

    apply_ = sub.add_parser(
        "apply",
        help="run the workload with the table attached and pin "
        "default-vs-tuned latency in BENCH_sim.json",
    )
    apply_.add_argument("table", nargs="?",
                        help="table path (default: this cluster's)")
    apply_.add_argument("--sizes", type=int, nargs="+", metavar="BYTES",
                        help="message sizes (default: the table's own)")
    apply_.add_argument("--iterations", type=int, default=3,
                        help="iterations per measurement (default 3)")
    apply_.set_defaults(fn=_cmd_apply)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

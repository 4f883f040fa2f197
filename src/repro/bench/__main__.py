"""Command-line harness: regenerate any paper figure or table.

Usage::

    python -m repro.bench fig2 fig5 --scale quick
    python -m repro.bench all --scale full --jobs 4

Independent experiments fan across ``--jobs`` worker processes (each with
its own deterministic simulation environment and per-run seed); output is
identical to a serial run. ``--shards N`` runs the shard-aware experiments
on the parallel sharded engine (bit-identical results, plus a ``[shard:]``
footer). Unless ``--no-record`` is given, every run records its wall-clock
per experiment in ``BENCH_hotpath.json``. Every run ends with a one-line
perf-stats footer (segment-cache hit rates, vectorized pack-path
counters).
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS
from .parallel import run_many
from .report import (
    backend_stats_footer,
    coll_stats_footer,
    dtype_stats_footer,
    fault_stats_footer,
    perf_stats_footer,
    shard_stats_footer,
    tune_stats_footer,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures and tables "
        "(CLUSTER 2011 MV2-GPU-NC reproduction).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=["full", "quick"],
        default="full",
        help="'full' = paper parameters (minutes); 'quick' = reduced (seconds)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan independent experiments across N worker processes "
        "(default 1 = serial; results and output order are identical)",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="write no BENCH_*.json ledger: neither this run's wall-clock "
        "nor the pins the scale, scale1024, coll and conformance "
        "experiments record",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="run shard-aware experiments (fig3, faultmx, scale) on the "
        "sharded engine with N worker processes; results are bit-identical "
        "to sequential (default 1 = sequential)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; have {list(EXPERIMENTS)}")

    results = run_many(
        names, scale=args.scale, jobs=args.jobs, record=not args.no_record,
        shards=args.shards,
    )
    for res in results:
        print(res.text)
        print(f"[{res.name} regenerated in {res.elapsed:.1f}s wall time]\n")
    print(perf_stats_footer())
    shard = shard_stats_footer()
    if shard:
        print(shard)
    faults = fault_stats_footer()
    if faults:
        print(faults)
    tune = tune_stats_footer()
    if tune:
        print(tune)
    dtype = dtype_stats_footer()
    if dtype:
        print(dtype)
    backend = backend_stats_footer()
    if backend:
        print(backend)
    coll = coll_stats_footer()
    if coll:
        print(coll)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: regenerate any paper figure or table.

Usage::

    python -m repro.bench fig2 fig5 --scale quick
    python -m repro.bench all --scale full --jobs 4

Independent experiments fan across ``--jobs`` worker processes (each with
its own deterministic simulation environment and per-run seed); output is
identical to a serial run. ``--shards N`` runs the shard-aware experiments
on the parallel sharded engine (bit-identical results, plus a ``[shard:]``
footer). ``--no-record`` stops the experiments that pin a ledger
(``BENCH_sim.json``, ``BENCH_shard.json``) from writing it. Every run ends
with a one-line perf-stats footer (segment-cache hit rates, vectorized
pack-path counters), then one line per subsystem the run engaged.
"""

from __future__ import annotations

import argparse
import sys

from ..perf.stats import PERF
from ..tune.table import active_provenance
from .experiments import EXPERIMENTS
from .parallel import run_many


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
        help="write no BENCH_*.json ledger: the scale, scale1024, coll "
        "and conformance experiments leave their pins untouched",
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
    for line in PERF.footers(active_provenance()):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

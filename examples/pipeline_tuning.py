#!/usr/bin/env python
"""Tune the pipeline chunk size, like the paper's system administrator.

Section IV-B: "we found 64KB to be the optimal block size in our
experimental environment. This unit is presented as a configurable
parameter to the MPI library and can be tuned once by the system
administrator during the time of installation."

This example is that tuning run, driven by the library's own autotuner
(:mod:`repro.tune.search`): sweep chunk sizes for a 4 MB vector transfer,
print the curve, and run the full per-message-size search the paper's
one-global-value approach approximates. The resulting table is what
``MpiWorld(tuning=table)`` consults at RTS time.

Run::

    python examples/pipeline_tuning.py
"""

from repro.bench import format_size, series_table
from repro.hw import KiB, MiB
from repro.tune.search import Candidate, SearchSpace, run_search, trial_latency


def main():
    # Part 1 -- the paper's sweep: one message size, one knob, by hand.
    # Each point is a single search-engine trial, exactly what the grid
    # search below evaluates many of.
    message = 4 * MiB
    points = []
    for chunk_kib in (8, 16, 32, 64, 128, 256, 512, 1024):
        chunk = chunk_kib * KiB
        latency = trial_latency(message, Candidate(chunk), iterations=2)
        points.append({"size": chunk, "latency": latency})

    print(series_table(
        points, ["latency"], unit="us",
        title=f"Pipeline chunk-size sweep for a {format_size(message)} "
        "non-contiguous vector",
    ))
    best = min(points, key=lambda p: p["latency"])
    print(
        f"\nOptimal block size on this model: {format_size(best['size'])} "
        f"({best['latency'] * 1e3:.2f} ms). The paper tuned 64K on its "
        "testbed."
    )

    # Part 2 -- what the administrator *should* run: the deterministic
    # grid + successive-halving search over several message sizes, keyed
    # by layout signature and size bucket. Persist with table.save() or
    # via ``python -m repro.tune search``.
    sizes = [64 * KiB, 1 * MiB, 4 * MiB]
    table = run_search(message_sizes=sizes, space=SearchSpace(),
                       iterations=2)
    print(f"\nPer-bucket table for this cluster ({table.cluster_hash}):")
    for key, entry in sorted(table.entries.items()):
        gain = entry.default_latency / entry.latency if entry.latency else 1.0
        print(f"  {key:>24}  chunk {format_size(entry.chunk_bytes):>5}  "
              f"{entry.latency * 1e6:8.1f} us  ({gain:.2f}x vs 64K default)")
    print(
        "\nAttach it with MpiWorld(cluster, tuning=table) -- the engine "
        "picks each\ntransfer's chunk at RTS time; without a table it "
        "behaves exactly like the\nstatic GpuNcConfig(chunk_bytes=...) "
        "the paper describes."
    )


if __name__ == "__main__":
    main()

"""Paper-style ASCII tables and series for the benchmark harness."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..perf.stats import PERF

__all__ = [
    "format_size",
    "format_time",
    "table",
    "series_table",
    "comparison_row",
    "perf_stats_footer",
    "fault_stats_footer",
    "shard_stats_footer",
    "tune_stats_footer",
    "dtype_stats_footer",
    "backend_stats_footer",
    "coll_stats_footer",
]


def perf_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line wall-clock perf summary for the bench CLI.

    Reports the segment/slice cache hit rates and the vectorized-path
    counters of :data:`repro.perf.stats.PERF` (or of an explicit snapshot,
    e.g. one collected from a parallel worker process).
    """
    if snapshot is None:
        return PERF.footer()
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.footer()


def fault_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line ``[faults: ...]`` summary; empty when nothing fired.

    Nonzero only for fault-matrix runs (or real recovery activity); the
    paper-figure experiments run with faults disabled and print nothing.
    """
    if snapshot is None:
        return PERF.fault_footer()
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.fault_footer()


def shard_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line ``[shard: ...]`` summary; empty for sequential runs.

    Reports the sharded engine's synchronization cost -- window rounds,
    null-message overhead, cross-shard message counts by kind and
    per-shard event totals -- whenever any experiment in the run used
    ``shards > 1``.
    """
    if snapshot is None:
        return PERF.shard_footer()
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.shard_footer()


def tune_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line ``[tune: ...]`` summary; empty when tuning never engaged.

    Reports tuning-table lookup traffic (hits/misses/LRU/nearest-bucket),
    clamped chunk preferences, search trials and the provenance of every
    table attached in this process. The paper-figure experiments run
    tuning-disabled and print nothing.
    """
    from ..tune.table import active_provenance

    if snapshot is None:
        return PERF.tune_footer(active_provenance())
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.tune_footer(active_provenance())


def dtype_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line ``[dtype: ...]`` summary; empty when the datatype IR idled.

    Reports the datatype compiler's canonicalization traffic: types
    canonicalized, canonical collisions (distinct constructions that
    collapsed onto one form) and the compiled state
    (tilings/slices/plans/signatures) served across instances. Nonzero
    whenever derived datatypes were used.
    """
    if snapshot is None:
        return PERF.dtype_footer()
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.dtype_footer()


def backend_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line ``[backend: ...]`` summary; empty on the default path.

    Reports per-backend chunk counts, NIC descriptors posted and
    guideline vetoes whenever any transfer in the run left the default
    GPU-pack backend (a forced backend, or a tuned chooser resolving
    ``host``/``nic``). Runs that never leave the default print nothing.
    """
    if snapshot is None:
        return PERF.backend_footer()
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.backend_footer()


def coll_stats_footer(snapshot: Optional[Dict[str, int]] = None) -> str:
    """One-line ``[coll: ...]`` summary; empty when no datatype-aware
    collective ran.

    Reports how the v-variants decomposed -- calls, spawned peer-messages,
    schedule rounds, small/large schedule split and collective-context
    tuned hits. Runs that never call ``Alltoallv``/``Allgatherv``/
    ``Neighbor_alltoallv`` print nothing.
    """
    if snapshot is None:
        return PERF.coll_footer()
    from ..perf.stats import PerfStats

    stats = PerfStats()
    stats.merge(snapshot)
    return stats.coll_footer()


def format_size(nbytes: int) -> str:
    """Paper-style size labels: 16, 256, 4K, 1M, ..."""
    if nbytes >= 1 << 20 and nbytes % (1 << 20) == 0:
        return f"{nbytes >> 20}M"
    if nbytes >= 1 << 10 and nbytes % (1 << 10) == 0:
        return f"{nbytes >> 10}K"
    return str(nbytes)


def format_time(seconds: float, unit: str = "us") -> str:
    """Render a time in the requested unit with sensible precision."""
    if unit == "us":
        v = seconds * 1e6
    elif unit == "ms":
        v = seconds * 1e3
    elif unit == "s":
        v = seconds
    else:
        raise ValueError(f"unknown unit {unit!r}")
    if v >= 1000:
        return f"{v:,.0f}"
    if v >= 10:
        return f"{v:.1f}"
    return f"{v:.2f}"


def table(
    headers: Sequence[str],
    rows: Iterable[Sequence[str]],
    title: Optional[str] = None,
) -> str:
    """A plain monospace table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def series_table(
    points: List[dict],
    columns: Sequence[str],
    unit: str = "us",
    title: Optional[str] = None,
    size_key: str = "size",
) -> str:
    """Format a message-size sweep: one row per size, one column per design."""
    headers = ["Size"] + [f"{c} ({unit})" for c in columns]
    rows = []
    for point in points:
        row = [format_size(point[size_key])]
        row.extend(format_time(point[c], unit) for c in columns)
        rows.append(row)
    return table(headers, rows, title=title)


def comparison_row(name: str, base: float, ours: float, unit: str = "s") -> List[str]:
    """One Tables II/III style row: config, baseline, ours, improvement."""
    improvement = 100.0 * (base - ours) / base if base > 0 else 0.0
    return [
        name,
        format_time(base, unit),
        format_time(ours, unit),
        f"{improvement:.0f}%",
    ]

"""The perf-stats counters, footer, and BENCH_hotpath.json emitter."""

import json

from repro.bench.report import perf_stats_footer
from repro.perf import hotpath
from repro.perf.stats import PERF, PerfStats


def test_counters_and_hit_rate():
    stats = PerfStats()
    stats.bump("seg_cache_miss")
    stats.bump("seg_cache_hit", 3)
    assert stats.hit_rate("seg") == 0.75
    assert stats.hit_rate("slice") == 0.0
    snap = stats.snapshot()
    assert snap == {"seg_cache_miss": 1, "seg_cache_hit": 3}
    stats.reset()
    assert stats.snapshot() == {}
    stats.merge(snap)
    stats.merge(snap)
    assert stats.counters["seg_cache_hit"] == 6


def test_footer_is_one_line():
    stats = PerfStats()
    stats.bump("seg_cache_hit", 99)
    stats.bump("seg_cache_miss", 1)
    stats.bump("gather_2d", 7)
    line = stats.footer()
    assert "\n" not in line
    assert "seg-cache 99% hit (99/100)" in line
    assert line.startswith("[perf:")


def test_report_footer_accepts_snapshot():
    line = perf_stats_footer({"seg_cache_hit": 1, "seg_cache_miss": 1})
    assert "seg-cache 50% hit (1/2)" in line
    # Without a snapshot it reads the global counters.
    assert perf_stats_footer().startswith("[perf:")
    assert isinstance(PERF.snapshot(), dict)


def test_hotpath_emitter_pins_before_and_tracks_after(tmp_path):
    path = tmp_path / "BENCH_hotpath.json"
    entry = hotpath.record_wallclock("figX", "quick", 2.0, path=path)
    assert entry == {"before": 2.0, "after": 2.0, "speedup": 1.0}
    entry = hotpath.record_wallclock("figX", "quick", 0.5, path=path)
    assert entry["before"] == 2.0  # pinned baseline never overwritten
    assert entry["after"] == 0.5
    assert entry["speedup"] == 4.0
    data = json.loads(path.read_text())
    assert data["experiments"]["figX:quick"]["speedup"] == 4.0


def test_load_missing_file_is_empty(tmp_path):
    assert hotpath.load(tmp_path / "nope.json") == {
        "schema": 1, "experiments": {},
    }

"""The perf-stats counters and footers, and the BENCH ledger module."""

import pytest

from repro.perf import ledger
from repro.perf.stats import PerfStats


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
    assert "pack 7 2d / 0 runs / 0 vec" in line
    assert line.startswith("[perf:")


def test_footers_keep_cli_order_and_drop_empty():
    stats = PerfStats()
    assert stats.footers() == [stats.footer()]
    # Bumped in reverse, so the order below is the method's own.
    for name in ("coll_calls", "backend_nic_chunks", "dtir_canon",
                 "tune_lookup_hit", "rdma_retry", "shard_rounds"):
        stats.bump(name)
    lines = stats.footers("t.json@abc")
    assert [line.split(":")[0] for line in lines] == [
        "[perf", "[shard", "[faults", "[tune", "[dtype", "[backend", "[coll",
    ]
    assert lines[3].endswith("table t.json@abc]")
    stats.counters["dtir_canon"] = 0
    assert "[dtype" not in [line.split(":")[0] for line in stats.footers()]


def test_load_missing_file_is_empty(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "DIR", tmp_path)
    assert ledger.load("sim") == {"schema": 1, "experiments": {}}


def test_record_refuses_an_unparsable_ledger(tmp_path, monkeypatch):
    # A merge left conflict markers in the file: recording must fail
    # loudly, not read it as empty and overwrite every pinned entry.
    monkeypatch.setattr(ledger, "DIR", tmp_path)
    path = tmp_path / "BENCH_sim.json"
    text = (
        '<<<<<<< HEAD\n{\n "experiments": {\n  "coll:blockx4:s4096": '
        '{"after": 1.0, "before": 2.0, "speedup": 2.0}\n },\n'
        ' "schema": 1\n}\n=======\n>>>>>>> other\n'
    )
    path.write_text(text)
    with pytest.raises(ValueError):
        ledger.record("sim", "coll:blockx4:s65536", 4.0, 1.0)
    assert path.read_text() == text
    with ledger.recording(False):
        assert ledger.record("sim", "coll:blockx4:s65536", 4.0, 1.0) == {
            "before": 4.0, "after": 1.0, "speedup": 4.0,
        }
    assert path.read_text() == text

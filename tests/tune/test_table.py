"""TuningTable: persistence, validation, lookup resolution, clamping."""

import json

import pytest

from repro.hw import HardwareConfig, KiB
from repro.mpi import BYTE, Datatype
from repro.perf.stats import PERF
from repro.tune import (
    LayoutSignature,
    TuningEntry,
    TuningTable,
    TuningTableError,
    cluster_config_hash,
    tuned_transfer_choice,
)

SIG = LayoutSignature("uniform", width=4, pitch=8)


def make_table(**chunks):
    """Table with one uniform:w4:p8 entry per {bucket: chunk} pair."""
    table = TuningTable("abc123")
    for bucket, chunk in chunks.items():
        table.set(SIG, int(bucket), TuningEntry(
            chunk_bytes=chunk, pipeline_threshold=min(chunk, 64 * KiB),
            tbuf_chunks=64, use_plans=True,
        ))
    return table


class TestClusterHash:
    def test_stable(self):
        a = cluster_config_hash(HardwareConfig.fermi_qdr())
        b = cluster_config_hash(HardwareConfig.fermi_qdr())
        assert a == b and len(a) == 12

    def test_differs_across_models(self):
        assert cluster_config_hash(HardwareConfig.fermi_qdr()) != \
            cluster_config_hash(HardwareConfig.fermi_roce())


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        table.meta["iterations"] = 2
        path = table.save(tmp_path / "t.json")
        loaded = TuningTable.load(path)
        assert loaded.entries == table.entries
        assert loaded.meta == table.meta
        assert loaded.cluster_hash == table.cluster_hash

    def test_save_is_canonical(self, tmp_path):
        a = make_table(**{str(64 * KiB): 16 * KiB, str(1024): 8 * KiB})
        b = make_table(**{str(1024): 8 * KiB, str(64 * KiB): 16 * KiB})
        pa, pb = a.save(tmp_path / "a.json"), b.save(tmp_path / "b.json")
        assert pa.read_bytes() == pb.read_bytes()

    def test_wrong_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(TuningTableError, match="schema"):
            TuningTable.load(p)

    def test_cluster_mismatch_rejected(self, tmp_path):
        p = make_table().save(tmp_path / "t.json")
        with pytest.raises(TuningTableError, match="tuned for cluster"):
            TuningTable.load(p, expect_cluster="fedcba987654")

    def test_malformed_key_rejected(self):
        with pytest.raises(TuningTableError):
            TuningTable.from_json({
                "schema": 1, "cluster": "x",
                "entries": {"nonsense": {
                    "chunk_bytes": 1, "pipeline_threshold": 1,
                    "tbuf_chunks": 1, "use_plans": True,
                }},
            })

    def test_bad_entry_values_rejected(self):
        with pytest.raises(TuningTableError, match="chunk_bytes"):
            TuningEntry(chunk_bytes=0, pipeline_threshold=1,
                        tbuf_chunks=1, use_plans=True)

    def test_not_json_rejected(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        with pytest.raises(TuningTableError, match="not valid JSON"):
            TuningTable.load(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TuningTableError, match="cannot read"):
            TuningTable.load(tmp_path / "absent.json")


class TestLookup:
    def test_exact_bucket(self):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        entry = table.lookup(SIG, 64 * KiB)
        assert entry.chunk_bytes == 16 * KiB

    def test_nearest_bucket_same_layout(self):
        table = make_table(**{str(64 * KiB): 16 * KiB, str(4 * KiB): 8 * KiB})
        # 16 KiB has no exact entry; nearest by log distance is 4K... 64K
        # is 2 rungs away, 4K is 2 rungs away -> tie prefers the smaller.
        assert table.lookup(SIG, 16 * KiB).chunk_bytes == 8 * KiB
        # 128 KiB resolves to the 64 KiB neighbour.
        assert table.lookup(SIG, 128 * KiB).chunk_bytes == 16 * KiB

    def test_unknown_layout_misses(self):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        other = LayoutSignature("uniform", width=8, pitch=32)
        assert table.lookup(other, 64 * KiB) is None

    def test_lru_caches_resolution(self):
        # The second lookup must be served from the resolution LRU:
        # mutating the entry dict behind the cache's back is invisible
        # until ``set`` invalidates it.
        table = make_table(**{str(64 * KiB): 16 * KiB})
        assert table.lookup(SIG, 64 * KiB).chunk_bytes == 16 * KiB
        table.entries.clear()
        assert table.lookup(SIG, 64 * KiB).chunk_bytes == 16 * KiB

    def test_lru_bumps_no_counters(self):
        # Cache mechanics must not report to PERF (they vary with how
        # many endpoints share the table in one process -- not shard
        # partition invariant); accounting lives in tuned_transfer_choice.
        table = make_table(**{str(64 * KiB): 16 * KiB})
        before = PERF.snapshot()
        table.lookup(SIG, 64 * KiB)
        table.lookup(SIG, 64 * KiB)
        table.lookup(SIG, 128 * KiB)  # nearest-bucket resolution
        after = PERF.snapshot()
        for name in ("tune_lru_hit", "tune_nearest_bucket",
                     "tune_lookup_hit", "tune_lookup_miss"):
            assert after.get(name, 0) == before.get(name, 0)

    def test_set_invalidates_lru(self):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        assert table.lookup(SIG, 64 * KiB).chunk_bytes == 16 * KiB
        table.set(SIG, 64 * KiB, TuningEntry(
            chunk_bytes=32 * KiB, pipeline_threshold=32 * KiB,
            tbuf_chunks=64, use_plans=True,
        ))
        assert table.lookup(SIG, 64 * KiB).chunk_bytes == 32 * KiB

    def test_max_chunk_bytes(self):
        table = make_table(**{str(64 * KiB): 16 * KiB, str(1024): 256 * KiB})
        assert table.max_chunk_bytes() == 256 * KiB
        assert table.max_chunk_bytes(floor=1024 * KiB) == 1024 * KiB
        assert TuningTable("x").max_chunk_bytes(floor=7) == 7


class TestTunedChunkPref:
    def setup_method(self):
        self.vec = Datatype.hvector(1024, 4, 8, BYTE).commit()

    def test_hit(self):
        table = make_table(**{str(4 * KiB): 16 * KiB})
        assert tuned_transfer_choice(table, self.vec, 1, 4 * KiB,
                                     cap=64 * KiB).chunk_bytes == 16 * KiB

    def test_miss_returns_none(self):
        table = TuningTable("x")
        before = PERF.snapshot().get("tune_lookup_miss", 0)
        assert tuned_transfer_choice(table, self.vec, 1, 4 * KiB,
                                     cap=64 * KiB) is None
        assert PERF.snapshot().get("tune_lookup_miss", 0) == before + 1

    def test_clamped_to_cap(self):
        table = make_table(**{str(4 * KiB): 256 * KiB})
        before = PERF.snapshot().get("tune_chunk_clamped", 0)
        assert tuned_transfer_choice(table, self.vec, 1, 4 * KiB,
                                     cap=64 * KiB).chunk_bytes == 64 * KiB
        assert PERF.snapshot().get("tune_chunk_clamped", 0) == before + 1


def ctx_entry(chunk):
    return TuningEntry(chunk_bytes=chunk, pipeline_threshold=min(chunk, 64 * KiB),
                       tbuf_chunks=64, use_plans=True)


class TestCollectiveContext:
    """Context-qualified entries: key shape, resolution ladder, counters."""

    def test_ctx_exact_preferred_over_ctx_free(self):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        table.set(SIG, 64 * KiB, ctx_entry(32 * KiB), ctx="coll:f4")
        entry, nearest, via_ctx = table.resolve_ctx(SIG, 64 * KiB, "coll:f4")
        assert entry.chunk_bytes == 32 * KiB
        assert via_ctx and not nearest
        # The ctx-free resolution is untouched by the context row.
        entry, nearest, via_ctx = table.resolve_ctx(SIG, 64 * KiB, "")
        assert entry.chunk_bytes == 16 * KiB
        assert not via_ctx

    def test_ctx_nearest_bucket(self):
        table = TuningTable("abc123")
        table.set(SIG, 64 * KiB, ctx_entry(32 * KiB), ctx="coll:f4")
        entry, nearest, via_ctx = table.resolve_ctx(SIG, 128 * KiB, "coll:f4")
        assert entry.chunk_bytes == 32 * KiB
        assert via_ctx and nearest

    def test_ctx_miss_falls_back_to_ctx_free(self):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        entry, nearest, via_ctx = table.resolve_ctx(SIG, 64 * KiB, "coll:f8")
        assert entry.chunk_bytes == 16 * KiB
        assert not via_ctx and not nearest
        # ...including the ctx-free nearest-bucket rung.
        entry, nearest, via_ctx = table.resolve_ctx(SIG, 128 * KiB, "coll:f8")
        assert entry.chunk_bytes == 16 * KiB
        assert not via_ctx and nearest

    def test_other_ctx_never_leaks(self):
        table = TuningTable("abc123")
        table.set(SIG, 64 * KiB, ctx_entry(32 * KiB), ctx="coll:f4")
        entry, nearest, via_ctx = table.resolve_ctx(SIG, 64 * KiB, "coll:f8")
        assert entry is None
        assert table.resolve(SIG, 64 * KiB) == (None, False)

    def test_resolve_matches_empty_ctx(self):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        assert table.resolve(SIG, 64 * KiB) == \
            table.resolve_ctx(SIG, 64 * KiB, "")[:2]

    def test_roundtrip_with_ctx(self, tmp_path):
        table = make_table(**{str(64 * KiB): 16 * KiB})
        table.set(SIG, 64 * KiB, ctx_entry(32 * KiB), ctx="coll:f4")
        loaded = TuningTable.load(table.save(tmp_path / "t.json"))
        assert loaded.entries == table.entries
        assert loaded.resolve_ctx(SIG, 64 * KiB, "coll:f4")[0].chunk_bytes \
            == 32 * KiB

    def test_from_json_rejects_unknown_ctx(self):
        with pytest.raises(TuningTableError, match="context"):
            TuningTable.from_json({
                "schema": 1, "cluster": "x",
                "entries": {"uniform:w4:p8|s65536|weird:f4": {
                    "chunk_bytes": 1024, "pipeline_threshold": 1024,
                    "tbuf_chunks": 1, "use_plans": True,
                }},
            })

    def test_coll_tuned_hit_counter(self):
        vec = Datatype.hvector(1024, 4, 8, BYTE).commit()
        table = TuningTable("abc123")
        table.set(vec.layout_signature(1), 4 * KiB, ctx_entry(16 * KiB),
                  ctx="coll:f4")
        before = PERF.snapshot().get("coll_tuned_hit", 0)
        assert tuned_transfer_choice(table, vec, 1, 4 * KiB, cap=64 * KiB,
                                     ctx="coll:f4").chunk_bytes == 16 * KiB
        assert PERF.snapshot().get("coll_tuned_hit", 0) == before + 1
        # A ctx-free resolution of the same shape must not bump it.
        table.set(vec.layout_signature(1), 4 * KiB, ctx_entry(16 * KiB))
        assert tuned_transfer_choice(table, vec, 1, 4 * KiB,
                                     cap=64 * KiB).chunk_bytes == 16 * KiB
        assert PERF.snapshot().get("coll_tuned_hit", 0) == before + 1

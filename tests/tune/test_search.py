"""Search determinism, runtime integration and tuning-safety properties."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.vector_latency import mv2_gpu_nc_latency
from repro.hw import Cluster, HardwareConfig, KiB, MiB
from repro.mpi import BYTE, Datatype, MpiWorld
from repro.mpi.pack import pack_bytes
from repro.perf.stats import PERF
from repro.tune import LayoutSignature, TuningEntry, TuningTable, TuningTableError
from repro.tune.search import SearchSpace, run_search
from repro.tune.table import cluster_config_hash

SIG = LayoutSignature("uniform", width=4, pitch=8)
SMOKE = SearchSpace.smoke()


def table_bytes(table):
    return json.dumps(table.to_json(), sort_keys=True).encode()


def vector_table(chunk_bytes, bucket=64 * KiB, cluster_hash="test"):
    table = TuningTable(cluster_hash)
    table.set(SIG, bucket, TuningEntry(
        chunk_bytes=chunk_bytes,
        pipeline_threshold=min(chunk_bytes, 64 * KiB),
        tbuf_chunks=64, use_plans=True,
    ))
    return table


class TestSearchDeterminism:
    def test_byte_identical_across_runs(self):
        a = run_search(message_sizes=[64 * KiB], space=SMOKE, iterations=2)
        b = run_search(message_sizes=[64 * KiB], space=SMOKE, iterations=2)
        assert table_bytes(a) == table_bytes(b)

    def test_byte_identical_across_jobs(self):
        serial = run_search(message_sizes=[64 * KiB], space=SMOKE,
                            iterations=2)
        fanned = run_search(message_sizes=[64 * KiB], space=SMOKE,
                            iterations=2, jobs=2)
        assert table_bytes(serial) == table_bytes(fanned)

    def test_byte_identical_across_shards(self):
        seq = run_search(message_sizes=[64 * KiB], space=SMOKE, iterations=2)
        shd = run_search(message_sizes=[64 * KiB], space=SMOKE, iterations=2,
                         shards=2)
        assert table_bytes(seq) == table_bytes(shd)

    def test_default_always_evaluated(self):
        # Even a space excluding the default chunk carries an
        # apples-to-apples default_latency per entry.
        space = SearchSpace(chunk_bytes=(16 * KiB,))
        table = run_search(message_sizes=[64 * KiB], space=space,
                           iterations=2)
        (entry,) = table.entries.values()
        assert entry.default_latency > 0
        assert entry.latency <= entry.default_latency


class TestSearchOutcome:
    def test_finds_non_default_chunk_for_64k(self):
        # The acceptance bucket: a 64 KiB message is faster with a 16 KiB
        # chunk than with the paper's 64 KiB global default.
        table = run_search(message_sizes=[64 * KiB], space=SMOKE,
                           iterations=2)
        (entry,) = table.entries.values()
        assert entry.chunk_bytes == 16 * KiB
        assert entry.latency < entry.default_latency

    def test_tuned_never_slower_than_default(self):
        table = run_search(message_sizes=[4 * KiB, 64 * KiB], space=SMOKE,
                           iterations=2)
        for entry in table.entries.values():
            assert entry.latency <= entry.default_latency


class TestRuntimeIntegration:
    def test_attached_table_speeds_up_64k(self):
        table = run_search(message_sizes=[64 * KiB], space=SMOKE,
                           iterations=2)
        default = mv2_gpu_nc_latency(64 * KiB, iterations=3)
        tuned = mv2_gpu_nc_latency(64 * KiB, iterations=3, tuning=table)
        assert tuned < default

    def test_lookup_counters_bump(self):
        table = vector_table(16 * KiB)
        before = PERF.snapshot().get("tune_lookup_hit", 0)
        mv2_gpu_nc_latency(64 * KiB, iterations=1, tuning=table)
        assert PERF.snapshot().get("tune_lookup_hit", 0) > before

    def test_no_table_no_counters(self):
        before = PERF.snapshot()
        mv2_gpu_nc_latency(64 * KiB, iterations=1)
        after = PERF.snapshot()
        for name in ("tune_lookup_hit", "tune_lookup_miss"):
            assert after.get(name, 0) == before.get(name, 0)

    def test_oversized_tuned_chunk_is_safe(self):
        # Tuned chunk (256 KiB) above the default 64 KiB staging size:
        # the world grows its pools to fit, and the payload survives.
        table = vector_table(256 * KiB, bucket=1 * MiB)
        t = mv2_gpu_nc_latency(1 * MiB, iterations=2, verify=True,
                               tuning=table)
        assert t > 0

    def test_explicit_small_vbufs_clamp(self):
        # A user-pinned vbuf size smaller than the tuned chunk must clamp
        # the preference (counter proves it) and still verify.
        table = vector_table(256 * KiB, bucket=1 * MiB)
        rows = (1 * MiB) // 4
        vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
        cluster = Cluster(2)
        world = MpiWorld(cluster, vbuf_bytes=64 * KiB, tuning=table)

        def program(ctx):
            buf = ctx.cuda.malloc(rows * 8)
            if ctx.rank == 0:
                yield from ctx.comm.Send(buf, 1, vec, dest=1)
            else:
                yield from ctx.comm.Recv(buf, 1, vec, source=0)

        before = PERF.snapshot().get("tune_chunk_clamped", 0)
        world.run(program)
        assert PERF.snapshot().get("tune_chunk_clamped", 0) > before

    def test_tuning_false_runs_untuned(self):
        assert MpiWorld(Cluster(2), tuning=False).tuning is None
        assert MpiWorld(Cluster(2)).tuning is None

    def test_world_table_reaches_engine(self):
        table = vector_table(16 * KiB)
        world = MpiWorld(Cluster(2), tuning=table)
        assert world.tuning is table and world.gpu_engine.tuning is table

    def test_tuning_path_validates_cluster(self, tmp_path):
        path = vector_table(16 * KiB).save(tmp_path / "t.json")
        with pytest.raises(TuningTableError, match="tuned for cluster"):
            MpiWorld(Cluster(2), tuning=path)

    def test_tuning_true_requires_persisted_table(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_DIR", str(tmp_path))
        with pytest.raises(TuningTableError, match="cannot read"):
            MpiWorld(Cluster(2), tuning=True)


class TestCommittedTable:
    def test_default_search_reproduces_the_committed_entries(self):
        """A change that moves a tuned winner or its latency fails here,
        not only in a hand-run ``python -m repro.tune search``."""
        cluster = cluster_config_hash(HardwareConfig.fermi_qdr())
        root = Path(__file__).resolve().parents[2]
        committed = json.loads(
            (root / "tuning" / f"{cluster}.json").read_text())["entries"]
        assert run_search().to_json()["entries"] == committed


class TestBackendAxis:
    SPACE = SearchSpace(chunk_bytes=(64 * KiB,),
                        backend=("gpu", "host", "nic"))

    def test_wide_workload_picks_nic(self):
        # 4 KiB segments: per-segment descriptor cost is tiny next to the
        # GPU pack stage, so the NIC offload wins the bucket and the
        # guideline guard lets the (genuinely modeled-cheaper) pick stand.
        table = run_search(message_sizes=[64 * KiB], space=self.SPACE,
                           iterations=2, elem_bytes=4 * KiB)
        (entry,) = table.entries.values()
        assert entry.backend == "nic"
        assert entry.latency < entry.default_latency

    def test_fine_workload_keeps_gpu(self):
        # 4-byte segments: host/nic per-segment costs explode; the
        # default GPU pipeline keeps every bucket.
        table = run_search(message_sizes=[64 * KiB], space=self.SPACE,
                           iterations=2)
        (entry,) = table.entries.values()
        assert entry.backend == "gpu"


def run_vector_transfer(message, tuning=None):
    """One strided GPU-GPU rendezvous; returns (recv bytes, endpoint stats)."""
    rows = message // 4
    vec = Datatype.hvector(rows, 4, 8, BYTE).commit()
    pattern = np.random.default_rng(7).integers(0, 256, rows * 8, np.uint8)
    cluster = Cluster(2)
    world = MpiWorld(cluster, tuning=tuning)

    def program(ctx):
        buf = ctx.cuda.malloc(rows * 8)
        if ctx.rank == 0:
            buf.fill_from(pattern)
            yield from ctx.comm.Send(buf, 1, vec, dest=1)
        else:
            yield from ctx.comm.Recv(buf, 1, vec, source=0)
        return buf

    bufs = world.run(program)
    payload = pack_bytes(bufs[1], vec, 1)
    return payload, world.endpoints[1].stats


class TestTunedTransferSafety:
    """Hypothesis property: ANY chunk from the search space preserves
    transferred-byte counts and the functional payload."""

    @settings(max_examples=8, deadline=None)
    @given(
        chunk=st.sampled_from(SearchSpace().chunk_bytes),
        message=st.sampled_from([4 * KiB, 64 * KiB, 192 * KiB]),
    )
    def test_payload_and_bytes_invariant(self, chunk, message):
        from repro.tune import size_bucket

        baseline, base_stats = run_vector_transfer(message)
        table = vector_table(chunk, bucket=size_bucket(message))
        tuned, tuned_stats = run_vector_transfer(message, tuning=table)
        assert np.array_equal(tuned, baseline)
        assert tuned_stats.bytes_received == base_stats.bytes_received
        assert tuned_stats.msgs_received == base_stats.msgs_received

"""Process-wide counters for the simulator's wall-clock hot paths.

The canonical datatype registry (:mod:`repro.mpi.dtir`), the vectorized
gather/scatter paths (:mod:`repro.mpi.pack`) and the device staging pool
(:mod:`repro.core.staging`) all report here. The counters measure *how the
simulator runs*, never *what it simulates* -- resetting or disabling them
cannot change any simulated-time result.

Counter names
-------------
``seg_cache_hit`` / ``seg_cache_miss``
    Lookups of a canonical entry's ``(count, extent)``-keyed tilings.
``slice_cache_hit`` / ``slice_cache_miss``
    Lookups of a canonical entry's ``(count, extent, lo, hi)``-keyed
    chunk slices (the pipelined pack/unpack path).
``cache_invalidation``
    Explicit invalidations (``resized``/``dup`` derivation or a direct
    :meth:`Datatype.invalidate_segment_cache` call): the type unbinds its
    entry and bumps its version.
``index_build`` / ``index_reuse``
    Word-index arrays (:meth:`SegmentList.word_indices`, one int64 per
    machine word of an irregular layout) computed from scratch vs. served
    memoized.
``gather_2d`` / ``scatter_2d``
    Pack/unpack served by the uniform 2-D strided-view fast path.
``gather_vec`` / ``scatter_vec``
    Pack/unpack served by one NumPy fancy-indexing operation over the
    word indices.
``tbuf_acquire``
    Device staging chunks handed out by :class:`repro.core.staging.TbufPool`.
``plan_cache_hit`` / ``plan_cache_miss``
    Lookups of a canonical entry's compiled
    :class:`~repro.core.plan.TransferPlan` cache (keyed on the caller's
    version, count, extent, chunk size and buffer kinds).
``event_pool_hit`` / ``event_pool_miss``
    Simulation Timeout events served from the environment's recycle pool
    vs. freshly allocated.

Shard counters (:mod:`repro.sim.shard`; all zero on sequential runs)
--------------------------------------------------------------------------
``shard_rounds`` / ``shard_null_grants``
    Coordinator rounds (one grant + one reply per shard each), and the
    subset whose grants and replies carried no cross-shard messages.
``shard_windows``
    Conservative windows executed per shard: one per round, so always
    equal to ``shard_rounds``.
``shard_pipe_msgs``
    Coordinator pipe messages (grants sent plus replies received, summed
    over shards).
``shard_batch_msgs`` / ``shard_batch_bytes``
    Cross-shard messages delivered with the coordinator's grants, and the
    pickled bytes of all grants sent.
``shard_xmsg_ctl`` / ``shard_xmsg_rdma``
    Cross-shard wire messages by kind: control messages and RDMA-write
    payload landings.
``shard<i>_events``
    Events processed by shard *i*'s worker environment.
``shard_payload_shm_bytes`` / ``shard_payload_inline_bytes``
    Bulk payload bytes shipped through the shared-memory arenas vs.
    pickled inline over the control pipes.

Fault / recovery counters (:mod:`repro.ib.faults` and the rendezvous
recovery layer; all zero unless a FaultPlan or RecoveryConfig is armed)
--------------------------------------------------------------------------
``fault_ctl_drop`` / ``fault_ctl_dup`` / ``fault_ctl_delay``
    Injected control-message faults applied on the wire.
``fault_rdma_stall`` / ``fault_rdma_fail``
    Injected RDMA faults (TX stall, completion-in-error).
``rdma_retry`` / ``rts_retry``
    Recovery retransmits: RDMA chunks re-posted after a completion
    timeout/error; RTS re-posts while waiting for the first CTS.
``cts_resent`` / ``fin_resent`` / ``nack_sent``
    Receiver-watchdog re-grants, sender FIN replays and watchdog NACKs.
``dup_rts_suppressed`` / ``dup_cts_suppressed`` / ``dup_fin_suppressed``
    Duplicate protocol messages recognized and dropped by SSN bookkeeping.
``degrade_to_host`` / ``vbuf_wait_timeout``
    Chunks that fell off the GPU-offload path onto the strided-PCIe host
    path when device staging timed out; bounded vbuf-acquisition waits
    that expired and were retried.

Datatype-IR counters (:mod:`repro.mpi.dtir`)
--------------------------------------------------------------------------
``dtir_canon``
    Types canonicalized: their runs detected into a canonical node and
    bound to a registry entry (at commit, or on first use).
``dtir_collision``
    Canonical collisions: a distinct datatype instance whose canonical
    form matched an existing registry entry (the collapse the IR is for).
``dtir_entry_reuse``
    Registry lookups that returned an existing entry (collisions plus
    re-binds of the same type after invalidation).
``dtir_seg_shared`` / ``dtir_slice_shared`` / ``dtir_plan_shared`` / ``dtir_sig_shared``
    Cache hits served by a compilation another datatype instance created
    -- the cross-instance sharing attributable to canonicalization (each
    is a subset of the corresponding ``*_cache_hit`` counter; signatures
    have no miss counter, so ``dtir_sig_shared`` stands alone).

Tuning counters (:mod:`repro.tune`; all zero unless a table is attached)
--------------------------------------------------------------------------
``tune_lookup_hit`` / ``tune_lookup_miss``
    Tuned-choice resolutions that found an entry for their (layout
    signature, size bucket) vs. fell back to the static config. Bumped
    per resolution *request* (not per table walk), so the counts are a
    pure function of each endpoint's own traffic -- invariant under
    shard partitioning.
``tune_lru_hit``
    Resolutions served from the calling endpoint's own memo
    (``endpoint.tune_memo``) without walking the table (a subset of the
    hits/misses above -- repeated shapes pay the table scan once).
``tune_nearest_bucket``
    Resolutions that landed on a neighbouring size bucket of the same
    layout class rather than an exact bucket entry (bumped per request,
    memoized requests included).
``tune_chunk_clamped``
    Tuned chunk sizes clamped down to the staging capacity of the two
    endpoints (bumped per request, memoized requests included).
``tune_contig_bypass``
    Contiguous rendezvous sends that deliberately skipped the table (the
    zero-copy path has no staging geometry to tune); counted so tuned
    runs can see the traffic the table never saw.
``tune_trial``
    Simulated trials evaluated by the offline search engine.
``tune_trial_rejected``
    Degenerate (size, candidate) trials the search refused to run (the
    candidate's pipeline could never engage for that size).
``tune_backend_guard``
    Backend candidates excluded by the Hunold/Träff guideline guard (a
    modeled cost above the default path's tolerance band).

Collective counters (:mod:`repro.mpi.collectives`; all zero unless a
datatype-aware v-variant ran)
--------------------------------------------------------------------------
``coll_calls``
    Datatype-aware collective invocations (``alltoallv``, ``allgatherv``,
    ``neighbor_alltoallv``), bumped once per call per rank.
``coll_messages``
    Point-to-point peer-messages those collectives decomposed into (the
    flows that individually hit the rendezvous pipeline and the tuning
    table), counted on the sending rank.
``coll_rounds``
    Schedule rounds executed: 1 for the overlapped small/neighbor
    schedules, ``size - 1`` for the large scattered-destination and ring
    schedules.
``coll_bytes``
    Typed payload bytes the calling rank contributed (datatype ``size``
    times count, summed over live peers).
``coll_small_sched`` / ``coll_large_sched``
    Calls that took the single-round eager-friendly schedule vs. the
    windowed/ring large-message schedule.
``coll_tuned_hit``
    Tuned-table resolutions served by a *collective-context* entry
    (``...|coll:f<fanout>``) rather than a context-free one -- the
    fan-out-aware rows earning their keep (bumped in
    :mod:`repro.tune.table`; a subset of ``tune_lookup_hit``).

Every collective counter is a pure function of each rank's own calls
and traffic, so the totals are invariant under shard partitioning.

Backend counters (:mod:`repro.core.backends`)
--------------------------------------------------------------------------
``backend_gpu_chunks`` / ``backend_host_chunks`` / ``backend_nic_chunks``
    Strided chunks moved by each transfer backend, counted once per
    chunk per side (sender staging and receiver drain).
``nic_descriptors``
    DMA descriptors the modeled HCA processed for NIC-offloaded chunks
    (one per strided segment, both sides).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

__all__ = ["PerfStats", "PERF"]


class PerfStats:
    """A bag of named monotonic counters with a one-line report."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Counter = Counter()

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def reset(self) -> None:
        self.counters.clear()

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy (picklable; used by the parallel harness)."""
        return dict(self.counters)

    def merge(self, other: Dict[str, int]) -> None:
        """Fold a snapshot (e.g. from a worker process) into this one."""
        self.counters.update(other)

    # -- derived figures ----------------------------------------------------
    def hit_rate(self, kind: str) -> float:
        """Hit rate in [0, 1] for ``kind`` in {"seg", "slice", "plan"}
        (0 if unused)."""
        hits = self.counters[f"{kind}_cache_hit"]
        misses = self.counters[f"{kind}_cache_miss"]
        total = hits + misses
        return hits / total if total else 0.0

    def pool_rate(self) -> float:
        """Event-pool hit rate in [0, 1] (0 when no Timeout was created)."""
        hits = self.counters["event_pool_hit"]
        total = hits + self.counters["event_pool_miss"]
        return hits / total if total else 0.0

    def footer(self) -> str:
        """The one-line perf-stats footer printed by the bench CLI."""
        c = self.counters
        seg = c["seg_cache_hit"] + c["seg_cache_miss"]
        sli = c["slice_cache_hit"] + c["slice_cache_miss"]
        plan = c["plan_cache_hit"] + c["plan_cache_miss"]
        pool = c["event_pool_hit"] + c["event_pool_miss"]
        parts = [
            f"seg-cache {100 * self.hit_rate('seg'):.0f}% hit "
            f"({c['seg_cache_hit']}/{seg})",
            f"slice-cache {100 * self.hit_rate('slice'):.0f}% hit "
            f"({c['slice_cache_hit']}/{sli})",
            f"plan-cache {100 * self.hit_rate('plan'):.0f}% hit "
            f"({c['plan_cache_hit']}/{plan})",
            f"event-pool {100 * self.pool_rate():.0f}% hit "
            f"({c['event_pool_hit']}/{pool})",
            f"pack {c['gather_2d'] + c['scatter_2d']} 2d / "
            f"{c['gather_vec'] + c['scatter_vec']} vec",
            f"idx {c['index_reuse']} reused / {c['index_build']} built",
            f"{c['cache_invalidation']} invalidations",
        ]
        return "[perf: " + ", ".join(parts) + "]"

    def footers(self, provenance: str = "") -> List[str]:
        """The ``[perf:]`` line, then every non-empty footer in CLI order.

        ``provenance`` is passed on to :meth:`tune_footer`.
        """
        lines = [
            self.footer(), self.shard_footer(), self.fault_footer(),
            self.tune_footer(provenance), self.dtype_footer(),
            self.backend_footer(), self.coll_footer(),
        ]
        return [line for line in lines if line]

    #: Counters that appear in the fault footer (order matters for output).
    FAULT_COUNTERS = (
        "fault_ctl_drop", "fault_ctl_dup", "fault_ctl_delay",
        "fault_rdma_stall", "fault_rdma_fail",
        "rdma_retry", "rts_retry", "cts_resent", "fin_resent", "nack_sent",
        "dup_rts_suppressed", "dup_cts_suppressed", "dup_fin_suppressed",
        "degrade_to_host", "vbuf_wait_timeout",
    )

    #: Cross-shard message kinds, in footer order.
    SHARD_MSG_KINDS = ("ctl", "rdma")

    def shard_footer(self) -> str:
        """The one-line ``[shard: ...]`` footer; empty on sequential runs.

        Summarizes the sharded engine's synchronization cost: window
        rounds, null-message overhead, cross-shard traffic by kind,
        per-shard event totals and how payload bytes traveled.
        """
        c = self.counters
        rounds = c["shard_rounds"]
        if not rounds:
            return ""
        xmsg = {k: c[f"shard_xmsg_{k}"] for k in self.SHARD_MSG_KINDS}
        per_shard = []
        i = 0
        while f"shard{i}_events" in c:
            per_shard.append(c[f"shard{i}_events"])
            i += 1
        null = c["shard_null_grants"]
        parts = [
            f"{rounds} rounds (one window each)",
            f"{null} null rounds ({100 * null / rounds:.0f}%)",
            f"pipe {c['shard_pipe_msgs']} msgs",
            f"batch {c['shard_batch_msgs']} msgs / "
            f"{c['shard_batch_bytes'] / rounds:.0f} B per round",
            f"xmsg {sum(xmsg.values())} "
            f"({' / '.join(f'{v} {k}' for k, v in xmsg.items())})",
            f"events per shard {per_shard}",
            f"payload {c['shard_payload_shm_bytes']} B shm / "
            f"{c['shard_payload_inline_bytes']} B inline",
        ]
        return "[shard: " + ", ".join(parts) + "]"

    #: Counters that appear in the tune footer (order matters for output).
    TUNE_COUNTERS = (
        "tune_lookup_hit", "tune_lookup_miss", "tune_lru_hit",
        "tune_nearest_bucket", "tune_chunk_clamped", "tune_contig_bypass",
        "tune_trial", "tune_trial_rejected", "tune_backend_guard",
    )

    #: Counters that appear in the backend footer (order matters).
    BACKEND_COUNTERS = (
        "backend_gpu_chunks", "backend_host_chunks", "backend_nic_chunks",
        "nic_descriptors", "tune_backend_guard",
    )

    def tune_footer(self, provenance: str = "") -> str:
        """The one-line ``[tune: ...]`` footer; empty when tuning never ran.

        ``provenance`` (the attached tables' origin, from
        :func:`repro.tune.table.active_provenance`) is appended so a
        benchmark line always says *which* table produced its numbers.
        """
        c = self.counters
        if not any(c[name] for name in self.TUNE_COUNTERS):
            return ""
        looked = c["tune_lookup_hit"] + c["tune_lookup_miss"]
        parts = [
            f"lookups {c['tune_lookup_hit']}/{looked} hit",
            f"{c['tune_lru_hit']} lru / {c['tune_nearest_bucket']} nearest",
            f"{c['tune_chunk_clamped']} clamped",
        ]
        if c["tune_contig_bypass"]:
            parts.append(f"{c['tune_contig_bypass']} contig bypassed")
        if c["tune_trial"]:
            parts.append(f"{c['tune_trial']} search trials")
        if c["tune_trial_rejected"]:
            parts.append(f"{c['tune_trial_rejected']} trials rejected")
        if provenance:
            parts.append(f"table {provenance}")
        return "[tune: " + ", ".join(parts) + "]"

    #: Counters that appear in the coll footer (order matters for output).
    COLL_COUNTERS = (
        "coll_calls", "coll_messages", "coll_rounds", "coll_bytes",
        "coll_small_sched", "coll_large_sched", "coll_tuned_hit",
    )

    def coll_footer(self) -> str:
        """The one-line ``[coll: ...]`` footer; empty when no
        datatype-aware collective ran.

        Summarizes how the v-variants decomposed: calls, the peer-messages
        they spawned, schedule rounds, the small/large schedule split and
        how many tuned resolutions a collective-context table row served.
        """
        c = self.counters
        calls = c["coll_calls"]
        if not calls:
            return ""
        parts = [
            f"{calls} calls -> {c['coll_messages']} msgs / "
            f"{c['coll_rounds']} rounds",
            f"{c['coll_bytes']} B typed",
            f"sched {c['coll_small_sched']} small / "
            f"{c['coll_large_sched']} large",
            f"{c['coll_tuned_hit']} ctx-tuned hits",
        ]
        return "[coll: " + ", ".join(parts) + "]"

    def backend_footer(self) -> str:
        """The one-line ``[backend: ...]`` footer.

        Empty unless a non-default transfer backend moved at least one
        chunk (or the guideline guard vetoed a candidate), so default
        runs print exactly what they always printed.
        """
        c = self.counters
        if not (c["backend_host_chunks"] or c["backend_nic_chunks"]
                or c["tune_backend_guard"]):
            return ""
        parts = [
            f"chunks {c['backend_gpu_chunks']} gpu / "
            f"{c['backend_host_chunks']} host / "
            f"{c['backend_nic_chunks']} nic",
            f"{c['nic_descriptors']} nic descriptors",
        ]
        if c["tune_backend_guard"]:
            parts.append(f"{c['tune_backend_guard']} guideline vetoes")
        return "[backend: " + ", ".join(parts) + "]"

    def dtype_footer(self) -> str:
        """The one-line ``[dtype: ...]`` footer; empty when the IR idled.

        Summarizes the datatype compiler's work: how many types were
        canonicalized, how many collapsed onto an existing canonical
        form, and how much compiled state was served across instances
        because of it.
        """
        c = self.counters
        canon = c["dtir_canon"]
        if not canon:
            return ""
        shared = (
            f"{c['dtir_seg_shared']} seg / {c['dtir_slice_shared']} slice / "
            f"{c['dtir_plan_shared']} plan / {c['dtir_sig_shared']} sig"
        )
        parts = [
            f"{canon} canon ({c['dtir_collision']} collisions)",
            f"shared {shared}",
        ]
        return "[dtype: " + ", ".join(parts) + "]"

    def fault_footer(self) -> str:
        """The one-line ``[faults: ...]`` footer; empty when nothing fired.

        Covers both the injected faults and the recovery layer's reactions,
        so a fault-matrix run shows at a glance what was thrown at the
        fabric and what the protocol did about it.
        """
        c = self.counters
        if not any(c[name] for name in self.FAULT_COUNTERS):
            return ""
        parts = [
            "injected "
            f"{c['fault_ctl_drop']} drop / {c['fault_ctl_dup']} dup / "
            f"{c['fault_ctl_delay']} delay / "
            f"{c['fault_rdma_stall']} stall / {c['fault_rdma_fail']} fail",
            f"retries {c['rdma_retry']} rdma / {c['rts_retry']} rts",
            f"resent {c['cts_resent']} cts / {c['fin_resent']} fin",
            f"{c['nack_sent']} nacks",
            "suppressed "
            f"{c['dup_rts_suppressed']} rts / {c['dup_cts_suppressed']} cts / "
            f"{c['dup_fin_suppressed']} fin dups",
            f"{c['degrade_to_host']} degraded / "
            f"{c['vbuf_wait_timeout']} vbuf timeouts",
        ]
        return "[faults: " + ", ".join(parts) + "]"


#: The process-wide instance every hot path reports to.
PERF = PerfStats()

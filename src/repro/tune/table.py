"""Persisted tuning tables: versioned JSON keyed by layout + size bucket.

A :class:`TuningTable` maps ``(layout signature, message-size bucket)`` to
the :class:`~repro.core.config.GpuNcConfig` knob values the offline search
(:mod:`repro.tune.search`) found best for that class of transfer, exactly
like MVAPICH2's per-message-size tuning tables. Tables are additionally
keyed by a **cluster config hash** -- a digest of every calibrated
:class:`~repro.hw.config.HardwareConfig` constant -- so a table tuned for
one hardware model is never silently applied to another.

Runtime lookups (:meth:`TuningTable.lookup`) resolve the exact bucket
first, then the *nearest* bucket of the same layout class (geometric
distance in log2 space), and cache resolutions in a small in-memory LRU so
a message stream with a stable shape pays the scan once. Lookup traffic is
reported through the ``tune_*`` counters of :data:`repro.perf.stats.PERF`
and surfaces in the ``[tune:]`` benchmark footer.

Tables persist under ``tuning/`` at the repo root as
``tuning/<cluster-hash>.json`` (override with ``$REPRO_TUNING_DIR``).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..perf.stats import PERF
from .signature import LayoutSignature, size_bucket

__all__ = [
    "TuningEntry",
    "TuningTable",
    "TuningTableError",
    "TransferChoice",
    "cluster_config_hash",
    "tuning_dir",
    "table_path",
    "tuned_transfer_choice",
    "active_provenance",
]

#: Bump when the on-disk layout changes incompatibly.
SCHEMA_VERSION = 1

#: Lookup-resolution LRU capacity per table.
LOOKUP_LRU_CAP = 128

#: Backend names a table entry may carry (mirrors
#: ``repro.core.backends.BACKENDS``; kept literal here so loading a table
#: never imports the engine).
KNOWN_BACKENDS = ("gpu", "host", "nic")


class TuningTableError(ValueError):
    """Malformed, wrong-schema or wrong-cluster tuning table."""


def cluster_config_hash(cfg) -> str:
    """Digest of every calibrated constant of a ``HardwareConfig``.

    Field-name-qualified so that reordering fields or adding new ones
    changes the hash (a new timing constant means old tables were tuned
    for a different machine model).
    """
    parts = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(cfg)]
    digest = hashlib.sha256(";".join(sorted(parts)).encode())
    return digest.hexdigest()[:12]


def tuning_dir() -> Path:
    """``$REPRO_TUNING_DIR`` or ``tuning/`` at the repo root."""
    env = os.environ.get("REPRO_TUNING_DIR")
    if env:
        return Path(env)
    # Repo root = three levels above src/repro/tune/.
    root = Path(__file__).resolve().parents[3]
    if root.is_dir():
        return root / "tuning"
    return Path.cwd() / "tuning"  # pragma: no cover - installed package


def table_path(cluster_hash: str) -> Path:
    """Canonical on-disk location of one cluster's table."""
    return tuning_dir() / f"{cluster_hash}.json"


@dataclass(frozen=True)
class TuningEntry:
    """Tuned knob values for one (layout, size-bucket) key.

    The engine applies ``chunk_bytes`` and ``backend``
    (:func:`tuned_transfer_choice`). ``pipeline_threshold``,
    ``tbuf_chunks`` and ``use_plans`` name knobs the engine no longer
    has; they stay so that every persisted table keeps loading.
    """

    chunk_bytes: int
    pipeline_threshold: int
    tbuf_chunks: int
    use_plans: bool
    #: Simulated one-way latency of the tuned and the default config on
    #: the search workload (provenance; not consulted at runtime).
    latency: float = 0.0
    default_latency: float = 0.0
    #: Which transfer backend won this bucket ("gpu" is the engine's
    #: historical path; older tables without the field load as "gpu").
    backend: str = "gpu"

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise TuningTableError(
                f"tuned chunk_bytes must be positive, got {self.chunk_bytes}"
            )
        if self.tbuf_chunks < 1:
            raise TuningTableError("tuned tbuf_chunks must be >= 1")
        if self.backend not in KNOWN_BACKENDS:
            raise TuningTableError(
                f"unknown tuned backend {self.backend!r} "
                f"(expected one of {KNOWN_BACKENDS})"
            )


def _entry_key(sig_key: str, bucket: int, ctx: str = "") -> str:
    base = f"{sig_key}|s{bucket}"
    return f"{base}|{ctx}" if ctx else base


def _split_key(key: str) -> Tuple[str, int, str]:
    """``(sig key, bucket, context)`` of a full entry key.

    Point-to-point entries have two ``|``-separated parts
    (``"<sig>|s<bucket>"``); collective entries carry a third, the
    context string of :func:`repro.tune.signature.coll_context`
    (``"<sig>|s<bucket>|coll:f<n>"``). Signatures and contexts never
    contain ``|`` themselves.
    """
    parts = key.split("|")
    if len(parts) < 2 or not parts[1].startswith("s"):
        raise TuningTableError(f"malformed tuning-table key {key!r}")
    try:
        bucket = int(parts[1][1:])
    except ValueError:
        raise TuningTableError(f"malformed tuning-table key {key!r}") from None
    return parts[0], bucket, "|".join(parts[2:])


#: Provenance strings of tables loaded/attached this process, for the
#: ``[tune:]`` footer (reset alongside PERF by the bench harness).
_PROVENANCE: "OrderedDict[str, None]" = OrderedDict()


def active_provenance() -> str:
    """Comma-joined provenance of every table used so far (may be '')."""
    return ", ".join(_PROVENANCE)


def _note_provenance(text: str) -> None:
    _PROVENANCE[text] = None
    while len(_PROVENANCE) > 8:  # keep the footer bounded
        _PROVENANCE.popitem(last=False)


class TuningTable:
    """In-memory tuning table with nearest-bucket lookup and an LRU."""

    def __init__(
        self,
        cluster_hash: str,
        entries: Optional[Dict[str, TuningEntry]] = None,
        meta: Optional[dict] = None,
        source: str = "<memory>",
    ):
        self.cluster_hash = cluster_hash
        #: full key ("<sig>|s<bucket>") -> TuningEntry
        self.entries: Dict[str, TuningEntry] = dict(entries or {})
        #: search parameters / creation info, persisted verbatim.
        self.meta: dict = dict(meta or {})
        self.source = source
        #: (sig key, bucket, ctx) -> (entry-or-None, via-nearest, via-ctx).
        self._lru: "OrderedDict[Tuple[str, int, str], Tuple[Optional[TuningEntry], bool, bool]]" = (
            OrderedDict()
        )
        _note_provenance(self.provenance())

    # -- construction -------------------------------------------------------
    def set(self, sig: LayoutSignature, bucket: int, entry: TuningEntry,
            ctx: str = "") -> None:
        self.entries[_entry_key(sig.key(), bucket, ctx)] = entry
        self._lru.clear()

    def provenance(self) -> str:
        """One-phrase origin tag for footers: source file + cluster hash."""
        return f"{Path(self.source).name}@{self.cluster_hash}"

    def max_chunk_bytes(self, floor: int = 0) -> int:
        """Largest tuned chunk (>= ``floor``): sizes staging pools."""
        chunks = [e.chunk_bytes for e in self.entries.values()]
        return max(chunks + [floor]) if chunks else floor

    # -- lookup -------------------------------------------------------------
    def resolve(
        self, sig: LayoutSignature, total_bytes: int
    ) -> Tuple[Optional[TuningEntry], bool]:
        """``(entry, via_nearest)`` for a ``total_bytes`` transfer of ``sig``.

        Exact ``(signature, bucket)`` first; otherwise the nearest bucket
        of the *same* layout signature by log2 distance (ties prefer the
        smaller bucket -- a too-small chunk only costs overhead, a
        too-large one can exceed staging buffers). ``entry`` is None when
        the layout class has no entry at all. Resolutions (including
        misses) are cached in the in-memory LRU.

        Deliberately bumps **no** PERF counters: cache mechanics (LRU
        hits, nearest scans) depend on how many endpoints share one table
        object in one process, which varies across shard partitions of
        the same run. Counter accounting lives in
        :func:`tuned_transfer_choice`, which reports per *resolution
        request* -- a pure function of each endpoint's own traffic.
        """
        entry, nearest, _ = self.resolve_ctx(sig, total_bytes, "")
        return entry, nearest

    def resolve_ctx(
        self, sig: LayoutSignature, total_bytes: int, ctx: str = ""
    ) -> Tuple[Optional[TuningEntry], bool, bool]:
        """``(entry, via_nearest, via_ctx)`` with a collective context.

        A nonempty ``ctx`` (see :func:`repro.tune.signature.coll_context`)
        first resolves among the context-qualified entries (exact bucket,
        then nearest of the same signature *and* context); only when the
        context has no entry for the layout class does the lookup fall
        back to the context-free point-to-point entries. ``via_ctx``
        reports whether a context-qualified entry won. With ``ctx`` empty
        this is exactly :meth:`resolve`, so point-to-point resolution is
        byte-identical to the pre-collective table.
        """
        bucket = size_bucket(total_bytes)
        key = (sig.key(), bucket, ctx)
        if key in self._lru:
            self._lru.move_to_end(key)
            return self._lru[key]
        entry = None
        nearest = False
        from_ctx = False
        if ctx:
            entry = self.entries.get(_entry_key(sig.key(), bucket, ctx))
            if entry is None:
                entry = self._nearest(sig.key(), bucket, ctx)
                nearest = entry is not None
            from_ctx = entry is not None
        if entry is None:
            entry = self.entries.get(_entry_key(sig.key(), bucket))
            nearest = False
            if entry is None:
                entry = self._nearest(sig.key(), bucket)
                nearest = entry is not None
        resolved = (entry, nearest, from_ctx)
        self._lru[key] = resolved
        if len(self._lru) > LOOKUP_LRU_CAP:
            self._lru.popitem(last=False)
        return resolved

    def lookup(self, sig: LayoutSignature, total_bytes: int) -> Optional[TuningEntry]:
        """Entry for a transfer of ``total_bytes`` (see :meth:`resolve`)."""
        return self.resolve(sig, total_bytes)[0]

    def _nearest(self, sig_key: str, bucket: int,
                 ctx: str = "") -> Optional[TuningEntry]:
        best = None
        best_rank = None
        for key, entry in self.entries.items():
            entry_sig, entry_bucket, entry_ctx = _split_key(key)
            if entry_sig != sig_key or entry_ctx != ctx:
                continue
            distance = abs(
                entry_bucket.bit_length() - bucket.bit_length()
            )
            rank = (distance, entry_bucket)
            if best_rank is None or rank < best_rank:
                best, best_rank = entry, rank
        return best

    # -- persistence --------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "cluster": self.cluster_hash,
            "meta": self.meta,
            "entries": {
                key: asdict(entry)
                for key, entry in sorted(self.entries.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict, source: str = "<memory>") -> "TuningTable":
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            raise TuningTableError(
                f"{source}: expected tuning-table schema {SCHEMA_VERSION}, "
                f"got {data.get('schema') if isinstance(data, dict) else data!r}"
            )
        entries = {}
        for key, raw in data.get("entries", {}).items():
            sig_key, bucket, ctx = _split_key(key)
            LayoutSignature.from_key(sig_key)  # validates the shape part
            if bucket < 1:
                raise TuningTableError(f"{source}: bad size bucket in {key!r}")
            if ctx and not ctx.startswith("coll:"):
                raise TuningTableError(
                    f"{source}: unknown context qualifier in {key!r}"
                )
            try:
                entries[key] = TuningEntry(**raw)
            except TypeError as exc:
                raise TuningTableError(f"{source}: entry {key!r}: {exc}") from None
        return cls(
            str(data.get("cluster", "")), entries,
            meta=data.get("meta"), source=source,
        )

    @classmethod
    def load(cls, path, expect_cluster: Optional[str] = None) -> "TuningTable":
        """Load and validate a persisted table.

        ``expect_cluster`` (the hash of the cluster about to use the
        table) turns a hardware-model mismatch into a loud error instead
        of silently mistuned transfers.
        """
        path = Path(path)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise TuningTableError(f"cannot read tuning table {path}: {exc}")
        except ValueError as exc:
            raise TuningTableError(f"{path} is not valid JSON: {exc}")
        table = cls.from_json(data, source=str(path))
        if expect_cluster is not None and table.cluster_hash != expect_cluster:
            raise TuningTableError(
                f"{path} was tuned for cluster {table.cluster_hash}, this "
                f"cluster hashes to {expect_cluster}"
            )
        return table

    def save(self, path=None) -> Path:
        """Write the table (default: ``tuning/<cluster-hash>.json``)."""
        path = Path(path) if path is not None else table_path(self.cluster_hash)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        _PROVENANCE.pop(self.provenance(), None)  # retag under the new name
        self.source = str(path)
        _note_provenance(self.provenance())
        return path

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<TuningTable cluster={self.cluster_hash} "
            f"entries={len(self.entries)} source={self.source}>"
        )


@dataclass(frozen=True)
class TransferChoice:
    """A resolved per-transfer decision: which backend, what chunk size."""

    backend: str
    chunk_bytes: int
    #: True when the tuned chunk was clamped to the caller's staging cap.
    clamped: bool = False


def tuned_transfer_choice(table, datatype, count: int, total_bytes: int,
                          cap: int, memo: Optional[dict] = None,
                          ctx: Optional[str] = None
                          ) -> Optional[TransferChoice]:
    """Resolve the tuned ``(backend, chunk)`` choice for one transfer.

    The shared runtime hook of :mod:`repro.mpi.protocol` and
    :mod:`repro.core.pipeline`: signature lookup, hit/miss accounting and
    clamping to ``cap`` (the staging-buffer size actually allocated on
    *both* endpoints -- a table tuned with bigger pools must not overflow
    smaller ones). Returns None on a miss so callers fall back to the
    static config; with ``table`` None this function is never called (the
    no-table path stays bit-identical to the pre-tuning engine).

    ``ctx`` is the collective context string
    (:func:`repro.tune.signature.coll_context`) for peer-messages spawned
    by a collective; resolution prefers context-qualified entries and
    falls back to the point-to-point ones (see
    :meth:`TuningTable.resolve_ctx`). A context-qualified win bumps
    ``coll_tuned_hit`` for the ``[coll:]`` footer.

    ``memo`` is the caller's per-endpoint resolution cache (e.g.
    ``endpoint.tune_memo``): unlike the table-internal LRU it is local to
    one endpoint, so the ``tune_lru_hit`` counter it feeds is invariant
    under shard partitioning. Every call bumps the semantic counters
    (hit/miss, nearest, clamped) whether or not the memo short-circuited
    the table walk.
    """
    sig = datatype.layout_signature(count)
    key = (sig.key(), size_bucket(total_bytes), cap, ctx or "")
    if memo is not None and key in memo:
        choice, nearest, via_ctx = memo[key]
        PERF.bump("tune_lru_hit")
    else:
        entry, nearest, via_ctx = table.resolve_ctx(
            sig, total_bytes, ctx or ""
        )
        if entry is None:
            choice = None
        else:
            chunk = min(entry.chunk_bytes, cap)
            choice = TransferChoice(
                backend=entry.backend, chunk_bytes=chunk,
                clamped=chunk < entry.chunk_bytes,
            )
        if memo is not None:
            memo[key] = (choice, nearest, via_ctx)
    if choice is None:
        PERF.bump("tune_lookup_miss")
        return None
    PERF.bump("tune_lookup_hit")
    if nearest:
        PERF.bump("tune_nearest_bucket")
    if via_ctx:
        PERF.bump("coll_tuned_hit")
    if choice.clamped:
        PERF.bump("tune_chunk_clamped")
    return choice


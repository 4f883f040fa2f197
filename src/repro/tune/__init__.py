"""Autotuning: offline knob search + persisted per-layout tuning tables.

The subsystem has three parts (see DESIGN.md §9):

* :mod:`repro.tune.signature` -- canonical layout signatures and
  message-size buckets, the tuning-table key;
* :mod:`repro.tune.table` -- the persisted, cluster-hash-keyed
  :class:`TuningTable` with nearest-bucket lookup, and the runtime
  :func:`tuned_transfer_choice` hook the transfer engine calls at RTS
  time;
* :mod:`repro.tune.search` -- the deterministic grid +
  successive-halving search (imported lazily here: it pulls in the bench
  harness, which the runtime lookup path must not).

Attach a table with ``MpiWorld(cluster, tuning=...)`` (a
:class:`TuningTable`, a path, or ``True`` for the current cluster's
persisted table); without one, the engine is bit-identical to the
untuned code. ``python -m repro.tune`` drives search/show/apply.
"""

from .signature import (
    LayoutSignature,
    coll_context,
    fanout_bucket,
    signature_of_segments,
    size_bucket,
)
from .table import (
    TransferChoice,
    TuningEntry,
    TuningTable,
    TuningTableError,
    active_provenance,
    cluster_config_hash,
    table_path,
    tuned_transfer_choice,
    tuning_dir,
)

__all__ = [
    "LayoutSignature",
    "coll_context",
    "fanout_bucket",
    "signature_of_segments",
    "size_bucket",
    "TransferChoice",
    "TuningEntry",
    "TuningTable",
    "TuningTableError",
    "active_provenance",
    "cluster_config_hash",
    "table_path",
    "tuned_transfer_choice",
    "tuning_dir",
]

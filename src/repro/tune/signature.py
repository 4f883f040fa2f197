"""Canonical layout signatures: the tuning-table key.

TEMPI (Pearson et al.) showed that a *canonical representation* of a
CUDA-aware datatype -- not the datatype object itself -- is the right key
for per-layout specialization: ``dup``/``resized`` variants, differently
constructed but identical typemaps, and repeated counts of the same shape
must all land on the same tuning entry, while genuinely different layouts
must not.

Our canonical form is derived from the engine's own compiled-segment
representation (:class:`repro.mpi.datatype.SegmentList`), which already
collapses the constructor algebra to byte runs, and from its one
classifier, :meth:`~repro.mpi.datatype.SegmentList.uniform`:

* ``contig``    -- one run: transfers degenerate to 1-D copies.
* ``uniform``   -- equal-length, equal-pitch runs ``(width, pitch)``: the
  ``cudaMemcpy2D``-able class, fully described by two integers.
* ``irregular`` -- everything else, classed by the log2 bucket of its
  segment count and by the common run width when one exists.

A signature never contains the element *count* or the message size; those
are folded into a separate power-of-two **size bucket**
(:func:`size_bucket`), so one table entry covers a band of message sizes
exactly like MVAPICH2's per-message-size tuning tables.

Collectives add a third, *optional* key dimension: the **fan-out bucket**
(:func:`fanout_bucket`, rendered as a context string by
:func:`coll_context`). A peer-message inside an 8-rank ``alltoallv``
competes with seven concurrent transfers for the same staging pools and
HCA, so the chunk/backend sweet spot shifts with the fan-out; bucketing
the peer count to powers of two keeps the table small while letting the
search learn collective-specific entries. Point-to-point lookups carry no
context and resolve exactly as before -- the dimension is strictly
additive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LayoutSignature",
    "signature_of_segments",
    "size_bucket",
    "fanout_bucket",
    "coll_context",
]


def size_bucket(nbytes: int) -> int:
    """The power-of-two bucket a message of ``nbytes`` falls into.

    Buckets are geometric (nearest power of two in log space), mirroring
    the per-message-size rows of real MPI tuning tables. Zero-byte
    messages share the 1-byte bucket (nothing to tune there anyway).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if nbytes <= 1:
        return 1
    return 1 << int(round(math.log2(nbytes)))


def fanout_bucket(npeers: int) -> int:
    """The power-of-two bucket a collective's peer count falls into.

    Same geometric rounding as :func:`size_bucket`: a 6-peer neighbor
    exchange and an 8-rank ``alltoallv`` share the fan-out-8 bucket, a
    64-rank one gets its own. Zero or one peer degenerates to bucket 1
    (a "collective" that is really a point-to-point).
    """
    if npeers < 0:
        raise ValueError("npeers must be non-negative")
    if npeers <= 1:
        return 1
    return 1 << int(round(math.log2(npeers)))


def coll_context(npeers: int) -> str:
    """The collective context-key string for an ``npeers``-way exchange.

    The string form (``"coll:f<bucket>"``) is what qualifies tuning-table
    entry keys and per-transfer resolutions; it deliberately contains no
    ``|`` (the table's key separator) and no size information (sizes keep
    their own bucket dimension).
    """
    return f"coll:f{fanout_bucket(npeers)}"


def _log2_bucket(n: int) -> int:
    """Integer log2 class of a positive count (0 for empty)."""
    return n.bit_length() - 1 if n > 0 else 0


@dataclass(frozen=True)
class LayoutSignature:
    """Canonical shape class of a flattened datatype layout.

    ``kind`` is one of ``"contig"``, ``"uniform"``, ``"irregular"``;
    ``width``/``pitch`` describe the uniform 2-D pattern (both 0 for
    irregular layouts with mixed run lengths); ``nseg_class`` is the log2
    bucket of the segment count (0 for contig/uniform, where the count is
    message-size dependent, not shape dependent).
    """

    kind: str
    width: int = 0
    pitch: int = 0
    nseg_class: int = 0

    def key(self) -> str:
        """Stable string form used in table JSON (and human-readable)."""
        if self.kind == "contig":
            return "contig"
        if self.kind == "uniform":
            return f"uniform:w{self.width}:p{self.pitch}"
        return f"irregular:w{self.width}:n{self.nseg_class}"

    @classmethod
    def from_key(cls, key: str) -> "LayoutSignature":
        """Inverse of :meth:`key` (used when loading persisted tables)."""
        parts = key.split(":")
        if parts[0] == "contig" and len(parts) == 1:
            return cls("contig")
        try:
            if parts[0] == "uniform" and len(parts) == 3:
                return cls("uniform", width=int(parts[1][1:]),
                           pitch=int(parts[2][1:]))
            if parts[0] == "irregular" and len(parts) == 3:
                return cls("irregular", width=int(parts[1][1:]),
                           nseg_class=int(parts[2][1:]))
        except ValueError:
            pass
        raise ValueError(f"malformed layout-signature key {key!r}")


def signature_of_segments(segs) -> LayoutSignature:
    """Classify a :class:`~repro.mpi.datatype.SegmentList`.

    Reads ``SegmentList.uniform()`` -- the classifier behind the
    2-D-copy fast path -- so the tuning key and the fast path cannot
    diverge. The two are deliberately distinct *views* of one
    classification: a single segment classifies ``contig`` here while
    ``uniform()`` reports the degenerate ``(width, 1, width)`` the copy
    path wants; zero-width multi-segment layouts are irregular in both.
    """
    if segs.count <= 1:
        return LayoutSignature("contig")
    uniform = segs.uniform()
    if uniform is not None:
        width, _height, pitch = uniform
        return LayoutSignature("uniform", width=width, pitch=pitch)
    lens = segs.lengths
    width = int(lens[0]) if bool((lens == lens[0]).all()) else 0
    return LayoutSignature(
        "irregular", width=width, nseg_class=_log2_bucket(segs.count)
    )

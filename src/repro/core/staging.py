"""Device staging buffers (**tbuf**) for GPU-offloaded datatype processing.

The sender packs non-contiguous data into tbuf chunks inside device memory
(Figure 3, "D2D nc2c"); the receiver unpacks from tbuf chunks after the
H2D stage. The pool is a fixed set of chunk-size device buffers; draining
it blocks the pipeline, which is the engine's device-side flow control: a
chunk op that finds it drained waits in the pool's store and is granted
the next released chunk in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hw.memory import BufferPtr
from ..perf.stats import PERF
from ..sim import Store

if TYPE_CHECKING:  # pragma: no cover
    from ..cuda.runtime import CudaContext

__all__ = ["TbufPool"]


class TbufPool:
    """A pool of fixed-size device staging chunks for one endpoint.

    A chunk op takes a tbuf in place (:meth:`request`); eager delivery, a
    process, and the recovery layer's raced wait yield :meth:`acquire`'s
    event. Released chunks are handed out again oldest first.
    """

    def __init__(self, cuda: "CudaContext", chunk_bytes: int, chunks: int):
        if chunk_bytes <= 0 or chunks <= 0:
            raise ValueError("tbuf pool needs positive chunk size and count")
        self.cuda = cuda
        self.chunk_bytes = chunk_bytes
        self.count = chunks
        self._backing = cuda.malloc(chunk_bytes * chunks)
        self._store = Store(cuda.env, name=f"tbufs@{cuda.name}")
        # Chunk slices materialize on first demand (see VbufPool): a spare
        # is deposited synchronously before the grant, so the pipeline
        # blocks exactly when all `chunks` are in flight.
        self._spare = chunks

    @property
    def available(self) -> int:
        return len(self._store) + self._spare

    @property
    def in_use(self) -> int:
        return self.count - (len(self._store) + self._spare)

    @property
    def waiting(self) -> int:
        """Number of acquires not yet granted."""
        return self._store.queue_len

    def _mint(self) -> None:
        """Deposit the next spare chunk when no released one is free."""
        if not len(self._store) and self._spare:
            i = self.count - self._spare
            self._spare -= 1
            self._store.put(
                self._backing.sub(i * self.chunk_bytes, self.chunk_bytes)
            )

    def request(self, op) -> None:
        """Grant ``op`` one tbuf chunk in place (see :meth:`Store.request`)."""
        PERF.bump("tbuf_acquire")
        self._mint()
        self._store.request(op)

    def acquire(self):
        """Get one tbuf chunk (an event; yield it)."""
        PERF.bump("tbuf_acquire")
        self._mint()
        return self._store.get()

    def cancel(self, get) -> bool:
        """Withdraw a pending acquire (recovery-layer degradation path)."""
        return self._store.cancel_get(get)

    def release(self, buf: BufferPtr) -> None:
        """Return a tbuf chunk; validates provenance and double-release.

        A matching size alone is not proof of ownership -- a foreign buffer
        or a second release of the same chunk would grow the pool past
        ``count`` and silently break the pipeline's device-side flow
        control.
        """
        rel = buf.offset - self._backing.offset
        if (
            buf.arena is not self._backing.arena
            or buf.nbytes != self.chunk_bytes
            or rel < 0
            or rel % self.chunk_bytes
            or rel >= self.count * self.chunk_bytes
        ):
            raise ValueError(
                f"released buffer (offset {buf.offset}, {buf.nbytes} bytes) "
                "is not a chunk of this tbuf pool"
            )
        if rel // self.chunk_bytes >= self.count - self._spare:
            raise ValueError(
                "release of a tbuf chunk that was never handed out"
            )
        for item in self._store.items:
            if item.offset == buf.offset:
                raise ValueError(
                    f"double release of tbuf chunk at offset {buf.offset}"
                )
        self._store.put(buf)

"""Property tests for the staging pools (tbuf device chunks, host vbufs).

The pools are the pipeline's flow control; their conservation invariant
(``available + in_use == count``) and ownership checks (foreign buffers,
double releases and never-issued chunks are rejected) are what keep a
recovery-layer retry from silently inflating a pool and breaking back-
pressure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import CallbackOp
from repro.cuda.runtime import CudaContext
from repro.hw import Cluster
from repro.mpi.endpoint import StagingPool
from repro.mpi.status import MpiError

CHUNK = 4096
COUNT = 4


def _tbuf_pool(cluster):
    node = cluster.nodes[0]
    cuda = CudaContext(cluster.env, cluster.cfg, node, gpu=node.gpus[0],
                       tracer=cluster.tracer, name="cuda:test")
    return StagingPool(cuda.env, cuda.malloc, CHUNK, COUNT, kind="tbuf chunk",
                       counter="tbuf_acquire")


def _vbuf_pool(cluster):
    return StagingPool(cluster.env, cluster.nodes[0].malloc_host, CHUNK, COUNT)


class _Holder(CallbackOp):
    """A callback op that keeps the buffer a pool grants it in place."""

    __slots__ = ("held",)

    def __init__(self, held):
        self.held = held
        self._step = _Holder._granted

    def _granted(self):
        self.held.append(self.item)


def _take_now(pool):
    """A buffer of a pool with one to spare: the grant leaves it in the
    op's ``item`` at once."""
    op = _Holder([])
    pool.request(op)
    return op.item


def _replay(cluster, pool, ops):
    """Replay an acquire/release script; check conservation at each step."""
    held = []
    for op in ops:
        if op == "acquire" and pool.available > 0:
            held.append(_take_now(pool))
        elif op == "release" and held:
            pool.release(held.pop())
        assert pool.available + len(held) == pool.count
    cluster.env.run()
    return held


class TestConservationInvariant:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["acquire", "release"]), max_size=40))
    def test_tbuf_available_plus_in_use_is_count(self, ops):
        cluster = Cluster(1)
        pool = _tbuf_pool(cluster)
        held = _replay(cluster, pool, ops)
        assert pool.available + pool.in_use == pool.count
        assert pool.in_use == len(held)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from(["acquire", "release"]), max_size=40))
    def test_vbuf_available_plus_held_is_count(self, ops):
        cluster = Cluster(1)
        pool = _vbuf_pool(cluster)
        held = _replay(cluster, pool, ops)
        assert pool.available + len(held) == pool.count


@pytest.mark.parametrize("make,exc", [
    (_tbuf_pool, MpiError),
    (_vbuf_pool, MpiError),
], ids=["tbuf", "vbuf"])
class TestOwnershipValidation:
    def _one(self, cluster, pool):
        """Acquire a single buffer synchronously."""
        return _take_now(pool)

    def test_foreign_buffer_of_matching_size_rejected(self, make, exc):
        cluster = Cluster(1)
        pool, other = make(cluster), make(cluster)
        stranger = self._one(cluster, other)
        with pytest.raises(exc):
            pool.release(stranger)

    def test_double_release_rejected(self, make, exc):
        cluster = Cluster(1)
        pool = make(cluster)
        buf = self._one(cluster, pool)
        pool.release(buf)
        with pytest.raises(exc, match="double release"):
            pool.release(buf)

    def test_never_issued_chunk_rejected(self, make, exc):
        cluster = Cluster(1)
        pool = make(cluster)
        ghost = pool._backing.sub((pool.count - 1) * CHUNK, CHUNK)
        with pytest.raises(exc, match="never handed out"):
            pool.release(ghost)

    def test_misaligned_slice_rejected(self, make, exc):
        cluster = Cluster(1)
        pool = make(cluster)
        buf = self._one(cluster, pool)
        crooked = pool._backing.sub(buf.offset - pool._backing.offset + 1,
                                    CHUNK - 1)
        with pytest.raises(exc):
            pool.release(crooked)
        pool.release(buf)  # the real chunk still goes back fine


@pytest.mark.parametrize("make", [_tbuf_pool, _vbuf_pool],
                         ids=["tbuf", "vbuf"])
class TestGrantOrder:
    """The order in which buffers are handed out decides which staging
    bytes a transfer touches, and the golden digests hash those bytes."""

    @staticmethod
    def _slot(pool, buf):
        return (buf.offset - pool._backing.offset) // CHUNK

    def _take(self, cluster, pool, n):
        held = []
        for _ in range(n):
            pool.request(_Holder(held))
        cluster.env.run()
        return held

    def test_released_buffers_reused_oldest_first_before_minting(self, make):
        cluster = Cluster(1)
        pool = make(cluster)
        first = self._take(cluster, pool, 3)
        assert [self._slot(pool, b) for b in first] == [0, 1, 2]
        pool.release(first[1])
        pool.release(first[0])
        again = self._take(cluster, pool, 2)
        assert [self._slot(pool, b) for b in again] == [1, 0]
        assert pool._spare == COUNT - 3  # no slice minted while one was free
        (fresh,) = self._take(cluster, pool, 1)
        assert self._slot(pool, fresh) == 3 and pool._spare == 0

    def test_drained_pool_grants_the_next_release(self, make):
        cluster = Cluster(1)
        pool = make(cluster)
        held = self._take(cluster, pool, COUNT)
        late = []
        pool.request(_Holder(late))
        cluster.env.run()
        assert not late and pool.waiting == 1
        pool.release(held[2])
        cluster.env.run()
        assert late == [held[2]] and pool.waiting == 0

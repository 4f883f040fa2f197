"""Tests for the InfiniBand verbs and fabric model."""

import numpy as np
import pytest

from repro.hw import Cluster
from repro.ib import ControlMessage, RemoteBuffer


@pytest.fixture
def cluster():
    return Cluster(3)


def run(cluster, gen):
    return cluster.env.run(cluster.env.process(gen))


class TestRegistration:
    def test_register_host_buffer(self, cluster):
        node = cluster.nodes[0]
        buf = node.malloc_host(1024)
        rb = node.hca.register(buf)
        assert rb == RemoteBuffer(0, buf.offset, 1024)

    def test_register_device_buffer_rejected(self, cluster):
        node = cluster.nodes[0]
        dbuf = node.gpu.malloc(1024)
        with pytest.raises(ValueError):
            node.hca.register(dbuf)

    def test_register_foreign_buffer_rejected(self, cluster):
        buf = cluster.nodes[1].malloc_host(64)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.register(buf)


class TestRdmaWrite:
    def test_moves_bytes_to_remote_memory(self, cluster):
        src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
        src = src_node.malloc_host(512)
        dst = dst_node.malloc_host(512)
        payload = np.arange(512, dtype=np.uint8)
        src.fill_from(payload)
        rb = dst_node.hca.register(dst)

        def program():
            yield src_node.hca.rdma_write(src, rb)
            # Local completion precedes remote visibility by one wire
            # latency; wait it out before checking the target memory.
            yield cluster.env.timeout(cluster.cfg.net_latency * 1.01)

        run(cluster, program())
        assert np.array_equal(dst.view(), payload)

    def test_takes_modeled_time(self, cluster):
        """Local completion fires at TX completion: post overhead plus the
        wire-streaming time, *without* the one-way propagation latency
        (which only delays remote visibility)."""
        cfg = cluster.cfg
        n = 1 << 20
        src = cluster.nodes[0].malloc_host(n)
        dst = cluster.nodes[1].malloc_host(n)
        rb = cluster.nodes[1].hca.register(dst)

        def program():
            yield cluster.nodes[0].hca.rdma_write(src, rb)
            return cluster.env.now

        t = run(cluster, program())
        expected = cfg.net_post_overhead + n / cfg.net_bandwidth
        assert t == pytest.approx(expected, rel=0.001)

    def test_remote_visibility_one_latency_after_completion(self, cluster):
        """The written bytes land at the target one wire latency after the
        sender's local completion."""
        cfg = cluster.cfg
        n = 4096
        src = cluster.nodes[0].malloc_host(n)
        src.view()[:] = 0xA7
        dst = cluster.nodes[1].malloc_host(n)
        rb = cluster.nodes[1].hca.register(dst)
        env = cluster.env

        def program():
            done = cluster.nodes[0].hca.rdma_write(src, rb)
            yield done
            at_completion = int(dst.view()[0])
            yield env.timeout(cfg.net_latency * 1.01)
            return at_completion, int(dst.view()[0])

        before, after = run(cluster, program())
        assert before == 0  # not yet visible at local completion
        assert after == 0xA7

    def test_size_mismatch_rejected(self, cluster):
        src = cluster.nodes[0].malloc_host(100)
        dst = cluster.nodes[1].malloc_host(200)
        rb = cluster.nodes[1].hca.register(dst)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.rdma_write(src, rb)

    def test_device_source_rejected(self, cluster):
        src = cluster.nodes[0].gpu.malloc(64)
        dst = cluster.nodes[1].malloc_host(64)
        rb = cluster.nodes[1].hca.register(dst)
        with pytest.raises(ValueError):
            cluster.nodes[0].hca.rdma_write(src, rb)

    def test_tx_serializes_concurrent_writes(self, cluster):
        """Two large writes from one node share the TX engine."""
        cfg = cluster.cfg
        n = 1 << 22
        srcs = [cluster.nodes[0].malloc_host(n) for _ in range(2)]
        dsts = [cluster.nodes[i + 1].malloc_host(n) for i in range(2)]
        rbs = [cluster.nodes[i + 1].hca.register(dsts[i]) for i in range(2)]

        def program():
            e1 = cluster.nodes[0].hca.rdma_write(srcs[0], rbs[0])
            e2 = cluster.nodes[0].hca.rdma_write(srcs[1], rbs[1])
            yield e1 & e2
            return cluster.env.now

        t = run(cluster, program())
        one = n / cfg.net_bandwidth
        assert t > 2 * one  # serialized, not parallel


class TestControlMessages:
    def test_delivered_to_remote_inbox(self, cluster):
        def receiver():
            msg = yield cluster.nodes[1].hca.inbox.get()
            return msg

        def sender():
            yield cluster.nodes[0].hca.send_control(1, {"type": "RTS", "tag": 7})

        cluster.env.process(sender())
        msg = run(cluster, receiver())
        assert isinstance(msg, ControlMessage)
        assert msg.src_node == 0 and msg.dst_node == 1
        assert msg.payload == {"type": "RTS", "tag": 7}

    def test_pairwise_ordering(self, cluster):
        """Messages between one pair arrive in send order (RC semantics)."""
        got = []

        def receiver():
            for _ in range(5):
                msg = yield cluster.nodes[1].hca.inbox.get()
                got.append(msg.payload)

        def sender():
            for i in range(5):
                yield cluster.nodes[0].hca.send_control(1, i)

        cluster.env.process(sender())
        run(cluster, receiver())
        assert got == [0, 1, 2, 3, 4]

    def test_loopback_delivery(self, cluster):
        def program():
            cluster.nodes[0].hca.send_control(0, "self")
            msg = yield cluster.nodes[0].hca.inbox.get()
            return msg.payload

        assert run(cluster, program()) == "self"

    def test_loopback_models_size(self, cluster):
        """Loopback pays a size-dependent host-memcpy term, so a large
        self-message takes measurably longer than a tiny one."""
        cfg = cluster.cfg

        def program(size):
            cluster.nodes[0].hca.send_control(0, "self", size_bytes=size)
            yield cluster.nodes[0].hca.inbox.get()
            return cluster.env.now

        t_small = run(cluster, program(64))
        expected = cfg.net_control_overhead + 64 / cfg.host_memcpy_bandwidth
        assert t_small == pytest.approx(expected, rel=0.001)

        big = 1 << 20
        t_big = run(cluster, program(big)) - t_small
        assert t_big == pytest.approx(
            cfg.net_control_overhead + big / cfg.host_memcpy_bandwidth,
            rel=0.001,
        )

    def test_control_message_latency_is_microseconds(self, cluster):
        def receiver():
            yield cluster.nodes[1].hca.inbox.get()
            return cluster.env.now

        def sender():
            yield cluster.nodes[0].hca.send_control(1, "ping")

        cluster.env.process(sender())
        t = run(cluster, receiver())
        assert 1e-6 < t < 10e-6

    def test_rdma_then_finish_message_ordering(self, cluster):
        """The paper's correctness requirement: a FIN control message sent
        after RDMA local completion must observe the data at the receiver."""
        src = cluster.nodes[0].malloc_host(4096)
        src.view()[:] = 0x5A
        dst = cluster.nodes[1].malloc_host(4096)
        rb = cluster.nodes[1].hca.register(dst)

        def sender():
            yield cluster.nodes[0].hca.rdma_write(src, rb)
            yield cluster.nodes[0].hca.send_control(1, "FIN")

        def receiver():
            msg = yield cluster.nodes[1].hca.inbox.get()
            assert msg.payload == "FIN"
            # Data must already be visible.
            return int(dst.view()[0])

        cluster.env.process(sender())
        assert run(cluster, receiver()) == 0x5A

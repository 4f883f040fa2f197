"""Tests for stream FIFO semantics, engines and CUDA events."""

import pytest

from repro.hw import Cluster
from repro.cuda import CudaContext, Stream


@pytest.fixture
def ctx():
    cluster = Cluster(1)
    return CudaContext(cluster.env, cluster.cfg, cluster.nodes[0], tracer=cluster.tracer)


def run(env, gen):
    return env.run(env.process(gen))


class TestStreamFifo:
    def test_ops_in_stream_serialize(self, ctx):
        env = ctx.env
        s = ctx.stream()
        order = []
        s.enqueue(ctx.gpu.exec_engine, 2.0, lambda: order.append(("a", env.now)))
        s.enqueue(ctx.gpu.exec_engine, 1.0, lambda: order.append(("b", env.now)))
        env.run()
        assert order == [("a", 2.0), ("b", 3.0)]

    def test_different_streams_same_engine_contend(self, ctx):
        env = ctx.env
        s1, s2 = ctx.stream(), ctx.stream()
        done = []
        s1.enqueue(ctx.gpu.exec_engine, 2.0, lambda: done.append(env.now))
        s2.enqueue(ctx.gpu.exec_engine, 2.0, lambda: done.append(env.now))
        env.run()
        assert done == [2.0, 4.0]  # engine serializes across streams

    def test_different_streams_different_engines_overlap(self, ctx):
        env = ctx.env
        s1, s2 = ctx.stream(), ctx.stream()
        done = []
        s1.enqueue(ctx.gpu.pcie.d2h, 2.0, lambda: done.append(("d2h", env.now)))
        s2.enqueue(ctx.gpu.pcie.h2d, 2.0, lambda: done.append(("h2d", env.now)))
        env.run()
        assert sorted(done) == [("d2h", 2.0), ("h2d", 2.0)]

    def test_query_false_while_pending(self, ctx):
        env = ctx.env
        s = ctx.stream()
        s.enqueue(ctx.gpu.exec_engine, 5.0)
        seen = []

        def observer():
            yield env.timeout(1.0)
            seen.append(s.query())
            yield env.timeout(5.0)
            seen.append(s.query())

        run(env, observer())
        assert seen == [False, True]

    def test_fresh_stream_query_true(self, ctx):
        assert ctx.stream().query()

    def test_pending_ops_counter(self, ctx):
        s = ctx.stream()
        s.enqueue(ctx.gpu.exec_engine, 1.0)
        s.enqueue(ctx.gpu.exec_engine, 1.0)
        assert s.pending_ops == 2
        ctx.env.run()
        assert s.pending_ops == 0

    def test_synchronize_waits(self, ctx):
        env = ctx.env
        s = ctx.stream()
        s.enqueue(ctx.gpu.exec_engine, 3.0)

        def waiter():
            yield from s.synchronize()
            return env.now

        assert run(env, waiter()) == 3.0

    def test_synchronize_on_idle_stream_is_instant(self, ctx):
        env = ctx.env
        s = ctx.stream()

        def waiter():
            yield from s.synchronize()
            return env.now

        assert run(env, waiter()) == 0.0

    def test_negative_duration_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.stream().enqueue(ctx.gpu.exec_engine, -1.0)

    def test_apply_fn_runs_at_completion_not_enqueue(self, ctx):
        env = ctx.env
        s = ctx.stream()
        sideeffect = []
        s.enqueue(ctx.gpu.exec_engine, 4.0, lambda: sideeffect.append(env.now))
        assert sideeffect == []
        env.run()
        assert sideeffect == [4.0]


class TestCudaEvent:
    def test_record_and_query(self, ctx):
        env = ctx.env
        s = ctx.stream()
        ev = ctx.event()
        s.enqueue(ctx.gpu.exec_engine, 2.0)
        ev.record(s)
        s.enqueue(ctx.gpu.exec_engine, 2.0)  # after the record point
        seen = []

        def observer():
            yield env.timeout(2.5)
            seen.append(ev.query())  # first op done -> event complete
            seen.append(s.query())  # second op still running

        run(env, observer())
        assert seen == [True, False]

    def test_unrecorded_event_query_raises(self, ctx):
        ev = ctx.event()
        with pytest.raises(RuntimeError):
            ev.query()
        with pytest.raises(RuntimeError):
            list(ev.synchronize())

    def test_event_synchronize(self, ctx):
        env = ctx.env
        s = ctx.stream()
        s.enqueue(ctx.gpu.exec_engine, 3.0)
        ev = ctx.event()
        ev.record(s)

        def waiter():
            yield from ev.synchronize()
            return env.now

        assert run(env, waiter()) == 3.0

    def test_recorded_flag(self, ctx):
        ev = ctx.event()
        assert not ev.recorded
        ev.record(ctx.stream())
        assert ev.recorded

    def test_rerecord_replaces_the_first_capture(self, ctx):
        # The first capture completes later than the second; only the
        # second may set the completion time.
        env = ctx.env
        slow, fast = ctx.stream(), ctx.stream()
        slow.enqueue(ctx.gpu.pcie.d2h, 10.0)
        fast.enqueue(ctx.gpu.exec_engine, 5.0)
        ev = ctx.event()
        ev.record(slow)
        ev.record(fast)
        env.run()
        assert ev.query()
        assert ev.completion_time == 5.0


class TestEventTiming:
    def test_elapsed_time_measures_stream_work(self, ctx):
        env = ctx.env
        s = ctx.stream()
        start = ctx.event("start")
        start.record(s)  # empty stream: completes at record time
        s.enqueue(ctx.gpu.exec_engine, 2.5)
        end = ctx.event("end")
        end.record(s)
        env.run()
        assert start.elapsed_time(end) == pytest.approx(2.5)

    def test_elapsed_time_requires_completion(self, ctx):
        s = ctx.stream()
        s.enqueue(ctx.gpu.exec_engine, 5.0)
        ev = ctx.event()
        ev.record(s)
        with pytest.raises(RuntimeError, match="not completed"):
            _ = ev.completion_time

    def test_completion_time_of_empty_stream_is_record_time(self, ctx):
        env = ctx.env
        s = ctx.stream()
        s.enqueue(ctx.gpu.exec_engine, 1.0)
        env.run()
        ev = ctx.event()
        ev.record(s)
        assert ev.completion_time == env.now

    def test_microbenchmark_pattern(self, ctx):
        """Time a D2D pack exactly how the paper's microbenchmarks did:
        record, launch, record, elapsed."""
        env = ctx.env
        src = ctx.malloc(1 << 16)
        dst = ctx.malloc(1 << 15)
        s = ctx.stream()
        t0 = ctx.event()
        t0.record(s)
        ctx.memcpy2d_async(dst, 4, src, 8, 4, 1 << 13, stream=s)
        t1 = ctx.event()
        t1.record(s)
        env.run()
        from repro.hw import CopyKind

        expect = ctx.cfg.memcpy2d_time(CopyKind.D2D, 4, 1 << 13, 8, 4)
        assert t0.elapsed_time(t1) == pytest.approx(expect)

"""Channel landing: how pushed items reach the sink (DESIGN.md §4.7).

``push`` defers one ``_land`` per message, bound at push time;
``push_many`` defers one ``_land_many`` per burst and lands it with a
single ``deque.extend`` when the sink is an idle plain FIFO, falling
back to the per-item landing otherwise.  Most tests here run the same
traffic through both paths and compare every observable — delivered
item sequences, channel counters — and pin the scheduler event count
each path costs.
"""

from repro.sim import Environment
from repro.sim.channel import Channel
from repro.sim.trace import Tracer


def _burst_twin(build):
    """Run *build(env, out, send)* once with per-item ``push`` and once
    with ``push_many``; return the two outs."""
    def per_item(chan, items, nbytes=0):
        for item in items:
            chan.push(item, nbytes)

    def bulk(chan, items, nbytes=0):
        chan.push_many(items, nbytes * len(items))

    outs = []
    for send in (per_item, bulk):
        env = Environment()
        out = {}
        build(env, out, send)
        env.run()
        out["events_processed"] = env.events_processed
        outs.append(out)
    return outs


class TestBurstParity:
    def test_single_channel_burst(self):
        def build(env, out, send):
            chan = Channel(env, "burst", latency=2.0)
            got = out["items"] = []
            env.defer(1.0, lambda _e: send(
                chan, [("msg", i) for i in range(32)], 64))
            env.defer(4.0, lambda _e: got.extend(chan.recv_batch()))
            out["chan"] = chan

        item, bulk = _burst_twin(build)
        assert item["items"] == bulk["items"] == [("msg", i)
                                                  for i in range(32)]
        for key in ("sent", "delivered", "dropped", "bytes_moved"):
            assert (getattr(item["chan"], key)
                    == getattr(bulk["chan"], key)), key
        assert bulk["chan"].bytes_moved == 32 * 64
        # pump + drain, then one landing per message (a landing's
        # put builds no completion event); a burst lands in one extend
        assert item["events_processed"] == 2 + 32
        assert bulk["events_processed"] == 2 + 1

    def test_interleaved_channels_break_batches(self):
        """Two hops into one sink: with equal latency the landings keep
        push order across channels; with unequal latency each channel
        lands as its own run."""
        for lat_b, expected in (
                (1.0, [x for i in range(10) for x in (("a", i), ("b", i))]),
                (1.5, [("a", i) for i in range(10)]
                 + [("b", i) for i in range(10)])):
            env = Environment()
            sink = Channel(env, "sink")
            a = Channel(env, "a", latency=1.0, sink=sink)
            b = Channel(env, "b", latency=lat_b, sink=sink)

            def pump(_e, a=a, b=b):
                for i in range(10):
                    a.push(("a", i))
                    b.push(("b", i))

            env.defer(1.0, pump)
            env.run()
            assert sink.recv_batch() == expected, lat_b
            assert env.events_processed == 1 + 20

    def test_capacity_limited_drops(self):
        def build(env, out, send):
            chan = Channel(env, "small", capacity=5, latency=1.0)
            env.defer(1.0, lambda _e: send(chan, list(range(12))))
            out["chan"] = chan

        item, bulk = _burst_twin(build)
        for key in ("sent", "delivered", "dropped"):
            assert (getattr(item["chan"], key)
                    == getattr(bulk["chan"], key)), key
        assert bulk["chan"].dropped == 7
        assert bulk["chan"].recv_batch() == [0, 1, 2, 3, 4]
        # one landing per pushed item; a burst too big for the sink
        # lands item by item inside its one landing event
        assert item["events_processed"] == 1 + 12
        assert bulk["events_processed"] == 1 + 1

    def test_sink_with_parked_getters(self):
        def build(env, out, send):
            chan = Channel(env, "got", latency=1.0)
            got = out["items"] = []

            def consumer(env):
                for _ in range(6):
                    item = yield chan.get()
                    got.append((env.now, item))

            env.process(consumer(env))
            env.defer(1.0, lambda _e: send(chan, list(range(6))))

        item, bulk = _burst_twin(build)
        assert item["items"] == bulk["items"] == [(2.0, i)
                                                  for i in range(6)]

    def test_traced_channel_takes_slow_path(self):
        def build(env, out, send):
            env.tracer = Tracer(env, enabled=True, limit=64)
            chan = Channel(env, "wire", latency=1.0)
            env.defer(1.0, lambda _e: send(chan, list(range(4))))
            env.defer(3.0, lambda _e: chan.recv_batch())
            out["env"] = env

        item, bulk = _burst_twin(build)
        item_delivers = [r for r in item["env"].tracer.records
                         if r[2] == "deliver"]
        bulk_delivers = [r for r in bulk["env"].tracer.records
                         if r[2] == "deliver"]
        # a traced sink lands a burst item by item, one record each
        assert len(item_delivers) == 4
        assert bulk_delivers == item_delivers

    def test_fault_hook_binding_captured_at_stage(self):
        """Installing/removing a per-instance ``_land`` shadow between
        pushes must use the binding each message was pushed under: the
        landing callback is captured when the message is staged."""
        env = Environment()
        chan = Channel(env, "hooked", latency=2.0)
        dropped = []

        def hook(_event):
            dropped.append(chan._in_flight.popleft())
            chan.dropped += 1

        def pump(_e):
            chan.push("clean-1")
            chan._land = hook
            chan.push("faulted")
            del chan._land
            chan.push("clean-2")

        env.defer(1.0, pump)
        items = []
        env.defer(5.0, lambda _e: items.extend(chan.recv_batch()))
        env.run()
        assert items == ["clean-1", "clean-2"]
        assert dropped == ["faulted"]
        assert chan.dropped == 1
        assert chan.delivered == 2


class TestIntrospection:
    def test_in_flight_views(self):
        env = Environment()
        a = Channel(env, "a", latency=5.0)
        b = Channel(env, "b", latency=9.0)
        env.defer(1.0, lambda _e: ([a.push("x", 100) for _ in range(3)],
                                   b.push("y", 50)))
        seen = []

        def probe(_e):
            seen.append((len(a._in_flight), len(b._in_flight),
                         a.bytes_moved + b.bytes_moved, env.peek()))

        env.defer(2.0, probe)
        env.run()
        assert seen == [(3, 1, 350, 6.0)]
        assert not a._in_flight and not b._in_flight
        assert (a.delivered, b.delivered) == (3, 1)
        assert a.recv_batch() == ["x"] * 3 and b.recv_batch() == ["y"]

    def test_vector_counters_track_bulk_landings(self):
        env = Environment()
        chan = Channel(env, "fast", latency=1.0)
        env.defer(1.0, lambda _e: chan.push_many(list(range(16)), 16 * 8))
        env.run()
        assert env.events_processed == 2  # pump + one burst landing
        assert chan.sent == chan.delivered == chan.total_put == 16
        assert chan.bytes_moved == 128
        assert not chan._burst_counts and not chan._in_flight
        assert list(chan._items) == list(range(16))


class TestRecvBatchFastPath:
    def test_bulk_drain_matches_item_loop(self):
        env = Environment()
        chan = Channel(env, "q")
        for i in range(10):
            assert chan.try_put(i)
        assert chan.recv_batch(max_items=4) == [0, 1, 2, 3]
        assert chan.recv_batch() == [4, 5, 6, 7, 8, 9]
        assert chan.recv_batch() == []

    def test_bounded_channel_with_parked_putter_wakes(self):
        env = Environment()
        chan = Channel(env, "bounded", capacity=2)
        done = []

        def producer(env):
            for i in range(4):
                yield chan.put(i)
            done.append(env.now)

        def consumer(env):
            yield env.timeout(1.0)
            got = chan.recv_batch()
            yield env.timeout(1.0)
            got += chan.recv_batch()
            assert got == [0, 1, 2, 3]

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert done  # producer unblocked by the batched drain

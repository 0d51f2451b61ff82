"""Unit tests for the frame-execution toolkit (DESIGN.md §4.14).

The data-plane integration — whole experiments bit-identical scalar vs
frame — lives in ``tests/experiments``; these tests pin the primitives
themselves: admission guards, sequence-number burning, scalar-exact
timestamps, the gauge arithmetic of ``seize``/``unseize``, the
``try_stage`` stage coalescer, and the ``Channel.frame_pop``/
``frame_push`` ring handoffs.
"""

import pytest

from repro.sim import Channel, Environment, PriorityStore, Resource
from repro.sim import batchexec
from repro.sim.environment import resolve_frame_exec


def _env(frame=True):
    env = Environment()
    env.frame_exec = frame
    return env


class TestGuards:
    def test_clear_span_is_strict(self):
        env = _env()
        env.timeout(10.0)
        assert batchexec.clear_span(env, 9.999)
        assert not batchexec.clear_span(env, 10.0)
        assert not batchexec.clear_span(env, 11.0)

    def test_clear_span_on_empty_schedule(self):
        env = _env()
        assert batchexec.clear_span(env, 1e12)

    def test_frame_enabled_respects_knob_and_tracer(self):
        env = _env(frame=True)
        assert batchexec.frame_enabled(env)
        env.frame_exec = False
        assert not batchexec.frame_enabled(env)

    def test_burn_matches_scalar_eid_consumption(self):
        a, b = _env(), _env()
        a.timeout(1.0)
        a.timeout(2.0)
        batchexec.burn(b, 2)
        assert a._eid == b._eid
        # Events scheduled after the span consume the same sequence
        # numbers either way — the whole point of burning.
        a.timeout(3.0)
        b.timeout(3.0)
        assert a._eid == b._eid

    def test_pool_ready(self):
        env = _env()
        res = Resource(env, 1, name="r")
        assert batchexec.pool_ready(res)
        res.request(0)
        env.run()
        assert not batchexec.pool_ready(res)


class TestSpanTimes:
    def test_matches_sequential_additions_exactly(self):
        # Deliberately awkward floats: cumsum and sequential addition
        # can differ in the last ulp, and the scalar chain does the
        # latter.
        durations = [0.1, 0.7, 1.3, 0.30000000000000004, 2.5e-3]
        start = 123.45600000000002
        times = batchexec.span_times(start, durations)
        t = start
        for d, got in zip(durations, times):
            t = t + d
            assert got == t  # bit-exact, not approx

    def test_frame_offsets_is_cumsum(self):
        offs = batchexec.frame_offsets([1.0, 2.0, 3.0])
        assert list(offs) == [1.0, 3.0, 6.0]


class TestRingPlain:
    def test_plain_channel_qualifies(self):
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        assert batchexec.ring_plain(ch)

    def test_instance_land_shadow_disqualifies(self):
        # The fault injector installs per-instance _land shadows; any
        # such override must force the scalar fallback.
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        ch._land = lambda item: None
        assert not batchexec.ring_plain(ch)

    def test_parked_getter_disqualifies(self):
        env = _env()
        ch = Channel(env, capacity=4, name="c")

        def consumer():
            yield ch.get()

        env.process(consumer())
        env.run()
        assert not batchexec.ring_plain(ch)

    def test_parked_putter_disqualifies(self):
        env = _env()
        ch = Channel(env, capacity=1, name="c")
        assert ch.try_put("a")

        def producer():
            yield ch.put("b")

        env.process(producer())
        env.run()
        assert not batchexec.ring_plain(ch)

    def test_priority_store_disqualifies(self):
        env = _env()
        ps = PriorityStore(env, capacity=4, name="p")
        assert not batchexec.ring_plain(ps)


class TestSeizeUnseize:
    def test_gauge_state_matches_scalar_request_release(self):
        # Drive the same occupancy history through the scalar Request
        # path and through seize/unseize; every gauge internal must be
        # bit-identical at the end.
        scalar = _env(frame=False)
        framed = _env(frame=True)
        rs = Resource(scalar, 2, name="r")
        rf = Resource(framed, 2, name="r")

        def scalar_user():
            req = rs.request(0)
            yield req
            yield scalar.charge(5.0)
            req.release()

        scalar.process(scalar_user())
        scalar.run()

        batchexec.seize(rf)
        framed.defer_at(5.0, lambda _e: batchexec.unseize(rf))
        framed.run()

        for a, b in ((rs.utilization, rf.utilization),
                     (rs.queue_depth, rf.queue_depth)):
            assert a._value == b._value
            assert a._area == b._area
            assert a._last_change == b._last_change
            assert a._max == b._max

    def test_unseize_grants_parked_waiter(self):
        env = _env()
        res = Resource(env, 1, name="r")
        batchexec.seize(res)
        granted = []

        def waiter():
            yield res.request(0)
            granted.append(env.now)

        env.process(waiter())
        env.defer_at(3.0, lambda _e: batchexec.unseize(res))
        env.run()
        assert granted == [3.0]

    def test_unseize_grants_parked_callback_like_a_request(self):
        # A contended acquire() parks a bare callback; unseize must
        # grant it in the schedule slot a parked Request would get,
        # with the same gauge arithmetic.
        def run(parked_callback):
            env = _env()
            res = Resource(env, 1, name="r")
            batchexec.seize(res)
            granted = []

            def on_grant(_event):
                granted.append(env.now)
                env.defer(2.0, lambda _e: res.free())
            if parked_callback:
                res.acquire(on_grant, -1)
            else:
                res.request(-1).callbacks.append(on_grant)
            env.defer_at(3.0, lambda _e: batchexec.unseize(res))
            env.run()
            return (granted, env._eid, res.in_use,
                    [(g._value, g._area, g._last_change, g._max)
                     for g in (res.utilization, res.queue_depth)])

        parked = run(True)
        assert parked[0] == [3.0]
        assert parked == run(False)


class TestTryStage:
    def test_coalesces_grant_and_charge_into_one_event(self):
        env = _env()
        res = Resource(env, 1, name="r")
        done_at = []

        def done(_event):
            batchexec.unseize(res)
            done_at.append(env.now)

        assert batchexec.try_stage(env, res, 2.5, done)
        env.run()
        assert done_at == [2.5]
        assert env.events_processed == 1
        assert batchexec.pool_ready(res)

    def test_declines_on_contention(self):
        env = _env()
        res = Resource(env, 1, name="r")
        res.request(0)
        env.run()
        assert not batchexec.try_stage(env, res, 1.0, lambda e: None)

    def test_declines_on_dirty_span(self):
        env = _env()
        res = Resource(env, 1, name="r")
        env.timeout(0.5)  # lands inside the would-be span
        assert not batchexec.try_stage(env, res, 1.0, lambda e: None)
        assert batchexec.pool_ready(res)  # declined before seizing


class TestChannelFrameHandoff:
    def test_frame_pop_inline(self):
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        assert ch.try_put("a")
        env.run()  # drain the put's same-instant bookkeeping event
        eid = env._eid
        assert ch.frame_pop() == "a"
        assert env._eid == eid + 1  # burned the skipped get event

    def test_frame_pop_declines_when_empty_or_disabled(self):
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        assert ch.frame_pop() is None
        assert ch.try_put("a")
        env.run()
        env.frame_exec = False
        assert ch.frame_pop() is None

    def test_frame_pop_declines_on_dirty_instant(self):
        # A same-instant event is pending; the clear-span guard must
        # decline rather than pop across it.
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        assert ch.try_put("a")
        env.defer(0, lambda _event: None)
        assert ch.frame_pop() is None

    def test_frame_pop_inline_after_bare_try_put(self):
        # try_put schedules nothing (its put completion is unobservable),
        # so the instant stays clear and the pop burns only the get's eid.
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        assert ch.try_put("a")
        assert env._queue == []
        eid = env._eid
        assert ch.frame_pop() == "a"
        assert env._eid == eid + 1

    def test_frame_pop_declines_on_shadowed_ring(self):
        env = _env()
        ch = Channel(env, capacity=4, name="c")
        assert ch.try_put("a")
        env.run()
        ch._land = lambda item: None
        assert ch.frame_pop() is None

    def test_frame_push_inline(self):
        env = _env()
        ch = Channel(env, capacity=2, name="c")
        eid = env._eid
        assert ch.frame_push("a")
        assert env._eid == eid + 1
        assert ch.total_put == 1
        assert ch.try_get() == "a"

    def test_frame_push_declines_when_full(self):
        env = _env()
        ch = Channel(env, capacity=1, name="c")
        assert ch.frame_push("a")
        assert not ch.frame_push("b")

    def test_push_pop_roundtrip_preserves_fifo(self):
        env = _env()
        ch = Channel(env, capacity=8, name="c")
        for item in ("a", "b", "c"):
            assert ch.frame_push(item)
        assert [ch.frame_pop() for _ in range(3)] == ["a", "b", "c"]


class TestResolveFrameExec:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FRAME_EXEC", raising=False)

    def test_backend_defaults(self):
        # One scheduler: the backend argument (still passed by older
        # callers) no longer turns frame execution on.
        assert resolve_frame_exec() is False
        assert resolve_frame_exec("heap") is False

    def test_environment_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRAME_EXEC", "1")
        assert resolve_frame_exec("heap") is True
        monkeypatch.setenv("REPRO_FRAME_EXEC", "0")
        assert resolve_frame_exec("heap") is False

    def test_configured_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRAME_EXEC", "0")
        assert resolve_frame_exec("heap", configured=True) is True
        monkeypatch.setenv("REPRO_FRAME_EXEC", "1")
        assert resolve_frame_exec("heap", configured=False) is False

    def test_blank_environment_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_FRAME_EXEC", "  ")
        assert resolve_frame_exec("heap") is False

"""Batched execution of zero-delay hops through ``acquire``/``free``.

The retired frame-execution toolkit seized a pool slot without an
event (``seize``/``unseize``) and fused a grant with its charge into one
scheduler event (``try_stage``).  ``Resource.acquire`` and
``Resource.free`` now do both on the one execution path (DESIGN.md
§4.6): an uncontended grant runs the callback before ``acquire``
returns, and a contended one parks it beside ``Request`` waiters.  These
tests pin the guarantees the frame primitives gave — gauge arithmetic
identical to ``request``/``release``, parked waiters granted by
``free``, one event per grant-and-charge — on that path.
"""

from repro.sim import Environment, Resource


def _gauges(res):
    return [(g._value, g._area, g._last_change, g._max)
            for g in (res.utilization, res.queue_depth)]


class TestSeizeUnseize:
    def test_gauge_state_matches_scalar_request_release(self):
        # Drive the same occupancy history through a Request and through
        # acquire/free; every gauge internal must be bit-identical.
        scalar = Environment()
        inline = Environment()
        rs = Resource(scalar, 2, name="r")
        ri = Resource(inline, 2, name="r")

        def scalar_user():
            req = rs.request(0)
            yield req
            yield scalar.charge(5.0)
            req.release()

        scalar.process(scalar_user())
        scalar.run()

        ri.acquire(lambda _e: inline.defer(5.0, lambda _e: ri.free()))
        inline.run()

        assert scalar.now == inline.now == 5.0
        assert rs.in_use == ri.in_use == 0
        assert _gauges(rs) == _gauges(ri)

    def test_unseize_grants_parked_waiter(self):
        env = Environment()
        res = Resource(env, 1, name="r")
        res.acquire(lambda _e: env.defer(3.0, lambda _e: res.free()))
        assert res.in_use == 1
        granted = []

        def waiter():
            yield res.request(0)
            granted.append(env.now)

        env.process(waiter())
        env.run()
        assert granted == [3.0]
        assert res.in_use == 1  # the waiter holds the slot it was handed

    def test_unseize_grants_parked_callback_like_a_request(self):
        # A contended acquire() parks a bare callback; free() must grant
        # it at the instant a parked Request is granted, with the same
        # gauge arithmetic.
        def run(parked_callback):
            env = Environment()
            res = Resource(env, 1, name="r")
            res.acquire(lambda _e: env.defer(3.0, lambda _e: res.free()))
            granted = []

            def on_grant(_event):
                granted.append(env.now)
                env.defer(2.0, lambda _e: res.free())
            if parked_callback:
                res.acquire(on_grant, -1)
            else:
                res.request(-1).callbacks.append(on_grant)
            assert res.waiting == 1
            env.run()
            return granted, env.now, res.in_use, _gauges(res)

        parked = run(True)
        assert parked[0] == [3.0]
        assert parked == run(False)


class TestTryStage:
    def test_coalesces_grant_and_charge_into_one_event(self):
        env = Environment()
        res = Resource(env, 1, name="r")
        done_at = []

        def done(_event):
            res.free()
            done_at.append(env.now)

        res.acquire(lambda _e: env.defer(2.5, done))
        env.run()
        assert done_at == [2.5]
        assert env.events_processed == 1
        assert res.in_use == 0

    def test_declines_on_contention(self):
        # A held slot: the callback must not run inline, but park and run
        # when the holder frees — still with no event of its own.
        env = Environment()
        res = Resource(env, 1, name="r")
        res.acquire(lambda _e: env.defer(1.0, lambda _e: res.free()))
        staged = []
        res.acquire(lambda _e: staged.append(env.now))
        assert staged == []
        assert res.waiting == 1
        env.run()
        assert staged == [1.0]
        assert env.events_processed == 1
        assert res.in_use == 1

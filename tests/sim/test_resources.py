"""Resource (counted slots + waiter queue) behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment, Resource


@pytest.fixture
def env():
    return Environment()


def hold(env, res, duration, log, name, priority=0):
    with res.request(priority=priority) as req:
        yield req
        log.append(("start", name, env.now))
        yield env.timeout(duration)
        log.append(("end", name, env.now))


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(SimulationError):
            Resource(env, 0)

    def test_serializes_at_capacity_one(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 5, log, "a"))
        env.process(hold(env, res, 3, log, "b"))
        env.run()
        assert log == [("start", "a", 0), ("end", "a", 5),
                       ("start", "b", 5), ("end", "b", 8)]

    def test_parallelism_at_capacity_two(self, env):
        res = Resource(env, 2)
        log = []
        for name in "abc":
            env.process(hold(env, res, 10, log, name))
        env.run()
        starts = {name: t for op, name, t in log if op == "start"}
        assert starts == {"a": 0, "b": 0, "c": 10}

    def test_fifo_order_among_equal_priorities(self, env):
        res = Resource(env, 1)
        log = []
        for name in "abcd":
            env.process(hold(env, res, 1, log, name))
        env.run()
        assert [name for op, name, _ in log if op == "start"] == list("abcd")

    def test_lower_priority_value_served_first(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 5, log, "first"))
        env.process(hold(env, res, 1, log, "normal", priority=0))
        env.process(hold(env, res, 1, log, "urgent", priority=-1))
        env.run()
        order = [name for op, name, _ in log if op == "start"]
        assert order == ["first", "urgent", "normal"]

    def test_release_is_idempotent(self, env):
        res = Resource(env, 1)

        def proc(env):
            req = res.request()
            yield req
            req.release()
            req.release()

        env.process(proc(env))
        env.run()
        assert res.in_use == 0

    def test_execute_helper(self, env):
        res = Resource(env, 1)

        def proc(env):
            yield from res.execute(7)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 7

    def test_utilization_tracked(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 10, log, "a"))
        env.run(until=20)
        assert res.utilization.mean() == pytest.approx(0.5)

    def test_counts_in_use_and_waiting(self, env):
        res = Resource(env, 1)
        log = []
        env.process(hold(env, res, 10, log, "a"))
        env.process(hold(env, res, 10, log, "b"))
        env.run(until=5)
        assert res.in_use == 1
        assert res.waiting == 1


class TestAcquire:
    """The callback twin: ``acquire(callback, priority)`` / ``free()``."""

    def test_immediate_grant_runs_before_acquire_returns(self, env):
        res = Resource(env, 1)
        fired = []
        eid = env._eid
        res.acquire(lambda _event: fired.append(res.in_use))
        assert fired == [1]
        assert env._eid == eid and env._queue == []
        assert res.in_use == 1 and res.utilization._value == 1.0

    def test_immediate_grant_fires_at_now(self, env):
        res = Resource(env, 2)
        fired = []
        env.timeout(3).callbacks.append(
            lambda _event: res.acquire(lambda _e: fired.append(env.now)))
        env.run()
        assert fired == [3]
        assert res.in_use == 1

    def test_contended_acquire_queues_fifo_beside_requests(self, env):
        from repro.faults.injector import SEIZE_PRIORITY

        res = Resource(env, 1)
        order = []

        def via_request(name, priority=0):
            req = res.request(priority)

            def granted(_event):
                order.append(name)
                env.defer(1, lambda _e: req.release())
            req.callbacks.append(granted)

        def via_acquire(name, priority=0):
            def granted(_event):
                order.append(name)
                env.defer(1, lambda _e: res.free())
            res.acquire(granted, priority)

        via_acquire("holder")
        via_request("req-a")
        via_acquire("acq-b")
        via_request("seize", SEIZE_PRIORITY)
        via_acquire("egress", -1)
        via_request("req-c")
        via_acquire("acq-d")
        env.run()
        assert order == ["holder", "seize", "egress", "req-a", "acq-b",
                         "req-c", "acq-d"]
        assert res.in_use == 0 and res.waiting == 0

    def test_contended_acquire_parks_the_bare_callback(self, env):
        res = Resource(env, 1)
        res.acquire(lambda _event: None)

        def granted(_event):
            pass
        res.acquire(granted, -1)
        assert res.waiting == 1
        assert res._waiters[0][0] == -1 and res._waiters[0][2] is granted

    def test_grant_callback_reenters_acquire(self, env):
        res = Resource(env, 2)
        order = []

        def second(_event):
            order.append(("second", res.in_use, res.waiting))

        def first(_event):
            order.append(("first", res.in_use, res.waiting))
            res.acquire(second)       # a free slot: granted inline
            res.acquire(lambda _e: order.append(("third", env.now)))
            order.append(("parked", res.in_use, res.waiting))

        res.acquire(first)
        assert order == [("first", 1, 0), ("second", 2, 0),
                         ("parked", 2, 1)]
        res.free()
        assert order[-1] == ("third", 0.0)
        assert res.in_use == 2 and res.waiting == 0

    def test_parked_grant_reenters_acquire_after_the_gauges_settle(self, env):
        res = Resource(env, 1)
        seen = []

        def regrab(_event):
            # The resource already reads the grant: one slot in use,
            # and the next parked callback still waits its turn.
            seen.append((res.in_use, res.waiting, res.utilization._value,
                         res.queue_depth._value))
            res.acquire(lambda _e: seen.append("late"))

        res.acquire(lambda _event: None)
        res.acquire(regrab)
        res.acquire(lambda _e: seen.append("next"))
        res.free()
        assert seen == [(1, 1, 1.0, 1)]
        res.free()
        res.free()
        assert seen[1:] == ["next", "late"]
        assert res.in_use == 1 and res.waiting == 0

    def test_one_free_grants_several_parked_callbacks_fifo_per_priority(
            self, env):
        res = Resource(env, 2)
        order = []

        def zero_hold(name):
            def granted(_event):
                order.append(name)
                if name != "last":
                    res.free()        # hands the slot straight on
            return granted

        res.acquire(lambda _event: None)
        res.acquire(lambda _event: None)
        for name, priority in (("a", 0), ("b", -1), ("c", 0), ("d", -1),
                               ("e", 1), ("f", -1), ("last", 2)):
            res.acquire(zero_hold(name), priority)
        assert res.waiting == 7
        eid = env._eid
        res.free()
        assert order == ["b", "d", "f", "a", "c", "e", "last"]
        assert env._eid == eid and env._queue == []
        assert res.in_use == 2 and res.waiting == 0
        assert res.queue_depth._value == 0

    def test_zero_hold_acquire_frees_before_a_same_instant_cancel(self, env):
        """An acquire grant runs in its caller's step, so a zero-length
        hold scheduled from it fires before a cancel scheduled later in
        the same instant: the parked request is granted, not withdrawn.
        (Through ``request()`` the holder's grant is an event of its own
        and the cancel wins the tie.)"""
        res = Resource(env, 1)
        res.acquire(lambda _event: env.defer(0, lambda _e: res.free()))
        req = res.request()
        env.defer(0, lambda _e: req.cancel())
        env.run()
        assert req.triggered and req.ok
        assert res.in_use == 1 and res.waiting == 0

    def test_cancelled_request_between_parked_callbacks_is_skipped(self, env):
        res = Resource(env, 1)
        order = []

        def via_acquire(name):
            def granted(_event):
                order.append((name, env.now))
                env.defer(1, lambda _e: res.free())
            res.acquire(granted)

        via_acquire("holder")
        via_acquire("acq-a")
        withdrawn = res.request()
        withdrawn.callbacks.append(lambda _e: order.append(("withdrawn",)))
        via_acquire("acq-b")
        assert res.waiting == 3
        withdrawn.cancel()
        assert res.waiting == 2
        env.run()
        assert order == [("holder", 0), ("acq-a", 1), ("acq-b", 2)]
        assert res.in_use == 0 and res.waiting == 0
        assert res.queue_depth._value == 0


def _gauge_state(gauge):
    return (gauge._value, gauge._area, gauge._last_change, gauge._max)


#: how one job of :func:`_replay` claims its slot
REQUEST, ACQUIRE, CANCELLED = range(3)


def _replay(jobs, capacity):
    """Drive *jobs* (arrival, hold, priority, kind, cancel delay) through
    one resource, mixing request/release and acquire/free waiters; a
    CANCELLED job is a Request withdrawn after its delay plus half a
    microsecond unless granted by then.  The half keeps a cancel off
    the integer instants where slots change hands: a same-instant race
    between a cancel and a release is decided by schedule order, which
    inline grants change by design (see
    ``test_zero_hold_acquire_frees_before_a_same_instant_cancel``).
    Returns the observable outcome: when each job was granted
    (so who won each contended slot), the final clock, and both gauges'
    state (areas and maxima included).  Neither event ids nor the call
    order of grants within one instant are observable: an acquire grant
    runs inside the step that causes it, while a granted Request fires
    as a later event at the same instant."""
    env = Environment()
    res = Resource(env, capacity)
    grants = []

    def arrive(name, hold, priority, kind, cancel_after):
        def granted(_event):
            grants.append((name, env.now))
            if kind == ACQUIRE:
                env.defer(hold, lambda _e: res.free())
            else:
                env.defer(hold, lambda _e: req.release())
        if kind == ACQUIRE:
            res.acquire(granted, priority)
            return
        req = res.request(priority)
        req.callbacks.append(granted)
        if kind == CANCELLED:
            env.defer(cancel_after + 0.5, lambda _e: req.cancel())

    for name, (at, hold, priority, kind, cancel_after) in enumerate(jobs):
        env.defer(at, lambda _e, n=name, h=hold, p=priority, k=kind,
                  c=cancel_after: arrive(n, h, p, k, c))
    env.run()
    return (sorted(grants, key=lambda g: (g[1], g[0])), env.now,
            _gauge_state(res.utilization),
            _gauge_state(res.queue_depth))


@given(jobs=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 10),
                               st.integers(-2, 1)),
                     min_size=1, max_size=30),
       capacity=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_acquire_free_matches_request_release(jobs, capacity):
    def claimed(kind):
        return [(at, hold, priority, kind, 0) for at, hold, priority in jobs]
    assert _replay(claimed(ACQUIRE), capacity) == \
        _replay(claimed(REQUEST), capacity)


@given(jobs=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 10),
                               st.integers(-2, 1),
                               st.sampled_from((REQUEST, ACQUIRE, CANCELLED)),
                               st.integers(0, 6)),
                     min_size=1, max_size=30),
       capacity=st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_mixed_waiters_match_request_release(jobs, capacity):
    """Parked callbacks interleaved with Request waiters (some of them
    cancelled while queued) give the grants, schedule and gauges of the
    same jobs claimed through requests alone."""
    as_requests = [(at, hold, priority,
                    REQUEST if kind == ACQUIRE else kind, cancel_after)
                   for at, hold, priority, kind, cancel_after in jobs]
    assert _replay(jobs, capacity) == _replay(as_requests,
                                                          capacity)

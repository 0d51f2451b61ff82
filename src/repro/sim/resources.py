"""Counted resources with FIFO (or priority) waiter queues.

A :class:`Resource` models anything with limited concurrent capacity: a
CPU core pool, a DMA engine, a PCIe direction.  Processes acquire a slot
with ``yield resource.request()`` and must release it afterwards; the
request object doubles as a context manager::

    with resource.request() as req:
        yield req
        yield env.timeout(cost)

Callback state machines use the allocation-free twin instead:
``resource.acquire(callback)`` calls back once a slot is granted, and
the holder returns the slot with ``resource.free()``.  A grant is a
zero-delay hop, so it runs inside the step that causes it (DESIGN.md
§4.6): a free slot calls back before ``acquire`` returns, and a parked
callback runs inside the ``free``/``release`` that hands it the slot.
"""

import heapq
from heapq import heappop, heappush
from itertools import count

from ..errors import SimulationError
from .environment import TICK
from .events import Event, NORMAL, PENDING
from .stats import TimeWeightedGauge


class Request(Event):
    """A pending (or granted) claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_released")

    def __init__(self, resource, priority=0):
        # Inlined Event.__init__ — requests are data-plane hot.
        self.env = resource.env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.resource = resource
        self.priority = priority
        self._released = False
        resource._do_request(self)

    def release(self):
        """Return the slot to the resource (idempotent)."""
        if not self._released:
            self._released = True
            self.resource._do_release(self)

    def cancel(self):
        """Withdraw an ungranted request (no-op if already granted)."""
        self.resource._cancel(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.release()
        return False


class Resource:
    """A pool of *capacity* identical slots with a FIFO waiter queue."""

    def __init__(self, env, capacity=1, name=None):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        self._waiters = []
        self._order = count()
        self.utilization = TimeWeightedGauge(env)
        self.queue_depth = TimeWeightedGauge(env)

    @property
    def in_use(self):
        return self._in_use

    @property
    def waiting(self):
        return len(self._waiters)

    def request(self, priority=0):
        """Create a claim; the returned event fires when a slot is granted."""
        return Request(self, priority)

    def acquire(self, callback, priority=0):
        """Callback twin of :meth:`request`: call *callback(event)* once
        a slot is granted; the holder returns it with :meth:`free`.

        With a slot free and nobody waiting, *callback* runs before
        ``acquire`` returns and consumes no event id; every call site
        is a tail call, so the grantee's next charge is the caller's.
        A contended acquire parks the bare callback as ``(priority,
        order, callback)`` in the waiter heap, FIFO within its priority
        beside every :class:`Request` waiter.  Nothing is allocated.
        """
        if self._in_use < self.capacity and not self._waiters:
            in_use = self._in_use + 1
            self._in_use = in_use
            gauge = self.utilization
            value = in_use / self.capacity
            if value != gauge._value:
                now = self.env.now
                gauge._area += gauge._value * (now - gauge._last_change)
                gauge._value = value
                gauge._last_change = now
                if value > gauge._max:
                    gauge._max = value
            callback(TICK)
        else:
            self._park((priority, next(self._order), callback))

    def free(self):
        """Return a slot granted through :meth:`acquire`."""
        in_use = self._in_use - 1
        self._in_use = in_use
        if self._waiters:
            self._settle()
            return
        # No waiter to grant and the queue-depth gauge already reads 0:
        # only the utilization gauge can move.
        gauge = self.utilization
        value = in_use / self.capacity
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value

    # Gauge updates below are inlined (see TimeWeightedGauge.set): the
    # request/grant/release cycle runs millions of times per saturation
    # run and the method-call overhead alone was measurable.

    def _do_request(self, req):
        if self._in_use < self.capacity and not self._waiters:
            self._grant(req)
        else:
            self._park((req.priority, next(self._order), req))

    def _park(self, entry):
        """Queue a waiter entry ``(priority, order, Request or callback)``."""
        waiters = self._waiters
        heappush(waiters, entry)
        gauge = self.queue_depth
        value = len(waiters)
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value

    def _grant(self, req):
        in_use = self._in_use + 1
        self._in_use = in_use
        gauge = self.utilization
        value = in_use / self.capacity
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value
        # Inlined req.succeed(req): a Request is only ever triggered
        # here or in _settle (or failed by cancel), so the
        # double-trigger guard is redundant on this hot path.
        req._ok = True
        req._value = req
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        heappush(env._queue, (env.now, NORMAL, eid, req))

    def _do_release(self, req):
        if req._value is not PENDING:
            # Only granted requests hold a slot; releasing a request that
            # was still waiting (e.g. after an interrupt) frees nothing.
            self._in_use -= 1
        self._settle()

    def _settle(self):
        """Grant freed slots to waiters and update both gauges.

        The one loop that grants from the waiter heap.  A granted
        :class:`Request` is triggered as an event (generator waiters
        yield on it); requests already triggered (failed or withdrawn)
        are skipped.  Parked :meth:`acquire` callbacks are collected in
        heap order — FIFO within each priority — and called once both
        gauges read the new state, so a callback that re-enters
        ``acquire`` or ``free`` sees a settled resource.  Every grant
        happens at the current instant with ``in_use`` rising, so one
        utilization update at the end leaves the gauge exactly as a
        per-grant update would.
        """
        waiters = self._waiters
        env = self.env
        in_use = self._in_use
        capacity = self.capacity
        granted = []
        while waiters and in_use < capacity:
            _, _, nxt = heappop(waiters)
            if nxt.__class__ is not Request:
                in_use += 1
                granted.append(nxt)
            elif nxt._value is PENDING:
                in_use += 1
                # Inlined nxt.succeed(nxt), as in _grant.
                nxt._ok = True
                nxt._value = nxt
                eid = env._eid
                env._eid = eid + 1
                heappush(env._queue, (env.now, NORMAL, eid, nxt))
        self._in_use = in_use
        gauge = self.queue_depth
        value = len(waiters)
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value
        gauge = self.utilization
        value = in_use / capacity
        if value != gauge._value:
            now = self.env.now
            gauge._area += gauge._value * (now - gauge._last_change)
            gauge._value = value
            gauge._last_change = now
            if value > gauge._max:
                gauge._max = value
        for callback in granted:
            callback(TICK)

    def _cancel(self, req):
        if req.triggered:  # granted requests are always triggered
            return
        # Lazy deletion: mark by failing silently-defused; skipped on grant.
        self._waiters = [(p, o, r) for (p, o, r) in self._waiters if r is not req]
        heapq.heapify(self._waiters)
        self.queue_depth.set(len(self._waiters))

    def execute(self, duration, priority=0):
        """Convenience process: hold one slot for *duration* microseconds.

        Usage: ``yield from resource.execute(cost)`` inside a process.
        """
        req = Request(self, priority)
        try:
            yield req
            yield self.env.charge(duration)
        finally:
            req.release()

    def __repr__(self):
        return "<Resource %s %d/%d used, %d waiting>" % (
            self.name, self.in_use, self.capacity, self.waiting)

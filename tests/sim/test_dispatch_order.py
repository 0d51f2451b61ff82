"""Dispatch-order oracle for the event kernel.

A fixed-seed random mix of every scheduling primitive — ``charge``,
``defer`` (both priorities), ``_kick``, ``timeout``, ``succeed``, store
``get``/``put``/``try_put``, resource ``acquire``/``request`` — is run
one ``step()`` at a time, and the pop sequence ``(time, priority, eid,
callback names)`` is digested.  The digests below were recorded with
uncontended ``acquire`` grants running inline and ``try_put`` spending
no event id, so any scheduler change that moves a tie-break, consumes a
different number of sequence numbers or reorders callbacks fails here.
Every event id is dispatched: the final eid equals the events
processed.  The same workload driven through ``run()`` must invoke the
model callbacks in the same order at the same times.
"""

import hashlib
import random

import pytest

from repro.sim import Environment, Resource, Store
from repro.sim.events import URGENT

#: seed -> (pop-sequence digest, pops, final eid, events_processed),
#: recorded with inline acquire grants
RECORDED = {
    1: ("dcdee5e8e8c91823", 546, 546, 546),
    2: ("a97e4c8077b1d597", 325, 325, 325),
    3: ("63912f8079a315ec", 420, 420, 420),
}

DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 4.0)


class _Workload:
    """Callback machines and generator processes sharing one bounded
    store and one two-slot resource, each acting on a seeded RNG."""

    def __init__(self, env, seed, machines=6, procs=6, steps=40):
        self.env = env
        self.rng = random.Random(seed)
        self.store = Store(env, capacity=3)
        self.res = Resource(env, 2)
        self.log = []
        self.items = 0
        for index in range(machines):
            _Machine(self, "m%d" % index, steps)
        for index in range(procs):
            env.process(self.proc("p%d" % index, steps))

    def delay(self):
        return self.rng.choice(DELAYS)

    def item(self):
        self.items += 1
        return self.items

    def proc(self, tag, steps):
        env, rng, store, res, log = (self.env, self.rng, self.store,
                                     self.res, self.log)
        for _ in range(steps):
            op = rng.randrange(7)
            if op == 0:
                yield env.charge(self.delay())
            elif op == 1:
                yield env.timeout(self.delay())
            elif op == 2:
                item = yield store.get()
                log.append((env.now, tag, "got", item))
            elif op == 3:
                yield store.put(self.item())
            elif op == 4:
                with res.request() as req:
                    yield req
                    log.append((env.now, tag, "granted"))
                    yield env.charge(self.delay())
            elif op == 5:
                event = env.event()
                event.succeed(tag)
                yield event
            else:
                env.detached(self.task(tag))
            log.append((env.now, tag, op))

    def task(self, tag):
        yield self.env.charge(self.delay())
        self.log.append((self.env.now, tag, "task"))


class _Machine:
    """A callback state machine: each step logs, then takes one random
    scheduling action that leads back to :meth:`step`."""

    def __init__(self, workload, tag, steps):
        self.w = workload
        self.tag = tag
        self.left = steps
        workload.env._kick(self.step)

    def step(self, _event):
        w = self.w
        env, rng = w.env, w.rng
        w.log.append((env.now, self.tag))
        self.left -= 1
        if self.left <= 0:
            return
        op = rng.randrange(9)
        if op in (0, 2):
            env.defer(w.delay(), self.step)
        elif op == 1:
            env.defer(w.delay(), self.step, priority=URGENT)
        elif op == 3:
            env._kick(self.step)
        elif op == 4:
            w.res.acquire(self.granted)
        elif op == 5:
            accepted = w.store.try_put(w.item())
            w.log.append((env.now, self.tag, "try_put", accepted))
            env.defer(w.delay(), self.step)
        elif op == 6:
            env.charge(w.delay()).callbacks.append(self.step)
        elif op == 7:
            env.timeout(w.delay()).callbacks.append(self.step)
        else:
            event = env.event()
            event.callbacks.append(self.step)
            event.succeed()

    def granted(self, _event):
        env = self.w.env
        self.w.log.append((env.now, self.tag, "acquired"))
        env.defer(self.w.delay(), self.release)

    def release(self, _event):
        self.w.res.free()
        self.step(None)


def _names(entry):
    """Qualified names of the callbacks a schedule entry will invoke."""
    if len(entry) > 4 and entry[3] is None:
        return (entry[4].__qualname__,)
    return tuple(cb.__qualname__ for cb in entry[3].callbacks)


def _pop_sequence(seed):
    env = Environment()
    workload = _Workload(env, seed)
    pops = []
    while env._queue:
        when, priority, eid = env._queue[0][:3]
        pops.append((repr(when), priority, eid, _names(env._queue[0])))
        env.step()
    return pops, workload.log, env


def _digest(seq):
    return hashlib.sha256(repr(seq).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_pop_sequence_matches_recorded_oracle(seed):
    pops, _log, env = _pop_sequence(seed)
    assert (_digest(pops), len(pops), env._eid,
            env.events_processed) == RECORDED[seed]


@pytest.mark.parametrize("seed", sorted(RECORDED))
def test_run_invokes_callbacks_in_step_order(seed):
    _pops, step_log, _env = _pop_sequence(seed)
    env = Environment()
    workload = _Workload(env, seed)
    env.run()
    assert workload.log == step_log
    assert len(step_log) > 200

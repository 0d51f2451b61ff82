"""Frame-native execution of the data-plane hot loops (DESIGN.md §4.14).

The scalar data planes run each message through a chain of callback
states — ring pop, pool grant, per-stage ``Charge``, release — burning
5-10 scheduler events per message.  Frame execution ("turbo steps")
coalesces a whole multi-stage span into **one** scheduled completion
event whenever doing so is *provably unobservable*:

**The clear-span guard.**  A turbo step covering ``(now, end]`` is legal
only when ``env.peek() > end`` strictly, *and* the admission check runs
as the tail of the current callback (nothing else executes at ``now``
afterwards).  Events are only created inside firing callbacks and are
never scheduled into the past, so under the guard no foreign event can
fire — or be created — anywhere in the span.  The scalar chain would
therefore run with nothing observing its intermediate states, and the
coalesced step only needs to (a) land its completion at the *exact*
float timestamp the scalar chain's sequential additions produce
(:func:`span_times` + ``Environment.defer_at``), (b) replay the
intermediate bookkeeping with the same arithmetic at the same operand
values (:func:`seize`/:func:`unseize`/:func:`touch_gauge`), and (c)
consume the same number of schedule sequence numbers (:func:`burn`), to
leave every simulated observable bit-identical to the scalar oracle.

**Fallback triggers.**  Anything that could make the span observable
falls back to the per-message path before committing: an armed tracer
(``--trace-channel``), a fault-injector ``_land`` shadow or any other
per-instance method override on the ring (:func:`ring_plain`), LLC
occupancy or memory-intensity calibration on the pool — its pressure
and RNG draws are globally visible (:func:`calibration_plain`) — pool
or issue-slot contention (:func:`pool_ready`), and of course any event
already scheduled inside the span.  The fallback *is* the scalar code
path, unchanged; ``env.frame_exec = False`` disables admission wholesale.

Only scheduler-kernel counters (``events_processed``, ``charges_*``,
``heap_peak``) differ between the two modes — by design; that drop is
the whole point (see ``sim.kernel.events_per_request``).
"""

import numpy as np

from .store import Store

__all__ = [
    "frame_enabled", "clear_span", "burn", "span_times", "frame_offsets",
    "pool_ready", "calibration_plain", "ring_plain", "seize", "unseize",
    "touch_gauge", "try_stage",
]


def frame_enabled(env):
    """Frame execution admissible on *env* at all (knob + tracer)."""
    return env.frame_exec and not env.tracer.enabled


def clear_span(env, end):
    """True when no scheduled event exists at or before *end* (strict).

    The admission guard: combined with tail-of-callback admission this
    guarantees nothing fires — or gets created — inside ``(now, end]``.
    """
    return env.peek() > end


def burn(env, n):
    """Consume *n* schedule sequence numbers without scheduling.

    Keeps ``env._eid`` bit-identical to the scalar chain's consumption,
    so every event scheduled after the span carries the same sequence
    number either way (``Store.try_put`` uses the same trick for the
    dead put event it never builds).
    """
    env._eid += n


def span_times(start, durations):
    """Per-stage completion timestamps of a sequential span.

    Plain sequential float additions — ``t += d`` stage by stage —
    because that is *exactly* what the scalar chain computes; a
    vectorized ``start + cumsum(d)`` may differ in the last ulp and
    break bit-identity.  Use :func:`frame_offsets` when aggregating
    durations where scalar-exact timestamps are not required.
    """
    times = []
    t = start
    for d in durations:
        t = t + d
        times.append(t)
    return times


def frame_offsets(durations):
    """Cumulative per-message offsets of a frame (numpy cumsum).

    The vectorized aggregate for frame planning — total span length,
    per-message relative completion offsets — where the consumer does
    not need scalar-exact absolute timestamps (those come from
    :func:`span_times`).
    """
    return np.cumsum(np.asarray(durations, dtype=float))


def pool_ready(res):
    """A slot is immediately grantable on Resource *res* (no waiters)."""
    return res._in_use < res.capacity and not res._waiters


def calibration_plain(pool):
    """*pool*'s calibrated runs touch neither the LLC nor its RNG.

    With a working set or memory intensity configured, the scalar legs
    occupy LLC capacity and draw penalties at their own instants —
    globally visible state the coalesced step cannot replay mid-span —
    so those configurations stay on the scalar oracle.
    """
    return (pool.default_working_set <= 0
            and (pool.llc is None or pool.default_memory_intensity <= 0))


def ring_plain(channel):
    """*channel* can be popped inline in place of a ``get()`` event.

    Requires the untouched Store FIFO fast path: no tracer shadow, no
    fault-injector ``_land`` hook, no per-instance ``get``/``try_get``
    override, no parked putters (a pop would have to wake one), no
    parked getters (they own the next item), and the class-level FIFO
    pop (PriorityStore orders differently).
    """
    d = channel.__dict__
    return (d.get("_tracer") is None
            and not channel._putters
            and not channel._getters
            and type(channel)._pop_item is Store._pop_item
            and "_land" not in d
            and "get" not in d
            and "try_get" not in d)


def seize(res):
    """Take one slot of *res* exactly as ``Resource._grant`` would,
    minus the grant event (the turbo step has no Request to resume).

    Caller must have checked :func:`pool_ready`; the utilization-gauge
    arithmetic mirrors the inlined ``_grant`` update operand for
    operand so the gauge state stays bit-identical to the scalar path.
    """
    in_use = res._in_use + 1
    res._in_use = in_use
    gauge = res.utilization
    value = in_use / res.capacity
    if value != gauge._value:
        now = res.env.now
        gauge._area += gauge._value * (now - gauge._last_change)
        gauge._value = value
        gauge._last_change = now
        if value > gauge._max:
            gauge._max = value


def unseize(res):
    """Return a :func:`seize`'d slot exactly as ``Resource.free`` does —
    including granting any waiters that parked meanwhile (a scalar
    competitor admitted at the span's start time can legally be waiting
    here)."""
    res.free()


def try_stage(env, res, duration, done, pool=None):
    """Coalesce one grant+charge stage pair into a single event.

    The scalar stage requests a slot on *res* (granted synchronously
    when free — one resume event) and then charges *duration* (one more
    event).  When the slot is free and the stage's window is clear,
    take the slot inline (:func:`seize` updates the gauge at the same
    request-time instant), burn the grant's sequence number, and land
    *done* at the charge's exact timestamp.  *done* must ``unseize(res)``
    and continue with the scalar stage's completion body.

    Pass *pool* for calibrated legs: LLC-occupying or RNG-drawing
    calibration keeps the stage on the scalar oracle
    (:func:`calibration_plain`).  Returns False when the stage must run
    scalar.
    """
    if not pool_ready(res):
        return False
    if pool is not None and not calibration_plain(pool):
        return False
    end = env.now + duration
    if not clear_span(env, end):
        return False
    seize(res)
    burn(env, 1)
    env.defer_at(end, done)
    return True


def touch_gauge(gauge, when):
    """Replay a zero-width release/re-grant pair at time *when*.

    The scalar chain releases and immediately re-acquires its slot at
    every stage boundary; the net gauge effect of that pair is exactly
    one area accrual at the pre-dip value — replayed here with the same
    float operations so ``_area``/``_last_change`` stay bit-identical.
    """
    gauge._area += gauge._value * (when - gauge._last_change)
    gauge._last_change = when

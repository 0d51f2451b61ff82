"""Struct-of-arrays in-flight message table for vectorized Channel
landings (DESIGN.md §4.11, wheel backend only).

On the heap backend every ``Channel.push`` defers one pooled event per
message and ``_land`` delivers them one callback at a time.  The
:class:`LandingTable` replaces that per-message machinery with an
array-structured core:

* each pushed message becomes one row of the table — ``deadline``
  (landing time), ``chan`` (channel registry index), ``msg`` (message
  id when the item exposes one), ``nbytes`` (cost) — so in-flight state
  on the four data-movement planes (wire/NIC rings, RDMA, PCIe,
  mqueue/RMQ) is introspectable with vector sweeps
  (:meth:`in_flight_bytes`, :meth:`per_channel_counts`) instead of
  walking Python deques;
* rows are *staged* in a plain Python buffer on the push hot path and
  materialized into preallocated numpy columns in one vectorized slice
  assignment per delivery/introspection boundary — per-message numpy
  scalar stores cost more than the heap machinery they replace, while
  an amortized bulk convert costs a fraction of it;
* homogeneous bursts — consecutive pushes on the same channel at the
  same timestamp — coalesce into one *batch* delivered by a single
  flush entry, and fully idle batches (sink is the channel itself, no
  parked getters/putters, no tracer, no fault hook, capacity room)
  land as one bulk ``extend`` on the sink instead of per-message
  ``try_put`` calls.

Determinism contract (the part that keeps fixed-seed rows bit-identical
with the heap backend):

* every staged message consumes exactly one sequence number, exactly
  like the ``defer()`` it replaces;
* a batch only coalesces messages whose eids are *consecutive* and
  share a timestamp.  Consecutive eids at one (time, priority) are
  dispatched back-to-back by the heap — no other event can sort
  between them — so delivering all of them from the flush entry of the
  *first* eid is observably identical;
* a batch breaks whenever the channel's ``_land`` instance shadow
  changes (fault-injection hooks install/remove between pushes), and
  delivery calls the binding captured at stage time, matching the
  heap's bind-at-push ``defer(latency, self._land)``;
* the bulk landing path consumes the k sequence numbers of the k
  put completions the per-item ``try_put`` landings burn (no callback
  can observe them) and credits the same k processed events through
  one bare entry at the first eid;
* frame execution (DESIGN.md §4.14) stays sound above this table: an
  open batch always keeps its flush entry in the schedule at the
  batch's landing deadline, and later coalesced rows share that
  deadline, so ``Environment.peek`` never exceeds the earliest staged
  landing — the clear-span guard can never admit a turbo step across a
  pending landing it cannot see.

numpy is a hard dependency of the repo, but the table degrades
gracefully: when numpy is unavailable, :func:`numpy_available` is False
and the wheel environment keeps ``Channel.push`` on the defer path.
"""

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is baked into the image
    _np = None

from heapq import heappush

from .events import NORMAL


def numpy_available():
    return _np is not None


# batch list layout: [land_override, count, start_row]
_OVERRIDE, _COUNT, _START = 0, 1, 2

#: consecutive single-message batches before a burst-free channel is
#: routed back to the defer path (see :meth:`LandingTable._deliver`)
_SOLO_LIMIT = 16


class LandingTable:
    """Per-environment SoA table of in-flight Channel messages."""

    #: initial row capacity; doubles on demand
    INITIAL_ROWS = 1024

    def __init__(self, env):
        self.env = env
        n = self.INITIAL_ROWS
        self._deadline = _np.zeros(n, dtype=_np.float64)
        self._chan = _np.zeros(n, dtype=_np.int32)
        self._msg = _np.full(n, -1, dtype=_np.int64)
        self._nbytes = _np.zeros(n, dtype=_np.int64)
        self._dead = _np.ones(n, dtype=bool)
        self._head = 0
        #: rows [0, _mat_tail) live in the numpy columns; rows past it
        #: sit in the _staged python buffer (logical row numbers are
        #: contiguous across both, so batch start indices stay valid)
        self._mat_tail = 0
        self._staged = []        # [(deadline, cid, msg_id, nbytes), ...]
        self._channels = []      # registry index -> channel
        self._chan_ids = {}      # channel -> registry index
        # open-batch coalescing state (deadline/cid cached at batch
        # open — every row of a batch shares them by construction).
        # ``_batch_chan is channel`` is the primary match key: closing
        # a batch nulls it, so no separate "is a batch open" test runs
        # on the hot path.
        self._batch = [None, 0, 0]
        self._batch_chan = None
        self._batch_when = -1.0
        self._batch_eid = -2
        self._batch_deadline = 0.0
        self._batch_cid = -1
        self._pending = {}       # id(batch) -> batch, for compaction fixups
        # counters (surfaced via WheelEnvironment.kernel_stats)
        self._staged_base = 0
        self.batches = 0
        self.vector_batches = 0
        self.vector_messages = 0

    # -- staging (Channel.push hot path) ------------------------------------

    def stage(self, channel, item, nbytes):
        """Record one pushed message; schedules a flush entry for the
        first message of each batch.  Consumes one sequence number, like
        the ``env.defer(latency, channel._land)`` it replaces."""
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        if (self._batch_chan is channel and self._batch_eid == eid - 1
                and self._batch_when == env.now
                and channel.__dict__.get("_land") is self._batch[_OVERRIDE]):
            self._batch_eid = eid
            self._batch[_COUNT] += 1
        else:
            now = env.now
            cid = self._chan_ids.get(channel)
            if cid is None:
                cid = len(self._channels)
                self._channels.append(channel)
                self._chan_ids[channel] = cid
            deadline = now + channel.latency
            batch = [channel.__dict__.get("_land"), 1,
                     self._mat_tail + len(self._staged)]
            self._batch = batch
            self._batch_chan = channel
            self._batch_when = now
            self._batch_eid = eid
            self._batch_deadline = deadline
            self._batch_cid = cid
            self._pending[id(batch)] = batch
            self.batches += 1

            def _flush(_event, deliver=self._deliver, channel=channel,
                       batch=batch):
                deliver(channel, batch)

            env._insert((deadline, NORMAL, eid, None, _flush))
        mid = getattr(item, "msg_id", None)
        self._staged.append((self._batch_deadline, self._batch_cid,
                             mid if type(mid) is int else -1.0, nbytes))

    # -- materialization ----------------------------------------------------

    def _materialize(self):
        """Convert the staged python rows into numpy column segments —
        one bulk convert + five slice assignments, however many rows
        accumulated since the last boundary."""
        staged = self._staged
        if not staged:
            return
        k = len(staged)
        tail = self._mat_tail
        while tail + k > len(self._deadline):
            self._compact_or_grow()
            tail = self._mat_tail
        arr = _np.array(staged, dtype=_np.float64)
        end = tail + k
        self._deadline[tail:end] = arr[:, 0]
        self._chan[tail:end] = arr[:, 1]
        self._msg[tail:end] = arr[:, 2]
        self._nbytes[tail:end] = arr[:, 3]
        self._dead[tail:end] = False
        self._mat_tail = end
        self._staged_base += k
        del staged[:]

    # -- delivery -----------------------------------------------------------

    def _deliver(self, channel, batch):
        env = self.env
        count = batch[_COUNT]
        if batch is self._batch:
            self._batch_chan = None
        self._pending.pop(id(batch), None)
        # Adaptive bypass: a channel whose batches never coalesce gains
        # nothing from the table.  Once it has shown SOLO_LIMIT
        # consecutive single-message batches without a single burst,
        # route its future pushes straight to defer (see Channel.push).
        # Either route is observably identical, so flipping mid-run
        # cannot perturb fixed-seed results.
        if count > 1:
            channel._stage_bursts = True
            channel._solo_batches = 0
        elif not channel._stage_bursts:
            solo = channel._solo_batches + 1
            channel._solo_batches = solo
            if solo >= _SOLO_LIMIT:
                channel._stage_off = True
        if count > 1:
            # The flush entry itself counts as one processed event (the
            # run loop bumps it); credit the k-1 coalesced defers here.
            env.events_processed += count - 1
        override = batch[_OVERRIDE]
        if (override is None and channel._sink is channel
                and not channel._getters and not channel._putters
                and channel._tracer is None
                and len(channel._items) + count <= channel.capacity):
            # Bulk landing: k unobservable put completions collapse into
            # one credit entry at the same (time, first-eid) slot.
            in_flight = channel._in_flight
            items = channel._items
            if len(in_flight) == count:
                items.extend(in_flight)
                in_flight.clear()
            elif count == 1:
                items.append(in_flight.popleft())
            else:
                popleft = in_flight.popleft
                items.extend(popleft() for _ in range(count))
            channel.total_put += count
            channel.delivered += count
            eid = env._eid
            env._eid = eid + count

            def _credit(_event, env=env, n=count - 1):
                env.events_processed += n

            heappush(env._live, (env.now, NORMAL, eid, None, _credit))
            self.vector_batches += 1
            self.vector_messages += count
        else:
            tick = env._tick_event
            if override is None:
                land = type(channel)._land
                for _ in range(count):
                    land(channel, tick)
            else:
                for _ in range(count):
                    override(tick)
        # retire the batch's rows and advance past the dead prefix
        start = batch[_START]
        mat_tail = self._mat_tail
        staged = self._staged
        if start >= mat_tail and start - mat_tail + count == len(staged):
            # The batch's rows are exactly the staged tail — the common
            # stage/deliver/stage/deliver cadence — so retire them by
            # truncating the python buffer; numpy is never touched.
            del staged[start - mat_tail:]
            self._staged_base += count
            return
        if start + count > mat_tail:
            self._materialize()
        dead = self._dead
        dead[start:start + count] = True
        head = self._head
        mat_tail = self._mat_tail
        seg = dead[head:mat_tail]
        if seg.size:
            pos = int(_np.argmin(seg))
            if seg[pos]:
                self._reset_rows(mat_tail)
            else:
                self._head = head + pos
        else:
            self._reset_rows(mat_tail)

    def _reset_rows(self, shift):
        """Every materialized row is dead: restart the columns at zero.

        The staged buffer's logical base shifts down by *shift* with
        them, so pending batches follow.  (Safe: a pending batch's rows
        are never dead, so an all-dead materialized region means every
        pending batch lives entirely in the staged buffer.)"""
        self._head = self._mat_tail = 0
        if shift:
            for pending in self._pending.values():
                pending[_START] -= shift

    def _compact_or_grow(self):
        """Row store is full: drop the dead prefix in one vectorized
        copy when it pays, otherwise double the columns."""
        head, tail = self._head, self._mat_tail
        cols = ("_deadline", "_chan", "_msg", "_nbytes", "_dead")
        if head > len(self._deadline) // 2:
            n = tail - head
            for name in cols:
                col = getattr(self, name)
                col[:n] = col[head:tail]
            self._dead[n:] = True
            for batch in self._pending.values():
                batch[_START] -= head
            self._head = 0
            self._mat_tail = n
        else:
            for name in cols:
                col = getattr(self, name)
                fill = True if name == "_dead" else (-1 if name == "_msg" else 0)
                grown = _np.full(len(col) * 2, fill, dtype=col.dtype)
                grown[:len(col)] = col
                setattr(self, name, grown)

    # -- vectorized introspection -------------------------------------------

    def _alive(self):
        self._materialize()
        return ~self._dead[self._head:self._mat_tail]

    def in_flight_count(self, channel=None):
        """Messages currently in flight (optionally on one channel)."""
        alive = self._alive()
        if channel is None:
            return int(alive.sum())
        cid = self._chan_ids.get(channel)
        if cid is None:
            return 0
        return int((alive
                    & (self._chan[self._head:self._mat_tail] == cid)).sum())

    def in_flight_bytes(self, channel=None):
        """Byte-sum of in-flight messages (one vectorized sweep)."""
        alive = self._alive()
        nbytes = self._nbytes[self._head:self._mat_tail]
        if channel is None:
            return int(nbytes[alive].sum())
        cid = self._chan_ids.get(channel)
        if cid is None:
            return 0
        return int(nbytes[alive
                          & (self._chan[self._head:self._mat_tail] == cid)].sum())

    def next_deadline(self):
        """Earliest landing time among in-flight messages (inf if none)."""
        alive = self._alive()
        if not alive.any():
            return float("inf")
        return float(self._deadline[self._head:self._mat_tail][alive].min())

    def per_channel_counts(self):
        """``{channel name: in-flight count}`` via one bincount sweep."""
        alive = self._alive()
        counts = _np.bincount(self._chan[self._head:self._mat_tail][alive],
                              minlength=len(self._channels))
        return {ch.name: int(c)
                for ch, c in zip(self._channels, counts) if c}

    @property
    def staged(self):
        """Total messages ever staged (materialized + buffered)."""
        return self._staged_base + len(self._staged)

    def stats(self):
        return {
            "staged": self.staged,
            "batches": self.batches,
            "vector_batches": self.vector_batches,
            "vector_messages": self.vector_messages,
            "in_flight": self.in_flight_count(),
            "rows": int(len(self._deadline)),
        }

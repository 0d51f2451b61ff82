"""Load-generating clients (the role sockperf plays in the paper).

Clients are deliberately lightweight: the paper's client machines are
never the bottleneck, so we charge only a small fixed send cost and the
port serialization time.  Two drive modes match the paper's
methodology:

* :class:`OpenLoopGenerator` — Poisson arrivals at a target rate
  (latency-under-load measurements).
* :class:`ClosedLoopGenerator` — N outstanding requests, new request on
  each response (saturation throughput measurements).
"""

from .. import units
from ..errors import NetworkError
from ..sim import Channel, LatencyRecorder, RateMeter
from .. import telemetry
from .packet import Address, Message, TCP, UDP
from .stack import TcpConnection


class _SendOp:
    """One in-flight fire-and-forget send (callback twin of Client.send).

    Takes ``env.detached(client.send(msg))``'s steps at the same
    instants: the serialization charge, then delivery.  The send starts
    inside the caller's step rather than behind a zero-delay kick.
    Records are pooled on the client.
    """

    __slots__ = ("client", "msg")

    def __init__(self, client):
        self.client = client
        self.msg = None

    def start(self, msg):
        self.msg = msg
        client = self.client
        client.env.defer(client._send_charge(msg), self._sent)

    def _sent(self, _event):
        client = self.client
        msg = self.msg
        self.msg = None
        pool = client._send_op_pool
        if len(pool) < 1024:
            pool.append(self)
        client._put_on_wire(msg)


class _ClientRxOp:
    """The client's response loop as a callback state machine.

    Mirrors the retired ``_rx_loop`` generator process: one RX-store get
    per message, latency accounting, waiter wake-up, re-arm.
    """

    __slots__ = ("client",)

    def __init__(self, client):
        self.client = client
        # URGENT kick at now: the slot the rx-loop Process's init used.
        client.env._kick(self._begin)

    def _begin(self, _event):
        self._arm()

    def _arm(self):
        self.client.rx.get_then(self._on_msg)

    def _on_msg(self, msg):
        client = self.client
        created = msg.meta.get("request_created_at")
        if created is not None and msg.kind == "response":
            client.latency._samples.append(
                client.env.now - created + client.recv_cost)
            client.responses.count += 1
        waiter = client._waiters.pop(msg.meta.get("in_reply_to"), None)
        if waiter is None and msg.kind == "tcp-synack":
            waiter = client._waiters.pop(("synack", msg.conn.conn_id), None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(msg)
        self._arm()


class Client:
    """One client host attached to the network."""

    def __init__(self, env, network, ip, link_rate=units.gbps(40),
                 send_cost=2.0, recv_cost=2.0, name=None, rng=None):
        self.env = env
        self.network = network
        self.ip = ip
        self.link_rate = link_rate
        # sockperf-with-VMA userspace costs per message.  recv_cost is
        # *accounted* into recorded latency but not simulated as a
        # serialization point, so a single client can sink high response
        # rates (the paper uses two client machines).
        self.send_cost = send_cost
        self.recv_cost = recv_cost
        self.name = name or "client-%s" % ip
        self.rng = rng
        self.rx = Channel(env, name="%s-rx" % self.name)
        self.latency = LatencyRecorder(env, name="%s-latency" % self.name)
        self.responses = RateMeter(env, name="%s-rate" % self.name)
        self.sent = RateMeter(env, name="%s-sent" % self.name)
        # Telemetry (DESIGN.md §4.9): the live recorder/meters double as
        # the registry instruments (the recorder snapshots as a
        # mergeable log-bucketed histogram; local samples stay exact).
        #: request attempts re-sent after a timeout or error response
        self.retries = 0
        #: request attempts whose deadline expired before a response
        self.timeouts = 0
        reg = telemetry.registry()
        base = "net.client.%s." % ip
        reg.register(base + "latency", self.latency)
        reg.register(base + "responses", self.responses)
        reg.register(base + "sent", self.sent)
        reg.pull(base + "retries", lambda: self.retries)
        reg.pull(base + "timeouts", lambda: self.timeouts)
        self._waiters = {}
        self._next_port = 40000
        self._send_op_pool = []
        network.attach(ip, self)
        _ClientRxOp(self)

    # -- raw I/O ---------------------------------------------------------------

    def _source_address(self):
        self._next_port += 1
        if self._next_port > 65000:
            self._next_port = 40001
        return Address(self.ip, self._next_port)

    def send(self, msg):
        """Generator: serialize *msg* onto the wire."""
        yield self.env.charge(self._send_charge(msg))
        self._put_on_wire(msg)

    def _send_charge(self, msg):
        """Stamp a data segment's TCP sequence number; returns the send
        cost plus serialization time of *msg*."""
        if msg.conn is not None and not msg.kind.startswith("tcp-"):
            msg.meta["tcp_seq"] = msg.conn.next_seq(msg.src)
        return self.send_cost + msg.wire_size / self.link_rate

    def _put_on_wire(self, msg):
        self.sent.count += 1          # inlined RateMeter.tick()
        self.network.deliver(msg)

    def send_async(self, msg):
        """Fire-and-forget :meth:`send` (zero-allocation steady state)."""
        pool = self._send_op_pool
        op = pool.pop() if pool else _SendOp(self)
        op.start(msg)

    # -- request/response ---------------------------------------------------

    def connect(self, dst):
        """Generator: establish a TCP connection to *dst*; returns it."""
        conn, syn, waiter = self._open_connection(dst)
        yield from self.send(syn)
        yield waiter
        return self._connected(conn)

    def _open_connection(self, dst):
        """Build the SYN for a new connection and park its waiter."""
        src = self._source_address()
        conn = TcpConnection(client=src, server=dst)
        syn = Message(src=src, dst=dst, payload=b"", proto=TCP,
                      created_at=self.env.now, conn=conn, kind="tcp-syn")
        syn.meta["conn"] = conn
        waiter = self.env.event()
        self._waiters[("synack", conn.conn_id)] = waiter
        return conn, syn, waiter

    def _connected(self, conn):
        # The RX loop pops the synack entry on arrival; this defensive
        # pop keeps the waiter table empty even if the entry was
        # resolved some other way (dict ops consume no schedule slots).
        self._waiters.pop(("synack", conn.conn_id), None)
        if not conn.established:
            raise NetworkError("TCP handshake failed to %s" % (conn.server,))
        return conn

    def request(self, payload, dst, proto=UDP, conn=None, timeout=None,
                retries=0, retry_backoff=None):
        """Generator: send one request and wait for its response.

        Returns the response message, or None when every attempt timed
        out (UDP requests may be dropped by a saturated server).  The
        response may be error-kind — e.g. the Lynx server shedding for
        a dark accelerator — which callers treat as a failure.

        With ``retries`` > 0 a failed attempt (timeout or error-kind
        response) is re-sent up to that many extra times, after an
        exponential backoff with ±50% jitter drawn from the simulation
        RNG so runs stay reproducible.  The base delay is
        ``retry_backoff`` (default: the timeout, else 1000us).

        A retrying request always carries a per-attempt deadline: with
        ``retries`` > 0 and no explicit ``timeout``, the deadline
        defaults to twice the backoff base — otherwise a lost UDP
        request would park the waiter forever and the retry budget
        could never fire.
        """
        env = self.env
        timeout = _attempt_deadline(timeout, retries, retry_backoff)
        attempt = 0
        while True:
            attempt += 1
            msg, waiter = self._open_attempt(payload, dst, proto, conn)
            yield from self.send(msg)
            if timeout is None:
                response = yield waiter
            else:
                expiry = env.timeout(timeout)
                result = yield env.any_of([waiter, expiry])
                response = result.get(waiter)
            if self._attempt_over(msg, response, attempt, retries):
                return response
            yield env.timeout(self._retry_delay(attempt, timeout,
                                                retry_backoff))

    # -- retry policy (shared by request() and _ClosedLoopOp) ---------------

    def _open_attempt(self, payload, dst, proto, conn):
        """Build one attempt's request and park its response waiter."""
        src = conn.client if conn is not None else self._source_address()
        # Positional: keyword binding costs on the per-request path.
        msg = Message(src, dst, payload, proto, self.env.now, None, None,
                      conn)
        waiter = self.env.event()
        self._waiters[msg.msg_id] = waiter
        return msg, waiter

    def _attempt_over(self, msg, response, attempt, retries):
        """Book one finished attempt (*response* is None on expiry);
        True when the request is over, False when it should retry."""
        # The RX loop pops the entry when a response arrives; this pop
        # covers the timeout path and is defensive elsewhere, so the
        # waiter table stays empty under mixed traffic.
        self._waiters.pop(msg.msg_id, None)
        if response is None:
            self.timeouts += 1
        elif response.kind != "error":
            if attempt > 1:
                # Lazily created: E01-E15 metric snapshots must not
                # grow a counter no fault run ever touched.
                telemetry.registry().counter(
                    "faults.recovered.client_retry").inc()
            return True
        return attempt > retries

    def _retry_delay(self, attempt, timeout, retry_backoff):
        """Count a retry and draw its backoff: exponential from the
        base delay, with ±50% jitter from the simulation RNG."""
        self.retries += 1
        base = retry_backoff if retry_backoff is not None \
            else (timeout if timeout else 1000.0)
        delay = base * (2 ** (attempt - 1))
        if self.rng is not None:
            delay *= self.rng.uniform("client.retry.%s" % self.ip, 0.5, 1.5)
        return delay


def _attempt_deadline(timeout, retries, retry_backoff):
    """Per-attempt deadline of a request.

    A retrying request always carries one: with *retries* > 0 and no
    explicit *timeout* it defaults to twice the backoff base, or a lost
    UDP request would park its waiter forever and the retry budget
    could never fire.  A bare request keeps *timeout* (None waits
    indefinitely).
    """
    if retries > 0 and timeout is None:
        return 2.0 * (retry_backoff if retry_backoff is not None else 1000.0)
    return timeout


class OpenLoopGenerator:
    """Poisson (or uniform) arrivals at a fixed offered rate."""

    def __init__(self, env, client, dst, rate_per_us=None, payload_fn=None,
                 proto=UDP, conn=None, poisson=True, arrivals=None,
                 name=None):
        if arrivals is None and (rate_per_us is None or rate_per_us <= 0):
            raise NetworkError("open-loop rate must be positive")
        if payload_fn is None:
            raise NetworkError("open-loop generator needs a payload_fn")
        self.env = env
        self.client = client
        self.dst = dst
        self.rate = rate_per_us
        self.payload_fn = payload_fn
        self.proto = proto
        self.conn = conn
        self.poisson = poisson
        #: optional ArrivalProcess overriding rate/poisson pacing
        self.arrivals = arrivals
        self.name = name or "openloop->%s" % (dst,)
        self._stopped = False
        self.offered = 0
        # Callback state machine standing in for the old arrival Process
        # (same init kick, same charge per gap, same send kick).
        env._kick(self._begin)

    def stop(self):
        self._stopped = True

    def _interarrival(self):
        if self.arrivals is not None:
            return self.arrivals.next_gap()
        mean = 1.0 / self.rate
        if self.poisson and self.client.rng is not None:
            return self.client.rng.exponential(self.name, mean)
        return mean

    def _begin(self, _event):
        if not self._stopped:
            self.env.defer(self._interarrival(), self._fire)

    def _fire(self, _event):
        if self._stopped:
            return
        env = self.env
        payload = self.payload_fn(self.offered)
        src = (self.conn.client if self.conn is not None
               else self.client._source_address())
        msg = Message(src, self.dst, payload, self.proto, env.now, None,
                      None, self.conn)
        self.offered += 1
        # Fire and forget: the arrival process must not be throttled
        # by per-message send cost, or high offered rates would be
        # silently capped below the target.
        self.client.send_async(msg)
        env.defer(self._interarrival(), self._fire)


class _ClosedLoopOp:
    """One closed-loop worker as a callback state machine.

    Mirrors the retired ``_worker`` generator process step for step:
    optional TCP connect, then per request ``Client.request``'s attempt
    loop (send charge, the same ``any_of`` deadline condition, retries
    with RNG-jittered backoff) and the think-time charge, through the
    retry-policy helpers ``Client.request`` itself uses.  Every leg
    runs at the instant its generator step ran; a stopped worker just
    ends, with no stand-in for the process's termination event.
    """

    __slots__ = ("gen", "client", "env", "index", "timeout", "conn", "seq",
                 "payload", "attempt", "msg", "waiter")

    def __init__(self, gen, index):
        self.gen = gen
        self.client = gen.client
        self.env = gen.env
        self.index = index
        self.timeout = _attempt_deadline(gen.timeout, gen.retries,
                                         gen.retry_backoff)
        self.conn = None
        self.seq = 0
        self.payload = None
        self.attempt = 0
        self.msg = None
        self.waiter = None
        # URGENT kick at now: the slot the worker Process's init used.
        self.env._kick(self._begin)

    def _begin(self, _event):
        if self.gen.use_tcp_connections:
            client = self.client
            self.conn, syn, self.waiter = client._open_connection(
                self.gen.dst)
            self.msg = syn
            self.env.defer(client._send_charge(syn), self._syn_sent)
        else:
            self._next()

    def _syn_sent(self, _event):
        msg = self.msg
        self.msg = None
        self.client._put_on_wire(msg)
        self.waiter.callbacks.append(self._synack)

    def _synack(self, _event):
        self.waiter = None
        self.client._connected(self.conn)
        self._next()

    def _next(self, _event=None):
        gen = self.gen
        if gen._stopped:
            return
        self.payload = gen.payload_fn(self.index * 1000000 + self.seq)
        self.seq += 1
        self.attempt = 0
        self._send_attempt()

    def _send_attempt(self, _event=None):
        self.attempt += 1
        client = self.client
        gen = self.gen
        msg, self.waiter = client._open_attempt(self.payload, gen.dst,
                                                gen.proto, self.conn)
        self.msg = msg
        self.env.defer(client._send_charge(msg), self._sent)

    def _sent(self, _event):
        self.client._put_on_wire(self.msg)
        timeout = self.timeout
        if timeout is None:
            self.waiter.callbacks.append(self._settle)
        else:
            env = self.env
            expiry = env.timeout(timeout)
            env.any_of([self.waiter, expiry]).callbacks.append(self._settle)

    def _settle(self, event):
        """The attempt's waiter, or its deadline condition, fired."""
        waiter = self.waiter
        response = (event._value if event is waiter
                    else event._value.get(waiter))
        gen = self.gen
        client = self.client
        msg = self.msg
        self.msg = self.waiter = None
        attempt = self.attempt
        if not client._attempt_over(msg, response, attempt, gen.retries):
            self.env.defer(client._retry_delay(attempt, self.timeout,
                                               gen.retry_backoff),
                           self._send_attempt)
            return
        self.payload = None
        if response is None:
            gen.timeouts += 1
        elif response.kind == "error":
            gen.errors += 1
        else:
            gen.completed += 1
        if gen.think_time > 0:
            self.env.defer(gen.think_time, self._next)
        else:
            self._next()


class ClosedLoopGenerator:
    """N workers, each with one outstanding request at a time."""

    def __init__(self, env, client, dst, concurrency, payload_fn, proto=UDP,
                 timeout=None, think_time=0.0, use_tcp_connections=False,
                 retries=0, retry_backoff=None, name=None):
        self.env = env
        self.client = client
        self.dst = dst
        self.concurrency = concurrency
        self.payload_fn = payload_fn
        self.proto = proto
        self.timeout = timeout
        self.think_time = think_time
        self.use_tcp_connections = use_tcp_connections or proto == TCP
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.name = name or "closedloop->%s" % (dst,)
        self._stopped = False
        self.completed = 0
        self.timeouts = 0
        self.errors = 0
        for index in range(concurrency):
            _ClosedLoopOp(self, index)

    def stop(self):
        self._stopped = True

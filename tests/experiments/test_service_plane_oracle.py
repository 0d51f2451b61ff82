"""Event-count oracle for the host service plane.

The memcached workers and the closed-loop client workers are callback
state machines that take the steps of the generator processes they
replaced at the same simulated instants (DESIGN.md §4.6).  The kernel's
processed-event counts below were re-recorded when zero-delay hops
(uncontended grants, op starts, routing) began running inside the step
that causes them; any later drift in a state machine's event
consumption moves them, even when the rows happen to survive.  The
equivalence test at the end replays a contended scenario through the
generator workers themselves and compares every model observable; the
state machines must get there in strictly fewer events.
"""

import pytest

from repro import telemetry
from repro.apps import memcached as memcached_mod
from repro.apps.memcached import MemcachedServer, encode_get, encode_set
from repro.config import XEON_VMA
from repro.experiments import e12_fig9_memcached as e12
from repro.experiments import e13_facever as e13
from repro.experiments import e16_faults as e16
from repro.experiments.common import LYNX_BLUEFIELD
from repro.experiments.testbed import Testbed
from repro.net import Address, ClosedLoopGenerator
from repro.net import client as client_mod
from repro.net.packet import TCP

#: processed events of :func:`_tcp_memcached` at 20000us
EVENTS_TCP_CLOSED_LOOP = 19062


def _tcp_memcached(horizons):
    """memcached on two Xeon cores behind closed-loop TCP clients with
    deadlines, retries and think time; yields kernel counters and
    responses at each horizon."""
    tb = Testbed(seed=42)
    env = tb.env
    host = tb.machine("10.0.0.1")
    server = MemcachedServer(env, host.nic, host.pool(count=2, name="mc"),
                             XEON_VMA)
    for i in range(16):
        server.store.execute(encode_set(b"k%d" % i, b"v" * 64))
    client = tb.client("10.0.9.1")
    ClosedLoopGenerator(env, client, Address("10.0.0.1", 11211), 6,
                        payload_fn=lambda i: encode_get(b"k%d" % (i % 20)),
                        proto=TCP, timeout=40.0, retries=2,
                        retry_backoff=10.0, think_time=1.5)
    for horizon in horizons:
        env.run(until=horizon)
        yield (env.events_processed, env.processes_spawned,
               client.responses.count)


def _events(fn, *args, **kwargs):
    with telemetry.scope() as reg:
        fn(*args, **kwargs)
        return reg.snapshot()["sim.kernel.events_processed"]["value"]


@pytest.mark.parametrize("fn, args, kwargs, events", [
    pytest.param(e12._config_a, (42, 1000.0), {}, 487611,
                 id="E12-placement-A"),
    pytest.param(e13.measure_lynx, ("xeon",),
                 dict(seed=42, measure=1000.0, cores=2), 64872,
                 id="E13-lynx-xeon-tcp-backend"),
    pytest.param(e16.measure_faulted,
                 (LYNX_BLUEFIELD, "loss+stall+outage", 30000.0, 15000.0, 42),
                 {}, 23137, id="E16-timeouts-retries"),
])
def test_events_processed_pinned(fn, args, kwargs, events):
    assert _events(fn, *args, **kwargs) == events


def test_memcached_responses_count_as_completed_requests():
    """E12 placement A: ``requests_completed`` covers memcached, not
    only the LeNet responses Lynx sends (events/request read ~8,000
    while memcached went uncounted)."""
    with telemetry.scope() as reg:
        e12._config_a(42, 1000.0)
        snap = reg.snapshot()
    completed = snap["sim.kernel.requests_completed"]["value"]
    lenet = snap["lynx.server.lynx@10.0.0.100.tx.responses"]["count"]
    memcached_window = snap["net.client.10.0.9.1.responses"]["count"]
    assert completed - lenet > memcached_window > 0
    assert snap["sim.kernel.events_per_request"]["value"] < 100


def test_tcp_closed_loop_events_pinned():
    assert [events for events, _, _ in _tcp_memcached([20000.0])] == \
        [EVENTS_TCP_CLOSED_LOOP]


def test_processes_do_not_grow_with_requests_served():
    (_, spawned_early, served_early), (_, spawned_late, served_late) = \
        _tcp_memcached([5000.0, 20000.0])
    assert served_late > served_early > 0
    assert spawned_late == spawned_early


# -- equivalence with the generator workers (reference implementations) ------

def _reference_memcached_worker(server):
    """The generator serving loop ``_WorkerOp`` replaced."""
    env = server.env
    while True:
        msg = yield server.nic.recv()
        if server.stack.handle_control(msg, server.nic):
            continue
        if msg.dst.port != server.port:
            continue
        yield from server.stack.process_rx(msg)
        result = server.store.execute(msg.payload)
        yield from server.pool.run_calibrated(
            server.op_cost_fn(msg, result) if server.op_cost_fn is not None
            else server.op_cost,
            memory_intensity=server.memory_intensity,
            working_set=server.working_set)
        response = msg.reply(result, created_at=env.now)
        if response.conn is not None:
            response.meta["tcp_seq"] = response.conn.next_seq(response.src)
        yield from server.pool.run_calibrated(server.stack.tx_cost(response),
                                              priority=-1)
        server.ops.tick()
        yield from server.nic.send(response)


def _reference_closed_loop_worker(gen, index):
    """The generator worker ``_ClosedLoopOp`` replaced."""
    conn = None
    if gen.use_tcp_connections:
        conn = yield from gen.client.connect(gen.dst)
    seq = 0
    while not gen._stopped:
        payload = gen.payload_fn(index * 1000000 + seq)
        seq += 1
        response = yield from gen.client.request(
            payload, gen.dst, proto=gen.proto, conn=conn,
            timeout=gen.timeout, retries=gen.retries,
            retry_backoff=gen.retry_backoff)
        if response is None:
            gen.timeouts += 1
        elif response.kind == "error":
            gen.errors += 1
        else:
            gen.completed += 1
        if gen.think_time > 0:
            yield gen.env.charge(gen.think_time)


def _contended_service_plane():
    """memcached sharing its cores with mixed-priority foreign work, an
    LLC working set, UDP and TCP closed loops with deadlines, retries
    and think time, and one loop stopped mid-run."""
    tb = Testbed(seed=7)
    env = tb.env
    host = tb.machine("10.0.0.1")
    pool = host.pool(count=2, name="mc")
    server = MemcachedServer(env, host.nic, pool, XEON_VMA,
                             memory_intensity=0.5, working_set=4 << 20)
    for i in range(16):
        server.store.execute(encode_set(b"k%d" % i, b"v" * 64))

    def foreign(priority):
        while True:
            yield from pool.run_calibrated(1.0, priority=priority)
            yield env.timeout(5.0)

    for priority in (1, 0, -1):
        env.process(foreign(priority))
    udp_client, tcp_client = tb.client("10.0.9.1"), tb.client("10.0.9.2")
    dst = Address("10.0.0.1", 11211)
    udp = ClosedLoopGenerator(env, udp_client, dst, 5,
                              payload_fn=lambda i: encode_get(b"k%d" % (i % 20)),
                              timeout=60.0, retries=2, think_time=2.0)
    tcp = ClosedLoopGenerator(env, tcp_client, dst, 3,
                              payload_fn=lambda i: encode_get(b"k%d" % (i % 16)),
                              proto=TCP, timeout=80.0, retries=1,
                              retry_backoff=15.0)
    env.timeout(6000.0).callbacks.append(lambda _event: udp.stop())
    env.run(until=12000.0)
    res = pool._res
    return env.events_processed, {
        "latency": [tuple(c.latency._samples) for c in (udp_client,
                                                       tcp_client)],
        "clients": [(c.sent.count, c.retries, c.timeouts)
                    for c in (udp_client, tcp_client)],
        "loops": [(g.completed, g.timeouts, g.errors) for g in (udp, tcp)],
        "ops": server.ops.count,
        "gauges": [(g._value, g._area, g._last_change, g._max)
                   for g in (res.utilization, res.queue_depth)],
    }


def test_state_machines_match_generator_workers(monkeypatch):
    events, ops = _contended_service_plane()
    monkeypatch.setattr(
        memcached_mod, "_WorkerOp",
        lambda server: server.env.process(
            _reference_memcached_worker(server)))
    monkeypatch.setattr(
        client_mod, "_ClosedLoopOp",
        lambda gen, index: gen.env.process(
            _reference_closed_loop_worker(gen, index)))
    reference_events, reference = _contended_service_plane()
    assert ops["ops"] > 0 and ops["gauges"][1][3] > 0
    assert ops == reference
    # Same model, fewer scheduler events: the state machines run their
    # zero-delay hops inline where the generators scheduled them.
    assert events < reference_events

"""memcached-style KV server."""

import pytest

from repro import Testbed
from repro.apps.memcached import (
    KeyValueStore,
    MemcachedServer,
    MISS,
    STORED,
    encode_get,
    encode_set,
)
from repro.config import XEON_VMA
from repro.errors import ConfigError
from repro.net import Address, ClosedLoopGenerator
from repro.net.packet import TCP, UDP


class TestKeyValueStore:
    def test_set_then_get(self):
        store = KeyValueStore()
        assert store.execute(encode_set(b"k", b"v")) == STORED
        assert store.execute(encode_get(b"k")) == b"v"
        assert store.hits == 1

    def test_miss(self):
        store = KeyValueStore()
        assert store.execute(encode_get(b"nope")) == MISS
        assert store.misses == 1

    def test_binary_safe_values(self):
        store = KeyValueStore()
        value = bytes(range(256))
        store.execute(encode_set(b"bin", value))
        assert store.execute(encode_get(b"bin")) == value

    def test_bad_request_rejected(self):
        with pytest.raises(ConfigError):
            KeyValueStore().execute(b"DELETE everything")

    def test_preload(self):
        store = KeyValueStore()
        store.preload([(b"a", b"1"), (b"b", b"2")])
        assert len(store) == 2


def build_server(port=11211, cores=2):
    tb = Testbed()
    host = tb.machine("10.0.0.2")
    pool = host.pool(count=cores, name="mc")
    server = MemcachedServer(tb.env, host.nic, pool, XEON_VMA, port=port)
    return tb, server


class TestMemcachedServer:
    def test_udp_get_set_roundtrip(self):
        tb, server = build_server()
        client = tb.client("10.0.1.1")
        results = []

        def run(env):
            addr = Address("10.0.0.2", 11211)
            r = yield from client.request(encode_set(b"k1", b"hello"), addr,
                                          proto=UDP)
            results.append(bytes(r.payload))
            r = yield from client.request(encode_get(b"k1"), addr, proto=UDP)
            results.append(bytes(r.payload))

        tb.env.process(run(tb.env))
        tb.run(until=10000)
        assert results == [STORED, b"hello"]

    def test_tcp_access(self):
        tb, server = build_server()
        client = tb.client("10.0.1.1")
        gen = ClosedLoopGenerator(tb.env, client, Address("10.0.0.2", 11211),
                                  concurrency=2,
                                  payload_fn=lambda i: encode_get(b"missing"),
                                  proto=TCP)
        tb.run(until=30000)
        assert gen.completed > 20
        assert server.store.misses > 20

    def test_responses_count_as_completed_requests(self):
        """Each response put on the wire bumps ``env.requests_completed``,
        where the Lynx and baseline servers count theirs, so
        events/request is honest for memcached runs too."""
        tb, server = build_server()
        ClosedLoopGenerator(tb.env, tb.client("10.0.1.1"),
                            Address("10.0.0.2", 11211), concurrency=4,
                            payload_fn=lambda i: encode_get(b"k"), proto=UDP)
        tb.run(until=2000)
        assert server.ops.count > 0
        assert tb.env.requests_completed == server.ops.count

    def test_negative_op_cost_rejected(self):
        tb = Testbed()
        host = tb.machine("10.0.0.2")
        MemcachedServer(tb.env, host.nic, host.pool(count=1, name="mc"),
                        XEON_VMA, op_cost_fn=lambda msg, result: -1.0)
        client = tb.client("10.0.1.1")
        ClosedLoopGenerator(tb.env, client, Address("10.0.0.2", 11211),
                            concurrency=1,
                            payload_fn=lambda i: encode_get(b"k"), proto=UDP)
        with pytest.raises(ConfigError):
            tb.run(until=1000)

    def test_throughput_scales_with_cores(self):
        """Fig 9's premise: memcached scales linearly with CPU cores."""
        rates = {}
        for cores in (1, 2, 4):
            tb, server = build_server(cores=cores)
            clients = [tb.client("10.0.1.%d" % i) for i in range(1, 4)]
            for c in clients:
                ClosedLoopGenerator(tb.env, c, Address("10.0.0.2", 11211),
                                    concurrency=16,
                                    payload_fn=lambda i: encode_get(b"x"),
                                    proto=UDP)
            tb.warmup_then_measure([server.ops], 5000, 30000)
            rates[cores] = server.ops.per_sec()
        assert rates[2] > rates[1] * 1.6
        assert rates[4] > rates[2] * 1.6

    def test_xeon_core_rate_matches_calibration(self):
        """Fig 9: ~250 Ktps per Xeon core."""
        tb, server = build_server(cores=1)
        clients = [tb.client("10.0.1.%d" % i) for i in range(1, 4)]
        for c in clients:
            ClosedLoopGenerator(tb.env, c, Address("10.0.0.2", 11211),
                                concurrency=16,
                                payload_fn=lambda i: encode_get(b"x"),
                                proto=UDP)
        tb.warmup_then_measure([server.ops], 5000, 30000)
        assert server.ops.per_sec() == pytest.approx(250000, rel=0.25)


class TestExtendedProtocol:
    def test_delete_existing(self):
        from repro.apps.memcached import DELETED, encode_delete

        store = KeyValueStore()
        store.execute(encode_set(b"k", b"v"))
        assert store.execute(encode_delete(b"k")) == DELETED
        assert store.execute(encode_get(b"k")) == MISS

    def test_delete_missing_counts_miss(self):
        from repro.apps.memcached import encode_delete

        store = KeyValueStore()
        assert store.execute(encode_delete(b"nope")) == MISS
        assert store.misses == 1

    def test_stats(self):
        from repro.apps.memcached import encode_stats

        store = KeyValueStore()
        store.execute(encode_set(b"a", b"1"))
        store.execute(encode_get(b"a"))
        store.execute(encode_get(b"b"))
        assert store.execute(encode_stats()) == b"items=1 hits=1 misses=1"

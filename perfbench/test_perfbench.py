"""Tests of the benchmark's own code: layer map, bucketing, metrics.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import layers
import run
import workloads

PACKAGE_DIR = os.path.join(run.ROOT, "src", "repro")


def _modules():
    for dirpath, _dirs, files in os.walk(PACKAGE_DIR):
        for name in sorted(files):
            if name.endswith(".py"):
                yield layers.module_of_file(os.path.join(dirpath, name),
                                            PACKAGE_DIR)


def test_every_module_maps_to_a_layer():
    modules = list(_modules())
    assert "repro.sim.environment" in modules
    unmapped = [m for m in modules if layers.layer_of_module(m) is None]
    assert unmapped == [], "add these modules to perfbench/layers.py"


@pytest.mark.parametrize("module, layer", [
    ("repro", "core"),
    ("repro.sim", "sim.kernel"),
    ("repro.sim.events", "sim.kernel"),
    ("repro.sim.stats", "telemetry"),
    ("repro.net.packet", "net.client"),
    ("repro.lynx.rmq", "lynx"),
    ("repro.apps.lenet.model", "apps"),
    ("repro.sim.not_mapped_yet", None),
    ("numpy.core", None),
])
def test_layer_of_module(module, layer):
    assert layers.layer_of_module(module) == layer


def test_module_of_file():
    pkg = os.path.join(os.sep, "co", "src", "repro")
    assert layers.module_of_file(os.path.join(pkg, "sim", "events.py"),
                                 pkg) == "repro.sim.events"
    assert layers.module_of_file(os.path.join(pkg, "net", "__init__.py"),
                                 pkg) == "repro.net"
    assert layers.module_of_file("~", pkg) is None
    assert layers.module_of_file(os.path.join(os.sep, "co", "src",
                                              "reprox", "a.py"), pkg) is None


def _entry(cc, tt, callers=()):
    """One stats entry; *callers* are (caller key, self time it caused)."""
    return (cc, cc, tt, tt, {key: (1, 1, spent, spent)
                             for key, spent in callers})


def test_bucket_folds_foreign_time_into_the_nearest_repro_caller():
    pkg = os.path.join(os.sep, "co", "src", "repro")
    kernel = (os.path.join(pkg, "sim", "environment.py"), 1, "run")
    worker = (os.path.join(pkg, "apps", "memcached.py"), 9, "_worker")
    new = (os.path.join(pkg, "sim", "newmodule.py"), 3, "f")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    send = ("~", 0, "<method 'send' of 'generator' objects>")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    top = ("/usr/lib/python3/threading.py", 5, "loop")
    ping = ("~", 0, "ping")
    pong = ("~", 0, "pong")
    stats = {
        kernel: _entry(2, 2.0),
        worker: _entry(7, 1.0, [(send, 1.0)]),
        new: _entry(4, 0.25, [(kernel, 0.25)]),
        # split 3:1 between the kernel and the app by time caused
        push: _entry(40, 0.8, [(kernel, 0.6), (worker, 0.2)]),
        # a builtin called only by a builtin resolves two levels up
        send: _entry(7, 0.5, [(kernel, 0.5)]),
        append: _entry(9, 0.1, [(send, 0.1)]),
        # no repro function above these: unattributed
        top: _entry(1, 0.05),
        ping: _entry(1, 0.02, [(pong, 0.02)]),
        pong: _entry(1, 0.03, [(ping, 0.03)]),
    }
    self_s, calls, total = layers.bucket(stats, pkg)
    assert total == pytest.approx(4.75)
    assert self_s["sim.kernel"] == pytest.approx(2.0 + 0.6 + 0.5 + 0.1)
    assert self_s["apps"] == pytest.approx(1.0 + 0.2)
    assert self_s[layers.OTHER] == pytest.approx(0.25 + 0.05 + 0.02 + 0.03)
    assert sum(self_s.values()) == pytest.approx(total)
    assert calls["sim.kernel"] == 2
    assert calls["apps"] == 7
    assert sum(calls.values()) == 9
    assert set(self_s) == set(layers.LAYERS) | {layers.OTHER}


_SNAPSHOT = {
    "sim.kernel.events_processed": {"kind": "counter", "value": 900},
    "net.client.10.0.9.1.responses": {"kind": "rate", "count": 200,
                                      "elapsed": 1.0},
    "net.population.10.0.9.2.responses": {"kind": "rate", "count": 100,
                                          "elapsed": 1.0},
    "net.wire.10.0.0.1.drops": {"kind": "counter", "value": 2},
    "net.fabric.tor0.up.drops": {"kind": "counter", "value": 3},
    "net.fabric.dropped_no_route": {"kind": "counter", "value": 50},
    "mqueue.q0.dropped": {"kind": "counter", "value": 4},
    "mqueue.q0.depth": {"kind": "peak", "value": 7},
    "mqueue.q1.depth": {"kind": "peak", "value": 5},
    "hw.cpu.a.runq_depth": {"kind": "gauge", "area": 30.0, "elapsed": 10.0,
                            "max": 4},
    "hw.cpu.b.runq_depth": {"kind": "gauge", "area": 10.0, "elapsed": 10.0,
                            "max": 2},
    "faults.injected.loss": {"kind": "counter", "value": 2},
    "faults.injected.by_kind": {"kind": "labelled",
                                "values": {"a": 1, "b": 4}},
}


def test_sim_counts_from_a_snapshot():
    counts = workloads.sim_counts(_SNAPSHOT)
    assert counts["sim.kernel.events_per_req"] == 3.0
    assert counts["sim.channel.drops"] == 9
    assert counts["lynx.mqueue.depth_peak"] == 7
    assert counts["hw.cpu.runq_depth"] == 2.0
    assert counts["hw.cpu.utilization"] == 0.0
    assert counts["faults.injected"] == 7
    assert counts["net.client.timeouts"] == 0


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    timed = {"calls": [{"wall_s": 2.0}], "peak_rss_mb": 50.0}
    names = layers.LAYERS + (layers.OTHER,)
    traced = {
        "calls": [{"wall_s": 7.0,
                   "counts": workloads.sim_counts(_SNAPSHOT)}],
        "profile": {"self_s": dict.fromkeys(names, 0.5),
                    "calls": dict.fromkeys(layers.LAYERS, 3),
                    "total_s": 10.0},
    }
    for printed, declared in (
            (run.end_to_end(timed, [0.3, 0.4, 0.5]), spec["end_to_end"]),
            (run.per_layer(timed, traced), spec["per_layer"])):
        assert {name: m["unit"] for name, m in printed.items()} == \
            {m["name"]: m["unit"] for m in declared}

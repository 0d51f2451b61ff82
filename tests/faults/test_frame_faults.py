"""Faults landing mid-frame on the inline-hop chain (DESIGN.md §4.6 x §4.10).

A *frame* here is a burst of back-to-back deliveries through the Lynx
data plane.  Zero-delay hops — uncontended grants, op starts, routing —
now run in the step that causes them instead of as events of their own
(the job the retired frame execution did in a mode of its own).  A fault
window landing inside such a burst must *split or hold* it, never
reorder it: an RX-ring stall installs a ``_land`` instance shadow, so
deliveries hold in the stall buffer; a SmartNIC pause seizes the worker
cores, so inline grants park behind the seizure.

Each row below was recorded on the deferred-hop event chain (every
zero-delay hop its own scheduler event), which is the row contract: the
inline chain must reproduce it bit for bit, and must do so with strictly
fewer scheduler events than that chain took (the recorded
``deferred_events``) — the hops really ran inline.
"""

from repro import telemetry
from repro.apps.base import SpinApp
from repro.experiments.common import LYNX_BLUEFIELD, deploy
from repro.faults import FaultInjector, FaultSchedule, RxRingStall, SnicPause
from repro.net import ClosedLoopGenerator
from repro.net.packet import UDP

SERVER_IP = "10.0.0.100"


def _run(specs):
    """One faulted deployment at a fixed seed; returns (row, events)."""
    with telemetry.scope():
        dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0), n_mqueues=2,
                     proto=UDP, seed=42)
        injector = FaultInjector(FaultSchedule(specs)).arm(dep)
        client = dep.tb.client("10.0.9.1")
        gen = ClosedLoopGenerator(
            dep.env, client, dep.address, 8,
            payload_fn=lambda i: b"ping", proto=UDP, timeout=1500.0)
        dep.env.run(until=12000)
        row = {
            "completed": gen.completed,
            "errors": gen.errors,
            "timeouts": gen.timeouts,
            "latency_count": client.latency.count,
            "p50": client.latency.p50(),
            "p99": client.latency.p99(),
            "served": dep.server.responses.count,
            "requests_completed": dep.env.requests_completed,
            "injected": injector.counts("injected"),
            "dropped": injector.counts("dropped"),
            "recovered": injector.counts("recovered"),
        }
        return row, dep.env.events_processed


def _matches_deferred_chain(specs, expected, deferred_events):
    row, events = _run(specs)
    assert row == expected
    assert events < deferred_events
    return row


def _row(completed, timeouts, served, p99, injected, dropped, recovered):
    return {
        "completed": completed, "errors": 0, "timeouts": timeouts,
        "latency_count": served, "p50": 86.80000000000291, "p99": p99,
        "served": served, "requests_completed": served,
        "injected": injected, "dropped": dropped, "recovered": recovered,
    }


class TestRxRingStallMidFrame:
    def test_rows_identical_and_frames_held(self):
        row = _matches_deferred_chain(
            [RxRingStall(SERVER_IP, start=3000, duration=1500,
                         buffer_limit=64),
             RxRingStall(SERVER_IP, start=7000, duration=800,
                         buffer_limit=64)],
            _row(894, 8, 902, 842.7999999999156, {"rx_stall": 2}, {},
                 {"rx_stall": 16}),
            deferred_events=39222)
        # Both windows fired and released their held frames.
        assert row["injected"].get("rx_stall") == 2
        assert row["recovered"].get("rx_stall", 0) > 0
        assert row["completed"] > 0

    def test_overflowing_stall_drops_like_scalar(self):
        row = _matches_deferred_chain(
            [RxRingStall(SERVER_IP, start=3000, duration=2000,
                         buffer_limit=2)],
            _row(830, 16, 832, 86.80000000000564, {"rx_stall": 1},
                 {"rx_stall": 14}, {"rx_stall": 2}),
            deferred_events=36265)
        assert row["dropped"].get("rx_stall", 0) > 0


class TestSnicPauseMidFrame:
    def test_rows_identical_across_pause(self):
        row = _matches_deferred_chain(
            [SnicPause(start=3000, duration=1200),
             SnicPause(start=8000, duration=600)],
            _row(948, 0, 948, 665.0173958786621, {"snic_pause": 2}, {},
                 {"snic_pause": 2}),
            deferred_events=41191)
        assert row["injected"].get("snic_pause") == 2
        assert row["recovered"].get("snic_pause") == 2
        assert row["completed"] > 0

    def test_pause_and_stall_interleaved(self):
        # Both fault families active at once: the pool seizure parks
        # inline grants and the _land shadow holds deliveries, without
        # either perturbing the other's rows.
        row = _matches_deferred_chain(
            [SnicPause(start=2500, duration=1000),
             RxRingStall(SERVER_IP, start=3000, duration=1500,
                         buffer_limit=64)],
            _row(926, 0, 926, 1053.0901545454576,
                 {"snic_pause": 1, "rx_stall": 1}, {},
                 {"snic_pause": 1, "rx_stall": 8}),
            deferred_events=40299)
        assert row["injected"].get("snic_pause") == 1
        assert row["injected"].get("rx_stall") == 1
        assert row["completed"] > 0

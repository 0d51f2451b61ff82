"""Frame execution under faults (DESIGN.md §4.14 x §4.10).

A fault window landing mid-frame must *split or hold* the frame, never
reorder it: an RX-ring stall installs a ``_land`` instance shadow (so
``ring_plain`` fails and deliveries hold in the stall buffer), and a
SmartNIC pause seizes the worker cores (its seizure parks behind any
turbo-held slot and is granted by the coalesced step's ``unseize``
waiter loop).  Either way every simulated observable must be
bit-identical to the scalar oracle, with only the kernel's event
counters allowed to differ (fewer events is the point of frame
execution).
"""

import os

import pytest

from repro import telemetry
from repro.apps.base import SpinApp
from repro.experiments.common import LYNX_BLUEFIELD, deploy
from repro.faults import FaultInjector, FaultSchedule, RxRingStall, SnicPause
from repro.net import ClosedLoopGenerator
from repro.net.packet import UDP

SERVER_IP = "10.0.0.100"


def _run(frame, specs):
    """One faulted deployment at a fixed seed; returns (row, events)."""
    os.environ["REPRO_FRAME_EXEC"] = "1" if frame else "0"
    try:
        with telemetry.scope():
            dep = deploy(LYNX_BLUEFIELD, app=SpinApp(20.0), n_mqueues=2,
                         proto=UDP, seed=42)
            injector = FaultInjector(FaultSchedule(specs())).arm(dep)
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
    finally:
        os.environ.pop("REPRO_FRAME_EXEC", None)


def _scalar_vs_frame(specs):
    """Scalar oracle vs frame execution; rows must agree."""
    ref, ref_events = _run(False, specs)
    row, events = _run(True, specs)
    assert row == ref
    # The frames actually engaged: fewer scheduler events for the same
    # simulated history.
    assert events < ref_events
    return ref


class TestRxRingStallMidFrame:
    def test_rows_identical_and_frames_held(self):
        row = _scalar_vs_frame(lambda: [
            RxRingStall(SERVER_IP, start=3000, duration=1500,
                        buffer_limit=64),
            RxRingStall(SERVER_IP, start=7000, duration=800,
                        buffer_limit=64),
        ])
        # Both windows fired and released their held frames.
        assert row["injected"].get("rx_stall") == 2
        assert row["recovered"].get("rx_stall", 0) > 0
        assert row["completed"] > 0

    def test_overflowing_stall_drops_like_scalar(self):
        row = _scalar_vs_frame(lambda: [
            RxRingStall(SERVER_IP, start=3000, duration=2000,
                        buffer_limit=2),
        ])
        assert row["dropped"].get("rx_stall", 0) > 0


class TestSnicPauseMidFrame:
    def test_rows_identical_across_pause(self):
        row = _scalar_vs_frame(lambda: [
            SnicPause(start=3000, duration=1200),
            SnicPause(start=8000, duration=600),
        ])
        assert row["injected"].get("snic_pause") == 2
        assert row["recovered"].get("snic_pause") == 2
        assert row["completed"] > 0

    def test_pause_and_stall_interleaved(self):
        # Both fault families active at once: the pool seizure and the
        # _land shadow each force their own frame fallbacks without
        # perturbing the other's bit-identity.
        row = _scalar_vs_frame(lambda: [
            SnicPause(start=2500, duration=1000),
            RxRingStall(SERVER_IP, start=3000, duration=1500,
                        buffer_limit=64),
        ])
        assert row["injected"].get("snic_pause") == 1
        assert row["injected"].get("rx_stall") == 1
        assert row["completed"] > 0

"""Event-count oracle for the Lynx data plane and the host-centric
baseline.

The Lynx ingress/egress ops, the Remote MQ Manager's delivery and
poller ops and the host-centric ingress op take their grants through
``Resource.acquire``/``free`` and run their calibrated legs through
``CorePool.run_calibrated_then`` (DESIGN.md §4.6).  The served rates
below were recorded from the ``request()``-based ops and must never
move.  The processed-event counts were re-recorded when zero-delay hops
(uncontended grants, op starts, routing) began running inside the step
that causes them; any later drift in an op's event consumption moves
them.
"""

from dataclasses import replace

import pytest

from repro import telemetry
from repro.apps.base import SpinApp
from repro.config import DEFAULT_CONFIG
from repro.experiments import e04_fig6_throughput_grid as e04
from repro.experiments.common import (
    HOST_CENTRIC,
    LYNX_BLUEFIELD,
    LYNX_XEON_6,
    deploy,
    measure_saturation,
)
from repro.net import OpenLoopGenerator
from repro.sim import resources


def _deploy(design, exec_us, n_mq, **lynx):
    config = DEFAULT_CONFIG.with_(
        seed=42, lynx=replace(DEFAULT_CONFIG.lynx, **lynx))
    return deploy(design, app=SpinApp(exec_us), n_mqueues=n_mq, seed=42,
                  config=config)


def _saturate(design, exec_us, n_mq, warmup, measure, **lynx):
    """One E04 grid point; returns (events processed, served rate)."""
    with telemetry.scope() as reg:
        dep = _deploy(design, exec_us, n_mq, **lynx)
        rate = measure_saturation(dep, e04._payload,
                                  e04._offered_rate(design, exec_us, n_mq),
                                  warmup=warmup, measure=measure)
        events = reg.snapshot()["sim.kernel.events_processed"]["value"]
    return events, rate


@pytest.mark.parametrize("design, exec_us, n_mq, measure, lynx, pinned", [
    pytest.param(LYNX_XEON_6, 20.0, 240, 3000.0, {},
                 (181465, 1659666.6666666665), id="lynx-xeon-6core-20us-240mq"),
    pytest.param(LYNX_BLUEFIELD, 20.0, 240, 3000.0,
                 dict(batch_size=8, poll_batch=4),
                 (54000, 462333.3333333334), id="lynx-bluefield-batched"),
    pytest.param(LYNX_XEON_6, 20.0, 8, 10000.0, dict(backpressure=True),
                 (126847, 377500.0), id="lynx-xeon-6core-backpressure"),
    pytest.param(HOST_CENTRIC, 20.0, 1, 10000.0, {},
                 (12179, 17800.0), id="host-centric-20us"),
])
def test_events_processed_pinned(design, exec_us, n_mq, measure, lynx, pinned):
    assert _saturate(design, exec_us, n_mq, 2000.0, measure, **lynx) == pinned


def test_backpressure_point_parks_deliveries():
    """The backpressure oracle point really exercises credit parking."""
    with telemetry.scope() as reg:
        dep = _deploy(LYNX_XEON_6, 20.0, 8, backpressure=True)
        measure_saturation(dep, e04._payload,
                           e04._offered_rate(LYNX_XEON_6, 20.0, 8),
                           warmup=2000.0, measure=2000.0)
        snap = reg.snapshot()
    assert sum(v["value"] for k, v in snap.items()
               if k.endswith(".backpressure_waits")) > 0


@pytest.mark.parametrize("design, lynx", [
    pytest.param(LYNX_XEON_6, {}, id="lynx-xeon-6core"),
    pytest.param(LYNX_BLUEFIELD, dict(batch_size=8, backpressure=True),
                 id="lynx-bluefield-batched-backpressure"),
])
def test_saturated_lynx_plane_constructs_no_requests(monkeypatch, design,
                                                     lynx):
    """Every data-plane grant is allocation-free: once the service has
    booted, serving more traffic builds no further ``Request``.  Only
    the threadblocks' boot-time SM-slot claims allocate one."""
    created = []
    init = resources.Request.__init__

    def counting_init(self, resource, priority=0):
        created.append(resource)
        init(self, resource, priority)

    monkeypatch.setattr(resources.Request, "__init__", counting_init)
    dep = _deploy(design, 20.0, 240, **lynx)
    offered = e04._offered_rate(design, 20.0, 240)
    for i in range(2):
        OpenLoopGenerator(dep.env, dep.tb.client("10.0.9.%d" % (i + 1)),
                          dep.address, offered / 2 / 1e6, e04._payload)
    served = []
    for horizon in (2000.0, 4000.0):
        dep.env.run(until=horizon)
        served.append((dep.server.responses.count, len(created)))
    (served_early, made_early), (served_late, made_late) = served
    assert served_late > served_early > 0
    assert made_late == made_early
    assert made_early > 0
    assert {res.name for res in created} == {dep.gpu.sm_slots.name}

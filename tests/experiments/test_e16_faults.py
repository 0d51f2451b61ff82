"""E16: fault-schedule sweep shape, escalation, and jobs-N determinism."""

import json

import pytest

from repro import telemetry
from repro.experiments import e16_faults
from repro.experiments.common import HOST_CENTRIC, LYNX_BLUEFIELD


@pytest.fixture(scope="module")
def result():
    return e16_faults.run(fast=True, seed=42, jobs=1)


class TestShape:
    def test_one_row_per_design_and_level(self, result):
        assert len(result.rows) == 2 * len(e16_faults.LEVELS)
        for design in (HOST_CENTRIC, LYNX_BLUEFIELD):
            for level in e16_faults.LEVELS:
                assert result.find(design=design, level=level)

    def test_control_rows_are_fault_free(self, result):
        for design in (HOST_CENTRIC, LYNX_BLUEFIELD):
            row = result.find(design=design, level="none")
            assert row["injected"] == 0
            assert row["retries"] == 0
            assert row["errors"] == 0

    def test_faulted_rows_inject_and_degrade(self, result):
        for design in (HOST_CENTRIC, LYNX_BLUEFIELD):
            clean = result.find(design=design, level="none")
            worst = result.find(design=design,
                                level="loss+stall+outage")
            assert worst["injected"] > 0
            assert worst["retries"] > 0
            assert worst["goodput_krps"] < clean["goodput_krps"]
            assert worst["p99_us"] > clean["p99_us"]

    def test_lynx_sheds_during_outage(self, result):
        row = result.find(design=LYNX_BLUEFIELD, level="loss+stall+outage")
        assert row["shed"] > 0
        assert row["recovered"] > 0
        # The host-centric baseline has no shed path: it queues.
        hc = result.find(design=HOST_CENTRIC, level="loss+stall+outage")
        assert hc["shed"] == 0


class TestDeterminism:
    def test_jobs_1_and_4_rows_bit_identical(self, result):
        # The E16 acceptance bar: the fault pattern, retry jitter, and
        # every counter reproduce exactly under the parallel executor.
        parallel = e16_faults.run(fast=True, seed=42, jobs=4)
        assert json.dumps(result.rows) == json.dumps(parallel.rows)

    def test_different_seed_different_fault_pattern(self, result):
        other = e16_faults.run(fast=True, seed=43, jobs=1)
        assert json.dumps(other.rows) != json.dumps(result.rows)


class TestClientTimeoutTelemetry:
    def test_scalar_client_timeouts_reach_telemetry(self):
        # Regression: attempt deadlines expiring in Client.request and
        # the closed-loop workers were never registered, so
        # net.client.<ip>.timeouts read 0 under a lossy schedule.
        snaps = []
        for jobs in (1, 4):
            with telemetry.scope() as reg:
                e16_faults.run(fast=True, seed=42, jobs=jobs)
                snaps.append({
                    name: inst for name, inst in reg.snapshot().items()
                    if name.startswith("net.client.")
                    and name.endswith(".timeouts")})
        assert snaps[0] == snaps[1]
        assert sum(inst["value"] for inst in snaps[0].values()) > 0

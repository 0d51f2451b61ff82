"""Sweep-executor golden identity (DESIGN.md §4.8).

The simulator has one scheduler and one execution mode, but two ways to
run a sweep — serially in-process and across a worker pool.  The choice
is only allowed because it is observably identical: same result rows,
same merged model telemetry, same CLI output.  These tests pin that
contract on real experiment workloads (E09 end-to-end; a reduced E04
grid through the sweep executor; E01 through the CLI).
"""

import pytest

from repro import telemetry
from repro.experiments import e04_fig6_throughput_grid as e04
from repro.experiments import e09_fig8a_lenet as e09
from repro.experiments.__main__ import main
from repro.experiments.sweep import Point, run_points


#: merged-metrics keys that measure the host rather than the model;
#: everything else — kernel event counts included — must match exactly.
#: The charge pool and heap peak are per-process: a worker starts cold.
_HOST_KEYS = frozenset((
    "sim.kernel.wall_seconds",
    "sim.kernel.heap_peak",
    "sim.kernel.charges_created",
    "sim.kernel.charges_reused",
))


def _model_metrics(snapshot):
    return {k: v for k, v in snapshot.items()
            if k not in _HOST_KEYS and "wall" not in k}


def _mini_grid():
    """Four cheap E04 points spanning three designs and the interesting
    paths (doorbells, RMQ rings, RDMA, PCIe)."""
    spec = [("host-centric", 20.0, 1), ("lynx-bluefield", 20.0, 1),
            ("lynx-bluefield", 20.0, 8), ("lynx-xeon-6core", 200.0, 4)]
    return [Point(("E04-mini", design, exec_us, n_mq), e04.measure_design,
                  dict(design=design, exec_us=exec_us, n_mq=n_mq,
                       measure=2000.0, warmup=500.0),
                  root_seed=42)
            for design, exec_us, n_mq in spec]


@pytest.fixture(scope="module")
def serial_grid():
    """Reference rates + merged model metrics for the mini grid, run
    serially in-process."""
    with telemetry.scope() as reg:
        rates = run_points(_mini_grid(), jobs=1)
        snap = reg.snapshot()
    return rates, _model_metrics(snap)


class TestExperimentRows:
    def test_e09_rows_identical(self):
        """Serial in-process and worker-pool sweeps give E09's rows."""
        serial = e09.run(fast=True, seed=42, jobs=1).rows
        pooled = e09.run(fast=True, seed=42, jobs=2).rows
        assert serial == pooled

    def test_e09_rows_identical_scalar_vs_frame_both_backends(
            self, monkeypatch):
        """The retired ``REPRO_FRAME_EXEC`` switch is inert: E09's rows
        are the same with it unset, off or on, serially and pooled."""
        monkeypatch.delenv("REPRO_FRAME_EXEC", raising=False)
        reference = e09.run(fast=True, seed=42, jobs=1).rows
        for jobs in (1, 2):
            for frame in ("0", "1"):
                monkeypatch.setenv("REPRO_FRAME_EXEC", frame)
                got = e09.run(fast=True, seed=42, jobs=jobs).rows
                assert got == reference, (jobs, frame)


class TestSweepGrid:
    def test_serial_rates_and_metrics_identical(self, serial_grid):
        serial_rates, serial_metrics = serial_grid
        with telemetry.scope() as reg:
            pooled_rates = run_points(_mini_grid(), jobs=2)
            pooled_metrics = _model_metrics(reg.snapshot())
        assert pooled_rates == serial_rates
        assert pooled_metrics == serial_metrics


class TestCliBackendFlag:
    def test_same_rows_printed_either_backend(self, capsys):
        assert main(["E01"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["E01", "--jobs", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert "[E01]" in serial_out
        assert serial_out == pooled_out

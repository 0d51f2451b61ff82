"""Execution-backend golden identity (DESIGN.md §4.14).

The simulator has one scheduler, but two ways to execute a chain of
model steps — the scalar event chain and coalesced frame execution —
and two ways to run a sweep — serially in-process and across a worker
pool.  Either choice is only allowed because it is observably
identical: same result rows, same merged model telemetry, same CLI
output.  These tests pin that contract on real experiment workloads
(E09 end-to-end; a reduced E04 grid through the sweep executor; E01
through the CLI).
"""

import pytest

from repro import telemetry
from repro.experiments import e04_fig6_throughput_grid as e04
from repro.experiments import e09_fig8a_lenet as e09
from repro.experiments.__main__ import main
from repro.experiments.sweep import Point, run_points


#: merged-metrics keys that measure the host or the scheduler's own
#: internals rather than the model; everything else must match exactly.
#: ``events_processed``/``events_per_request`` are kernel internals too:
#: frame execution coalesces scheduler events by design while leaving
#: every model observable — including ``requests_completed`` —
#: bit-identical.
_HOST_KEYS = frozenset((
    "sim.kernel.wall_seconds",
    "sim.kernel.heap_peak",
    "sim.kernel.charges_created",
    "sim.kernel.charges_reused",
    "sim.kernel.events_processed",
    "sim.kernel.events_per_request",
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
def scalar_grid():
    """Reference rates + merged model metrics for the mini grid, run
    serially on the scalar chain."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_FRAME_EXEC", "0")
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
        """Frame execution coalesces scheduler events only: E09's rows
        are the scalar chain's with it on, serially and pooled."""
        rows = {}
        for jobs in (1, 2):
            for frame in ("0", "1"):
                monkeypatch.setenv("REPRO_FRAME_EXEC", frame)
                rows[(jobs, frame)] = e09.run(fast=True, seed=42,
                                              jobs=jobs).rows
        reference = rows[(1, "0")]
        for key, got in rows.items():
            assert got == reference, key


class TestSweepGrid:
    def test_serial_rates_and_metrics_identical(self, scalar_grid,
                                                monkeypatch):
        scalar_rates, scalar_metrics = scalar_grid
        monkeypatch.setenv("REPRO_FRAME_EXEC", "1")
        with telemetry.scope() as reg:
            frame_rates = run_points(_mini_grid(), jobs=1)
            frame_metrics = _model_metrics(reg.snapshot())
        assert frame_rates == scalar_rates
        assert frame_metrics == scalar_metrics


class TestCliBackendFlag:
    def test_same_rows_printed_either_backend(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FRAME_EXEC", "0")
        assert main(["E01"]) == 0
        scalar_out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_FRAME_EXEC", "1")
        assert main(["E01"]) == 0
        frame_out = capsys.readouterr().out
        assert "[E01]" in scalar_out
        assert scalar_out == frame_out

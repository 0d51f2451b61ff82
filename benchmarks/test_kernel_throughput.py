"""Simulator-throughput benchmarks for the DES kernel fast path.

Four measurements, written to ``benchmarks/results/kernel_throughput.json``:

* **kernel churn** — a pure event ping-pong through the run loop
  (pooled charges, no model code), reported as events/second from the
  kernel's own counters and gated against its recorded floor;
* **frame churn** — the frame-execution workload (DESIGN.md §4.14): a
  synthetic data-plane op running a multi-stage grant+charge chain per
  message, interleaved scalar/frame pairs, gated on the
  frame:scalar message-rate ratio (>= 3x, machine-independent);
* **E09 / E04 fast runs** — wall-clock of the two experiment runs the
  fast-path work targeted (LeNet serving and the Fig 6 saturation
  grid), compared against the pre-optimisation baseline.

The baseline numbers were measured on the development machine from the
pre-PR tree (git 244c300), back-to-back with the optimised runs on an
idle machine.  To compare fairly on other hardware, a short
pure-python calibration loop scales the baseline by the speed ratio
between this machine and the one the baseline was recorded on.
Wall-clock assertions keep a noise margin; the JSON records the raw
numbers.
"""

import json
import os
import time

import pytest

from repro.sim import Environment, Resource, batchexec

from conftest import RESULTS_DIR, SEED

#: pre-PR (git 244c300) fast-run wall-clock, idle dev machine, seed 42.
#: E09 is best-of-3; E04 is a single run (it takes ~45 s).
BASELINE_E09_SECONDS = 1.224
BASELINE_E04_SECONDS = 44.617

#: best-of-3 of :func:`_calibration_loop` on the machine the baselines
#: were recorded on.
BASELINE_CALIBRATION_SECONDS = 0.1944

#: post-optimisation dev-machine churn rate was ~1.07M events/s; the
#: floor asserts half of that, machine-scaled.
DEV_CHURN_EVENTS_PER_SEC = 1.07e6

#: minimum frame:scalar message-rate ratio on the frame-execution
#: workload (ISSUE 9 acceptance: >= 3.0x, machine-independent — both
#: sides of each interleaved pair run back to back).
FRAME_RATIO_FLOOR = 3.0

RESULTS_PATH = os.path.join(RESULTS_DIR, "kernel_throughput.json")


def _calibration_loop(iterations=5_000_000):
    """A pure-python spin whose duration tracks interpreter speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return time.perf_counter() - t0


def _machine_speed_factor():
    """How much slower this machine is than the baseline machine.

    > 1.0 means slower (baselines are scaled up), < 1.0 means faster.
    """
    calib = min(_calibration_loop() for _ in range(3))
    return calib / BASELINE_CALIBRATION_SECONDS, calib


def _save(section, payload):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    data = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as fh:
            data = json.load(fh)
    data[section] = payload
    with open(RESULTS_PATH, "w") as fh:
        json.dump(data, fh, indent=2)


def _churn(env, chains=64, horizon=20000.0):
    """Pure kernel load: *chains* concurrent unit-charge ping-pongs."""

    def hop(event, env=env):
        if env.now < horizon:
            env.charge(1.0).callbacks.append(hop)

    for _ in range(chains):
        env.charge(1.0).callbacks.append(hop)
    env.run(until=horizon)
    return env.kernel_stats()


#: per-stage durations of the synthetic frame pipeline (span = 1.0us)
FRAME_STAGES = (0.4, 0.3, 0.3)
FRAME_MESSAGES = 20000


class _FramePipelineOp:
    """A synthetic data-plane op: each message runs a grant+charge
    chain over :data:`FRAME_STAGES` on a serialized pool — six
    scheduler events on the scalar oracle.  Under frame execution the
    whole span coalesces into ONE completion event at the exact scalar
    timestamp (``span_times`` + ``defer_at``), burning the other five
    sequence numbers — the same turbo-step shape the real planes use.
    """

    __slots__ = ("env", "res", "left", "stage", "request")

    def __init__(self, env, res, messages):
        self.env = env
        self.res = res
        self.left = messages
        self.stage = 0
        self.request = None
        env._kick(self._next)

    def _next(self, _event):
        if self.left <= 0:
            return
        env = self.env
        res = self.res
        if env.frame_exec:
            times = batchexec.span_times(env.now, FRAME_STAGES)
            if (batchexec.pool_ready(res)
                    and batchexec.clear_span(env, times[-1])):
                batchexec.seize(res)
                batchexec.burn(env, 2 * len(FRAME_STAGES) - 1)
                env.defer_at(times[-1], self._turbo_done)
                return
        self.stage = 0
        self._request()

    def _turbo_done(self, _event):
        batchexec.unseize(self.res)
        self.left -= 1
        self.env.requests_completed += 1
        self._next(_event)

    def _request(self):
        req = self.res.request(0)
        self.request = req
        req.callbacks.append(self._granted)

    def _granted(self, _event):
        self.env.charge(FRAME_STAGES[self.stage]).callbacks.append(
            self._charged)

    def _charged(self, _event):
        self.request.release()
        self.request = None
        self.stage += 1
        if self.stage < len(FRAME_STAGES):
            self._request()
        else:
            self.left -= 1
            self.env.requests_completed += 1
            self._next(_event)


def _frame_churn(env, frame, messages=FRAME_MESSAGES):
    """Drain *messages* through the synthetic pipeline; kernel stats."""
    env.frame_exec = frame
    res = Resource(env, 1, name="frame-bench")
    _FramePipelineOp(env, res, messages)
    env.run()
    return env.kernel_stats()


def _churn_section(stats, factor, calib, floor):
    rate = stats["events_processed"] / stats["wall_seconds"]
    return rate, {
        "events_processed": stats["events_processed"],
        "wall_seconds": round(stats["wall_seconds"], 4),
        "events_per_second": round(rate),
        "heap_peak": stats["heap_peak"],
        "processes_spawned": stats["processes_spawned"],
        "machine_speed_factor": round(factor, 3),
        "calibration_seconds": round(calib, 4),
        "floor_events_per_second": round(floor),
    }


class TestKernelChurn:
    def test_event_churn_rate(self, benchmark):
        stats = benchmark.pedantic(lambda: _churn(Environment()),
                                   rounds=3, iterations=1)
        factor, calib = _machine_speed_factor()
        floor = 0.5 * DEV_CHURN_EVENTS_PER_SEC / factor
        rate, payload = _churn_section(stats, factor, calib, floor)
        _save("kernel_churn", payload)
        # The churn path spawns no processes and keeps the heap small:
        # both are the point of the pooled fast path.
        assert stats["processes_spawned"] == 0
        assert rate >= floor, (
            "churn %.0f ev/s below machine-scaled floor %.0f"
            % (rate, floor))

    def test_frame_execution_ratio(self):
        """Interleaved scalar/frame pairs; the gate is the best
        per-pair message-rate ratio, which cancels machine-speed drift
        — both sides of a pair run within the same scheduling minute."""
        pairs = []
        for _ in range(5):
            scalar = _frame_churn(Environment(), frame=False)
            framed = _frame_churn(Environment(), frame=True)
            # Same simulated history either way: every message, and
            # the same virtual span; only scheduler events collapse.
            assert scalar["requests_completed"] == FRAME_MESSAGES
            assert framed["requests_completed"] == FRAME_MESSAGES
            assert framed["events_processed"] < scalar["events_processed"]
            scalar_rate = FRAME_MESSAGES / scalar["wall_seconds"]
            framed_rate = FRAME_MESSAGES / framed["wall_seconds"]
            pairs.append((framed_rate / scalar_rate, scalar, framed))
        pairs.sort(key=lambda p: p[0])
        best_ratio, scalar, framed = pairs[-1]
        _save("kernel_churn_frames", {
            "messages": FRAME_MESSAGES,
            "scalar_events_per_request": scalar["events_per_request"],
            "frame_events_per_request": framed["events_per_request"],
            "scalar_messages_per_second": round(
                FRAME_MESSAGES / scalar["wall_seconds"]),
            "frame_messages_per_second": round(
                FRAME_MESSAGES / framed["wall_seconds"]),
            "best_ratio": round(best_ratio, 2),
            "median_ratio": round(pairs[len(pairs) // 2][0], 2),
            "rounds": len(pairs),
            "ratio_floor": FRAME_RATIO_FLOOR,
        })
        assert best_ratio >= FRAME_RATIO_FLOOR, (
            "frame churn: frame execution only %.2fx the scalar chain "
            "(floor %.1fx)" % (best_ratio, FRAME_RATIO_FLOOR))


def _timed_run(module, rounds):
    from importlib import import_module

    mod = import_module("repro.experiments." + module)
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        mod.run(fast=True, seed=SEED)
        best = min(best, time.perf_counter() - t0)
    return best


def _paired_speedup(module, baseline, rounds):
    """Best speedup over *rounds*, each paired with its own calibration.

    Machine speed on shared VMs drifts by tens of percent over minutes,
    so a factor measured once up front can be stale by the time a long
    run finishes.  Calibrating immediately before each round and taking
    the best (factor-scaled) round keeps the gate about the *code*, not
    about which minute the suite happened to run in.
    """
    from importlib import import_module

    mod = import_module("repro.experiments." + module)
    best = None
    for _ in range(rounds):
        calib = min(_calibration_loop() for _ in range(2))
        factor = calib / BASELINE_CALIBRATION_SECONDS
        t0 = time.perf_counter()
        mod.run(fast=True, seed=SEED)
        measured = time.perf_counter() - t0
        speedup = baseline * factor / measured
        if best is None or speedup > best["speedup"]:
            best = {
                "machine_speed_factor": round(factor, 3),
                "calibration_seconds": round(calib, 4),
                "scaled_baseline_seconds": round(baseline * factor, 3),
                "measured_seconds": round(measured, 3),
                "speedup": round(speedup, 2),
            }
    return best


#: The dev-machine speedups were 2.16x (E09) and 2.01x (E04); the
#: asserted floors keep headroom below them because the calibration
#: loop (a pure-python spin) cannot fully track machine state for the
#: memory-bound experiment runs — interleaved A/B runs of the same
#: tree swing by several percent on a busy host.  Measured on an
#: *unmodified* baseline checkout, single E04 rounds range
#: 1.73x-1.93x and E09 gate runs range 1.66x-2.0x across a few
#: minutes of drift (the same checkout fails a 1.9 floor in one
#: minute and clears it the next; the low end lands when a CPU-turbo
#: phase speeds the calibration spin more than the memory-bound sim),
#: so each floor sits below the slow end of its band with margin —
#: losing the PR-6 win would read ~1.0-1.2, far below either floor —
#: and the paired rounds keep the best-of from sampling only a slow
#: phase.  The floor is the regression gate; the recorded JSON
#: carries the actual measured speedup.
@pytest.mark.parametrize("module,baseline,rounds,floor", [
    ("e09_fig8a_lenet", BASELINE_E09_SECONDS, 4, 1.6),
    ("e04_fig6_throughput_grid", BASELINE_E04_SECONDS, 3, 1.6),
])
def test_experiment_speedup(module, baseline, rounds, floor):
    """Fast-run wall-clock vs the recorded pre-PR baseline."""
    best = _paired_speedup(module, baseline, rounds)
    payload = {"baseline_seconds": baseline, "baseline_commit": "244c300"}
    payload.update(best)
    _save(module, payload)
    assert best["speedup"] >= floor, (
        "%s: %.2fx speedup below %.1fx floor "
        "(measured %.3fs vs scaled baseline %.3fs)"
        % (module, best["speedup"], floor, best["measured_seconds"],
           best["scaled_baseline_seconds"]))

"""End-to-end benchmark: host time of the simulator on real experiments.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload e12-memcached-colo --seed 42 \\
        --seconds 30 --trace 0

Each workload is one experiment's public ``run(fast=True, seed=SEED)``
with the default program: heap scheduler, scalar execution, one
process.  ``--trace 0`` prints the end-to-end metrics: ``run_s`` (the
median host time of the untraced calls that fit in ``--seconds``, at
least one), ``setup_s`` (median of five fresh interpreters' time to
import ``repro`` and the experiment) and ``peak_rss_mb``.  ``--trace 1``
runs one untraced call and, in a separate process at the same time, one
call under cProfile, and prints the per-layer metrics: self time, share
and calls per layer (``layers.py``), the simulated counts read from
telemetry (``workloads.py``), host microseconds per simulated event and
the tracing overhead.  See ``README.md`` for the metrics, the layer to
workload table and why each workload is here.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A call fails
if it raises, if its rows fail the workload's checks, or if its rows or
simulated counts differ from another call of the same seed.  Lines
before it record the program settings and each call's row digest.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: settings that select another program than the default one; the
#: workers run with them unset
PINNED_ENV = ("REPRO_SIM_BACKEND", "REPRO_FRAME_EXEC", "REPRO_JOBS",
              "REPRO_FULL")
#: fresh interpreters timed for ``setup_s``
SETUPS = 5
#: every worker is stopped this long after the benchmark starts
DEADLINE_S = 170.0


class WorkerError(Exception):
    """A worker process failed, timed out or printed no result."""


class Worker:
    """One ``worker.py`` process; set-up is timed to its ``ready`` line."""

    def __init__(self, mode, args, env, seconds=0.0):
        self.mode = mode
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, mode, args.workload, str(args.seed),
             str(seconds)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def ready(self):
        """Seconds from the process start to its ``ready`` line."""
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            raise WorkerError("%s worker did not start (%r)"
                              % (self.mode, line))
        return time.perf_counter() - self.start

    def result(self, deadline):
        """The worker's JSON result line (``None`` for ``setup``)."""
        try:
            out, _ = self.proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise WorkerError("%s worker passed the deadline" % self.mode)
        if self.proc.returncode:
            raise WorkerError("%s worker exited with code %d"
                              % (self.mode, self.proc.returncode))
        if self.mode == "setup":
            return None
        lines = out.splitlines()
        if not lines:
            raise WorkerError("%s worker printed no result" % self.mode)
        return json.loads(lines[-1])

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _worker_env():
    env = dict(os.environ)
    cleared = [name for name in PINNED_ENV if env.pop(name, None) is not None]
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Fixed string hashing, so profiled call counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


def _failures(calls):
    """Calls that failed a row check or disagree with the first call."""
    first = calls[0]
    return sum(1 for call in calls
               if call["problems"] or call["digest"] != first["digest"]
               or call["counts"] != first["counts"])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(timed, setups):
    walls = [call["wall_s"] for call in timed["calls"]]
    return {
        "run_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(timed["peak_rss_mb"], "MB"),
    }


#: units of the simulated counts of ``workloads.sim_counts``
_COUNT_UNITS = {"sim.kernel.events_per_req": "events/req",
                "hw.cpu.runq_depth": "requests",
                "hw.cpu.utilization": "fraction"}


def per_layer(timed, traced):
    profile = traced["profile"]
    total = profile["total_s"]
    metrics = {}
    for layer in layers.LAYERS:
        self_s = profile["self_s"][layer]
        metrics[layer + ".self_s"] = _metric(self_s, "s")
        metrics[layer + ".share"] = _metric(self_s / total, "fraction")
        metrics[layer + ".calls"] = _metric(profile["calls"][layer], "count")
    metrics["other.share"] = _metric(profile["self_s"][layers.OTHER] / total,
                                     "fraction")
    counts = traced["calls"][0]["counts"]
    for name, value in counts.items():
        metrics[name] = _metric(value, _COUNT_UNITS.get(name, "count"))
    untraced_s = timed["calls"][0]["wall_s"]
    metrics["sim.kernel.host_us_per_event"] = _metric(
        1e6 * untraced_s / counts["sim.kernel.events"], "us")
    metrics["trace_overhead"] = _metric(
        traced["calls"][0]["wall_s"] / untraced_s, "ratio")
    return metrics


def measure(args, env):
    """Run the workers; returns (calls, metrics, timed worker's result)."""
    deadline = time.perf_counter() + DEADLINE_S
    workers = []

    def spawn(mode, seconds=0.0):
        workers.append(Worker(mode, args, env, seconds))
        return workers[-1]

    try:
        if args.trace:
            # The traced call takes three to four times as long as an
            # untraced one, so the two run side by side to end in time.
            traced = spawn("traced")
            timed = spawn("timed")
            traced.ready()
            timed.ready()
            timed_out = timed.result(deadline)
            traced_out = traced.result(deadline)
            calls = timed_out["calls"] + traced_out["calls"]
            return calls, per_layer(timed_out, traced_out), timed_out
        setups = []
        for _ in range(SETUPS):
            worker = spawn("setup")
            setups.append(worker.ready())
            worker.result(deadline)
        timed = spawn("timed", args.seconds)
        timed.ready()
        timed_out = timed.result(deadline)
        return timed_out["calls"], end_to_end(timed_out, setups), timed_out
    finally:
        for worker in workers:
            worker.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Host run time of the rack simulator on real "
                    "experiments, with per-layer attribution.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced calls are repeated while another "
                             "fits in this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = workloads.WORKLOADS[args.workload]
    source = os.path.join(ROOT, "src", *module.split(".")) + ".py"
    if not os.path.isfile(source):
        print("perfbench: %s not found; run from the root of a checkout "
              "of the repository" % os.path.relpath(source, ROOT),
              file=sys.stderr)
        return 2

    # A terminated benchmark still stops and reaps its workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env, cleared = _worker_env()
    try:
        calls, metrics, timed = measure(args, env)
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    for index, call in enumerate(calls):
        print("call %d: %s seed=%d rows=%s wall_s=%.3f%s"
              % (index, args.workload, args.seed, call["digest"],
                 call["wall_s"],
                 "".join("\n  problem: " + p for p in call["problems"])))
    info = dict(timed["program"], workload=args.workload, seed=args.seed,
                trace=args.trace, cleared_env=cleared)
    if timed["paper_err_pct"] is not None:
        info["paper_err_pct"] = _metric(timed["paper_err_pct"], "%")
    print("program: " + json.dumps(info, sort_keys=True))
    failed = _failures(calls)
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

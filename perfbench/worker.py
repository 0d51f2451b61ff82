"""One benchmark process: set up, then run a workload untraced or traced.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path::

    python3 perfbench/worker.py {setup,timed,traced} WORKLOAD SEED SECONDS

It prints ``ready`` once ``repro`` and the experiment module are
imported; the parent times set-up up to that line.  ``setup`` exits
there.  ``timed`` calls ``run(fast=True, seed=SEED)`` untraced, and
again while another call still fits in SECONDS (at least once);
``traced`` does the same under cProfile.  Both then print one JSON
line: per-call host times, row digests and simulated counts, the
program settings in force, and for ``traced`` the per-layer profile.
"""

import cProfile
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time


def _digest(rows):
    blob = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _program():
    """Settings of the program under test, as it resolves them."""
    from repro.experiments import sweep
    from repro.sim import environment
    backend = getattr(environment, "active_backend", lambda: "heap")()
    resolve = getattr(environment, "resolve_frame_exec", None)
    return {
        "backend": backend,
        "frame_exec": resolve(backend) if resolve else False,
        "jobs": sweep.active_jobs(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _call(module, seed, profile=None):
    """One ``run()`` call in its own telemetry scope; host time measured."""
    from repro import telemetry
    gc.collect()
    with telemetry.scope() as reg:
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        result = module.run(fast=True, seed=seed)
        if profile is not None:
            profile.disable()
        wall = time.perf_counter() - start
        snap = reg.snapshot()
    return result.rows, snap, wall


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), \
        float(argv[3])
    import workloads
    module = importlib.import_module(workloads.WORKLOADS[workload])
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import layers
    profile = cProfile.Profile() if mode == "traced" else None
    calls = []
    began = time.perf_counter()
    while True:
        rows, snap, wall = _call(module, seed, profile)
        calls.append({
            "wall_s": wall,
            "digest": _digest(rows),
            "counts": workloads.sim_counts(snap),
            "problems": workloads.check_rows(workload, rows),
        })
        if time.perf_counter() - began + wall > seconds:
            break
    out = {
        "calls": calls,
        "paper_err_pct": workloads.paper_err_pct(rows),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "program": _program(),
    }
    if profile is not None:
        profile.create_stats()
        package_dir = os.path.dirname(sys.modules["repro"].__file__)
        self_s, layer_calls, total = layers.bucket(profile.stats,
                                                   package_dir)
        out["profile"] = {"self_s": self_s, "calls": layer_calls,
                          "total_s": total}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's workloads and what it reads from each run.

Each workload is one experiment's public ``run(fast=True, seed=S)``.
This module says which experiment, how its rows are checked, and which
simulated counts are read from the telemetry snapshot the run leaves
behind.  It imports ``repro`` only inside functions, so the benchmark's
driver process can load it without the simulator on its path.
"""

import math

#: workload name -> experiment module
WORKLOADS = {
    "e04-lynx-grid": "repro.experiments.e04_fig6_throughput_grid",
    "e12-memcached-colo": "repro.experiments.e12_fig9_memcached",
    "e18-cluster-vip": "repro.experiments.e18_cluster",
}

#: rows each fast preset produces
_ROW_COUNTS = {"e04-lynx-grid": 4, "e12-memcached-colo": 3,
               "e18-cluster-vip": 6}

#: columns that must be finite and positive in every row
_POSITIVE = {
    "e04-lynx-grid": ("host_centric_krps", "lynx_xeon1", "lynx_xeon6",
                      "lynx_bluefield"),
    "e12-memcached-colo": ("memcached_ktps", "memcached_p99_us",
                           "lenet_krps"),
    "e18-cluster-vip": ("goodput_krps", "p99_us"),
}


def check_rows(workload, rows):
    """Problems found in one run's rows (empty when they are correct)."""
    problems = []
    if len(rows) != _ROW_COUNTS[workload]:
        problems.append("%d rows, expected %d"
                        % (len(rows), _ROW_COUNTS[workload]))
    for index, row in enumerate(rows):
        for column in _POSITIVE[workload]:
            value = row.get(column)
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                problems.append("row %d: %s = %r" % (index, column, value))
    if workload == "e04-lynx-grid":
        problems.extend("row %d: host_centric = %r" % (i, row["host_centric"])
                        for i, row in enumerate(rows)
                        if row.get("host_centric") != 1.0)
    if workload == "e12-memcached-colo":
        findings = paper_findings(rows)
        if len(findings) != len(rows):
            problems.append("%d paper pairs graded, expected %d"
                            % (len(findings), len(rows)))
        problems.extend("row %d: %s %r deviates from paper %r"
                        % (f["row"], f["metric"], f["measured"], f["paper"])
                        for f in findings if f["verdict"] == "DEVIATES")
    return problems


def paper_findings(rows):
    """The scorecard's grades of the rows' ``paper_*`` pairs."""
    from repro.report.scorecard import score_rows
    return score_rows(rows)


def paper_err_pct(rows):
    """Mean relative deviation from the paper, in percent, or ``None``.

    Only rows with ``paper_*`` columns are graded; a workload without
    them has no fidelity figure.
    """
    findings = paper_findings(rows)
    if not findings:
        return None
    return 100.0 * sum(abs(float(f["measured"]) - float(f["paper"]))
                       / abs(float(f["paper"])) for f in findings) \
        / len(findings)


def _matching(snap, prefix, suffix):
    return [s for name, s in snap.items()
            if name.startswith(prefix) and name.endswith(suffix)]


def _total(snap, prefix, suffix, field="value"):
    return sum(s[field] for s in _matching(snap, prefix, suffix))


def _time_weighted(snap, prefix, suffix):
    gauges = _matching(snap, prefix, suffix)
    elapsed = sum(g["elapsed"] for g in gauges)
    return sum(g["area"] for g in gauges) / elapsed if elapsed > 0 else 0.0


def sim_counts(snap):
    """Simulated counts from a run's merged telemetry snapshot.

    Every value is simulated, not host time, so two runs of one seed
    must agree exactly.  Completions are counted where clients resolve
    responses (scalar ``net.client`` and population ``responses``), not
    by ``sim.kernel.requests_completed``, which only the Lynx and
    baseline servers bump.  Both client planes count responses only in
    their measure window, after the experiment's warmup cut, so
    ``events_per_req`` also charges warmup events to measured requests.
    """
    events = snap["sim.kernel.events_processed"]["value"]
    client_responses = _total(snap, "net.client.", ".responses", "count")
    population_responses = _total(snap, "net.population.", ".responses",
                                  "count")
    completions = client_responses + population_responses
    injected = 0
    for s in _matching(snap, "faults.injected.", ""):
        injected += (sum(s["values"].values()) if s["kind"] == "labelled"
                     else s["value"])
    return {
        "sim.kernel.events": events,
        "sim.kernel.events_per_req": (events / completions
                                      if completions else 0.0),
        "net.client.responses": client_responses,
        "net.client.sent": _total(snap, "net.client.", ".sent", "count"),
        "net.client.retries": _total(snap, "net.client.", ".retries"),
        "net.client.timeouts": _total(snap, "net.client.", ".timeouts"),
        "net.population.responses": population_responses,
        "net.population.offered": _total(snap, "net.population.",
                                         ".offered", "count"),
        "net.population.timeouts": _total(snap, "net.population.",
                                          ".timeouts"),
        "sim.channel.drops": (_total(snap, "net.wire.", ".drops")
                              + _total(snap, "net.fabric.", ".drops")
                              + _total(snap, "mqueue.", ".dropped")),
        "lynx.rmq.deliveries": _total(snap, "lynx.rmq.", ".deliveries"),
        "lynx.rmq.sweeps": _total(snap, "lynx.rmq.", ".sweeps"),
        "lynx.mqueue.depth_peak": max(
            [s["value"] for s in _matching(snap, "mqueue.", ".depth")],
            default=0),
        "lynx.server.rx_drops": _total(snap, "lynx.server.", ".rx.drops"),
        "hw.cpu.runq_depth": _time_weighted(snap, "hw.cpu.", ".runq_depth"),
        "hw.cpu.utilization": _time_weighted(snap, "hw.cpu.",
                                             ".utilization"),
        "gpu.kernels": _total(snap, "gpu.", ".kernels"),
        "faults.injected": injected,
    }
